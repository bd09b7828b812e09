import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from hyswap import (
    FIFTY_FIFTY,
    BeamSplitterParams,
    DensityOperator,
    ModeRegister,
    StateVector,
    apply_bs,
    apply_loss,
    apply_loss_dilated,
    bosonic,
    bs_unitary,
    homodyne_grid,
    loss_channel,
    make_coherent,
    make_fock,
    mean_photon,
    measure_and_reduce,
    qubit,
    quadrature_amplitudes,
    reduced_density,
    tensor,
    with_inefficiency,
)
from hyswap.optics import _bs_blocks, bs_on_axes, loss_band


def random_state(reg, rng):
    v = rng.normal(size=(reg.dim, 2)) @ np.array([1.0, 1.0j])
    return StateVector(reg, v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# beam splitter


def ladder(d):
    return np.diag(np.sqrt(np.arange(1, d)), k=1)  # annihilation, d x d


def test_bs_unitary_matches_matrix_exponential():
    """Oracle: exponentiate the generator directly with scipy.

    U = exp((theta/2) (e^{i phi} a†b - e^{-i phi} a b†)) on the product
    basis with the first mode most significant.  Unequal dimensions give
    the photon-number blocks different slot offsets, which a unitarity
    check would not see if they were permuted.
    """
    for d1, d2 in [(6, 6), (3, 7), (7, 3)]:
        a, b = ladder(d1), ladder(d2)
        for theta, phi in [(math.pi / 2, math.pi), (0.7, 0.0), (1.3, 2.1), (2.9, -0.4)]:
            gen = (theta / 2.0) * (
                np.exp(1j * phi) * np.kron(a.T, b) - np.exp(-1j * phi) * np.kron(a, b.T)
            )
            ref = scipy.linalg.expm(gen)
            got = bs_unitary(d1, d2, BeamSplitterParams(theta, phi))
            assert np.abs(got - ref).max() < 1e-12, (d1, d2, theta, phi)


def live_blocks(d1, d2, params):
    """Each photon-number block of the cached stack cut to its live slots."""
    blocks, _, _ = _bs_blocks(d1, d2, params.theta, params.phi)
    for n in range(d1 + d2 - 1):
        m = min(n, d1 - 1) - max(0, n - (d2 - 1)) + 1
        yield n, blocks[n, :m, :m]


@pytest.mark.parametrize("params", [FIFTY_FIFTY] + [BeamSplitterParams.from_transmission(T) for T in (0.0, 0.3, 0.77, 1.0)])
def test_blocks_at_a_real_phase_are_real_orthogonal_and_match_matrix_exponential(params):
    """Oracle: scipy's exponential of each block's generator.  The eigh-exponentiated
    blocks sit up to 1.7e-15 from it here (and up to 1.4e-15 from 40-digit mpmath)."""
    for d1, d2 in [(6, 6), (3, 7), (7, 3)]:
        assert _bs_blocks(d1, d2, params.theta, params.phi)[0].dtype == np.float64
        for n, B in live_blocks(d1, d2, params):
            k = np.arange(max(0, n - (d2 - 1)), min(n, d1 - 1))
            val = np.sqrt((k + 1.0) * (n - k))
            gen = (params.theta / 2.0) * (np.diag(np.exp(1j * params.phi) * val, -1)
                                          - np.diag(np.exp(-1j * params.phi) * val, 1))
            assert np.abs(B @ B.T - np.eye(len(B))).max() < 1e-14
            assert np.abs(B - scipy.linalg.expm(gen)).max() < 4e-15, (d1, d2, n)


def test_blocks_at_a_complex_phase_stay_complex_and_unitary():
    params = BeamSplitterParams(1.1, math.pi / 3)
    assert _bs_blocks(6, 4, params.theta, params.phi)[0].dtype == np.complex128
    for _, B in live_blocks(6, 4, params):
        assert np.abs(B.imag).max(initial=0.0) > 0.1 or len(B) == 1
        assert np.abs(B @ B.conj().T - np.eye(len(B))).max() < 1e-14


def test_real_blocks_on_real_and_complex_input_equal_the_complex_product():
    """Real blocks act on complex columns through their (re, im) float pairs."""
    rng = np.random.default_rng(29)
    params = BeamSplitterParams.from_transmission(0.3)
    U = bs_unitary(5, 4, params).astype(np.complex128)
    for t in (rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))):
        out = bs_on_axes(t, (0, 1), params)
        assert out.dtype == t.dtype
        assert np.abs(out - (U @ t.reshape(20, -1)).reshape(t.shape)).max() < 1e-15


def test_real_block_stack_holds_eight_bytes_an_entry():
    assert _bs_blocks(65, 65, math.pi / 2, math.pi)[0].nbytes == 129 * 65 * 65 * 8


def test_bs_unitary_is_unitary_on_truncated_space():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d1, d2 = rng.integers(2, 7, size=2)
        theta, phi = rng.uniform(0, math.pi, size=2)
        U = bs_unitary(int(d1), int(d2), BeamSplitterParams(theta, phi))
        assert np.abs(U @ U.conj().T - np.eye(d1 * d2)).max() < 1e-13


def test_bs_transmission_mapping():
    p = BeamSplitterParams.from_transmission(0.36)
    assert abs(math.cos(p.theta / 2.0) ** 2 - 0.36) < 1e-15
    assert abs(math.cos(FIFTY_FIFTY.theta / 2.0) ** 2 - 0.5) < 1e-15
    with pytest.raises(ValueError):
        BeamSplitterParams.from_transmission(1.2)


def test_apply_bs_single_photon_splitting():
    reg = ModeRegister((("X", bosonic(3)), ("Y", bosonic(3))))
    out = apply_bs(make_fock(reg, {"X": 1}), "X", "Y", FIFTY_FIFTY)
    v = out.tensor_view()
    s = 1.0 / math.sqrt(2.0)
    assert abs(v[1, 0] - s) < 1e-14
    assert abs(v[0, 1] - s) < 1e-14
    out = apply_bs(make_fock(reg, {"Y": 1}), "X", "Y", FIFTY_FIFTY)
    v = out.tensor_view()
    assert abs(v[0, 1] - s) < 1e-14
    assert abs(v[1, 0] + s) < 1e-14


def test_apply_bs_hong_ou_mandel():
    reg = ModeRegister((("X", bosonic(3)), ("Y", bosonic(3))))
    out = apply_bs(make_fock(reg, {"X": 1, "Y": 1}), "X", "Y", FIFTY_FIFTY)
    v = out.tensor_view()
    assert abs(v[1, 1]) < 1e-14  # coincidences cancel
    assert abs(abs(v[0, 2]) ** 2 - 0.5) < 1e-14
    assert abs(abs(v[2, 0]) ** 2 - 0.5) < 1e-14


def test_apply_bs_on_reversed_non_adjacent_modes_of_unequal_dimension():
    """Oracle: the generator lifted to the whole register by kron, exponentiated by scipy."""
    rng = np.random.default_rng(11)
    reg = ModeRegister((("X", bosonic(2)), ("Q", qubit()), ("Y", bosonic(5))))
    psi = random_state(reg, rng)
    params = BeamSplitterParams(1.1, 0.6)
    a_x = np.kron(ladder(3), np.eye(2 * 6))
    a_y = np.kron(np.eye(3 * 2), ladder(6))
    # Y is the splitter's first mode and X its second
    gen = (params.theta / 2.0) * (
        np.exp(1j * params.phi) * a_y.T @ a_x - np.exp(-1j * params.phi) * a_y @ a_x.T
    )
    ref = scipy.linalg.expm(gen) @ psi.amplitudes
    out = apply_bs(psi, "Y", "X", params)
    assert np.abs(out.amplitudes - ref).max() < 1e-12


def test_apply_bs_conserves_total_photon_number():
    rng = np.random.default_rng(5)
    reg = ModeRegister((("X", bosonic(5)), ("Y", bosonic(5))))
    n_tot = np.add.outer(np.arange(6), np.arange(6))
    for _ in range(10):
        psi = random_state(reg, rng)
        out = apply_bs(psi, "X", "Y", BeamSplitterParams(1.1, 0.6))
        p_in = np.zeros(11)
        p_out = np.zeros(11)
        np.add.at(p_in, n_tot.reshape(-1), np.abs(psi.amplitudes) ** 2)
        np.add.at(p_out, n_tot.reshape(-1), np.abs(out.amplitudes) ** 2)
        assert np.abs(p_in - p_out).max() < 1e-13


def test_apply_bs_coherent_in_coherent_out():
    reg = ModeRegister((("X", bosonic(14)), ("Y", bosonic(14))))
    a, b = 0.5, -0.2 + 0.3j
    from hyswap import fidelity, tensor

    inp = tensor(
        make_coherent(ModeRegister(reg.modes[:1]), "X", a),
        make_coherent(ModeRegister(reg.modes[1:]), "Y", b),
    )
    out = apply_bs(inp, "X", "Y", FIFTY_FIFTY)
    expect = tensor(
        make_coherent(ModeRegister(reg.modes[:1]), "X", (a - b) / math.sqrt(2)),
        make_coherent(ModeRegister(reg.modes[1:]), "Y", (a + b) / math.sqrt(2)),
    )
    assert 1.0 - fidelity(out, expect) < 1e-11


def test_apply_bs_rejects_qubit_modes():
    reg = ModeRegister((("A", qubit()), ("B", bosonic(2))))
    psi = make_fock(reg)
    with pytest.raises(ValueError, match="act only on bosonic modes"):
        apply_bs(psi, "A", "B", FIFTY_FIFTY)


def test_apply_bs_needs_two_distinct_modes():
    psi = make_fock(ModeRegister((("X", bosonic(2)), ("Y", bosonic(2)))))
    with pytest.raises(ValueError, match="two distinct modes"):
        apply_bs(psi, "X", "X", FIFTY_FIFTY)


def test_apply_bs_rejects_density_operator():
    reg = ModeRegister((("X", bosonic(2)), ("Y", bosonic(2))))
    with pytest.raises(TypeError, match="StateVector"):
        apply_bs(DensityOperator(reg, np.eye(reg.dim) / reg.dim), "X", "Y", FIFTY_FIFTY)


def test_bs_inverse_composition():
    reg = ModeRegister((("X", bosonic(5)), ("Y", bosonic(5))))
    rng = np.random.default_rng(21)
    psi = random_state(reg, rng)
    params = BeamSplitterParams(1.234, 0.456)
    back = apply_bs(
        apply_bs(psi, "X", "Y", params),
        "X", "Y", BeamSplitterParams(params.theta, params.phi + math.pi),
    )
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-13


def test_bs_on_axes_leading_axes_of_a_strided_array_match_the_dense_unitary():
    """Leading axes skip np.moveaxis; a strided input is left untouched, and any other
    axis pair gives the same numbers once moved."""
    rng = np.random.default_rng(23)
    params = BeamSplitterParams(0.9, 0.4)
    t = (rng.normal(size=(3, 4, 5, 2)) + 1j * rng.normal(size=(3, 4, 5, 2))).transpose(0, 2, 3, 1)
    before = t.copy()
    out = bs_on_axes(t, (0, 1), params)  # splitter on (3, 5), rest (2, 4) strided
    ref = (bs_unitary(3, 5, params) @ t.reshape(15, -1)).reshape(t.shape)
    assert np.abs(out - ref).max() < 1e-13
    assert np.array_equal(t, before)
    moved = bs_on_axes(np.moveaxis(t, (0, 1), (3, 1)), (3, 1), params)
    assert np.array_equal(np.moveaxis(moved, (3, 1), (0, 1)), out)


# ---------------------------------------------------------------------------
# loss channel


@pytest.mark.parametrize("c", [5, 16, 60])
@pytest.mark.parametrize("T", [0.7, 0.0, 1.0])
def test_loss_kraus_binomial_elements(c, T):
    ch = loss_channel(T, c)
    for k, A in enumerate(ch):
        for n in range(c + 1):
            m = n - k
            if m < 0:
                expect = 0.0
            else:
                expect = math.sqrt(
                    math.comb(n, k) * (1 - T) ** k * T**m
                )
            got = A[m, n] if m >= 0 else 0.0
            assert abs(got - expect) < 1e-15, (k, n)


def test_loss_kraus_completeness():
    for T in (0.0, 0.3, 0.85, 1.0):
        ch = loss_channel(T, 6)
        total = sum(A.conj().T @ A for A in ch)
        assert np.abs(total - np.eye(7)).max() < 1e-14, T


def test_loss_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(17)
    reg = ModeRegister((("M", bosonic(6)),))
    for _ in range(10):
        psi = random_state(reg, rng)
        rho = DensityOperator(reg, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        out = apply_loss(rho, "M", float(rng.uniform()))
        assert abs(out.trace() - 1.0) < 1e-14
        assert out.hermiticity_defect() < 1e-14


def test_loss_scales_mean_photon_exactly():
    # sum_k (n-k) C(n,k) (1-T)^k T^{n-k} = n T holds on the truncated space
    reg = ModeRegister((("M", bosonic(8)),))
    rng = np.random.default_rng(2)
    n_op = np.arange(9)
    for T in (0.25, 0.6, 0.95):
        psi = random_state(reg, rng)
        rho = DensityOperator(reg, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        before = float(np.real(np.diag(rho.matrix)) @ n_op)
        out = apply_loss(rho, "M", T)
        after = float(np.real(np.diag(out.matrix)) @ n_op)
        assert abs(after - T * before) < 1e-13


def test_loss_on_coherent_state_shrinks_amplitude():
    alpha, T = 0.8, 0.6
    reg = ModeRegister((("M", bosonic(16)),))
    rho_in = make_coherent(reg, "M", alpha)
    rho = DensityOperator(reg, np.outer(rho_in.amplitudes, rho_in.amplitudes.conj()))
    out = apply_loss(rho, "M", T)
    target = make_coherent(reg, "M", math.sqrt(T) * alpha).amplitudes
    fid = float(np.real(target.conj() @ out.matrix @ target))
    assert fid > 1.0 - 1e-10


def test_loss_endpoints():
    reg = ModeRegister((("M", bosonic(4)),))
    psi = make_fock(reg, {"M": 3})
    rho = DensityOperator(reg, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    ident = apply_loss(rho, "M", 1.0)
    assert np.abs(ident.matrix - rho.matrix).max() < 1e-15
    dead = apply_loss(rho, "M", 0.0)
    vac = np.zeros((5, 5))
    vac[0, 0] = 1.0
    assert np.abs(dead.matrix - vac).max() < 1e-15


def test_loss_dilated_route_agrees():
    rng = np.random.default_rng(31)
    # the lossy mode last, first, then between two modes, so both routes move the
    # mode's axes; the Kraus sum over operators lifted by kron checks those moves
    for reg in (
        ModeRegister((("A", qubit()), ("M", bosonic(5)))),
        ModeRegister((("M", bosonic(5)), ("B", bosonic(3)))),
        ModeRegister((("A", qubit()), ("M", bosonic(5)), ("B", bosonic(2)))),
    ):
        for _ in range(8):
            psi = random_state(reg, rng)
            rho = DensityOperator(reg, np.outer(psi.amplitudes, psi.amplitudes.conj()))
            T = float(rng.uniform())
            a = apply_loss(rho, "M", T).matrix
            b = apply_loss_dilated(rho, "M", T).matrix
            assert np.abs(a - b).max() < 1e-13
            lifted = [
                reduce(np.kron, [A if name == "M" else np.eye(d) for name, d in zip(reg.names, reg.dims)])
                for A in loss_channel(T, 5)
            ]
            ref = sum(L @ rho.matrix @ L.conj().T for L in lifted)
            assert np.abs(a - ref).max() < 1e-13


@pytest.mark.parametrize("T", [0.0, 0.37, 1.0])
def test_loss_on_a_mixed_state_matches_the_lifted_kraus_sum(T):
    """A rank-3 rho, with the lossy mode first, between two modes and last."""
    rng = np.random.default_rng(53)
    kraus = loss_channel(T, 5)
    for reg in (
        ModeRegister((("M", bosonic(5)), ("B", bosonic(3)))),
        ModeRegister((("A", qubit()), ("M", bosonic(5)), ("B", bosonic(2)))),
        ModeRegister((("A", qubit()), ("M", bosonic(5)))),
    ):
        psis = [random_state(reg, rng).amplitudes for _ in range(3)]
        rho = DensityOperator(reg, sum(w * np.outer(p, p.conj()) for w, p in zip((0.5, 0.3, 0.2), psis)))
        lifted = [
            reduce(np.kron, [A if name == "M" else np.eye(d) for name, d in zip(reg.names, reg.dims)])
            for A in kraus
        ]
        ref = sum(L @ rho.matrix @ L.conj().T for L in lifted)
        assert np.abs(apply_loss(rho, "M", T).matrix - ref).max() < 1e-14


def test_loss_matches_pure_splitter_with_vacuum_environment():
    """Oracle: the physical dilation, with no Kraus sum at all.

    Append a vacuum environment mode, send the lossy mode and it through a
    transmission-T splitter on the pure state, and trace the environment
    out with reduced_density.
    """
    rng = np.random.default_rng(47)
    env = make_fock(ModeRegister((("E", bosonic(5)),)))
    for reg in (
        ModeRegister((("A", qubit()), ("M", bosonic(5)))),
        ModeRegister((("M", bosonic(5)), ("B", bosonic(3)))),
    ):
        for _ in range(6):
            psi = random_state(reg, rng)
            rho = DensityOperator(reg, np.outer(psi.amplitudes, psi.amplitudes.conj()))
            T = float(rng.uniform())
            joint = apply_bs(tensor(psi, env), "M", "E", BeamSplitterParams.from_transmission(T))
            ref = reduced_density(joint, list(reg.names)).matrix
            assert np.abs(apply_loss(rho, "M", T).matrix - ref).max() < 1e-13
            assert np.abs(apply_loss_dilated(rho, "M", T).matrix - ref).max() < 1e-13


def test_loss_channel_validation():
    rho = DensityOperator(ModeRegister((("A", qubit()), ("M", bosonic(4)))), np.eye(10) / 10)
    for T in (1.5, -0.1, math.nan):
        for route in (loss_channel, apply_loss, apply_loss_dilated):
            with pytest.raises(ValueError, match="transmission"):
                route(T, 4) if route is loss_channel else route(rho, "M", T)
    for route in (apply_loss, apply_loss_dilated):
        with pytest.raises(ValueError, match="bosonic"):
            route(rho, "A", 0.5)
    for T in (0.5, 1.0):
        with pytest.raises(ValueError, match="at least one level, got 0 levels"):
            loss_channel(T, -1)
        with pytest.raises(ValueError, match="at least one level, got 0 levels"):
            loss_band(T, 0)


@pytest.mark.parametrize("route", [apply_loss, apply_loss_dilated])
def test_real_loss_on_a_middle_mode_is_the_complex_computation(route):
    """A real rho runs in float64 on a mode between two others; the result is still a complex128
    DensityOperator, within 1e-15 of the same band sum taken in complex128 (on i rho, whose
    imaginary part sends it down the complex route) and of the lifted Kraus sum."""
    rng = np.random.default_rng(59)
    reg = ModeRegister((("A", qubit()), ("M", bosonic(5)), ("B", bosonic(2))))
    v = rng.normal(size=(reg.dim, 3))
    rho = DensityOperator(reg, v @ np.diag([0.5, 0.3, 0.2]) @ v.T / np.linalg.norm(v) ** 2)
    out = route(rho, "M", 0.37)
    assert isinstance(out, DensityOperator) and out.matrix.dtype == np.complex128
    assert not out.matrix.imag.any()
    complex_route = route(DensityOperator(reg, 1j * rho.matrix), "M", 0.37).matrix / 1j
    assert np.abs(out.matrix - complex_route).max() <= 1e-15
    lifted = [reduce(np.kron, [np.eye(2), A, np.eye(3)]) for A in loss_channel(0.37, 5)]
    assert np.abs(out.matrix - sum(L @ rho.matrix @ L.conj().T for L in lifted)).max() <= 1e-15


# ---------------------------------------------------------------------------
# detectors


def test_with_inefficiency_passthrough_and_povm():
    n = np.arange(7)
    spd = [n == 0, n == 1, n >= 2]
    same = [with_inefficiency(w, 1.0) for w in spd]
    assert all(a.dtype == np.float64 and np.array_equal(a, w) for a, w in zip(same, spd))  # T' = 1 is the identity map
    assert np.array_equal(sum(same), np.ones(7))  # the ideal outcomes are complete
    degraded = [with_inefficiency(w, 0.55) for w in spd]
    assert np.abs(sum(degraded) - 1.0).max() < 1e-14  # still a POVM
    assert all(np.any((w > 0) & (w < 1)) for w in degraded[1:])  # no longer 0/1


def test_with_inefficiency_off_element_closed_form():
    # no-click probability on |n> behind a T' loss is (1 - T')^n
    tp = 0.7
    off = with_inefficiency(np.arange(7) == 0, tp)
    expect = (1.0 - tp) ** np.arange(7)
    assert np.abs(off - expect).max() < 1e-14


def test_with_inefficiency_builds_no_kraus_stack_at_cutoff_200():
    """The survival map comes from the d(d+1)/2 band elements, not a (d, d, d)
    Kraus stack (248.6 MiB on this on/off pair when built from ``loss_channel``)."""
    import tracemalloc

    n = np.arange(201)
    with_inefficiency(n == 0, 0.6)
    tracemalloc.start()
    try:
        degraded = [with_inefficiency(w, 0.6) for w in (n == 0, n >= 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.abs(degraded[0] - 0.4 ** n).max() < 1e-14
    assert np.abs(degraded[0] + degraded[1] - 1.0).max() < 1e-14


def test_with_inefficiency_range_check():
    for tp in (1.2, -0.1, math.nan):
        with pytest.raises(ValueError, match="efficiency"):
            with_inefficiency(np.arange(4) == 0, tp)


# ---------------------------------------------------------------------------
# quadrature amplitudes and homodyne pieces


def test_quadrature_amplitudes_match_hermite_functions():
    xs = np.linspace(-4.0, 4.0, 17)
    dim = 15
    V = quadrature_amplitudes(xs, dim, 0.0)
    for n in range(dim):
        ref = (
            math.pi**-0.25
            / math.sqrt(2.0**n * math.factorial(n))
            * scipy.special.eval_hermite(n, xs)
            * np.exp(-0.5 * xs**2)
        )
        assert np.abs(V[n] - ref).max() < 1e-12, n


def test_quadrature_phase_convention():
    xs = np.array([0.7])
    dim = 6
    theta = 1.1
    V0 = quadrature_amplitudes(xs, dim, 0.0)
    Vt = quadrature_amplitudes(xs, dim, theta)
    phases = np.exp(-1j * theta * np.arange(dim))
    assert np.abs(Vt - V0 * phases[:, None]).max() < 1e-15


def test_quadrature_orthonormality_under_grid():
    # window wide enough that the psi_n tails beyond x_max are negligible
    xs, ws = homodyne_grid(9.0, 301)
    V = quadrature_amplitudes(xs, 8, math.pi / 2)
    gram = (V * ws) @ V.conj().T
    assert np.abs(gram - np.eye(8)).max() < 1e-12
    # on the default [-6, 6] window the deficit is exactly the tail mass
    xs, ws = homodyne_grid(6.0, 201)
    V = quadrature_amplitudes(xs, 8, math.pi / 2)
    gram = (V * ws) @ V.conj().T
    assert np.abs(gram - np.eye(8)).max() < 1e-7


def test_quadrature_mean_of_coherent_state():
    # <x_theta> = sqrt(2) Re(alpha e^{-i theta})
    xs, ws = homodyne_grid(7.0, 161)
    reg = ModeRegister((("M", bosonic(20)),))
    alpha = 0.6 + 0.3j
    for theta in (0.0, math.pi / 2):
        V = quadrature_amplitudes(xs, 21, theta)
        amp = make_coherent(reg, "M", alpha).amplitudes
        proj = V.T @ amp  # <x|psi> on the grid
        mean = float(np.real(np.sum(ws * xs * np.abs(proj) ** 2)))
        expect = math.sqrt(2.0) * (alpha * np.exp(-1j * theta)).real
        assert abs(mean - expect) < 1e-9, theta


def test_homodyne_grid_properties():
    xs, ws = homodyne_grid(6.0, 201)
    assert xs.size == ws.size == 201
    assert abs(ws.sum() - 12.0) < 1e-12
    assert np.abs(xs + xs[::-1]).max() < 1e-12  # symmetric nodes
    with pytest.raises(ValueError):
        homodyne_grid(-1.0, 5)
    with pytest.raises(ValueError):
        homodyne_grid(6.0, 0)


# ---------------------------------------------------------------------------
# measure_and_reduce


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(41)
    reg = ModeRegister((("A", qubit()), ("B", bosonic(3)), ("C", qubit())))
    psi = random_state(reg, rng)
    total = 0.0
    for n in range(4):
        p, rho = measure_and_reduce(psi, {"B": np.arange(4) == n}, ["A", "C"])
        total += p
        if p > 1e-12:
            assert abs(rho.trace() - 1.0) < 1e-12
    assert abs(total - 1.0) < 1e-13


def test_measure_matches_direct_slice():
    rng = np.random.default_rng(43)
    reg = ModeRegister((("A", qubit()), ("B", bosonic(3))))
    psi = random_state(reg, rng)
    n = 2
    p, rho = measure_and_reduce(psi, {"B": np.arange(4) == n}, ["A"])
    block = psi.tensor_view()[:, n]
    assert abs(p - float(np.vdot(block, block).real)) < 1e-14
    ref = np.outer(block, block.conj()) / p
    assert np.abs(rho.matrix - ref).max() < 1e-13


def test_measure_povm_element_agrees_with_projector_decomposition():
    # a fractional-weight element sum_n w_n |n><n| acts as that mixture of projectors
    rng = np.random.default_rng(47)
    reg = ModeRegister((("A", qubit()), ("B", bosonic(4))))
    psi = random_state(reg, rng)
    w = with_inefficiency(np.arange(5) == 1, 0.6)
    assert np.any((w > 0) & (w < 1))
    p, rho = measure_and_reduce(psi, {"B": w}, ["A"])
    cols = psi.tensor_view()  # (A, B)
    assert abs(p - sum(w[n] * np.vdot(cols[:, n], cols[:, n]).real for n in range(5))) < 1e-14
    ref = sum(w[n] * np.outer(cols[:, n], cols[:, n].conj()) for n in range(5)) / p
    assert np.abs(rho.matrix - ref).max() < 1e-12


@pytest.mark.parametrize("bad", [np.ones((2, 2)), [0.5, -0.1, 1.0], [0.5, math.nan, 1.0], np.array([])],
                         ids=["2-D", "negative", "nan", "empty"])
def test_bad_detector_weights_are_rejected(bad):
    psi = make_fock(ModeRegister((("A", qubit()), ("B", bosonic(2)))))
    for T_prime in (0.5, 1.0):
        with pytest.raises(ValueError, match="weights"):
            with_inefficiency(bad, T_prime)
    with pytest.raises(ValueError, match="weights"):
        measure_and_reduce(psi, {"B": bad}, ["A"])


def test_measure_dimension_mismatch():
    psi = make_fock(ModeRegister((("B", bosonic(5)),)))
    with pytest.raises(ValueError, match="wrong dimension"):
        measure_and_reduce(psi, {"B": np.arange(4) == 0}, ["B"])


def test_measure_returns_the_zero_matrix_when_the_probability_underflows():
    """A |1>_B amplitude of 1e-152 gives p = 1e-304, at or below the 1e-290 floor: the state is
    zero, not the unnormalized 1e-304 matrix; 1e-144 gives p = 1e-288, above it, a unit trace."""
    reg = ModeRegister((("A", qubit()), ("B", bosonic(1))))
    for amp, live in ((1e-152, False), (1e-144, True)):
        psi = StateVector(reg, np.array([1.0, amp, 0.0, 0.0]))
        p, rho = measure_and_reduce(psi, {"B": np.arange(2) == 1}, ["A"])
        assert p == amp * amp
        if live:
            assert rho.trace() == 1.0
        else:
            assert not rho.matrix.any()


def test_homodyne_grid_is_scaled_gauss_legendre():
    xs, ws = homodyne_grid(5.0, 41)
    nodes, weights = np.polynomial.legendre.leggauss(41)
    assert np.array_equal(xs, nodes * 5.0)
    assert np.array_equal(ws, weights * 5.0)
    xs[0] = ws[0] = 0.0  # each call hands out fresh arrays
    again = homodyne_grid(5.0, 41)
    assert again[0][0] == nodes[0] * 5.0 and again[1][0] == weights[0] * 5.0
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="x_max"):
            homodyne_grid(bad, 5)
