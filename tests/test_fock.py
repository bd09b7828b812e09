import math

import numpy as np
import pytest

from hyswap import (
    DensityOperator,
    ModeRegister,
    StateVector,
    bosonic,
    coherent_tail_mass,
    fidelity,
    make_coherent,
    make_fock,
    make_hybrid_pair,
    make_vsp_bell,
    mean_photon,
    overlap,
    qubit,
    reduced_density,
    tensor,
)


def two_mode(c1=4, c2=4):
    return ModeRegister((("X", bosonic(c1)), ("Y", bosonic(c2))))


def test_register_basics():
    reg = ModeRegister((("A", qubit()), ("B", bosonic(3))))
    assert reg.names == ("A", "B")
    assert reg.dims == (2, 4)
    assert reg.dim == 8
    assert reg.axis("B") == 1
    assert reg.spec("A").dim == 2


def test_register_rejects_duplicate_names():
    with pytest.raises(ValueError):
        ModeRegister((("A", qubit()), ("A", bosonic(2))))


def test_mode_spec_validation():
    from hyswap import ModeKind, ModeSpec

    with pytest.raises(ValueError):
        bosonic(0)
    with pytest.raises(ValueError, match="carry no cutoff"):
        ModeSpec(ModeKind.QUBIT, 3)
    assert qubit().cutoff is None
    assert bosonic(5).dim == 6


def test_fock_state_indexing():
    """First mode is the most significant index, occupations ascend."""
    reg = two_mode(2, 3)
    psi = make_fock(reg, {"X": 1, "Y": 2})
    idx = 1 * 4 + 2
    expect = np.zeros(12)
    expect[idx] = 1.0
    assert np.array_equal(psi.amplitudes.real, expect)
    assert psi.norm_sq() == 1.0
    assert psi.norm_deficit == 0.0


def test_fock_default_is_vacuum():
    reg = two_mode()
    psi = make_fock(reg)
    assert psi.amplitudes[0] == 1.0
    assert np.abs(psi.amplitudes[1:]).max() == 0.0


def test_fock_occupation_out_of_range():
    reg = two_mode(2, 2)
    with pytest.raises(ValueError, match="occupation out of range"):
        make_fock(reg, {"X": 3})
    with pytest.raises(ValueError, match="unknown mode"):
        make_fock(reg, {"Z": 0})


def test_state_vector_shape_check():
    reg = two_mode(2, 2)
    with pytest.raises(ValueError):
        StateVector(reg, np.zeros(5))


def test_coherent_amplitudes_match_direct_formula():
    # independent evaluation with explicit factorials
    alpha = 0.6 - 0.2j
    reg = ModeRegister((("X", bosonic(10)),))
    psi = make_coherent(reg, "X", alpha)
    for n in range(11):
        ref = (
            math.exp(-abs(alpha) ** 2 / 2.0)
            * alpha**n
            / math.sqrt(math.factorial(n))
        )
        assert abs(psi.amplitudes[n] - ref) < 1e-15


def test_coherent_norm_and_deficit_account_for_everything():
    for alpha, cutoff in [(0.3, 4), (0.7, 8), (1.5, 6), (2.0, 12)]:
        reg = ModeRegister((("X", bosonic(cutoff)),))
        psi = make_coherent(reg, "X", alpha)
        assert abs(psi.norm_sq() + psi.norm_deficit - 1.0) < 1e-14, (alpha, cutoff)


def test_coherent_overlap_formula():
    # <a|b> = exp(-(|a|^2+|b|^2)/2 + conj(a) b), up to truncation tails
    reg = ModeRegister((("X", bosonic(25)),))
    a, b = 0.5 + 0.4j, -0.3 + 0.2j
    got = overlap(make_coherent(reg, "X", a), make_coherent(reg, "X", b))
    ref = np.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2.0 + np.conj(a) * b)
    assert abs(got - ref) < 1e-13


def test_coherent_tail_mass_matches_poisson_remainder():
    alpha = 1.2
    mu = alpha**2
    for cutoff in (3, 6, 10):
        head = sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(cutoff + 1))
        assert abs(coherent_tail_mass(alpha, cutoff) - (1.0 - head)) < 1e-14
    # no cancellation: a tail far below machine epsilon is still positive
    tiny = coherent_tail_mass(0.3, 20)
    assert 0.0 < tiny < 1e-30
    assert coherent_tail_mass(0.0, 5) == 0.0


def test_coherent_tail_mass_matches_incomplete_gamma():
    # P(n > cutoff) for a Poisson mean |alpha|^2 is the regularized P(cutoff + 1, |alpha|^2)
    mpmath = pytest.importorskip("mpmath")
    cases = [(alpha, cutoff) for alpha in (0.5, 5.0, 20.0, 27.5, 30.0) for cutoff in (4, 12, 40)]
    # exp(-|alpha|^2) underflows while the cutoff is above the Poisson mode
    cases += [(27.2, 800), (28.0, 800)]
    # the Poisson mode just above the cutoff, where head terms have logs of size ~5000
    cases += [(26.46, 699), (26.5, 701)]
    for alpha, cutoff in cases:
        want = float(mpmath.gammainc(cutoff + 1, 0, mpmath.mpf(alpha) ** 2, regularized=True))
        assert coherent_tail_mass(alpha, cutoff) == pytest.approx(want, rel=1e-13), (alpha, cutoff)


def test_coherent_deficit_accounts_for_everything_at_large_alpha():
    # exp(-|alpha|^2) underflows here, so every stored amplitude is zero
    psi = make_coherent(ModeRegister((("X", bosonic(12)),)), "X", 30.0)
    assert psi.norm_sq() == 0.0
    assert psi.norm_sq() + psi.norm_deficit == pytest.approx(1.0, abs=1e-14)


def test_coherent_requires_bosonic_mode():
    reg = ModeRegister((("A", qubit()),))
    with pytest.raises(ValueError):
        make_coherent(reg, "A", 0.3)


def _cat(reg, mode, alpha, sign):
    """N(|b> + sign |-b>), b = sqrt(2) alpha, from two coherent states as the demos build it."""
    b = math.sqrt(2.0) * alpha
    v = make_coherent(reg, mode, b).amplitudes + sign * make_coherent(reg, mode, -b).amplitudes
    y = 2.0 * b * b
    return v / math.sqrt(2.0 + 2.0 * math.exp(-y) if sign > 0 else -2.0 * math.expm1(-y))


def test_cat_parity_structure():
    # the branches cancel exactly only if make_coherent(-b) is (-1)^n make_coherent(b) bit for bit
    reg = ModeRegister((("X", bosonic(20)),))
    even = _cat(reg, "X", 0.5, 1.0)
    odd = _cat(reg, "X", 0.5, -1.0)
    assert np.abs(even[1::2]).max() == 0.0  # exactly, not approximately
    assert np.abs(odd[0::2]).max() == 0.0
    assert abs(np.vdot(even, even).real - 1.0) < 1e-14
    assert abs(np.vdot(odd, odd).real - 1.0) < 1e-14


def test_odd_cat_survives_small_amplitude():
    """The 2 - 2 e^{-y} normalization must not cancel catastrophically."""
    reg = ModeRegister((("X", bosonic(6)),))
    odd = _cat(reg, "X", 1e-4, -1.0)
    assert abs(np.vdot(odd, odd).real - 1.0) < 1e-12
    # an infinitesimal odd cat is the single-photon state
    assert abs(abs(odd[1]) - 1.0) < 1e-7


def test_hybrid_pair_reduced_qubit_coherence():
    # tracing the bosonic half leaves I/2 + (e^{-2 a^2}/2) sigma_x
    alpha = 0.5
    reg = ModeRegister((("A", qubit()), ("B", bosonic(12))))
    pair = make_hybrid_pair(reg, "A", "B", alpha)
    rho = reduced_density(pair, ["A"])
    s = math.exp(-2.0 * alpha**2)
    expect = np.array([[0.5, s / 2.0], [s / 2.0, 0.5]])
    assert np.abs(rho.matrix - expect).max() < 1e-12


def test_hybrid_pair_mode_kind_checks():
    reg = ModeRegister((("A", qubit()), ("B", bosonic(4))))
    with pytest.raises(ValueError):
        make_hybrid_pair(reg, "B", "A", 0.3)


def test_vsp_bell_table():
    reg = ModeRegister((("A", qubit()), ("C", qubit())))
    psi_p = make_vsp_bell(reg, "A", "C", "psi+")
    assert np.allclose(psi_p.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    phi_m = make_vsp_bell(reg, "A", "C", "phi-")
    assert np.allclose(phi_m.amplitudes, np.array([0, 1, -1, 0]) / np.sqrt(2))
    # the four form an orthonormal set
    labels = ["psi+", "psi-", "phi+", "phi-"]
    vs = [make_vsp_bell(reg, "A", "C", w) for w in labels]
    gram = np.array([[overlap(u, v) for v in vs] for u in vs])
    assert np.abs(gram - np.eye(4)).max() < 1e-15
    with pytest.raises(ValueError, match="unknown Bell label"):
        make_vsp_bell(reg, "A", "C", "sigma+")


def test_vsp_bell_on_bosonic_modes():
    reg = ModeRegister((("B", bosonic(3)), ("D", bosonic(3))))
    psi = make_vsp_bell(reg, "B", "D", "phi+")
    assert abs(psi.amplitudes[0 * 4 + 1] - 1 / math.sqrt(2)) < 1e-15
    assert abs(psi.amplitudes[1 * 4 + 0] - 1 / math.sqrt(2)) < 1e-15


def test_tensor_concatenates_registers():
    a = make_fock(ModeRegister((("A", qubit()),)), {"A": 1})
    b = make_coherent(ModeRegister((("B", bosonic(6)),)), "B", 0.4)
    ab = tensor(a, b)
    assert ab.register.names == ("A", "B")
    view = ab.tensor_view()
    assert np.abs(view[0]).max() == 0.0
    assert np.allclose(view[1], b.amplitudes)
    with pytest.raises(ValueError, match="duplicate mode name"):
        tensor(a, make_fock(ModeRegister((("A", qubit()),))))


def test_tensor_combines_norm_deficits():
    # survival probabilities multiply: 1-d = (1-da)(1-db)
    ra = ModeRegister((("X", bosonic(3)),))
    rb = ModeRegister((("Y", bosonic(3)),))
    a = make_coherent(ra, "X", 1.0)
    b = make_coherent(rb, "Y", 0.8)
    da, db = a.norm_deficit, b.norm_deficit
    assert abs(tensor(a, b).norm_deficit - (da + db - da * db)) < 1e-16


def test_reduced_density_matches_explicit_trace():
    rng = np.random.default_rng(11)
    reg = ModeRegister((("A", qubit()), ("B", bosonic(2)), ("C", bosonic(3))))
    # Tr over the other modes of |psi><psi|, one explicit einsum per kept set
    traces = {
        ("A",): "abc,dbc->ad",
        ("B",): "abc,aec->be",
        ("A", "C"): "abc,dbf->acdf",
        ("B", "C"): "abc,aef->bcef",
    }
    for _ in range(20):
        v = rng.normal(size=(reg.dim, 2)) @ np.array([1.0, 1.0j])
        v /= np.linalg.norm(v)
        t = v.reshape(reg.dims)
        for kept, sub in traces.items():
            ref = np.einsum(sub, t, t.conj())
            ref = ref.reshape(math.isqrt(ref.size), -1)
            for keep in (list(kept), list(reversed(kept))):
                out = reduced_density(StateVector(reg, v), keep)
                assert out.register.names == kept
                assert np.abs(out.matrix - ref).max() < 1e-14


def test_reduced_density_preserves_register_order():
    reg = ModeRegister((("A", qubit()), ("B", bosonic(2)), ("C", qubit())))
    psi = make_fock(reg, {"A": 1, "B": 2, "C": 0})
    out = reduced_density(psi, ["C", "A"])  # request order reversed on purpose
    assert out.register.names == ("A", "C")
    expect = np.zeros((4, 4))
    expect[2, 2] = 1.0  # |A=1, C=0>, not |C=1, A=0> at index 1
    assert np.array_equal(out.matrix, expect)


def test_reduced_density_unknown_mode():
    psi = make_fock(two_mode(2, 2))
    with pytest.raises(ValueError, match="unknown mode"):
        reduced_density(psi, ["Q"])


def test_reduced_density_of_product_state_is_pure():
    # trace carries the truncated norm, it is not silently rescaled to 1
    reg = ModeRegister((("A", qubit()), ("B", bosonic(5))))
    psi = make_coherent(reg, "B", 0.7)
    rho = reduced_density(psi, ["A"])
    assert abs(rho.matrix[0, 0] - psi.norm_sq()) < 1e-15
    assert abs(rho.trace() + psi.norm_deficit - 1.0) < 1e-14
    assert rho.hermiticity_defect() < 1e-16


def test_overlap_register_mismatch():
    a = make_fock(ModeRegister((("X", bosonic(2)),)))
    b = make_fock(ModeRegister((("Y", bosonic(2)),)))
    with pytest.raises(ValueError, match="register mismatch"):
        overlap(a, b)


def test_fidelity_normalizes_and_rejects_null():
    reg = ModeRegister((("X", bosonic(8)),))
    psi = make_coherent(reg, "X", 0.4)
    scaled = StateVector(reg, 0.5 * psi.amplitudes)
    assert abs(fidelity(psi, scaled) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        fidelity(psi, StateVector(reg, np.zeros(9)))


def test_mean_photon():
    reg = two_mode(6, 6)
    psi = make_fock(reg, {"X": 3, "Y": 1})
    assert mean_photon(psi, "X") == 3.0
    assert mean_photon(psi, "Y") == 1.0
    coh = make_coherent(ModeRegister((("X", bosonic(30)),)), "X", 1.1)
    assert abs(mean_photon(coh, "X") - 1.1**2) < 1e-12


def test_density_operator_trace_and_normalization():
    reg = ModeRegister((("A", qubit()),))
    rho = DensityOperator(reg, 0.25 * np.eye(2))
    assert abs(rho.trace() - 0.5) < 1e-15
    assert abs(rho.normalized().trace() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        DensityOperator(reg, np.zeros((2, 2))).normalized()


def test_coherent_tail_mass_rejects_non_finite_amplitude():
    # the upward sum's exit tests are never met for NaN, so it must not start
    for bad in (float("nan"), float("inf"), complex(0.3, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            coherent_tail_mass(bad, 4)
