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
    make_cat,
    make_coherent,
    make_fock,
    make_hybrid_pair,
    make_vsp_bell,
    mean_photon,
    overlap,
    partial_trace,
    promote_qubit,
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
    for alpha in (0.5, 5.0, 20.0, 27.5, 30.0):
        for cutoff in (4, 12, 40):
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


def test_cat_parity_structure():
    reg = ModeRegister((("X", bosonic(11)),))
    even = make_cat(reg, "X", 0.5, "+")
    odd = make_cat(reg, "X", 0.5, "-")
    assert np.abs(even.amplitudes[1::2]).max() == 0.0  # exactly, not approximately
    assert np.abs(odd.amplitudes[0::2]).max() == 0.0
    assert abs(even.norm_sq() + even.norm_deficit - 1.0) < 1e-14
    assert abs(odd.norm_sq() + odd.norm_deficit - 1.0) < 1e-14


def test_cat_matches_normalized_branch_sum():
    alpha = 0.6
    reg = ModeRegister((("X", bosonic(14)),))
    branch = math.sqrt(2.0) * alpha
    plus = make_coherent(reg, "X", branch).amplitudes
    minus = make_coherent(reg, "X", -branch).amplitudes
    y = 4.0 * alpha**2
    n_even = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-y))
    n_odd = 1.0 / math.sqrt(2.0 - 2.0 * math.exp(-y))
    assert np.abs(make_cat(reg, "X", alpha, "+").amplitudes - n_even * (plus + minus)).max() < 1e-14
    assert np.abs(make_cat(reg, "X", alpha, "-").amplitudes - n_odd * (plus - minus)).max() < 1e-14


def test_odd_cat_survives_small_amplitude():
    """The 2 - 2 e^{-y} normalization must not cancel catastrophically."""
    reg = ModeRegister((("X", bosonic(6)),))
    odd = make_cat(reg, "X", 1e-4, "-")
    assert abs(odd.norm_sq() + odd.norm_deficit - 1.0) < 1e-12
    # an infinitesimal odd cat is the single-photon state
    assert abs(abs(odd.amplitudes[1]) - 1.0) < 1e-7


def test_cat_argument_validation():
    reg = ModeRegister((("X", bosonic(4)),))
    with pytest.raises(ValueError, match="odd cat undefined"):
        make_cat(reg, "X", 0.0, "-")
    with pytest.raises(ValueError):
        make_cat(reg, "X", 0.5, "x")


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


def test_partial_trace_matches_reduced_density():
    rng = np.random.default_rng(11)
    reg = ModeRegister((("A", qubit()), ("B", bosonic(2)), ("C", bosonic(3))))
    for _ in range(20):
        v = rng.normal(size=(reg.dim, 2)) @ np.array([1.0, 1.0j])
        v /= np.linalg.norm(v)
        psi = StateVector(reg, v)
        rho_full = DensityOperator(reg, np.outer(v, v.conj()))
        for keep in (["A"], ["B"], ["A", "C"], ["C", "B"]):
            a = partial_trace(rho_full, keep).matrix
            b = reduced_density(psi, keep).matrix
            assert np.abs(a - b).max() < 1e-14


def test_partial_trace_preserves_register_order():
    reg = ModeRegister((("A", qubit()), ("B", bosonic(2)), ("C", qubit())))
    rho = DensityOperator(reg, np.eye(reg.dim) / reg.dim)
    out = partial_trace(rho, ["C", "A"])  # request order reversed on purpose
    assert out.register.names == ("A", "C")
    assert abs(out.trace() - 1.0) < 1e-15


def test_partial_trace_unknown_mode():
    reg = two_mode(2, 2)
    rho = DensityOperator(reg, np.eye(9) / 9.0)
    with pytest.raises(ValueError, match="unknown mode"):
        partial_trace(rho, ["Q"])


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


def test_promote_qubit_keeps_amplitudes():
    reg = ModeRegister((("A", qubit()), ("B", bosonic(3))))
    psi = make_hybrid_pair(reg, "A", "B", 0.4)
    out = promote_qubit(psi, "A")
    assert out.register.spec("A").cutoff == 1
    assert np.array_equal(out.amplitudes, psi.amplitudes)
    with pytest.raises(ValueError):
        promote_qubit(out, "A")  # already bosonic


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
