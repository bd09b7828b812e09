import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from hyswap import (
    FIFTY_FIFTY,
    BeamSplitterParams,
    DensityOperator,
    ModeRegister,
    StateVector,
    apply_bs,
    bosonic,
    closed_form,
    default_cutoff,
    dv_swap,
    he_swap_homodyne,
    he_swap_spd,
    homodyne_grid,
    make_coherent,
    make_fock,
    make_hybrid_pair,
    make_vsp_bell,
    measure_and_reduce,
    negativity,
    quadrature_amplitudes,
    qubit,
    tensor,
    with_inefficiency,
)
from hyswap.verification import cv_bsm_failure_prob


def bell_rho(which):
    reg = ModeRegister((("A", qubit()), ("C", qubit())))
    v = make_vsp_bell(reg, "A", "C", which).amplitudes
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# dv scheme


def test_dv_lossless_heralds_bell_states():
    res = dv_swap(1.0)
    assert res.scheme == "dv"
    assert abs(res.total_success_probability - 0.5) < 1e-14
    by_label = {o.label: o for o in res.per_outcome}
    assert set(by_label) == {"01", "10"}
    for label, which in (("01", "phi+"), ("10", "phi-")):
        o = by_label[label]
        assert abs(o.probability - 0.25) < 1e-14
        assert abs(o.negativity - 1.0) < 1e-13
        assert np.abs(o.post_state.matrix - bell_rho(which)).max() < 1e-13


def test_dv_matches_closed_form():
    for T, tp in [(1.0, 1.0), (0.6, 1.0), (0.5, 0.7), (0.15, 0.9), (1.0, 0.4)]:
        res = dv_swap(T, tp)
        ref = closed_form("dv", 0.0, T, tp)
        assert abs(res.total_success_probability - ref.p) < 1e-13, (T, tp)
        assert abs(res.averaged_negativity - ref.E) < 1e-13, (T, tp)


def test_dv_independent_of_cutoff():
    # nothing above two photons exists in this pipeline
    lo = dv_swap(0.7, 0.9, 2)
    hi = dv_swap(0.7, 0.9, 12)
    assert lo.total_success_probability == hi.total_success_probability
    assert lo.averaged_negativity == hi.averaged_negativity


def test_dv_dead_channel():
    res = dv_swap(0.0)
    assert res.total_success_probability == 0.0
    assert res.averaged_negativity == 0.0
    for o in res.per_outcome:
        assert o.probability == 0.0
        assert np.abs(o.post_state.matrix).max() == 0.0


def test_dv_parameter_validation():
    with pytest.raises(ValueError, match="lie in"):
        dv_swap(1.4)
    with pytest.raises(ValueError, match="lie in"):
        dv_swap(0.5, -0.2)
    with pytest.raises(ValueError, match="at least 2"):
        dv_swap(0.5, 1.0, 1)


@pytest.mark.parametrize(
    "swap",
    [dv_swap, partial(he_swap_spd, 0.3), partial(he_swap_homodyne, 0.3)],
    ids=["dv", "he_spd", "he_ho"],
)
def test_swap_parameter_validation(swap):
    with pytest.raises(ValueError, match="lie in"):
        swap(1.4)
    with pytest.raises(ValueError, match="lie in"):
        swap(0.5, -0.2)
    with pytest.raises(ValueError, match="at least 2"):
        swap(0.5, 1.0, 1)


# ---------------------------------------------------------------------------
# he_spd scheme


def test_he_spd_matches_closed_form():
    for alpha, T, tp in [(0.3, 1.0, 1.0), (0.5, 0.7, 1.0), (0.3, 0.5, 0.7), (0.7, 0.2, 0.9)]:
        res = he_swap_spd(alpha, T, tp)
        ref = closed_form("he_spd", alpha, T, tp)
        assert abs(res.total_success_probability - ref.p) < 1e-12, (alpha, T, tp)
        assert abs(res.averaged_negativity - ref.E) < 1e-12, (alpha, T, tp)


def test_he_spd_outcomes_are_symmetric():
    res = he_swap_spd(0.5, 0.6, 0.8)
    a, b = res.per_outcome
    assert {a.label, b.label} == {"01", "10"}
    assert abs(a.probability - b.probability) < 1e-14
    assert abs(a.negativity - b.negativity) < 1e-13
    assert abs(res.averaged_negativity - a.negativity) < 1e-13


def test_he_spd_lossless_outcomes_are_maximally_entangled():
    res = he_swap_spd(0.4, 1.0)
    for o in res.per_outcome:
        assert abs(o.negativity - 1.0) < 1e-11


def test_he_spd_dead_channel():
    res = he_swap_spd(0.5, 0.0)
    assert res.total_success_probability == 0.0
    assert res.averaged_negativity == 0.0


def test_he_spd_echo():
    res = he_swap_spd(0.3, 0.9, 0.8, 10)
    assert res.parameters_echo == {
        "scheme": "he_spd", "alpha": 0.3, "T": 0.9, "T_prime": 0.8, "cutoff": 10,
    }
    assert dv_swap(0.9).parameters_echo["alpha"] is None


# ---------------------------------------------------------------------------
# detector inefficiency: T' as a pre-detector loss, modeled explicitly


def _spd_explicit(alpha, T, tp, cutoff):
    """he_spd pipeline with ideal-channel loss at T and the detector
    inefficiency applied to the measurement elements instead of the
    channel; must reproduce the internal T -> T*T' substitution."""
    pair_ab = make_hybrid_pair(
        ModeRegister((("A", qubit()), ("B", bosonic(cutoff)))), "A", "B", alpha
    )
    pair_cd = make_hybrid_pair(
        ModeRegister((("C", qubit()), ("D", bosonic(cutoff)))), "C", "D", alpha
    )
    envs = make_fock(ModeRegister((("Eb", bosonic(cutoff)), ("Ed", bosonic(cutoff)))))
    psi = tensor(tensor(pair_ab, pair_cd), envs)
    loss = BeamSplitterParams.from_transmission(T)
    psi = apply_bs(psi, "B", "Eb", loss)
    psi = apply_bs(psi, "D", "Ed", loss)
    psi = apply_bs(psi, "B", "D", FIFTY_FIFTY)
    out = []
    n = np.arange(cutoff + 1)
    for nb, nd in [(0, 1), (1, 0)]:
        weights = {"B": with_inefficiency(n == nb, tp), "D": with_inefficiency(n == nd, tp)}
        p, rho = measure_and_reduce(psi, weights, ["A", "C"])
        out.append((p, negativity(rho, ["C"]).value))
    return out


def _dv_explicit(T, tp, cutoff=2):
    pair_ab = make_vsp_bell(
        ModeRegister((("A", qubit()), ("B", bosonic(cutoff)))), "A", "B", "phi+"
    )
    pair_cd = make_vsp_bell(
        ModeRegister((("C", qubit()), ("D", bosonic(cutoff)))), "C", "D", "phi+"
    )
    envs = make_fock(ModeRegister((("Eb", bosonic(cutoff)), ("Ed", bosonic(cutoff)))))
    psi = tensor(tensor(pair_ab, pair_cd), envs)
    loss = BeamSplitterParams.from_transmission(T)
    psi = apply_bs(psi, "B", "Eb", loss)
    psi = apply_bs(psi, "D", "Ed", loss)
    psi = apply_bs(psi, "B", "D", FIFTY_FIFTY)
    out = []
    n = np.arange(cutoff + 1)
    for nb, nd in [(0, 1), (1, 0)]:
        weights = {"B": with_inefficiency(n == nb, tp), "D": with_inefficiency(n == nd, tp)}
        p, rho = measure_and_reduce(psi, weights, ["A", "C"])
        out.append((p, negativity(rho, ["C"]).value))
    return out


def test_he_spd_inefficiency_substitution_is_exact():
    alpha, T, tp, cutoff = 0.6, 0.8, 0.6, 10
    explicit = _spd_explicit(alpha, T, tp, cutoff)
    internal = he_swap_spd(alpha, T, tp, cutoff)
    for (p_e, e_e), o in zip(explicit, internal.per_outcome):
        assert abs(p_e - o.probability) < 1e-10, "probability moved"
        assert abs(e_e - o.negativity) < 1e-10, "negativity moved"


def test_dv_inefficiency_substitution_is_exact():
    for T, tp in [(1.0, 0.55), (0.8, 0.6), (0.3, 0.95)]:
        explicit = _dv_explicit(T, tp)
        internal = dv_swap(T, tp)
        for (p_e, e_e), o in zip(explicit, internal.per_outcome):
            assert abs(p_e - o.probability) < 1e-12, (T, tp)
            assert abs(e_e - o.negativity) < 1e-12, (T, tp)


# ---------------------------------------------------------------------------
# he_ho scheme


def test_he_ho_matches_closed_form():
    for alpha, T in [(0.3, 1.0), (0.5, 0.5)]:
        res = he_swap_homodyne(alpha, T, cutoff=10)
        ref = closed_form("he_ho", alpha, T)
        assert abs(res.total_success_probability - ref.p) < 1e-8, (alpha, T)
        assert abs(res.averaged_negativity - ref.E) < 1e-6, (alpha, T)


@pytest.mark.parametrize("cutoff", [32, 64])
def test_he_ho_matches_closed_form_at_large_alpha(cutoff):
    alpha, T, tp = 1.5, 0.9, 1.0
    res = he_swap_homodyne(alpha, T, tp, cutoff)
    ref = closed_form("he_ho", alpha, T, tp)
    assert abs(res.total_success_probability - ref.p) <= 1e-9
    assert abs(res.averaged_negativity - ref.E) <= 1e-9


def test_he_ho_single_outcome_and_echo():
    res = he_swap_homodyne(0.3, 0.9, cutoff=8)
    assert len(res.per_outcome) == 1
    assert res.per_outcome[0].label == "click_click"
    echo = res.parameters_echo
    assert echo["scheme"] == "he_ho"
    assert abs(res.per_outcome[0].post_state.trace() - 1.0) < 1e-12


def test_he_ho_corrected_state_is_bell_at_full_transmission():
    # with no loss every quadrature outcome heralds the same Bell state
    # (tolerance is set by the cutoff)
    res = he_swap_homodyne(0.5, 1.0, cutoff=10)
    rho = res.per_outcome[0].post_state.matrix
    fid = float(np.real(np.trace(rho @ bell_rho("psi+"))))
    assert fid > 1.0 - 1e-6
    assert abs(res.averaged_negativity - 1.0) < 1e-6


def test_he_ho_substitution_consistency():
    a = he_swap_homodyne(0.5, 0.8, 0.7, cutoff=8)
    b = he_swap_homodyne(0.5, 0.8 * 0.7, 1.0, cutoff=8)
    assert abs(a.total_success_probability - b.total_success_probability) < 1e-12
    assert abs(a.averaged_negativity - b.averaged_negativity) < 1e-12


# ---------------------------------------------------------------------------
# all-coherent Bell measurement


@pytest.mark.parametrize("alpha,cutoff", [(0.3, 24), (0.5, 24), (1.0, 24), (1.5, 24), (1.0, 20), (0.7, 16)])
def test_cv_bsm_failure_probability(alpha, cutoff):
    assert abs(cv_bsm_failure_prob(alpha, cutoff) - 1.0 / (2.0 * math.cosh(2.0 * alpha * alpha))) <= 1e-12


def test_cv_bsm_small_alpha_limit():
    # indistinguishable quasi-Bell states: failure approaches 1/2
    assert abs(cv_bsm_failure_prob(0.05, 6) - 0.5) < 1e-4


def test_cv_bsm_cutoff_stable():
    a = cv_bsm_failure_prob(1.0, 20)
    b = cv_bsm_failure_prob(1.0, 26)
    assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# cutoff resolution


def test_default_cutoff_env_override(monkeypatch):
    monkeypatch.delenv("HYSWAP_CUTOFF", raising=False)
    assert default_cutoff() == 12
    monkeypatch.setenv("HYSWAP_CUTOFF", "9")
    assert default_cutoff() == 9
    res = he_swap_spd(0.3, 1.0)  # picked up at call time, not import time
    assert res.parameters_echo["cutoff"] == 9
    monkeypatch.setenv("HYSWAP_CUTOFF", "")
    assert default_cutoff() == 12


def test_default_cutoff_env_validation(monkeypatch):
    monkeypatch.setenv("HYSWAP_CUTOFF", "abc")
    with pytest.raises(ValueError, match="integer"):
        default_cutoff()
    monkeypatch.setenv("HYSWAP_CUTOFF", "1")
    with pytest.raises(ValueError, match="at least 2"):
        default_cutoff()


# ---------------------------------------------------------------------------
# full-register references: both loss splitters, the vacuum test and the
# per-node quadrature loop on one register, as the explicit route that
# the per-pair loss, the closed-form vacuum test and the Gram-form
# contraction must reproduce


FULL_REGISTER_POINTS = [
    (0.2, 1.0, 1.0),
    (0.5, 0.0, 1.0),
    (0.4, 0.6, 0.8),
    (0.7, 0.3, 1.0),
    (0.2, 0.05, 0.9),
]


def _lossy_party(prepare, q, t, e, c, tau, pad=25):
    """One party's pair and loss environment on pad + 1 levels through its loss splitter,
    the traveling mode t then kept at levels <= c as the pipelines cut it."""
    psi = tensor(prepare(ModeRegister(((q, qubit()), (t, bosonic(pad)))), q, t),
                 make_fock(ModeRegister(((e, bosonic(pad)),))))
    kept = apply_bs(psi, t, e, BeamSplitterParams.from_transmission(tau)).tensor_view()[:, :c + 1]
    return StateVector(ModeRegister(((q, qubit()), (t, bosonic(c)), (e, bosonic(pad)))), kept)


def _full_register(prepare, c, tau, pad=25):
    """Both parties' lossy pairs, B and D kept at levels <= c, through the midpoint splitter."""
    parties = (_lossy_party(prepare, q, t, e, c, tau, pad) for q, t, e in (("A", "B", "Eb"), ("C", "D", "Ed")))
    return apply_bs(tensor(*parties), "B", "D", FIFTY_FIFTY)


def _vacuum_test_by_splitter(d, beta):
    """The clicked amplitudes C[(b, e), k] = <b, e|U|k, beta>, b, e >= 1, the direct way:
    the columns |k> ⊗ |beta> pushed through the splitter with B and the ancilla E on
    d + 40 levels, so that C†C is the test's operator on B with no level cut that shows."""
    from hyswap.optics import bs_on_axes

    n = d + 40
    anc = make_coherent(ModeRegister((("E", bosonic(n - 1)),)), "E", beta)
    cols = np.einsum("bk,e->bek", np.eye(n, d), anc.amplitudes)  # column k: |k> ⊗ |beta> on (B, E)
    return bs_on_axes(cols, (0, 1), FIFTY_FIFTY)[1:, 1:].reshape(-1, d)


def _he_ho_full_register(alpha, T, tp, cutoff, xs):
    """Unnormalized corrected A-C state at each quadrature node in xs, shape (len(xs), 4, 4).

    Both clicks act on B as R, the QR factor of the uncut ancilla's clicked amplitudes."""
    tau = T * tp
    psi = _full_register(lambda reg, q, t: make_hybrid_pair(reg, q, t, alpha), cutoff, tau)
    R = np.linalg.qr(_vacuum_test_by_splitter(cutoff + 1, math.sqrt(2.0 * tau) * alpha), mode="r")
    reg = psi.register
    t = np.moveaxis(np.tensordot(R, psi.tensor_view(), (1, reg.axis("B"))), 0, reg.axis("B"))
    rest = [nm for nm in reg.names if nm not in ("A", "C", "D")]
    perm = [reg.axis(nm) for nm in ["A", "C"] + rest + ["D"]]
    flat = np.transpose(t, perm).reshape(-1, cutoff + 1)
    V = quadrature_amplitudes(xs, cutoff + 1, math.pi / 2.0)
    g = 4.0 * math.sqrt(tau) * alpha
    nodes = []
    for i, x in enumerate(xs):
        col = (flat @ V[:, i]).reshape(4, -1)
        on_c = np.exp(-1j * g * x * (np.arange(4) % 2))  # the feed-forward phase on C's bit
        nodes.append(on_c[:, None] * (col @ col.conj().T) * on_c.conj())
    return np.array(nodes)


def _assert_outcome_matches(outcome, p_ref, rho_ref):
    assert abs(outcome.probability - p_ref) < 1e-12
    if p_ref > 1e-15:
        assert np.abs(outcome.post_state.matrix - rho_ref / p_ref).max() < 1e-12
    else:
        assert outcome.probability == 0.0
        assert np.abs(outcome.post_state.matrix).max() == 0.0


@pytest.mark.parametrize("cutoff", [4, 5, 6, 7, 9])
def test_he_ho_matches_full_register_reference(cutoff):
    # (0.2, 0.05, 0.9) has p 1.6e-6: the normalized state divides any error in rho by it
    xs, ws = homodyne_grid()
    for alpha, T, tp in FULL_REGISTER_POINTS + [(0.8, 0.7, 0.9)]:
        rho_ref = np.einsum("i,iab->ab", ws, _he_ho_full_register(alpha, T, tp, cutoff, xs))
        p_ref = float(np.trace(rho_ref).real)
        res = he_swap_homodyne(alpha, T, tp, cutoff)
        _assert_outcome_matches(res.per_outcome[0], p_ref, rho_ref)


def test_he_ho_every_single_quadrature_point_heralds_bell():
    # E(x) = 1 pointwise, not only on average over x: the feed-forward
    # phase has to cancel the outcome dependence exactly.  The residual
    # is pure truncation; it collapses by four orders between cutoffs
    # 10 and 14, so 14 with a tight bound pins the identity.
    xs = np.array([-2.0, -0.3, 0.0, 1.1, 3.7])
    ac = ModeRegister((("A", qubit()), ("C", qubit())))
    for x, rho in zip(xs, _he_ho_full_register(0.5, 1.0, 1.0, 14, xs)):
        state = DensityOperator(ac, rho / np.trace(rho).real)
        assert abs(negativity(state, ["C"]).value - 1.0) < 1e-8, x


def _counting_full_register(prepare, c, tau):
    psi = _full_register(prepare, c, tau)
    out = []
    n = np.arange(c + 1)
    for nb, nd in [(0, 1), (1, 0)]:
        p, rho = measure_and_reduce(psi, {"B": n == nb, "D": n == nd}, ["A", "C"])
        out.append((p, rho.matrix * p))
    return out


@pytest.mark.parametrize("cutoff", [4, 5, 6, 7])
def test_counting_schemes_match_full_register_loss(cutoff):
    # the dv reference keeps the full cutoff, so it also checks that two levels of B hold the pair
    for alpha, T, tp in FULL_REGISTER_POINTS:
        tau = T * tp
        cases = [
            (he_swap_spd(alpha, T, tp, cutoff),
             lambda reg, q, t: make_hybrid_pair(reg, q, t, alpha)),
            (dv_swap(T, tp, cutoff),
             lambda reg, q, t: make_vsp_bell(reg, q, t, "phi+")),
        ]
        for res, prepare in cases:
            ref = _counting_full_register(prepare, cutoff, tau)
            for outcome, (p_ref, rho_ref) in zip(res.per_outcome, ref):
                _assert_outcome_matches(outcome, p_ref, rho_ref)


@pytest.mark.parametrize("scheme,cutoff", [("he_spd", 10), ("he_spd", 3), ("dv", 10)])
def test_counting_schemes_match_full_register_at_large_alpha(scheme, cutoff):
    # cutoff 3 starves alpha 1.5; the two-level midpoint must still be exact
    alpha, T, tp = 1.5, 0.9, 0.8
    if scheme == "dv":
        res = dv_swap(T, tp, cutoff)
        prepare = lambda reg, q, t: make_vsp_bell(reg, q, t, "phi+")
    else:
        res = he_swap_spd(alpha, T, tp, cutoff)
        prepare = lambda reg, q, t: make_hybrid_pair(reg, q, t, alpha)
    ref = _counting_full_register(prepare, cutoff, T * tp)
    for outcome, (p_ref, rho_ref) in zip(res.per_outcome, ref):
        _assert_outcome_matches(outcome, p_ref, rho_ref)


def test_he_spd_is_exact_at_every_cutoff():
    """The counting herald reads only levels 0 and 1 of B and D, and the lossy pair cuts
    nothing else, so even cutoff 2 at alpha 1.5 gives the closed form."""
    ref = closed_form("he_spd", 1.5, 0.9, 0.8)
    runs = [he_swap_spd(1.5, 0.9, 0.8, c) for c in (2, 3, 12)]
    for res in runs:
        assert abs(res.total_success_probability - ref.p) <= 1e-15
        assert abs(res.averaged_negativity - ref.E) <= 1e-15
        for o, first in zip(res.per_outcome, runs[0].per_outcome):
            assert o.probability == first.probability
            assert np.array_equal(o.post_state.matrix, first.post_state.matrix)


def test_he_spd_cost_does_not_grow_with_the_cutoff():
    """he-spd builds its pairs on B's levels 0 and 1 only, so cutoff 10^6 gives cutoff 12's
    result bit for bit, in well under a MiB."""
    import tracemalloc

    ref = he_swap_spd(0.5, 0.5, 0.9, 12)
    tracemalloc.start()
    try:
        res = he_swap_spd(0.5, 0.5, 0.9, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert res.total_success_probability == ref.total_success_probability
    assert res.averaged_negativity == ref.averaged_negativity
    for o, r in zip(res.per_outcome, ref.per_outcome, strict=True):
        assert (o.label, o.probability, o.negativity) == (r.label, r.probability, r.negativity)
        assert np.array_equal(o.post_state.matrix, r.post_state.matrix)


@pytest.mark.parametrize("alpha,tau,c", [(0.0, 0.5, 2), (0.3, 1.0, 4), (0.7, 0.0, 6), (1.5, 0.72, 3), (1.5, 0.35, 12)])
def test_lossy_hybrid_pair_matches_the_loss_splitter(alpha, tau, c):
    """P, formed from its factors, traced over its two-state environment is the pair's (A, B)
    state through an explicit loss splitter, B then kept at levels <= c: every trace over E
    sees only that."""
    from hyswap.protocols import _lossy_hybrid_pair

    amp, env = _lossy_hybrid_pair(alpha, c, tau)
    assert amp.shape == (2, c + 1) and env.shape == (2, 2)
    P = np.einsum("am,ai->ami", amp, env)
    ref = _lossy_party(lambda reg, q, t: make_hybrid_pair(reg, q, t, alpha), "A", "B", "E", c, tau, pad=60)
    R = ref.tensor_view()
    rho, rho_ref = np.einsum("ami,bni->ambn", P, P.conj()), np.einsum("ame,bne->ambn", R, R.conj())
    assert np.abs(rho - rho_ref).max() <= 1e-15


@pytest.mark.parametrize("tau", [0.0, 0.35, 1.0])
def test_lossy_dv_pair_matches_the_loss_splitter(tau):
    """Three numbers hold the dv pair after loss: B keeps at most one photon at any cutoff."""
    from hyswap.protocols import _lossy_dv_pair

    P = _lossy_dv_pair(tau)
    assert P.shape == (2, 2, 2)
    R = _lossy_party(lambda reg, q, t: make_vsp_bell(reg, q, t, "phi+"), "A", "B", "E", 6, tau, pad=6).tensor_view()
    assert not R[:, 2:].any()
    rho, rho_ref = np.einsum("ami,bni->ambn", P, P.conj()), np.einsum("ame,bne->ambn", R[:, :2], R[:, :2].conj())
    assert np.abs(rho - rho_ref).max() <= 1e-15


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0 - 1e-12, 1.0])
def test_lossy_hybrid_pair_environment_keeps_its_digits(tau):
    """P[0, 0, i] = e^{-tau alpha²/2} c± / sqrt(2) against 50 digits, P formed from its factors.
    c- = sqrt((1 - e^{-2 eps²})/2) vanishes as tau -> 1; with the 1 cancelled it lost 3e-6 of
    itself at 1 - tau = 1e-12."""
    mpmath = pytest.importorskip("mpmath")
    from hyswap.protocols import _lossy_hybrid_pair

    alpha = 0.6
    got = np.einsum("am,ai->ami", *_lossy_hybrid_pair(alpha, 4, tau))[0, 0]
    with mpmath.workdps(50):
        a, t = mpmath.mpf(alpha), mpmath.mpf(tau)
        x = 2 * (1 - t) * a * a  # 2 eps²
        amp0 = mpmath.exp(-t * a * a / 2)
        want = [amp0 * mpmath.sqrt((1 + s * mpmath.exp(-x)) / 2) / mpmath.sqrt(2) for s in (1, -1)]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * abs(w), (tau, g, w)


def test_midpoint_register_size_per_herald(monkeypatch):
    """Counting heralds read the lossy pair and build no midpoint register;
    he-ho never holds as much as one 4 (c+1)^4-amplitude register."""
    import tracemalloc

    import hyswap.protocols as protocols

    seen = []

    def recording(state, mode_x, mode_y, params):
        reg = state.register
        seen.append((mode_x, mode_y, reg.spec(mode_x).dim, reg.spec(mode_y).dim, reg.dim))
        return apply_bs(state, mode_x, mode_y, params)

    def forbidden(*args, **kwargs):
        raise AssertionError("the counting path builds no midpoint register")

    cutoff = 9
    monkeypatch.setattr(protocols, "apply_bs", recording)
    with monkeypatch.context() as m:
        m.setattr(protocols, "measure_and_reduce", forbidden)
        m.setattr(protocols, "tensor", forbidden)
        he_swap_spd(0.8, 0.7, 0.9, cutoff)
        dv_swap(0.7, 0.9, cutoff)
    assert seen == []

    cutoff = 12
    he_swap_homodyne(0.3, 0.8, 0.9, cutoff)  # fills the splitter and kernel caches
    tracemalloc.start()
    try:
        he_swap_homodyne(0.3, 0.8, 0.9, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (cutoff + 1) ** 4 * np.dtype(np.complex128).itemsize


def test_non_finite_alpha_is_rejected():
    for bad in (float("nan"), float("inf"), -float("inf"), 1e200, -1e155):  # |alpha|² overflows too
        with pytest.raises(ValueError, match="finite"):
            he_swap_spd(bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            he_swap_homodyne(bad, 0.5, cutoff=4)
        with pytest.raises(ValueError, match="finite"):
            cv_bsm_failure_prob(bad, 4)


def test_loss_builds_no_splitter_per_transmission():
    """The lossy pair is written in closed form, so a T sweep adds no cached splitter."""
    from hyswap.optics import _bs_blocks

    before = _bs_blocks.cache_info().currsize
    for i in range(50):
        he_swap_spd(0.5, 0.013 + 0.019 * i, cutoff=5)
    assert _bs_blocks.cache_info().currsize - before <= 1


def _traced_peak(run) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_he_ho_memory_at_cutoff_64_without_dense_splitter():
    """Splitter blocks and a d x d vacuum test, not a 272 MiB dense d^2 x d^2 unitary."""
    from hyswap.optics import _bs_blocks

    _bs_blocks.cache_clear()
    assert _traced_peak(lambda: he_swap_homodyne(1.5, 0.9, 1.0, 64)) < 64 * 2**20


@pytest.mark.parametrize("cutoff,mib", [(64, 16), (100, 24)])
def test_he_ho_warm_point_builds_no_vacuum_test_columns(cutoff, mib):
    """The vacuum test is d x d in closed form.  Pushing the (d, d, d) columns |k> ⊗ |beta>
    through the splitter peaked at 25 MiB at cutoff 64, and a (d-1)² x d matrix of their
    clicked amplitudes with its QR copy at 32 MiB at cutoff 100."""
    he_swap_homodyne(0.3, 0.5, 1.0, cutoff)
    assert _traced_peak(lambda: he_swap_homodyne(0.3, 0.5, 1.0, cutoff)) < mib * 2**20


def test_he_ho_herald_holds_no_environment_pair_axis():
    """The pair is a product amp[a, m] env[a, i], so the herald sends four (B | D, A, C) states
    through the splitter and weighs them with a 2 x 2 environment Gram.  Sixteen (environment
    pair x A-C) columns of d² amplitudes, with their (4d x 4d) Gram, peaked at 13.8 MiB here."""
    he_swap_homodyne(0.3, 0.5, 1.0, 100)
    assert _traced_peak(lambda: he_swap_homodyne(0.3, 0.5, 1.0, 100)) < 8 * 2**20


@pytest.mark.parametrize("d", list(range(2, 18)) + [33])
def test_vacuum_test_matches_columns_through_the_splitter(d):
    from hyswap.protocols import _vacuum_test

    for beta in (0.0, 0.3, 1.1, 2.5):
        C = _vacuum_test_by_splitter(d, beta)
        assert np.abs(_vacuum_test(d, beta) - C.conj().T @ C).max() <= 2e-15


def test_vacuum_test_is_hermitian_finite_and_keeps_small_beta_digits():
    from hyswap.protocols import _vacuum_test

    for beta in (1e-3, 1e-5):  # M[0, 0] = (1 - e^{-beta²/2})², not a cancellation of order-1 terms
        assert _vacuum_test(4, beta)[0, 0] == pytest.approx(math.expm1(-0.5 * beta * beta) ** 2, rel=1e-14)
    M = _vacuum_test(201, 6.0)
    assert np.isfinite(M).all()
    for M in (M, _vacuum_test(13, 0.7), _vacuum_test(9, 0.0)):
        assert np.abs(M - M.conj().T).max() <= 1e-16


def test_vacuum_test_entries_keep_their_relative_digits():
    """Every entry against the same normal-ordered form in 50 digits.  M[0, 0] and M[1, 1] vanish
    as beta -> 0; taken as 1 minus order-1 terms, M[1, 1] lost 1e-9 of itself at beta 0.02."""
    assert 0.5 * (math.sqrt(2.0) * (1 - 1e-12)) ** 2 < 1.0 < 0.5 * (math.sqrt(2.0) * (1 + 1e-12)) ** 2
    mpmath = pytest.importorskip("mpmath")
    from hyswap.protocols import _vacuum_test

    d = 7
    with mpmath.workdps(50):
        # beta = sqrt(2) (1 ± 1e-12) sits on both sides of x = beta²/2 = 1, where M[1, 1] leaves its Horner sum
        for beta in (0.0, 1e-8, 1e-5, 0.02, 0.155, 1.0, math.sqrt(2.0) * (1 - 1e-12), math.sqrt(2.0) * (1 + 1e-12),
                     1.42, 2.5, 6.0):
            b = mpmath.mpf(beta)
            E = mpmath.matrix(d, d)
            for m in range(d):
                for n in range(m, d):
                    E[m, n] = (mpmath.exp(-b * b / 4) * (-b / 2) ** (n - m)
                               * mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m)) / mpmath.factorial(n - m))
            A = E.T * mpmath.diag([mpmath.mpf(2) ** -n for n in range(d)]) * E
            M = _vacuum_test(d, beta)
            for k in range(d):
                for n in range(d):
                    want = 0 if (k + n) % 2 else (k == n) - 2 * A[k, n] + (k == n == 0) * mpmath.exp(-b * b)
                    assert abs(M[k, n] - want) <= 1e-14 * abs(want), (beta, k, n)


@pytest.mark.parametrize("gamma,d", [(0.0, 5), (0.7, 9), (-2.2, 17), (8.5, 65), (-8.5, 201)])
def test_displacement_kernel_matches_expm(gamma, d):
    """The d x d corner of exp(gamma (a† - a)), exponentiated on 2d + 250 levels."""
    from hyswap.protocols import _displacement

    a = np.diag(np.sqrt(np.arange(1.0, 2 * d + 250)), 1)
    ref = scipy.linalg.expm(gamma * (a.T - a))[:d, :d]
    assert np.abs(_displacement(gamma, d) - ref).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 5, 9, 13])
def test_displacement_kernel_is_the_integrated_feed_forward_phase(d):
    """K_1 = int dx |x_{pi/2}><x_{pi/2}| e^{-i g x} as a wide Gauss-Legendre sum of quadrature
    amplitudes, which shares no code with the Laguerre recurrence."""
    from hyswap.protocols import _displacement

    xs, ws = homodyne_grid(12.0, 801)
    V = quadrature_amplitudes(xs, d, math.pi / 2.0)
    for alpha, tau in ((0.5, 0.7), (0.8, 1.0), (-0.3, 0.2)):
        g = 4.0 * math.sqrt(tau) * alpha
        K1 = (V * (ws * np.exp(-1j * g * xs))) @ V.conj().T
        assert np.abs(_displacement(-g / math.sqrt(2.0), d) - K1).max() <= 1e-13
    assert np.abs((V * ws) @ V.conj().T - np.eye(d)).max() <= 1e-13  # K_0 = I


def test_displacement_tables_are_cached_and_read_only():
    """The displacement's and the vacuum test's beta-free arrays are one read-only entry per d,
    built on first use, never at import, and not shared with any matrix a call returns."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from hyswap.protocols import _displacement, _herald_tables, _vacuum_test

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    fresh = "import hyswap.protocols as p; print(p._herald_tables.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", fresh], capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0 and out.stdout == "0\n", out.stderr
    _herald_tables.cache_clear()
    first, vac = _displacement(1.3, 11), _vacuum_test(11, 0.9)
    kept = vac.copy()
    vac[:] = np.nan
    displacement, vacuum = _herald_tables(11)
    assert len(displacement) == 5 and len(vacuum) == 6
    assert all(not t.flags.writeable for t in displacement + vacuum)
    assert np.array_equal(_displacement(1.3, 11), first)
    assert np.array_equal(_vacuum_test(11, 0.9), kept)
    assert _herald_tables.cache_info().misses == 1
    _vacuum_test(12, 0.9)
    _displacement(0.4, 12)
    assert _herald_tables.cache_info().misses == 2


def _he_ho_herald_as_first_written(amp, env, tau, alpha):
    """he-ho's herald matrix with the feed-forward kernels as a (4, 4, d, d) stack of K_1^T, I and
    K_1 picked by the C-bit difference, contracted in one einsum and weighted by kron(W, W)."""
    from hyswap.optics import bs_on_axes
    from hyswap.protocols import _displacement, _vacuum_test

    d = amp.shape[1]
    M = _vacuum_test(d, math.sqrt(2.0 * tau) * alpha)
    K1 = _displacement(-4.0 * math.sqrt(tau) * alpha / math.sqrt(2.0), d)
    cbit = np.arange(4) % 2
    K = np.stack([K1.T, np.eye(d), K1])[cbit[:, None] - cbit[None, :] + 1]
    Phi = bs_on_axes(np.einsum("am,cn->mnac", amp, amp), (0, 1), FIFTY_FIFTY).reshape(d, -1)
    H = ((M @ Phi).T @ Phi).reshape(d, 4, d, 4)
    W = env @ env.T
    return np.kron(W, W) * np.einsum("nakb,abnk->ab", H, K)


def test_he_ho_contraction_matches_the_kernel_stack(monkeypatch):
    """The herald's A-C matrix stays within 5e-15 of the stacked-kernel formula at every point of
    a stacked call.  The cutoffs start at the smallest keeping the tail of sqrt(2) alpha at most
    1e-9 (5, 13, 22, 49 for the alphas below) and run to 64."""
    import hyswap.protocols as protocols

    heralded = []
    real_herald = protocols._homodyne_herald

    def recorded(alpha, amp, env, tau):
        out = real_herald(alpha, amp, env, tau)
        heralded.append((amp, env, tau, out[1]))
        return out

    monkeypatch.setattr(protocols, "_homodyne_herald", recorded)
    worst = 0.0
    for alpha, smallest in ((0.2, 5), (0.8, 13), (1.5, 22), (3.0, 49)):
        for cutoff in sorted({smallest, (smallest + 64) // 2, 64}):
            for Ts, tp in (((0.0, 0.9, 1.0), 1.0), ((0.37, 1.0), 0.6)):
                protocols.swap_points("he_ho", alpha, Ts, tp, cutoff)
                amp, env, tau, rho = heralded.pop()
                assert rho.shape == (len(Ts), 1, 4, 4) and rho.flags.c_contiguous
                for p in range(len(Ts)):
                    ref = _he_ho_herald_as_first_written(amp[p], env[p], tau[p], alpha)
                    worst = max(worst, float(np.abs(rho[p, 0] - ref).max()))
    assert worst <= 5e-15


def test_he_spd_lossy_pair_is_written_as_its_band():
    """The lossy pair is (2, d, 2) over a two-state loss environment, not a (d, d, d) Kraus
    stack (124 MiB at cutoff 200)."""
    he_swap_spd(1.5, 0.9, 1.0, 200)
    assert _traced_peak(lambda: he_swap_spd(1.5, 0.9, 1.0, 200)) < 32 * 2**20


def test_he_spd_herald_holds_no_environment_amplitudes_at_cutoff_200():
    """The counting herald contracts 2 x 2 environment Gram blocks, not (2, 4, d^2)
    amplitude arrays (13.6 MiB at this point when it built them)."""
    he_swap_spd(1.5, 0.9, 1.0, 200)
    assert _traced_peak(lambda: he_swap_spd(1.5, 0.9, 1.0, 200)) < 4 * 2**20


def test_counting_points_cross_the_traced_layers(monkeypatch):
    """Each counting point calls the negativity kernel once, on its whole
    outcome stack, through the module name a layer trace wraps."""
    import hyswap.protocols as protocols

    calls = {}

    def counting(name):
        fn = getattr(protocols, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(protocols, name, counted)

    counting("_negativity_stack")
    he_swap_spd(0.8, 0.7, 0.9, 6)
    assert calls == {"_negativity_stack": 1}
    calls.clear()
    dv_swap(0.7, 0.9, 6)
    assert calls == {"_negativity_stack": 1}


def test_each_point_runs_one_eigen_solve(monkeypatch):
    """All outcomes of a point share one eigvalsh call: a per-outcome loop would make two.  A
    k-point call makes one too, over all the outcomes of all its points."""
    from hyswap.protocols import swap_points

    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: calls.append(a.shape) or real(a, *args, **kw))
    for run, stack in ((lambda: dv_swap(0.7, 0.9, 6), (2, 4, 4)), (lambda: he_swap_spd(0.8, 0.7, 0.9, 6), (2, 4, 4)),
                       (lambda: he_swap_homodyne(0.8, 0.7, 0.9, 8), (1, 4, 4))):
        calls.clear()
        run()
        assert calls == [stack]
    Ts = (0.2, 0.5, 0.7, 1.0)
    for scheme, outcomes in (("dv", 2), ("he_spd", 2), ("he_ho", 1)):
        calls.clear()
        swap_points(scheme, 0.8, Ts, 0.9, 8)
        assert calls == [(outcomes * len(Ts), 4, 4)]


@pytest.mark.parametrize("cutoff", [2, 8, 12])
def test_stacked_outcomes_equal_one_matrix_at_a_time(monkeypatch, cutoff):
    """Each outcome's probability, state and negativity, at every point of a stacked call, are
    bit for bit those of its herald matrix taken alone: trace, division, single negativity().
    Every herald's stack is float64, which the kernel casts to complex128."""
    import hyswap.protocols as protocols
    from hyswap.negativity import _negativity_stack

    heralded = []
    for name in ("_count_herald", "_homodyne_herald"):
        def recorded(*args, herald=getattr(protocols, name)):
            out = herald(*args)
            heralded.append(out)
            return out
        monkeypatch.setattr(protocols, name, recorded)
    ac = ModeRegister((("A", qubit()), ("C", qubit())))
    Ts = (0.0, 0.3, 0.77, 1.0)
    dead = 0
    for alpha in (0.0, 0.2, 0.5, 0.8):
        for tp in (1.0, 0.6):
            for scheme in ("dv", "he_spd", "he_ho"):
                results = protocols.swap_points(scheme, alpha, Ts, tp, cutoff)
                labels, rhos = heralded.pop()
                assert rhos.dtype == np.float64  # the midpoint splitter's blocks are real at phi = pi
                for res, point in zip(results, rhos, strict=True):
                    assert tuple(o.label for o in res.per_outcome) == labels
                    for o, rho in zip(res.per_outcome, point, strict=True):
                        p = float(np.trace(rho).real)
                        if p <= 1e-15:
                            dead += 1
                            assert o.probability == 0.0 and o.negativity == 0.0
                            assert np.array_equal(o.post_state.matrix, np.zeros((4, 4)))
                            continue
                        assert o.probability == p
                        assert np.array_equal(o.post_state.matrix, rho / p)
                        assert o.negativity == negativity(DensityOperator(ac, rho / p), ["C"]).value
    assert dead > 0
    skew = np.stack([np.eye(4), np.diag([0.5, 0.5, 0, 0]) + np.triu(np.ones((4, 4)), 1) * 1e-6])
    with pytest.raises(ValueError, match=r"density operator is not Hermitian \(defect 1e-06\)"):
        _negativity_stack(skew.astype(complex), ac, ["C"])


@pytest.mark.parametrize("cutoff", [2, 8, 12, 16])
def test_stacked_points_equal_each_point_alone(cutoff):
    """Each row of a k-point swap_points call is, bit for bit, the call on its T alone, for every
    scheme, with T in no order and repeated.  The he-ho alpha keeps the tail of sqrt(2) alpha at
    most 1e-9 at the cutoff."""
    from hyswap import coherent_tail_mass
    from hyswap.protocols import swap_points

    he_ho_alpha = {2: 0.02, 8: 0.4, 12: 0.7, 16: 0.9}[cutoff]
    assert coherent_tail_mass(math.sqrt(2.0) * he_ho_alpha, cutoff) <= 1e-9
    Ts = (1.0, 0.37, 0.0, 0.37)
    for scheme, alpha in (("dv", None), ("he_spd", 0.5), ("he_ho", he_ho_alpha)):
        for tp in (0.6, 1.0):
            stacked = swap_points(scheme, alpha, Ts, tp, cutoff)
            assert len(stacked) == len(Ts)
            for T, res in zip(Ts, stacked):
                alone = swap_points(scheme, alpha, [T], tp, cutoff)[0]
                assert res.scheme == alone.scheme and res.parameters_echo == alone.parameters_echo
                assert res.total_success_probability == alone.total_success_probability
                assert res.averaged_negativity == alone.averaged_negativity
                for o, a in zip(res.per_outcome, alone.per_outcome, strict=True):
                    assert (o.label, o.probability, o.negativity) == (a.label, a.probability, a.negativity)
                    assert np.array_equal(o.state, a.state)
    assert swap_points("he_ho", 0.5, [], 0.6, cutoff) == ()


def test_he_ho_blocks_of_a_long_stack_equal_one_block(monkeypatch):
    """A he-ho stack runs in blocks of at most _HERALD_BLOCK / d² points, so its working memory
    stays bounded at any length; a block boundary changes no bit of any point."""
    import hyswap.protocols as protocols

    Ts = (0.9, 0.0, 0.37, 1.0, 0.6)
    whole = protocols.swap_points("he_ho", 0.6, Ts, 0.8, 12)
    monkeypatch.setattr(protocols, "_HERALD_BLOCK", 2 * 13 * 13)  # blocks of two points at cutoff 12
    for res, blocked in zip(whole, protocols.swap_points("he_ho", 0.6, Ts, 0.8, 12), strict=True):
        assert res.total_success_probability == blocked.total_success_probability
        assert res.averaged_negativity == blocked.averaged_negativity
        assert np.array_equal(res.per_outcome[0].state, blocked.per_outcome[0].state)


def test_stacked_points_raise_what_a_point_raises():
    """A starved he-ho pair anywhere in a stack, or a bad T anywhere, raises the error of that point alone."""
    import re

    from hyswap.protocols import swap_points

    starved = re.escape("the pair at alpha = 40.0 has no amplitude at or below cutoff 12")
    with pytest.raises(ValueError, match=starved):
        he_swap_homodyne(40.0, 0.9, 1.0, 12)
    for Ts in ((0.0, 0.9), (0.9, 0.0), (0.0, 0.9, 0.0)):
        with pytest.raises(ValueError, match=starved):
            swap_points("he_ho", 40.0, Ts, 1.0, 12)
    assert swap_points("he_ho", 40.0, (0.0, 0.0), 1.0, 12)[1].total_success_probability == 0.0  # nothing to cut at T = 0
    bad_T = r"^T must lie in \[0, 1\]$"
    for scheme in ("dv", "he_spd", "he_ho"):
        for Ts in ((0.5, 1.5), (float("nan"), 0.5), (0.5, 0.2, -0.1)):
            with pytest.raises(ValueError, match=bad_T):
                swap_points(scheme, 0.5, Ts, 1.0, 8)
    with pytest.raises(ValueError, match=bad_T):
        dv_swap(1.5)
    with pytest.raises(ValueError, match="unknown scheme 'he-ho'"):
        swap_points("he-ho", 0.5, (0.5,))


def test_pipelines_build_no_dense_splitter_or_kraus_stack(monkeypatch):
    import hyswap.optics as optics
    import hyswap.protocols as protocols
    import hyswap.verification as verification

    def forbidden(*args, **kwargs):
        raise AssertionError("a pipeline built a dense splitter or Kraus stack")

    for name in ("bs_unitary", "loss_channel"):
        monkeypatch.setattr(optics, name, forbidden)
        assert not hasattr(protocols, name)  # a copy bound there would dodge the patch
    monkeypatch.setattr(verification, "bs_unitary", forbidden)  # its own binding, read by the property suite
    assert not hasattr(verification, "loss_channel")
    dv_swap(0.7, 0.9, 6)
    he_swap_spd(0.8, 0.7, 0.9, 6)
    he_swap_homodyne(0.8, 0.7, 0.9, 6)
    cv_bsm_failure_prob(0.8, 6)
    reg = ModeRegister((("X", bosonic(3)), ("Y", bosonic(4))))
    apply_bs(make_fock(reg, {"X": 1}), "X", "Y", FIFTY_FIFTY)
    rho = DensityOperator(reg, np.eye(reg.dim) / reg.dim)
    optics.apply_loss(rho, "Y", 0.4)
    optics.apply_loss_dilated(rho, "Y", 0.4)
    assert verification.check_loss_routes_agree().passed


def test_prob_floor_holds_at_its_edge(monkeypatch):
    """An outcome whose trace is exactly _PROB_FLOOR (1e-15) is unreachable: probability 0, the zero
    state and negativity 0.  At the next float up it is live and normalized.  The counting herald
    is replaced by one that returns x |psi+><psi+| at both traces; its entries 0.5 x sum to x exactly."""
    import hyswap.protocols as protocols

    floor, up = 1e-15, np.nextafter(1e-15, 1.0)
    rhos = np.zeros((1, 2, 4, 4))
    rhos[0, 0, 1:3, 1:3], rhos[0, 1, 1:3, 1:3] = 0.5 * floor, 0.5 * up
    monkeypatch.setattr(protocols, "_count_herald", lambda P: (("01", "10"), rhos))
    (res,) = protocols.swap_points("dv", None, (0.5,), 1.0, 4)
    dead, live = res.per_outcome
    assert (dead.probability, dead.negativity) == (0.0, 0.0) and not dead.state.any()
    assert live.probability == res.total_success_probability == up
    assert np.array_equal(live.state, rhos[0, 1] / up)
    assert abs(live.negativity - 1.0) < 1e-12 and abs(res.averaged_negativity - 1.0) < 1e-12


def test_starvation_guard_holds_at_its_edge(monkeypatch):
    """he-ho refuses a pair whose kept weight on B is exactly _PROB_FLOOR (1e-15) and runs one a float
    above it.  The pair's kept levels are replaced by (v, w) and by (v, w, w), v = sqrt(1e-15) and
    w = 2^-51: v² is 2^-102, one float step, below 1e-15 and w² is that step, so both sums are exact."""
    import hyswap.protocols as protocols

    real_pair = protocols._lossy_hybrid_pair
    v, w = math.sqrt(1e-15), 2.0**-51
    for levels in ((v, w), (v, w, w)):
        def pair(alpha, c, tau, levels=levels):
            amp, env = real_pair(alpha, c, tau)
            amp = np.zeros_like(amp)
            amp[..., 0, :len(levels)] = levels
            amp[..., 1, :] = amp[..., 0, :] * (-1.0) ** np.arange(c + 1)  # the |1> branch is |-beta>
            return amp, env

        monkeypatch.setattr(protocols, "_lossy_hybrid_pair", pair)
        if len(levels) == 2:
            with pytest.raises(ValueError, match="no amplitude at or below cutoff 8"):
                he_swap_homodyne(0.5, 0.9, 1.0, 8)
        else:
            assert he_swap_homodyne(0.5, 0.9, 1.0, 8).total_success_probability == 0.0  # its outcome is below the floor
