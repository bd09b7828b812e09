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
    cv_bsm_failure_prob,
    default_cutoff,
    dv_swap,
    feed_forward_correction,
    fock_projector,
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
    for nb, nd in [(0, 1), (1, 0)]:
        els = [
            with_inefficiency(fock_projector(psi.register, "B", nb), tp),
            with_inefficiency(fock_projector(psi.register, "D", nd), tp),
        ]
        p, rho = measure_and_reduce(psi, els, ["A", "C"])
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
    for nb, nd in [(0, 1), (1, 0)]:
        els = [
            with_inefficiency(fock_projector(psi.register, "B", nb), tp),
            with_inefficiency(fock_projector(psi.register, "D", nd), tp),
        ]
        p, rho = measure_and_reduce(psi, els, ["A", "C"])
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
# feed-forward correction


def test_feed_forward_on_vector_and_density_agree():
    reg = ModeRegister((("A", qubit()), ("C", qubit())))
    v = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)
    psi = StateVector(reg, v)
    alpha, T, x = 0.4, 0.8, 1.3
    corr_psi = feed_forward_correction(psi, alpha, T, x)
    rho = DensityOperator(reg, np.outer(v, v.conj()))
    corr_rho = feed_forward_correction(rho, alpha, T, x)
    ref = np.outer(corr_psi.amplitudes, corr_psi.amplitudes.conj())
    assert np.abs(corr_rho.matrix - ref).max() < 1e-14


def test_feed_forward_phase_placement():
    reg = ModeRegister((("A", qubit()), ("C", qubit())))
    v = np.ones(4, dtype=np.complex128) / 2.0
    out = feed_forward_correction(StateVector(reg, v), 0.5, 1.0, 0.7)
    phase = np.exp(-1j * 4.0 * 0.5 * 0.7)
    expect = np.array([0.5, 0.5 * phase, 0.5, 0.5 * phase])
    assert np.abs(out.amplitudes - expect).max() < 1e-14


def test_feed_forward_inverts_with_negated_outcome():
    reg = ModeRegister((("A", qubit()), ("C", qubit())))
    v = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.complex128)
    psi = StateVector(reg, v)
    back = feed_forward_correction(
        feed_forward_correction(psi, 0.3, 0.9, 2.2), 0.3, 0.9, -2.2
    )
    assert np.abs(back.amplitudes - v).max() < 1e-15


def test_feed_forward_identity_at_zero_outcome():
    reg = ModeRegister((("A", qubit()), ("C", qubit())))
    v = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.complex128)
    out = feed_forward_correction(StateVector(reg, v), 0.5, 0.8, 0.0)
    assert np.array_equal(out.amplitudes, v)


def test_feed_forward_requires_two_level_mode():
    reg = ModeRegister((("A", qubit()), ("C", bosonic(3))))
    psi = make_fock(reg)
    with pytest.raises(ValueError, match="dimension 2"):
        feed_forward_correction(psi, 0.5, 1.0, 0.3)
    with pytest.raises(TypeError):
        feed_forward_correction(np.zeros(4), 0.5, 1.0, 0.3)


# ---------------------------------------------------------------------------
# all-coherent Bell measurement


def test_cv_bsm_failure_probability():
    # frozen: 1 / (2 cosh(2 alpha^2))
    assert abs(cv_bsm_failure_prob(1.0, 20) - 0.13290111441703985) < 1e-10
    assert abs(cv_bsm_failure_prob(0.7, 16) - 0.32897254555775731) < 1e-10


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
# full-register references: both loss splitters, the ancilla and the
# per-node quadrature loop on one register, as the explicit route that
# the per-pair loss, the vacuum-test filter and the Gram-form
# contraction must reproduce


FULL_REGISTER_POINTS = [
    (0.2, 1.0, 1.0),
    (0.5, 0.0, 1.0),
    (0.4, 0.6, 0.8),
    (0.7, 0.3, 1.0),
    (0.2, 0.05, 0.9),
]


def _full_register(prepare, c, tau, ancilla=None):
    """Pairs, optional ancilla and both environments on one register,
    through both loss splitters and the midpoint splitter."""
    psi = tensor(
        prepare(ModeRegister((("A", qubit()), ("B", bosonic(c)))), "A", "B"),
        prepare(ModeRegister((("C", qubit()), ("D", bosonic(c)))), "C", "D"),
    )
    if ancilla is not None:
        psi = tensor(psi, ancilla)
    psi = tensor(psi, make_fock(ModeRegister((("Eb", bosonic(c)), ("Ed", bosonic(c))))))
    loss = BeamSplitterParams.from_transmission(tau)
    psi = apply_bs(psi, "B", "Eb", loss)
    psi = apply_bs(psi, "D", "Ed", loss)
    return apply_bs(psi, "B", "D", FIFTY_FIFTY)


def _he_ho_full_register(alpha, T, tp, cutoff, xs):
    """Unnormalized corrected A-C state at each quadrature node in xs, shape (len(xs), 4, 4)."""
    tau = T * tp
    anc = make_coherent(
        ModeRegister((("E", bosonic(cutoff)),)), "E", math.sqrt(2.0 * tau) * alpha
    )
    psi = _full_register(
        lambda reg, q, t: make_hybrid_pair(reg, q, t, alpha), cutoff, tau, anc
    )
    psi = apply_bs(psi, "B", "E", FIFTY_FIFTY)
    reg = psi.register
    t = psi.tensor_view().copy()
    for mode in ("B", "E"):  # both on-off detectors click
        idx = [slice(None)] * len(reg.dims)
        idx[reg.axis(mode)] = 0
        t[tuple(idx)] = 0.0
    rest = [nm for nm in reg.names if nm not in ("A", "C", "D")]
    perm = [reg.axis(nm) for nm in ["A", "C"] + rest + ["D"]]
    flat = np.transpose(t, perm).reshape(-1, cutoff + 1)
    V = quadrature_amplitudes(xs, cutoff + 1, math.pi / 2.0)
    ac = ModeRegister((("A", qubit()), ("C", qubit())))
    nodes = []
    for i, x in enumerate(xs):
        col = (flat @ V[:, i]).reshape(4, -1)
        node = DensityOperator(ac, col @ col.conj().T)
        nodes.append(feed_forward_correction(node, alpha, tau, x).matrix)
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
    # (0.2, 0.05, 0.9) has p 1.6e-6, so at cutoffs 4-7 the p-relative budget brings back
    # pairs the first pass dropped; (0.8, 0.7, 0.9) keeps all 49 pairs at cutoff 6
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


@pytest.mark.parametrize("budget", [0.0, 1e-30, 1e-16, 1e-12, 0.05, 2.0])
def test_drop_lightest_pairs_drops_only_what_fits_the_budget(budget):
    from hyswap.protocols import _drop_lightest_pairs

    w = np.array([0.7, 0.3, 1e-10, 1e-12])
    joint = np.outer(w, w).ravel()
    order, run = _drop_lightest_pairs(w)
    n = run(budget)
    assert sorted(order.tolist()) == list(range(w.size**2))
    dropped, kept = joint[order[:n]], joint[order[n:]]
    if n and n < joint.size:
        assert dropped.max() <= kept.min()
    assert dropped.sum() <= budget
    if n < joint.size:
        assert dropped.sum() + kept.min() > budget
    assert run(joint.min()) == 1  # a run of exactly the budget goes
    if budget == 1e-16:  # every tail x tail pair goes, every pair with a main vector stays
        assert sorted(order[n:].tolist()) == [i * 4 + j for i in range(4) for j in range(4)
                                              if min(i, j) < 2]


@pytest.mark.parametrize("alpha,T,tp,cutoff",
                         [(0.706, 0.5, 1.0, 12), (0.528, 0.6, 1.0, 9), (0.2, 0.05, 0.9, 6)])
def test_he_ho_pair_rule_matches_all_pairs(monkeypatch, alpha, T, tp, cutoff):
    import hyswap.protocols as protocols

    kept = he_swap_homodyne(alpha, T, tp, cutoff).per_outcome[0]
    monkeypatch.setattr(protocols, "_SCHMIDT_FLOOR", 0.0)
    monkeypatch.setattr(protocols, "_SCHMIDT_REL", 0.0)
    every = he_swap_homodyne(alpha, T, tp, cutoff).per_outcome[0]
    assert abs(kept.probability - every.probability) < 1e-15
    assert np.abs(kept.post_state.matrix - every.post_state.matrix).max() < 1e-13


def _counting_full_register(prepare, c, tau):
    psi = _full_register(prepare, c, tau)
    out = []
    for nb, nd in [(0, 1), (1, 0)]:
        els = [fock_projector(psi.register, "B", nb), fock_projector(psi.register, "D", nd)]
        p, rho = measure_and_reduce(psi, els, ["A", "C"])
        out.append((p, rho.matrix * p))
    return out


@pytest.mark.parametrize("cutoff", [4, 5, 6, 7])
def test_counting_schemes_match_full_register_loss(cutoff):
    # the dv reference keeps the full cutoff, so it also checks the cap at 2
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
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            he_swap_spd(bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            he_swap_homodyne(bad, 0.5, cutoff=4)
        with pytest.raises(ValueError, match="finite"):
            cv_bsm_failure_prob(bad, 4)


def test_loss_builds_no_splitter_per_transmission():
    """Loss goes through Kraus operators, so a T sweep adds no cached splitter."""
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
    """Splitter blocks and the vacuum test's block entries, not a 272 MiB dense d^2 x d^2 unitary."""
    from hyswap.optics import _bs_blocks

    _bs_blocks.cache_clear()
    assert _traced_peak(lambda: he_swap_homodyne(1.5, 0.9, 1.0, 64)) < 64 * 2**20


def test_he_ho_warm_point_at_cutoff_64_pushes_no_vacuum_test_columns():
    """The vacuum test gathers one block entry per clicked amplitude; pushing the (d, d, d)
    columns |k> ⊗ |beta> through the splitter peaked at 25 MiB here."""
    he_swap_homodyne(0.3, 0.5, 1.0, 64)
    assert _traced_peak(lambda: he_swap_homodyne(0.3, 0.5, 1.0, 64)) < 16 * 2**20


def _vacuum_test_filter_by_splitter(d, beta):
    """R the direct way: push the columns |k> ⊗ |beta> through the splitter, keep the
    clicked outputs (b, e >= 1) and take the QR."""
    from hyswap.optics import bs_on_axes

    anc = make_coherent(ModeRegister((("E", bosonic(d - 1)),)), "E", beta)
    cols = np.einsum("bk,e->bek", np.eye(d), anc.amplitudes)  # column k: |k> ⊗ |beta> on (B, E)
    C = bs_on_axes(cols, (0, 1), FIFTY_FIFTY)[1:, 1:].reshape(-1, d)
    return np.linalg.qr(C, mode="r")


@pytest.mark.parametrize("d", list(range(2, 18)) + [33])
def test_vacuum_test_filter_matches_columns_through_the_splitter(d):
    from hyswap.protocols import _vacuum_test_filter

    for beta in (0.0, 0.3, 1.1, 2.5):
        R_ref = _vacuum_test_filter_by_splitter(d, beta)
        M = R_ref.conj().T @ R_ref
        R = _vacuum_test_filter(d, beta)
        assert R.shape == R_ref.shape
        assert np.abs(R.conj().T @ R - M).max() <= 1e-15 * np.linalg.norm(M)


def test_vacuum_test_filter_reads_the_blocks_without_the_splitter(monkeypatch):
    import hyswap.optics as optics
    import hyswap.protocols as protocols

    def forbidden(*args, **kwargs):
        raise AssertionError("the vacuum test pushed columns through the splitter")

    protocols._vacuum_test_gather.cache_clear()
    monkeypatch.setattr(optics, "bs_on_axes", forbidden)
    monkeypatch.setattr(protocols, "bs_on_axes", forbidden)
    for d in (2, 7, 13):
        protocols._vacuum_test_filter(d, 0.8)
        assert all(not a.flags.writeable for a in protocols._vacuum_test_gather(d))


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
    from hyswap.protocols import _displacement, _feed_forward_phase

    xs, ws = homodyne_grid(12.0, 801)
    V = quadrature_amplitudes(xs, d, math.pi / 2.0)
    for alpha, tau in ((0.5, 0.7), (0.8, 1.0), (-0.3, 0.2)):
        g = _feed_forward_phase(alpha, tau, 1.0)
        K1 = (V * (ws * np.exp(-1j * g * xs))) @ V.conj().T
        assert np.abs(_displacement(-g / math.sqrt(2.0), d) - K1).max() <= 1e-13
    assert np.abs((V * ws) @ V.conj().T - np.eye(d)).max() <= 1e-13  # K_0 = I


def test_displacement_tables_are_cached_and_read_only():
    from hyswap.protocols import _displacement, _displacement_steps

    _displacement_steps.cache_clear()
    first = _displacement(1.3, 11)
    tables = _displacement_steps(11)
    assert all(not t.flags.writeable for t in tables)
    assert np.array_equal(_displacement(1.3, 11), first)
    assert _displacement_steps.cache_info().misses == 1


def test_he_spd_lossy_pair_is_written_as_its_band():
    """Only the d(d+1)/2 nonzero Kraus elements, not a (d, d, d) stack (124 MiB at cutoff 200)."""
    he_swap_spd(1.5, 0.9, 1.0, 200)
    assert _traced_peak(lambda: he_swap_spd(1.5, 0.9, 1.0, 200)) < 32 * 2**20


def test_he_spd_herald_holds_no_environment_amplitudes_at_cutoff_200():
    """The counting herald contracts 2 x 2 environment Gram blocks, not (2, 4, d^2)
    amplitude arrays (13.6 MiB at this point when it built them)."""
    he_swap_spd(1.5, 0.9, 1.0, 200)
    assert _traced_peak(lambda: he_swap_spd(1.5, 0.9, 1.0, 200)) < 4 * 2**20


def test_counting_points_cross_the_traced_layers(monkeypatch):
    """Each counting point calls its pair builder once and negativity once per
    outcome, through the module names a layer trace wraps."""
    import hyswap.protocols as protocols

    calls = {}

    def counting(name):
        fn = getattr(protocols, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(protocols, name, counted)

    for name in ("negativity", "make_hybrid_pair", "make_vsp_bell"):
        counting(name)
    he_swap_spd(0.8, 0.7, 0.9, 6)
    assert calls == {"negativity": 2, "make_hybrid_pair": 1}
    calls.clear()
    dv_swap(0.7, 0.9, 6)
    assert calls == {"negativity": 2, "make_vsp_bell": 1}


def test_pipelines_build_no_dense_splitter_or_kraus_stack(monkeypatch):
    import hyswap.optics as optics
    import hyswap.protocols as protocols

    def forbidden(*args, **kwargs):
        raise AssertionError("a pipeline built a dense splitter or Kraus stack")

    for name in ("bs_unitary", "loss_channel"):
        monkeypatch.setattr(optics, name, forbidden)
        assert not hasattr(protocols, name)  # a copy bound there would dodge the patch
    dv_swap(0.7, 0.9, 6)
    he_swap_spd(0.8, 0.7, 0.9, 6)
    he_swap_homodyne(0.8, 0.7, 0.9, 6)
    cv_bsm_failure_prob(0.8, 6)
    reg = ModeRegister((("X", bosonic(3)), ("Y", bosonic(4))))
    apply_bs(make_fock(reg, {"X": 1}), "X", "Y", FIFTY_FIFTY)
    rho = DensityOperator(reg, np.eye(reg.dim) / reg.dim)
    optics.apply_loss_dilated(rho, "Y", 0.4)
