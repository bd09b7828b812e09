"""Entanglement-swapping pipelines on the truncated Fock space.

Both parties keep a local mode (A and C, stored as qubits) and send a
traveling mode (B and D) through a lossy channel to a midpoint where the
two traveling modes interfere on a 50:50 splitter and are measured.  The
surviving A-C state, conditioned on the accepted outcomes, is the
protocol output.

Three midpoint measurements are implemented:

* ``dv_swap``: vacuum/single-photon dual-mode Bell pairs with projective
  photon counting on (B, D); outcomes (0,1) and (1,0) herald Bell states.
* ``he_swap_spd``: hybrid qubit/coherent pairs with single-photon
  detectors; outcomes (vacuum, one) and (one, vacuum) are accepted,
  "two or more" is rejected.
* ``he_swap_homodyne``: hybrid pairs where mode B is tested for vacuum
  against an ancillary coherent beam (two on-off detectors must both
  click) and mode D is read out by homodyne along the x_{pi/2}
  quadrature; every quadrature value is accepted and a feed-forward
  phase on C undoes the outcome-dependent rotation.  The ancilla never
  enters the register: the vacuum test acts on B as a d x d filter R
  with R†R = M, the test's operator on B (see ``he_swap_homodyne``).

Channel loss keeps the global state pure until measurement, so the
reduced A-C state never needs a full-register density matrix.  Each pair
is built on (local, traveling), and the Kraus operators A_k of
``loss_channel`` add its environment axis, amp[a, m, k] = sum_n A_k[m, n]
amp[a, n].  For a vacuum environment this is the splitter dilation up to
a phase on each |k>, which every trace over the environments removes.
Detector inefficiency T' enters as the substitution T -> T * T' (loss
commutes with the balanced midpoint splitter, and an inefficient
detector is an ideal one behind a loss); the tests check that
substitution against explicitly modeled inefficient detectors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    ModeRegister,
    StateVector,
    bosonic,
    make_cat,
    make_coherent,
    make_fock,
    make_hybrid_pair,
    make_vsp_bell,
    qubit,
    tensor,
)
from .negativity import negativity
from .optics import (
    FIFTY_FIFTY,
    MeasurementElement,
    apply_bs,
    bs_unitary,
    fock_projector,
    homodyne_grid,
    loss_channel,
    measure_and_reduce,
    quadrature_amplitudes,
)

__all__ = [
    "DEFAULT_CUTOFF",
    "default_cutoff",
    "SwapOutcome",
    "SwapResult",
    "dv_swap",
    "he_swap_spd",
    "he_swap_homodyne",
    "feed_forward_correction",
    "build_k_povm",
    "cv_bsm_failure_prob",
]

DEFAULT_CUTOFF = 12

_PROB_FLOOR = 1e-15  # below this an outcome is treated as unreachable


def default_cutoff() -> int:
    """Fock cutoff from the HYSWAP_CUTOFF environment variable, else 12."""
    raw = os.environ.get("HYSWAP_CUTOFF")
    if raw is None or raw.strip() == "":
        return DEFAULT_CUTOFF
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HYSWAP_CUTOFF must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError("HYSWAP_CUTOFF must be at least 2")
    return value


@dataclass(frozen=True)
class SwapOutcome:
    label: str
    probability: float
    post_state: DensityOperator
    negativity: float


@dataclass(frozen=True)
class SwapResult:
    """Per-outcome and aggregate results of one protocol run.

    ``averaged_negativity`` is the probability-weighted mean of the
    per-outcome negativities over accepted outcomes (the accepted
    outcomes are symmetric in all three schemes, so the average equals
    each individual value).
    """

    scheme: str
    per_outcome: tuple[SwapOutcome, ...]
    total_success_probability: float
    averaged_negativity: float
    parameters_echo: dict


def _check_unit(value: float, name: str) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return v


def _check_alpha(alpha: float) -> float:
    if not math.isfinite(alpha := float(alpha)):
        raise ValueError("alpha must be finite")
    return alpha


def _resolve_cutoff(cutoff: int | None) -> int:
    c = default_cutoff() if cutoff is None else int(cutoff)
    if c < 2:
        raise ValueError("cutoff must be at least 2")
    return c


def _ac_register() -> ModeRegister:
    return ModeRegister((("A", qubit()), ("C", qubit())))


def _zero_rho() -> DensityOperator:
    return DensityOperator(_ac_register(), np.zeros((4, 4), dtype=np.complex128))


def _lossy_pairs_at_midpoint(make_pair, param, c: int, tau: float) -> StateVector:
    """Both pairs through their loss channels, then the 50:50 midpoint.

    ``make_pair(register, local, traveling, param)`` builds one pair on a
    (local, traveling) register; the Kraus index of the loss becomes its
    env mode, and the result is ordered (A, B, Eb, C, D, Ed).
    """
    kraus = np.stack(loss_channel(tau, c).kraus)  # (k, m, n)
    pairs = []
    for local, trav in (("A", "B"), ("C", "D")):
        pair = make_pair(ModeRegister(((local, qubit()), (trav, bosonic(c)))), local, trav, param)
        amp = np.einsum("kmn,an->amk", kraus, pair.amplitudes.reshape(2, c + 1))
        reg = ModeRegister(pair.register.modes + (("E" + trav.lower(), bosonic(c)),))
        pairs.append(StateVector(reg, amp.reshape(-1), pair.norm_deficit))
    return apply_bs(tensor(*pairs), "B", "D", FIFTY_FIFTY)


def _assemble(scheme: str, outcomes: list[SwapOutcome], echo: dict) -> SwapResult:
    total = sum(o.probability for o in outcomes)
    if total > _PROB_FLOOR:
        avg = sum(o.probability * o.negativity for o in outcomes) / total
    else:
        avg = 0.0
    return SwapResult(scheme, tuple(outcomes), total, avg, echo)


def _collect_outcomes(psi, accepted, scheme, echo):
    """Project the accepted (B, D) counts and reduce onto A-C."""
    outcomes = []
    reg = psi.register
    for nb, nd in accepted:
        els = [
            fock_projector(reg, "B", nb),
            fock_projector(reg, "D", nd),
        ]
        prob, rho = measure_and_reduce(psi, els, ["A", "C"])
        if prob > _PROB_FLOOR:
            E = negativity(rho, ["C"]).value
        else:
            prob, rho, E = 0.0, _zero_rho(), 0.0
        outcomes.append(SwapOutcome(f"{nb}{nd}", prob, rho, E))
    return _assemble(scheme, outcomes, echo)


def dv_swap(T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Vacuum/single-photon baseline swap.

    Both pairs start as (|01> + |10>)/sqrt(2) on (local, traveling)
    modes; the midpoint accepts the photon-counting outcomes (0,1) and
    (1,0), heralding (|01>+|10>)/sqrt(2) and (|01>-|10>)/sqrt(2) on A-C.

    Total occupation never exceeds two anywhere in this pipeline, so the
    stored bosonic dimension is capped at three internally; results are
    exactly cutoff-independent for any requested cutoff >= 2.
    """
    T = _check_unit(T, "T")
    T_prime = _check_unit(T_prime, "T_prime")
    cutoff = _resolve_cutoff(cutoff)
    tau = T * T_prime
    c = min(cutoff, 2)
    psi = _lossy_pairs_at_midpoint(make_vsp_bell, "phi+", c, tau)
    echo = {"scheme": "dv", "alpha": None, "T": T, "T_prime": T_prime, "cutoff": cutoff}
    return _collect_outcomes(psi, [(0, 1), (1, 0)], "dv", echo)


def he_swap_spd(alpha: float, T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Hybrid swap with single-photon detectors at the midpoint.

    The accepted outcomes are (vacuum, one photon) and (one photon,
    vacuum) on (B, D); any "two or more" count is rejected.  Heralded
    A-C states are Bell-like with coherences damped by channel loss.
    """
    alpha = _check_alpha(alpha)
    T = _check_unit(T, "T")
    T_prime = _check_unit(T_prime, "T_prime")
    cutoff = _resolve_cutoff(cutoff)
    tau = T * T_prime
    psi = _lossy_pairs_at_midpoint(make_hybrid_pair, alpha, cutoff, tau)
    echo = {
        "scheme": "he_spd", "alpha": alpha, "T": T, "T_prime": T_prime,
        "cutoff": cutoff,
    }
    return _collect_outcomes(psi, [(0, 1), (1, 0)], "he_spd", echo)


def _feed_forward_phase(alpha: float, T: float, x: float) -> float:
    """Correction angle phi_c = 4 sqrt(T) alpha x for the homodyne scheme."""
    return 4.0 * math.sqrt(T) * alpha * x


def _vacuum_test_filter(d: int, beta: float) -> np.ndarray:
    """Factor R of the two-click test on B: R†R = <beta| U† (P_B>=1 ⊗ P_E>=1) U |beta>.

    Column k of C holds the clicked outputs of U(|k> ⊗ |beta>), so C†C is
    that operator and C = QR gives R without an eigenvalue square root.
    """
    U = bs_unitary(d, d, FIFTY_FIFTY).reshape(d, d, d, d)  # (b', e', b, e)
    anc = make_coherent(ModeRegister((("E", bosonic(d - 1)),)), "E", beta)
    C = (U @ anc.amplitudes)[1:, 1:].reshape(-1, d)
    return np.linalg.qr(C, mode="r")


def he_swap_homodyne(
    alpha: float,
    T: float,
    T_prime: float = 1.0,
    cutoff: int | None = None,
    x_grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> SwapResult:
    """Hybrid swap with a vacuum test on B and homodyne readout on D.

    After the midpoint splitter, mode B interferes on a second 50:50
    splitter with an ancillary coherent beam of amplitude
    beta = sqrt(2 * T * T') * alpha; a click on both output on-off
    detectors certifies that B carried the (near-)vacuum branch.  Mode D
    is then read out along the x_{pi/2} quadrature on a Gauss-Legendre
    grid, and the outcome-dependent phase is undone on C by the
    feed-forward correction.  All quadrature values are accepted: only
    the two clicks gate success.  The single reported outcome carries
    the quadrature-averaged corrected state.

    Loss is applied per pair.  The ancilla E never enters the register:
    splitter, both clicks and the trace over E act on B as the d x d
    M = <beta| U† (P_B>=1 ⊗ P_E>=1) U |beta>, applied as R with R†R = M,
    so the register stays at 4 d^4 amplitudes.  The quadrature sum is
    one Gram matrix G = X X† of the (A, C, D | rest) matrix X, contracted
    with K_k = V diag(w e^{-i k phi(x)}) V† for C-bit difference k.
    """
    alpha = _check_alpha(alpha)
    T = _check_unit(T, "T")
    T_prime = _check_unit(T_prime, "T_prime")
    cutoff = _resolve_cutoff(cutoff)
    tau = T * T_prime
    if x_grid is None:
        x_grid = homodyne_grid()
    xs, ws = np.asarray(x_grid[0], dtype=float), np.asarray(x_grid[1], dtype=float)
    if xs.size == 0 or xs.size != ws.size:
        raise ValueError("homodyne grid must supply matching nodes and weights")
    d = cutoff + 1
    psi = _lossy_pairs_at_midpoint(make_hybrid_pair, alpha, cutoff, tau)

    # both clicks as R on B, then (A, B, Eb, C, D, Ed) -> (A, C, D | Eb, Ed, B)
    R = _vacuum_test_filter(d, math.sqrt(2.0 * tau) * alpha)
    t = np.tensordot(psi.tensor_view(), R, axes=([1], [1]))
    X = np.transpose(t, (0, 2, 3, 1, 4, 5)).reshape(4 * d, -1)
    G = (X @ X.conj().T).reshape(4, d, 4, d)

    V = quadrature_amplitudes(xs, d, math.pi / 2.0)
    phi = _feed_forward_phase(alpha, tau, xs)
    K = np.stack([(V * (ws * np.exp(-1j * k * phi))) @ V.conj().T for k in (-1, 0, 1)])
    cbit = np.arange(4) % 2
    rho_acc = np.einsum("anbm,abnm->ab", G, K[cbit[:, None] - cbit[None, :] + 1])
    p_acc = float(np.trace(rho_acc).real)

    echo = {
        "scheme": "he_ho", "alpha": alpha, "T": T, "T_prime": T_prime,
        "cutoff": cutoff, "grid_points": int(xs.size),
    }
    if p_acc > _PROB_FLOOR:
        rho = DensityOperator(_ac_register(), rho_acc / p_acc)
        E = negativity(rho, ["C"]).value
    else:
        p_acc, rho, E = 0.0, _zero_rho(), 0.0
    outcome = SwapOutcome("click_click", p_acc, rho, E)
    return _assemble("he_ho", [outcome], echo)


def feed_forward_correction(target, alpha: float, T: float, x: float, mode: str = "C"):
    """Undo the homodyne-outcome phase: diag(1, e^{-i phi_c}) on ``mode``.

    phi_c = 4 sqrt(T) alpha x cancels the relative phase of the
    conditioned state exactly; at T = 1 the corrected state is the plain
    (|00> + |11>)/sqrt(2) Bell state.  ``T`` here is the effective
    transmission seen by the traveling modes (T * T' when detectors are
    inefficient).  Accepts a StateVector or DensityOperator whose target
    mode is two-dimensional.
    """
    if not isinstance(target, (StateVector, DensityOperator)):
        raise TypeError("target must be a StateVector or DensityOperator")
    reg = target.register
    ax = reg.axis(mode)
    if reg.dims[ax] != 2:
        raise ValueError(f"feed-forward target mode {mode!r} must have dimension 2")
    phase = np.array([1.0, np.exp(-1j * _feed_forward_phase(alpha, T, x))])
    shape = [1] * len(reg.dims)
    shape[ax] = 2
    diag = phase.reshape(shape)
    if isinstance(target, StateVector):
        return StateVector(reg, (target.tensor_view() * diag).reshape(-1), target.norm_deficit)
    n = len(reg.dims)
    t = target.matrix.reshape(reg.dims + reg.dims)
    kshape = shape + [1] * n
    bshape = [1] * n + shape
    t = t * phase.reshape(kshape) * phase.conj().reshape(bshape)
    return DensityOperator(reg, t.reshape(reg.dim, reg.dim))


def build_k_povm(alpha: float, cutoff: int | None = None) -> list[MeasurementElement]:
    """Four-element vacuum-vs-cat POVM for the homodyne scheme's B arm.

    With lam = 2 exp(-alpha^2) (the bare two-branch overlap of the even
    cat with vacuum; the normalized overlap would carry the extra cat
    normalization factor) and |CS±> the cat states with branch
    amplitudes ±sqrt(2) alpha:

        K1 = |0><0| + lam^2 |CS-><CS-| - lam(|CS-><0| + |0><CS-|)
        K2 = |0><0| + lam^2 |CS-><CS-| + lam(|CS-><0| + |0><CS-|)
        K3 = |0><0| + lam^2 |CS+><CS+| + lam(|CS+><0| + |0><CS+|)
        K4 = |0><0| + lam^2 |CS+><CS+| - lam(|CS+><0| + |0><CS+|)

    Each element factors as v v† with v = |0> ± lam |CS±>, hence is
    rank one and positive.
    """
    alpha = _check_alpha(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    cutoff = _resolve_cutoff(cutoff)
    reg = ModeRegister((("B", bosonic(cutoff)),))
    v0 = make_fock(reg).amplitudes
    cs_p = make_cat(reg, "B", alpha, "+").amplitudes
    cs_m = make_cat(reg, "B", alpha, "-").amplitudes
    lam = 2.0 * math.exp(-(alpha**2))
    p00 = np.outer(v0, v0.conj())
    pm = np.outer(cs_m, cs_m.conj())
    pp = np.outer(cs_p, cs_p.conj())
    xm = np.outer(cs_m, v0.conj()) + np.outer(v0, cs_m.conj())
    xp = np.outer(cs_p, v0.conj()) + np.outer(v0, cs_p.conj())
    ops = [
        ("K1", p00 + lam**2 * pm - lam * xm),
        ("K2", p00 + lam**2 * pm + lam * xm),
        ("K3", p00 + lam**2 * pp + lam * xp),
        ("K4", p00 + lam**2 * pp - lam * xp),
    ]
    return [
        MeasurementElement(label, ("B",), op, "povm-element") for label, op in ops
    ]


def cv_bsm_failure_prob(alpha: float, cutoff: int | None = None) -> float:
    """Failure probability of the all-coherent Bell measurement.

    The four quasi-Bell states N±(|a>|±a> ± |-a>|∓a>) hit a 50:50
    splitter followed by photon counting on both outputs; the
    measurement fails when neither counter fires, which happens with
    probability (2 cosh 2|a|^2)^{-1} on average over equal priors.
    """
    alpha = _check_alpha(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    cutoff = _resolve_cutoff(cutoff)
    reg = ModeRegister((("m1", bosonic(cutoff)), ("m2", bosonic(cutoff))))
    y = 4.0 * alpha**2

    def two_mode_cat(a1, a2, sign):
        b1 = tensor(
            make_coherent(ModeRegister(reg.modes[:1]), "m1", a1),
            make_coherent(ModeRegister(reg.modes[1:]), "m2", a2),
        )
        b2 = tensor(
            make_coherent(ModeRegister(reg.modes[:1]), "m1", -a1),
            make_coherent(ModeRegister(reg.modes[1:]), "m2", -a2),
        )
        if sign > 0:
            norm = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-y))
        else:
            norm = 1.0 / math.sqrt(-2.0 * math.expm1(-y))
        return StateVector(reg, norm * (b1.amplitudes + sign * b2.amplitudes))

    total = 0.0
    for a2 in (alpha, -alpha):
        for sign in (1, -1):
            state = two_mode_cat(alpha, a2, sign)
            out = apply_bs(state, "m1", "m2", FIFTY_FIFTY)
            total += 0.25 * abs(out.amplitudes[0]) ** 2  # both counters at zero
    return total
