"""Entanglement-swapping pipelines on the truncated Fock space.

Both parties keep a local mode (A and C, stored as qubits) and send a
traveling mode (B and D) through a lossy channel to a midpoint where the
two traveling modes interfere on a 50:50 splitter and are measured.  The
surviving A-C state, conditioned on the accepted outcomes, is the
protocol output.

The three schemes differ only in the resource pair and the herald, the
midpoint measurement.  One private runner does the rest: it validates
T, T' and the cutoff, forms tau = T * T', builds the lossy pair and
sums the herald's outcomes, unnormalized A-C matrices whose trace is the
probability, into a ``SwapResult``.  Each outcome at or below
``_PROB_FLOOR`` carries the zero state; any other gets its normalized
state and negativity.

* ``dv_swap``: vacuum/single-photon Bell pairs, counting herald.
* ``he_swap_spd``: hybrid qubit/coherent pairs, counting herald.
* ``he_swap_homodyne``: hybrid pairs, vacuum-test-and-homodyne herald.

The counting herald accepts the photon counts (0, 1) and (1, 0) on
(B, D); for the hybrid pairs these are single-photon detectors and "two
or more" is rejected.  It builds no midpoint register: the splitter
conserves photon number, so those outcomes come only from the inputs
(0, 1) and (1, 0), mixed by its 2 x 2 one-photon block, and each is two
index selections on the lossy pair.

The homodyne herald tests B for vacuum against an ancillary coherent
beam (two on-off detectors must both click) and reads D out along the
x_{pi/2} quadrature; every quadrature value is accepted and a
feed-forward phase on C undoes the outcome-dependent rotation.  The
ancilla never enters the register: the vacuum test acts on B as a d x d
filter R with R†R = M, the test's operator on B.

Channel loss keeps the global state pure until measurement, so the
reduced A-C state never needs a full-register density matrix.  Both
parties hold the same (local, traveling) pair, and the Kraus operators
A_k of ``loss_channel`` add its environment axis, P[a, m, k] = sum_n
A_k[m, n] amp[a, n].  For a vacuum environment this is the splitter
dilation up to a phase on each |k>, which every trace over the
environments removes.  Detector inefficiency T' enters as the
substitution T -> T * T' (loss commutes with the balanced midpoint
splitter, and an inefficient detector is an ideal one behind a loss);
the tests check it against explicitly modeled inefficient detectors.
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
    make_coherent,
    make_hybrid_pair,
    make_vsp_bell,
    qubit,
    tensor,
)
from .negativity import negativity
from .optics import (
    FIFTY_FIFTY,
    apply_bs,
    bs_unitary,
    homodyne_grid,
    loss_channel,
    quadrature_amplitudes,
)
# imported but never called here: perfbench's WRAPPED names both, and its tests need them bound
from .fock import make_fock  # noqa: F401
from .optics import measure_and_reduce  # noqa: F401

__all__ = [
    "DEFAULT_CUTOFF",
    "default_cutoff",
    "SwapOutcome",
    "SwapResult",
    "dv_swap",
    "he_swap_spd",
    "he_swap_homodyne",
    "feed_forward_correction",
    "cv_bsm_failure_prob",
]

DEFAULT_CUTOFF = 12

_PROB_FLOOR = 1e-15  # below this an outcome is treated as unreachable
_AC_REGISTER = ModeRegister((("A", qubit()), ("C", qubit())))


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


def _lossy_pair(make_pair, param, c: int, tau: float) -> np.ndarray:
    """The resource pair after its loss, as P[local, traveling, loss environment].

    ``make_pair(register, local, traveling, param)`` builds it at cutoff ``c``.
    """
    pair = make_pair(ModeRegister((("A", qubit()), ("B", bosonic(c)))), "A", "B", param)
    return np.einsum("kmn,an->amk", loss_channel(tau, c).kraus, pair.amplitudes.reshape(2, c + 1))


def _outcome(label: str, rho: np.ndarray) -> SwapOutcome:
    """One accepted outcome from its unnormalized A-C matrix, whose trace is p.

    At or below ``_PROB_FLOOR`` the outcome is unreachable: it gets
    probability 0, the zero state and negativity 0.
    """
    prob = float(np.trace(rho).real)
    if prob <= _PROB_FLOOR:
        return SwapOutcome(label, 0.0, DensityOperator(_AC_REGISTER, np.zeros((4, 4))), 0.0)
    state = DensityOperator(_AC_REGISTER, rho / prob)
    return SwapOutcome(label, prob, state, negativity(state, ["C"]).value)


def _run_swap(scheme: str, alpha: float | None, T: float, T_prime: float,
              cutoff: int | None, pair, herald, **extra_echo) -> SwapResult:
    """The part every scheme shares: checks, lossy pair, herald, totals.

    ``pair = (make_pair, param, max_cutoff)``: the resource pair is
    ``make_pair(register, local, traveling, param)`` stored at
    ``min(cutoff, max_cutoff)``.  ``herald(P, tau)`` takes the lossy pair
    P[a, m, k], which both parties hold, and returns the accepted
    outcomes as ``(label, unnormalized A-C matrix)`` pairs.
    ``extra_echo`` joins the parameter echo.
    """
    T = _check_unit(T, "T")
    T_prime = _check_unit(T_prime, "T_prime")
    cutoff = _resolve_cutoff(cutoff)
    tau = T * T_prime
    make_pair, param, max_cutoff = pair
    P = _lossy_pair(make_pair, param, min(cutoff, max_cutoff), tau)
    outcomes = [_outcome(label, rho) for label, rho in herald(P, tau)]
    total = sum(o.probability for o in outcomes)
    avg = sum(o.probability * o.negativity for o in outcomes) / total if total > _PROB_FLOOR else 0.0
    echo = {"scheme": scheme, "alpha": alpha, "T": T, "T_prime": T_prime, "cutoff": cutoff}
    return SwapResult(scheme, tuple(outcomes), total, avg, echo | extra_echo)


def _count_herald(P: np.ndarray, tau: float) -> list[tuple[str, np.ndarray]]:
    """Photon counts (0, 1) and (1, 0) on (B, D), read off the lossy pair.

    Row o of the splitter's one-photon block u maps the inputs (0, 1) and
    (1, 0) to output o, so its (A, C | Eb, Ed) amplitude is
    u[o, 0] P[:, 0] ⊗ P[:, 1] + u[o, 1] P[:, 1] ⊗ P[:, 0].
    """
    u = bs_unitary(2, 2, FIFTY_FIFTY)[1:3, 1:3]
    ins = np.stack([np.einsum("ae,cf->acef", P[:, m], P[:, 1 - m]).reshape(4, -1) for m in (0, 1)])
    return [(label, X @ X.conj().T) for label, X in zip(("01", "10"), np.tensordot(u, ins, axes=1))]


def dv_swap(T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Vacuum/single-photon baseline swap.

    Both pairs start as (|01> + |10>)/sqrt(2) on (local, traveling)
    modes; the midpoint accepts the photon-counting outcomes (0,1) and
    (1,0), heralding (|01>+|10>)/sqrt(2) and (|01>-|10>)/sqrt(2) on A-C.

    Total occupation never exceeds two anywhere in this pipeline, so the
    stored bosonic dimension is capped at three internally; results are
    exactly cutoff-independent for any requested cutoff >= 2.
    """
    return _run_swap("dv", None, T, T_prime, cutoff, (make_vsp_bell, "phi+", 2), _count_herald)


def he_swap_spd(alpha: float, T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Hybrid swap with single-photon detectors at the midpoint.

    The accepted outcomes are (vacuum, one photon) and (one photon,
    vacuum) on (B, D); any "two or more" count is rejected.  Heralded
    A-C states are Bell-like with coherences damped by channel loss.
    """
    alpha = _check_alpha(alpha)
    return _run_swap("he_spd", alpha, T, T_prime, cutoff, (make_hybrid_pair, alpha, math.inf),
                     _count_herald)


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
    if x_grid is None:
        x_grid = homodyne_grid()
    xs, ws = np.asarray(x_grid[0], dtype=float), np.asarray(x_grid[1], dtype=float)
    if xs.size == 0 or xs.size != ws.size:
        raise ValueError("homodyne grid must supply matching nodes and weights")

    def herald(P: np.ndarray, tau: float) -> list[tuple[str, np.ndarray]]:
        d = P.shape[1]
        mode = bosonic(d - 1)
        reg = ModeRegister((("A", qubit()), ("B", mode), ("Eb", mode),
                            ("C", qubit()), ("D", mode), ("Ed", mode)))
        # kron keeps the amplitudes contiguous, so StateVector takes them uncopied
        psi = apply_bs(StateVector(reg, np.kron(P.ravel(), P.ravel())), "B", "D", FIFTY_FIFTY)
        # both clicks as R on B, then (A, B, Eb, C, D, Ed) -> (A, C, D | Eb, Ed, B)
        R = _vacuum_test_filter(d, math.sqrt(2.0 * tau) * alpha)
        t = np.tensordot(psi.tensor_view(), R, axes=([1], [1]))
        X = np.transpose(t, (0, 2, 3, 1, 4, 5)).reshape(4 * d, -1)
        G = (X @ X.conj().T).reshape(4, d, 4, d)

        V = quadrature_amplitudes(xs, d, math.pi / 2.0)
        phi = _feed_forward_phase(alpha, tau, xs)
        K = np.stack([(V * (ws * np.exp(-1j * k * phi))) @ V.conj().T for k in (-1, 0, 1)])
        cbit = np.arange(4) % 2
        return [("click_click", np.einsum("anbm,abnm->ab", G, K[cbit[:, None] - cbit[None, :] + 1]))]

    return _run_swap("he_ho", alpha, T, T_prime, cutoff, (make_hybrid_pair, alpha, math.inf),
                     herald, grid_points=int(xs.size))


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
