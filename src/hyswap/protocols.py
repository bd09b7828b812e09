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
(0, 1) and (1, 0), mixed by its 2 x 2 one-photon block, and each is a sum
of four Kronecker products of g[m, n] = tr_env P[:, m] P[:, n]†, m, n <= 1.

The homodyne herald tests B for vacuum against an ancillary coherent
beam (two on-off detectors must both click) and reads D out along the
x_{pi/2} quadrature; every value x is accepted and a feed-forward phase
e^{-i g x}, g = 4 sqrt(tau) alpha, on C undoes the outcome-dependent
rotation, so the integral over x is an operator on D, not a grid sum:
K_1 = int dx |x><x| e^{-i g x} = D(-g/sqrt(2)), a real displacement whose
d x d corner is exact.  The ancilla never enters the register: the
vacuum test acts on B as a d x d filter R with R†R = M, the test's
operator on B: the QR factor of the clicked amplitudes <b, e|U|k, beta>,
b, e >= 1, each one cached block entry <b, e|U|k, b+e-k> times beta's
amplitude at level b+e-k.

Before the midpoint the homodyne herald splits both lossy pairs by
their loss environments.  After loss a pair is sum_a |a>|s_a sqrt(tau)
alpha>_B |s_a sqrt(1-tau) alpha>_E, so its environment E has Schmidt rank
2 apart from truncation.  The SVD of P over (A, B | E) gives
right-singular vectors v_i with Schmidt weights w_i and (A, B) blocks
Q_i = P v_i†.  Both environments are traced out, so the output is a sum
over environment pairs (i, j), each contracted from the 4 d^2 amplitudes
of Q_i ⊗ Q_j, and a pair adds at most its joint weight w_i w_j to the
unnormalized output.  Pair rule: sort the d^2 joint weights, drop the
longest ascending run that sums to at most 1e-16, contract the rest and
read p.  When 1e-14 p is smaller, p at least the 1e-15 below which an
outcome counts as unreachable, only the run within that budget is
dropped, and the pairs it brings back are contracted and added.  The
dropped weight is thus bounded in total, not per weight.  The
p-relative budget is needed because dropping weight w moves the
normalized state by about w / p: at p ~ 1e-6 the absolute budget alone
is off by ~1e-11.  Truncation leaves weights near 1e-15 beside the two
main ones, whose tail x tail pairs (about 1e-29 each) always go.

Channel loss keeps the global state pure until measurement, so the
reduced A-C state never needs a full-register density matrix.  Both
parties hold the same (local, traveling) pair, and the Kraus elements of
``loss_band`` add its environment axis, P[a, n-k, k] = A_k[n-k, n]
amp[a, n].  For a vacuum environment this is the splitter dilation up to
a phase on each |k>, which every trace over the environments removes.
Every splitter acts block by block in total photon number, from the
blocks ``optics`` caches.  Detector inefficiency T' enters as the
substitution T -> T * T' (loss commutes with the balanced midpoint
splitter, and an inefficient detector is an ideal one behind a loss);
the tests check it against explicitly modeled inefficient detectors.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

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
    _coherent_amplitudes,
)
from .negativity import negativity
from .optics import (
    FIFTY_FIFTY,
    apply_bs,
    bs_on_axes,
    loss_band,
    _bs_blocks,
)
# imported but never called here: perfbench's WRAPPED names them all, and its tests need them bound
from .fock import make_fock  # noqa: F401
from .optics import homodyne_grid, measure_and_reduce, quadrature_amplitudes  # noqa: F401

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
# he-ho drops the lightest loss-environment pairs whose joint Schmidt weights sum to at
# most _SCHMIDT_FLOOR, or to at most _SCHMIDT_REL * p when smaller, p the success probability
_SCHMIDT_FLOOR = 1e-16
_SCHMIDT_REL = 1e-14
# the midpoint splitter's one-photon block u[o, i], o and i over the counts (0, 1), (1, 0) on (B, D)
_ONE_PHOTON = bs_on_axes(np.eye(4).reshape(2, 2, 2, 2), (0, 1), FIFTY_FIFTY)[[0, 1], [1, 0]][:, [0, 1], [1, 0]]
_ONE_PHOTON_GRAM = np.einsum("om,on->omn", _ONE_PHOTON, _ONE_PHOTON.conj())  # u[o, m] u*[o, n]


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


@lru_cache(maxsize=64)
def _pair_register(c: int) -> ModeRegister:
    return ModeRegister((("A", qubit()), ("B", bosonic(c))))


def _lossy_pair(make_pair, param, c: int, tau: float) -> np.ndarray:
    """The resource pair after its loss, as P[local, traveling, loss environment].

    ``make_pair(register, local, traveling, param)`` builds it at cutoff ``c``.
    Only the band P[:, n-k, k] = A_k[n-k, n] amp[:, n] is nonzero.
    """
    pair = make_pair(_pair_register(c), "A", "B", param)
    k, n, elements = loss_band(tau, c + 1)
    P = np.zeros((2, c + 1, c + 1), dtype=np.complex128)
    P[:, n - k, k] = pair.amplitudes.reshape(2, c + 1)[:, n] * elements
    return P


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
              cutoff: int | None, pair, herald) -> SwapResult:
    """The part every scheme shares: checks, lossy pair, herald, totals.

    ``pair = (make_pair, param, max_cutoff)``: the resource pair is
    ``make_pair(register, local, traveling, param)`` stored at
    ``min(cutoff, max_cutoff)``.  ``herald(P, tau)`` takes the lossy pair
    P[a, m, k], which both parties hold, and returns the accepted
    outcomes as ``(label, unnormalized A-C matrix)`` pairs.
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
    return SwapResult(scheme, tuple(outcomes), total, avg, echo)


def _count_herald(P: np.ndarray, tau: float) -> list[tuple[str, np.ndarray]]:
    """Photon counts (0, 1) and (1, 0) on (B, D), read off the lossy pair.

    Row o of the splitter's one-photon block u (``_ONE_PHOTON``) maps the
    inputs (0, 1) and (1, 0) to output o, whose (A, C | Eb, Ed) amplitude
    is u[o, 0] P[:, 0] ⊗ P[:, 1] + u[o, 1] P[:, 1] ⊗ P[:, 0].  Its Gram
    matrix is G_o = sum_{m,n} u[o,m] u*[o,n] g[m,n] ⊗ g[1-m,1-n], with
    g[m, n] = P[:, m] P[:, n]† traced over the loss environment.
    """
    g = np.einsum("amk,bnk->mnab", P[:, :2], P[:, :2].conj())
    return list(zip(("01", "10"), np.einsum("omn,mnab,mncd->oacbd", _ONE_PHOTON_GRAM, g, g[::-1, ::-1]).reshape(2, 4, 4)))


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


@lru_cache(maxsize=64)
def _vacuum_test_gather(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (flat, anc, entry): the vacuum test's C[(b, e), k], b, e >= 1, is zero but for
    C.flat[flat] = entry * beta_anc, with anc = b + e - k and entry = <b, e|U|k, anc>."""
    blocks, _, slot = _bs_blocks(d, d, FIFTY_FIFTY.theta, FIFTY_FIFTY.phi)
    b, e, k = np.ogrid[1:d, 1:d, :d]
    anc = (b + e - k).ravel()
    flat = np.flatnonzero((anc >= 0) & (anc < d))  # the ancilla levels stored
    anc = anc[flat]
    b, e, k = np.unravel_index(flat, (d - 1, d - 1, d))
    entry = blocks[anc + k, slot[b + 1, e + 1], slot[k, anc]]
    flat, anc = flat.astype(np.int32), anc.astype(np.int32)  # (d - 1)² d < 2³¹ below cutoff 1290
    for a in (flat, anc, entry):
        a.setflags(write=False)
    return flat, anc, entry


def _vacuum_test_filter(d: int, beta: float) -> np.ndarray:
    """Factor R of the two-click test on B: R†R = <beta| U† (P_B>=1 ⊗ P_E>=1) U |beta>.

    Column k of C holds the clicked outputs of U(|k> ⊗ |beta>), so C†C is
    that operator and C = QR gives R without an eigenvalue square root.
    """
    flat, anc, entry = _vacuum_test_gather(d)
    C = np.zeros((d - 1) ** 2 * d, dtype=np.complex128)
    C[flat] = entry * _coherent_amplitudes(beta, d - 1)[anc]
    return np.linalg.qr(C.reshape(-1, d), mode="r")


@lru_cache(maxsize=64)
def _displacement_steps(d: int) -> tuple[np.ndarray, ...]:
    """Read-only (b, s, c, place, sign) for ``_displacement``: b = (2n+1+k) s, s and c = sqrt(n(n+k)) s
    at [n, k], s = 1/sqrt((n+1)(n+1+k)); D.flat = E.flat[place] * sign puts E[n, k] at [n+k, n]."""
    n, k = np.ogrid[:d, :d]
    s = 1.0 / np.sqrt((n + 1) * (n + 1 + k))
    lower = n >= k  # as (row, column) of the matrix
    place = np.where(lower, k * d + n - k, n * d + k - n)
    sign = np.where(lower | ((k - n) % 2 == 0), 1.0, -1.0)
    tables = ((2 * n + 1 + k) * s, s, np.sqrt(n * (n + k)) * s, place, sign)
    for a in tables:
        a.setflags(write=False)
    return tables


def _displacement(gamma: float, d: int) -> np.ndarray:
    """The d x d corner of the real displacement D(gamma) = exp(gamma (a† - a)).

    E[n, k] = <n+k|D|n> = (-1)^k <n|D|n+k> = sqrt(n!/(n+k)!) gamma^k e^{-gamma²/2} L_n^(k)(gamma²)
    (Cahill and Glauber, Phys. Rev. 177, 1857 (1969)).  Row E[0] is the coherent amplitude
    <k|gamma>; the normalized forward Laguerre recurrence E[n+1] = ((2n+1+k-gamma²) E[n]
    - sqrt(n(n+k)) E[n-1]) s runs down every diagonal at once.  (The column recurrence
    a D = D (a + gamma) is 1e11 off at d 65, gamma 8.5.)
    """
    b, s, c, place, sign = _displacement_steps(d)
    E = np.zeros((d + 1, d))  # row d stays zero as E[-1]
    E[0] = _coherent_amplitudes(gamma, d - 1).real
    rows, steps, back = list(E), list(b - gamma * gamma * s), list(c)
    for n in range(d - 1):
        np.multiply(steps[n], rows[n], out=rows[n + 1])
        rows[n + 1] -= back[n] * rows[n - 1]
    return E.ravel()[place] * sign


def _drop_lightest_pairs(w: np.ndarray) -> tuple[np.ndarray, Callable[[float], int]]:
    """Environment pairs (i, j), as i * len(w) + j, in ascending joint weight w_i w_j, and
    ``run(budget)``, the length of the longest leading run whose weights sum to at most budget."""
    joint = np.multiply.outer(w, w).ravel()
    order = np.argsort(joint)
    cum = np.cumsum(joint[order])
    return order, lambda budget: int(np.searchsorted(cum, budget, side="right"))


def he_swap_homodyne(alpha: float, T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Hybrid swap with a vacuum test on B and homodyne readout on D.

    After the midpoint splitter, mode B interferes on a second 50:50
    splitter with an ancillary coherent beam of amplitude
    beta = sqrt(2 * T * T') * alpha; a click on both output on-off
    detectors certifies that B carried the (near-)vacuum branch.  Mode D
    is then read out along the x_{pi/2} quadrature, and the
    outcome-dependent phase is undone on C by the feed-forward
    correction.  All quadrature values are accepted: only the two clicks
    gate success.  The single reported outcome carries the
    quadrature-averaged corrected state, integrated exactly.

    Loss is applied per pair, and only the pairs of loss-environment
    Schmidt vectors that the pair rule keeps are contracted (the module
    docstring gives the rule and why it is exact): 4 pairs of 4 d^2
    amplitudes each away from truncation.  The ancilla E never enters:
    splitter, both clicks and the trace over E act on B as the d x d
    M = <beta| U† (P_B>=1 ⊗ P_E>=1) U |beta>, applied as R with R†R = M
    after the midpoint splitter U, which acts on (B, D) block by block in
    total photon number; U and R are each applied once to all kept
    pairs.  The quadrature integral is one Gram matrix G = X X† of the
    (A, C, D | rest) matrix X, contracted with K_0 = I for equal C bits,
    K_1 = D(-g/sqrt(2)) for C bits (1, 0) and K_{-1} = K_1^T for (0, 1).
    """
    alpha = _check_alpha(alpha)

    def herald(P: np.ndarray, tau: float) -> list[tuple[str, np.ndarray]]:
        d = P.shape[1]
        pair = P.reshape(2 * d, d)
        _, s, Vh = np.linalg.svd(pair, full_matrices=False)
        # P times the right-singular vectors, not U S: each Fock row keeps its own rounding
        Q = (pair @ Vh.conj().T).T.reshape(-1, 2, d)  # [loss environment vector, A, B]
        R = _vacuum_test_filter(d, math.sqrt(2.0 * tau) * alpha)
        K1 = _displacement(-_feed_forward_phase(alpha, tau, 1.0) / math.sqrt(2.0), d)
        cbit = np.arange(4) % 2
        K = np.stack([K1.T, np.eye(d), K1])[cbit[:, None] - cbit[None, :] + 1]

        def contract(pairs: np.ndarray) -> np.ndarray:
            I, J = np.divmod(pairs, d)
            # (B, D, pair, A, C) through the midpoint splitter, handed over as a temporary it can free
            Y = bs_on_axes(np.einsum("pab,pcd->bdpac", Q[I], Q[J]), (0, 1), FIFTY_FIFTY)
            Z = R @ Y.reshape(d, -1)  # then clicks as R on B
            X = Z.reshape(-1, d, len(pairs), 4).transpose(3, 1, 2, 0).reshape(4 * d, -1)
            G = (X @ X.conj().T).reshape(4, d, 4, d)
            return np.einsum("anbm,abnm->ab", G, K)

        order, run = _drop_lightest_pairs(s**2)
        n = run(_SCHMIDT_FLOOR)
        rho = contract(order[n:])
        p = max(float(np.trace(rho).real), _PROB_FLOOR)  # below the floor p is reported as 0
        n_p = run(_SCHMIDT_REL * p)
        return [("click_click", rho + contract(order[n_p:n]) if n_p < n else rho)]

    return _run_swap("he_ho", alpha, T, T_prime, cutoff, (make_hybrid_pair, alpha, math.inf), herald)


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
        b1, b2 = (
            tensor(make_coherent(ModeRegister(reg.modes[:1]), "m1", s * a1),
                   make_coherent(ModeRegister(reg.modes[1:]), "m2", s * a2))
            for s in (1, -1)
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
