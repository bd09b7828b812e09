"""Entanglement-swapping pipelines on the truncated Fock space.

Both parties keep a local mode (A and C, stored as qubits) and send a
traveling mode (B and D) through a lossy channel to a midpoint where the
two traveling modes interfere on a 50:50 splitter and are measured.  The
surviving A-C state, conditioned on the accepted outcomes, is the
protocol output.

The three schemes differ only in the resource pair and the herald, the
midpoint measurement.  One private runner does the rest: it validates
T, T' and the cutoff, forms tau = T * T', builds the lossy pair and
sums the herald's outcomes, a stack of unnormalized A-C matrices whose
traces are the probabilities, into a ``SwapResult``.  Outcomes at or
below ``_PROB_FLOOR`` carry the zero state; the others are normalized
and scored together, one negativity eigen-solve per point.

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
d x d corner is exact, contracted with the slices where C's bits differ
(K_1^T the other way) while a trace stands for K_0 = I where they agree.
The ancilla never enters the register: the vacuum test acts on B as the
d x d corner of its operator M, exact in closed form, with no ancilla or
output level cut.  M and K_1 read their beta-free arrays from one table
per cutoff, built on first use.

Channel loss keeps the global state pure until measurement, so the
reduced A-C state never needs a full-register density matrix.  Both
parties hold the same lossy pair, written in closed form over its loss
environment E.  After a loss tau the hybrid pair is (|0>|beta>|eps> +
|1>|-beta>|-eps>)/sqrt(2), beta = sqrt(tau) alpha, eps = sqrt(1-tau)
alpha, and |±eps> = c+ |even> ± c- |odd> over the orthonormal even and
odd parts of |eps>, c± = sqrt((1 ± e^{-2 eps²})/2).  So P[a, m, i] holds
E in that two-state basis and only the traveling mode is cut; the dv
pair is three numbers.  Any phase the splitter dilation puts on E is
removed by every trace over E.  The homodyne herald reads the hybrid P
as the product amp[a, m] env[a, i] it is, exactly.  The counting herald
reads only levels 0 and 1 of B and D, so its pairs hold only those two
levels: it is exact, and costs the same, at every cutoff.
Every splitter acts block by block in total photon number, from the
blocks ``optics`` caches; at the midpoint's phi = pi they are real
orthogonal, so every herald runs in real arithmetic.  Detector
inefficiency T' enters as the substitution T -> T * T' (loss commutes
with the balanced midpoint splitter, and an inefficient detector is an
ideal one behind a loss); the tests check it against explicitly modeled
inefficient detectors.

The module holds these three pipelines and nothing else.  From the
reference toolbox they read only registers, ``DensityOperator``, the
coherent amplitudes and the splitter blocks; the state constructors,
``apply_bs``, detectors and quadrature grids are the independent routes
``verification`` and the tests check them with, so none of them is
called here (the test of the package's imports holds that line).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .closed_form import _check_alpha, _check_range
from .fock import DensityOperator, ModeRegister, qubit, _coherent_amplitudes
from .negativity import _negativity_stack
from .optics import FIFTY_FIFTY, bs_on_axes
# imported but never called here: perfbench's WRAPPED names them all, and its tests need them bound
from .fock import make_coherent, make_fock, make_hybrid_pair, make_vsp_bell, tensor  # noqa: F401
from .optics import apply_bs, homodyne_grid, measure_and_reduce, quadrature_amplitudes  # noqa: F401
from .negativity import negativity  # noqa: F401

__all__ = [
    "DEFAULT_CUTOFF",
    "default_cutoff",
    "SwapOutcome",
    "SwapResult",
    "dv_swap",
    "he_swap_spd",
    "he_swap_homodyne",
]

DEFAULT_CUTOFF = 12

_PROB_FLOOR = 1e-15  # below this an outcome is treated as unreachable
_AC_REGISTER = ModeRegister((("A", qubit()), ("C", qubit())))
# the midpoint splitter's one-photon block u[o, i], o and i over the counts (0, 1), (1, 0) on (B, D)
_ONE_PHOTON = bs_on_axes(np.eye(4).reshape(2, 2, 2, 2), (0, 1), FIFTY_FIFTY)[[0, 1], [1, 0]][:, [0, 1], [1, 0]]
_ONE_PHOTON_GRAM = np.einsum("om,on->omn", _ONE_PHOTON, _ONE_PHOTON.conj())  # u[o, m] u*[o, n]
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(19, 1, -1))  # 1/k!, k = 19 .. 2


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


def _resolve_cutoff(cutoff: int | None) -> int:
    c = default_cutoff() if cutoff is None else int(cutoff)
    if c < 2:
        raise ValueError("cutoff must be at least 2")
    return c


def _lossy_hybrid_pair(alpha: float, c: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The hybrid pair after a loss tau as its factors (amp, env): P[a, m, i] = amp[a, m] env[a, i].

    amp[0] is |sqrt(tau) alpha> on B cut at c and amp[1] = (-1)^m amp[0]; env[0] = (c+, c-) / sqrt(2)
    and env[1] = (c+, -c-) / sqrt(2), c± those of |±eps> on |even>, |odd>.  P is their einsum.
    """
    x = 2.0 * (1.0 - tau) * alpha * alpha  # 2 eps²
    cp, cm = math.sqrt(0.5 + 0.5 * math.exp(-x)), math.sqrt(-0.5 * math.expm1(-x))
    amp = np.empty((2, c + 1))
    amp[0] = _coherent_amplitudes(math.sqrt(tau) * alpha, c).real
    np.multiply(amp[0], (-1.0) ** np.arange(c + 1), out=amp[1])
    return amp, np.array([[cp, cm], [cp, -cm]]) / math.sqrt(2.0)


def _lossy_dv_pair(tau: float) -> np.ndarray:
    """(|01> + |10>)/sqrt(2) after a loss tau as P[a, m, i], i the photons lost: B needs two levels."""
    P = np.zeros((2, 2, 2))
    P[0, 1, 0], P[0, 0, 1], P[1, 0, 0] = math.sqrt(0.5 * tau), math.sqrt(0.5 * (1.0 - tau)), math.sqrt(0.5)
    return P


def _run_swap(scheme: str, alpha: float | None, T: float, T_prime: float,
              cutoff: int | None, pair, herald) -> SwapResult:
    """The part every scheme shares: checks, lossy pair, herald, totals.

    ``pair(cutoff, tau)`` is the lossy pair both parties hold, as P[a, m,
    i] over (local, traveling, loss environment) or as he-ho's factors of
    it.  ``herald(pair, tau)`` returns the accepted outcomes as ``(labels,
    rhos)``, rhos a C-contiguous (k, 4, 4) stack of unnormalized A-C
    matrices whose traces are the probabilities.  Those at or below
    ``_PROB_FLOOR`` get probability 0, the zero state and negativity 0.
    """
    T = _check_range(T, "T")
    T_prime = _check_range(T_prime, "T_prime")
    cutoff = _resolve_cutoff(cutoff)
    tau = T * T_prime
    labels, rhos = herald(pair(cutoff, tau), tau)
    probs = rhos.trace(axis1=1, axis2=2).real
    live = probs > _PROB_FLOOR
    states = rhos[live] / probs[live, None, None]
    scored = zip(states, [r.value for r in _negativity_stack(states, _AC_REGISTER, ["C"])])  # one eigen-solve
    outcomes = []
    for label, p, ok in zip(labels, probs.tolist(), live.tolist()):
        rho, e = next(scored) if ok else (np.zeros((4, 4)), 0.0)
        outcomes.append(SwapOutcome(label, p if ok else 0.0, DensityOperator(_AC_REGISTER, rho), e))
    total = sum(o.probability for o in outcomes)
    avg = sum(o.probability * o.negativity for o in outcomes) / total if total > _PROB_FLOOR else 0.0
    echo = {"scheme": scheme, "alpha": alpha, "T": T, "T_prime": T_prime, "cutoff": cutoff}
    return SwapResult(scheme, tuple(outcomes), total, avg, echo)


def _count_herald(P: np.ndarray, tau: float) -> tuple[tuple[str, ...], np.ndarray]:
    """Photon counts (0, 1) and (1, 0) on (B, D), read off the lossy pair on B's levels 0 and 1.

    Row o of the splitter's one-photon block u (``_ONE_PHOTON``) maps the
    inputs (0, 1) and (1, 0) to output o, whose (A, C | Eb, Ed) amplitude
    is u[o, 0] P[:, 0] ⊗ P[:, 1] + u[o, 1] P[:, 1] ⊗ P[:, 0].  Its Gram
    matrix is G_o = sum_{m,n} u[o,m] u*[o,n] g[m,n] ⊗ g[1-m,1-n], with
    g[m, n] = P[:, m] P[:, n]† traced over the loss environment.
    """
    g = np.einsum("amk,bnk->mnab", P, P.conj())
    G = np.einsum("omn,mnab,mncd->oacbd", _ONE_PHOTON_GRAM, g, g[::-1, ::-1])
    return ("01", "10"), np.ascontiguousarray(G.reshape(2, 4, 4))  # a strided stack would trace in another order


def dv_swap(T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Vacuum/single-photon baseline swap.

    Both pairs start as (|01> + |10>)/sqrt(2) on (local, traveling)
    modes; the midpoint accepts the photon-counting outcomes (0,1) and
    (1,0), heralding (|01>+|10>)/sqrt(2) and (|01>-|10>)/sqrt(2) on A-C.

    The traveling mode holds at most one photon, so the lossy pair is
    three numbers and the results are exactly cutoff-independent for any
    requested cutoff >= 2.
    """
    return _run_swap("dv", None, T, T_prime, cutoff, lambda c, tau: _lossy_dv_pair(tau), _count_herald)


def he_swap_spd(alpha: float, T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Hybrid swap with single-photon detectors at the midpoint.

    The accepted outcomes are (vacuum, one photon) and (one photon,
    vacuum) on (B, D); any "two or more" count is rejected.  Heralded
    A-C states are Bell-like with coherences damped by channel loss.
    The herald reads only B's levels 0 and 1, so the pair is built on
    those alone and the cutoff changes neither the result nor the cost.
    """
    alpha = _check_alpha(alpha)
    return _run_swap("he_spd", alpha, T, T_prime, cutoff,
                     lambda c, tau: np.einsum("am,ai->ami", *_lossy_hybrid_pair(alpha, 1, tau)), _count_herald)


def _vacuum_test(d: int, beta: float) -> np.ndarray:
    """The d x d two-click operator on B, M = <beta| U† (P_B>=1 ⊗ P_E>=1) U |beta>, in closed form.

    No click at one output of the 50:50 splitter U is the normal-ordered :exp(-(b† ± beta)(b ±
    beta)/2): = A(±beta) = E† diag(2^-n) E, and at both e^{-beta²}|0><0| (Cahill and Glauber,
    Phys. Rev. 177, 1857 (1969)), so M = I - A(beta) - A(-beta) + e^{-beta²}|0><0|.  E[m, l] =
    e^{-beta²/4} (-beta/2)^{l-m} sqrt(l!/m!) / (l-m)!, a cumulative product along each row, is
    upper triangular, so the corner is exact with no level cut; A(-beta) is A(beta) with its odd
    m + l entries negated; every beta-free array comes from the per-d ``_herald_tables``.
    M[0, 0] = (1 - e^{-x})² and M[1, 1] = 1 - (1 + x) e^{-x}, x = beta²/2, vanish as beta -> 0,
    so they are not taken as 1 minus order-1 terms; below x = 1, M[1, 1] is a Horner sum.
    """
    up, root, over, half, even2, eye = _herald_tables(d)[1]
    steps = np.where(up, -0.5 * beta * root / over, 1.0)  # E[m, l] / E[m, l-1]
    steps[:, 0] = math.exp(-0.25 * beta * beta)
    F = np.cumprod(steps, axis=1) * half  # diag(2^-n/2) E: A = F† F
    M = eye - even2 * (F.T @ F)
    x = 0.5 * beta * beta
    M[0, 0] = math.expm1(-x) ** 2
    tail = 0.0  # below x = 1, P(n >= 2) for a Poisson mean x is e^{-x} x² sum_k x^k / (k+2)!, by Horner
    for inv in _INV_FACTORIALS:
        tail = tail * x + inv
    M[1, 1] = math.exp(-x) * x * x * tail if x < 1 else -math.expm1(-x) - x * math.exp(-x)
    return M


@lru_cache(maxsize=64)
def _herald_tables(d: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Read-only beta-free arrays, built on first use.  ``_displacement`` reads (b, s, c, place, sign):
    b = (2n+1+k) s, s and c = sqrt(n(n+k)) s at [n, k], s = 1/sqrt((n+1)(n+1+k)); D.flat = E.flat[place]
    * sign puts E[n, k] at [n+k, n].  ``_vacuum_test`` reads (j > 0, sqrt(l), max(j, 1), 2^{-m/2} where
    j >= 0 else 0, 2 where j is even else 0, I) at [m, l], j = l - m."""
    n, k = np.ogrid[:d, :d]
    s = 1.0 / np.sqrt((n + 1) * (n + 1 + k))
    lower = n >= k  # as (row, column) of the matrix
    place = np.where(lower, k * d + n - k, n * d + k - n)
    sign = np.where(lower | ((k - n) % 2 == 0), 1.0, -1.0)
    j = k - n
    half = np.where(j < 0, 0.0, np.sqrt(0.5) ** n)
    tables = (((2 * n + 1 + k) * s, s, np.sqrt(n * (n + k)) * s, place, sign),
              (j > 0, np.sqrt(np.arange(d)), np.maximum(j, 1), half, np.where(j % 2, 0.0, 2.0), np.eye(d)))
    for a in tables[0] + tables[1]:
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
    b, s, c, place, sign = _herald_tables(d)[0]
    E = np.zeros((d + 1, d))  # row d stays zero as E[-1]
    E[0] = _coherent_amplitudes(gamma, d - 1).real
    rows, steps, back = list(E), list(b - gamma * gamma * s), list(c)
    for n in range(d - 1):
        np.multiply(steps[n], rows[n], out=rows[n + 1])
        rows[n + 1] -= back[n] * rows[n - 1]
    return E.ravel()[place] * sign


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

    Each lossy pair is a product amp[a, m] env[a, i], so only the four
    B ⊗ D states Phi_ac = S(amp_a ⊗ amp_c) exist, S the midpoint splitter,
    and loss enters as the 2 x 2 environment Gram W = env env^T.  A pair
    whose kept weight is at most 1e-15 raises ``ValueError``: the cutoff
    is starved.  The ancilla never enters: splitter, both clicks and the
    trace over it act on B as the d x d M = <beta| U† (P_B>=1 ⊗ P_E>=1)
    U |beta>, in closed form.  The quadrature integral is one (4d x d)
    (d x 4d) real matrix H = (M Phi)^T Phi of the (B | D, A, C) matrix Phi,
    contracted by C-bit slices, with no stack of kernels: a trace (K_0 = I)
    for equal bits, K_1 = D(-g/sqrt(2)) for bits (1, 0) and K_1^T for (0,
    1); W ⊗ W weighs the 4 x 4 result as a broadcast product.
    """
    alpha = _check_alpha(alpha)

    def herald(pair: tuple[np.ndarray, np.ndarray], tau: float) -> tuple[tuple[str], np.ndarray]:
        amp, env = pair
        d = amp.shape[1]
        if np.vdot(amp[0], amp[0]).real <= _PROB_FLOOR:  # the cutoff keeps (almost) none of the pair
            raise ValueError(f"the pair at alpha = {alpha!r} has no amplitude at or below cutoff {d - 1}")
        M = _vacuum_test(d, math.sqrt(2.0 * tau) * alpha)
        g = 4.0 * math.sqrt(tau) * alpha  # the feed-forward phase on C is e^{-i g x}
        K1 = _displacement(-g / math.sqrt(2.0), d)
        # (B | D, A, C) through the midpoint splitter, handed over as a temporary it can free
        Phi = bs_on_axes(np.einsum("am,cn->mnac", amp, amp), (0, 1), FIFTY_FIFTY).reshape(d, -1)
        H = ((M @ Phi).T @ Phi).reshape(d, 2, 2, d, 2, 2)  # [n, A, C, k, A', C']: both clicks as M on B
        rho = np.einsum("nacnbe->acbe", H)  # K_0 = I, kept where the C bits agree
        rho[:, 1, :, 0] = np.einsum("nakb,nk->ab", H[:, :, 1, :, :, 0], K1)
        rho[:, 0, :, 1] = np.einsum("nakb,kn->ab", H[:, :, 0, :, :, 1], K1)  # K_{-1} = K_1^T
        W = env @ env.T
        return ("click_click",), (W[:, None, :, None] * W[:, None, :] * rho).reshape(1, 4, 4)

    return _run_swap("he_ho", alpha, T, T_prime, cutoff, partial(_lossy_hybrid_pair, alpha), herald)

