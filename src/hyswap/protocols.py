"""Entanglement-swapping pipelines on the truncated Fock space.

Both parties keep a local mode (A and C, stored as qubits) and send a
traveling mode (B and D) through a lossy channel to a midpoint where the
two traveling modes interfere on a 50:50 splitter and are measured.  The
surviving A-C state, conditioned on the accepted outcomes, is the
protocol output.

The three schemes differ only in the resource pair and the herald, the
midpoint measurement:

* ``dv_swap``: vacuum/single-photon Bell pairs (``_lossy_dv_pair``),
  photon-counting herald (``_count_herald``).
* ``he_swap_spd``: hybrid qubit/coherent pairs (``_lossy_hybrid_pair``),
  the same counting herald behind single-photon detectors.
* ``he_swap_homodyne``: hybrid pairs, a vacuum test on B and homodyne
  readout of D (``_homodyne_herald``).

``swap_points`` runs one scheme over a stack of transmissions T, every
step once over the stack; the three scheme functions are it on a stack
of one, and ``sweep.run_sweep`` calls it once per (scheme, alpha) group
of rows.  Every step is exact at any cutoff:

* Channel loss keeps the global state pure until measurement, so each
  lossy pair is written in closed form over its loss environment and
  only the traveling mode is cut; no full-register density matrix is
  ever formed.
* The counting herald reads only levels 0 and 1 of B and D, so its pairs
  hold only those two levels, and it costs the same at every cutoff.
* The homodyne herald accepts every quadrature value, so its integral
  is an operator on D, and its vacuum test an operator on B with the
  ancilla traced out in closed form; each is taken as its exact d x d
  corner.
* Detector inefficiency T' enters as the substitution T -> T * T' (loss
  commutes with the balanced midpoint splitter, and an inefficient
  detector is an ideal one behind a loss); the tests check it against
  explicitly modeled inefficient detectors.

Every splitter acts block by block in total photon number, from the
blocks ``optics`` caches; at the midpoint's phi = pi they are real
orthogonal, so every herald runs in real arithmetic.

The module holds these three pipelines and nothing else.  From the
reference toolbox they read only the splitter blocks; registers,
``DensityOperator``, the state constructors, ``apply_bs``, detectors and
quadrature grids are the independent routes ``verification`` and the
tests check them with, so none of them is called here (the test of the
package's imports holds that line).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import SCHEMES, _check_alpha, _check_range
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
    "swap_points",
]

DEFAULT_CUTOFF = 12

_PROB_FLOOR = 1e-15  # below this an outcome is treated as unreachable
# the midpoint splitter's one-photon block u[o, i], o and i over the counts (0, 1), (1, 0) on (B, D)
_ONE_PHOTON = bs_on_axes(np.eye(4).reshape(2, 2, 2, 2), (0, 1), FIFTY_FIFTY)[[0, 1], [1, 0]][:, [0, 1], [1, 0]]
_ONE_PHOTON_GRAM = np.einsum("om,on->omn", _ONE_PHOTON, _ONE_PHOTON.conj())  # u[o, m] u*[o, n]
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(19, 1, -1))  # 1/k!, k = 19 .. 2
_HERALD_BLOCK = 1 << 18  # points x d² per he-ho block: it holds about 24 floats for each, 48 MiB in all
_C_BIT = np.arange(4) % 2  # of (A, C) as 2 A + C
_KERNEL_OF = np.where(_C_BIT[:, None] == _C_BIT, 0, np.where(_C_BIT[:, None] > _C_BIT, 1, 2))  # he-ho: I, K_1, K_1^T
_AC_ROWS, _AC_COLS = np.indices((4, 4))


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
    """One heralded outcome: its label, probability, normalized A-C matrix and negativity.

    ``state`` is the 4 x 4 matrix over (A, C), A the high bit of its index,
    all zeros (and negativity 0) for an unreachable outcome.
    """

    label: str
    probability: float
    state: np.ndarray
    negativity: float


@dataclass(frozen=True)
class SwapResult:
    """Per-outcome and aggregate results of one protocol point.

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


def _coherent_columns(beta: list[float], c: int) -> np.ndarray:
    """<n|beta>, n <= c, of each real beta of a list as a column: a cumulative product down it.

    Every step of -beta's column is beta's negated, so that column is (-1)^n times beta's, bit for bit.
    """
    steps = np.empty((c + 1, len(beta)))
    steps[0] = [math.exp(-abs(b) ** 2 / 2.0) for b in beta]
    np.divide(beta, _herald_tables(c + 1)[1][2][1:, None], out=steps[1:])  # beta / sqrt(n)
    return np.multiply.accumulate(steps, axis=0)


def _lossy_hybrid_pair(alpha: float, c: int, tau) -> tuple[np.ndarray, np.ndarray]:
    """The hybrid pair after a loss tau as its factors (amp, env): P[..., a, m, i] = amp[..., a, m] env[..., a, i].

    tau is a number or an array of them, whose shape leads both factors.  The pair is (|0>|beta>|eps>
    + |1>|-beta>|-eps>)/sqrt(2), beta = sqrt(tau) alpha, eps = sqrt(1-tau) alpha, and |±eps> = c+ |even>
    ± c- |odd> over the orthonormal even and odd parts of |eps>, c± = sqrt((1 ± e^{-2 eps²})/2); any
    phase the splitter dilation puts on the environment is removed by every trace over it.  So
    amp[..., 0, :] is |beta> on B cut at c, amp[..., 1, :] = (-1)^m amp[..., 0, :], env[..., 0, :] =
    (c+, c-) / sqrt(2) and env[..., 1, :] = (c+, -c-) / sqrt(2).
    """
    tau = np.asarray(tau, dtype=float)
    env, beta = [], []
    for t in tau.reshape(-1).tolist():
        x = 2.0 * (1.0 - t) * alpha * alpha  # 2 eps²
        cp, cm = math.sqrt(0.5 + 0.5 * math.exp(-x)), math.sqrt(-0.5 * math.expm1(-x))
        env.append(((cp, cm), (cp, -cm)))
        beta += (math.sqrt(t) * alpha, -math.sqrt(t) * alpha)  # the |1> branch is |-beta>
    amp = _coherent_columns(beta, c).T.reshape(tau.shape + (2, c + 1))
    return amp, (np.array(env) / math.sqrt(2.0)).reshape(tau.shape + (2, 2))


def _lossy_dv_pair(tau) -> np.ndarray:
    """(|01> + |10>)/sqrt(2) after a loss tau as P[..., a, m, i], i the photons lost: B needs two levels.

    tau is a number or an array of them, whose shape leads P: P[..., 0, 1, 0], P[..., 0, 0, 1] and
    P[..., 1, 0, 0] are sqrt(tau/2), sqrt((1 - tau)/2) and sqrt(1/2), the rest 0."""
    tau = np.asarray(tau, dtype=float)
    r = math.sqrt(0.5)
    P = [(0.0, math.sqrt(0.5 * (1.0 - t)), math.sqrt(0.5 * t), 0.0, r, 0.0, 0.0, 0.0) for t in tau.reshape(-1).tolist()]
    return np.array(P).reshape(tau.shape + (2, 2, 2))


def swap_points(scheme: str, alpha: float | None, Ts, T_prime: float = 1.0,
                cutoff: int | None = None) -> tuple[SwapResult, ...]:
    """One scheme at one (alpha, T', cutoff) over a sequence of transmissions T: one result per T.

    ``scheme`` is "dv", which ignores ``alpha``, "he_spd" or "he_ho".  The points run as one stack
    of tau = T * T' through the scheme's lossy pair and herald.  The herald returns the accepted
    outcomes as ``(labels, rhos)``, rhos a C-contiguous (k, n, 4, 4) stack of unnormalized A-C
    matrices whose traces are the probabilities.  Those at or below ``_PROB_FLOOR`` get
    probability 0, the zero state and negativity 0; the others, of every point, are normalized and
    scored together in one eigen-solve.  Each result equals, bit for bit, that of its T alone.  A
    bad T anywhere in the sequence, or a he-ho pair starved at any of them, raises the error it
    raises alone.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    alpha = None if scheme == "dv" else _check_alpha(alpha)
    Ts = [_check_range(T, "T") for T in Ts]
    T_prime = _check_range(T_prime, "T_prime")
    cutoff = _resolve_cutoff(cutoff)
    if not Ts:
        return ()
    tau = np.array([T * T_prime for T in Ts])
    if scheme == "dv":
        labels, rhos = _count_herald(_lossy_dv_pair(tau))
    elif scheme == "he_spd":
        labels, rhos = _count_herald(np.einsum("kam,kai->kami", *_lossy_hybrid_pair(alpha, 1, tau)))  # B's levels 0, 1
    else:
        labels, rhos = _homodyne_herald(alpha, *_lossy_hybrid_pair(alpha, cutoff, tau), tau)
    probs = rhos.trace(axis1=2, axis2=3)  # every herald is real
    live = probs > _PROB_FLOOR
    states = rhos[live] / probs[live, None, None]
    scored = zip(states, _negativity_stack(states, (2, 2), (1,)).tolist())  # C transposed; one float64 eigen-solve
    results = []
    for T, point_probs, point_live in zip(Ts, probs.tolist(), live.tolist()):
        outcomes = [SwapOutcome(label, p, *next(scored)) if ok else SwapOutcome(label, 0.0, np.zeros((4, 4)), 0.0)
                    for label, p, ok in zip(labels, point_probs, point_live)]
        total = sum(o.probability for o in outcomes)
        avg = sum(o.probability * o.negativity for o in outcomes) / total if total > _PROB_FLOOR else 0.0
        echo = {"scheme": scheme, "alpha": alpha, "T": T, "T_prime": T_prime, "cutoff": cutoff}
        results.append(SwapResult(scheme, tuple(outcomes), total, avg, echo))
    return tuple(results)


def _count_herald(P: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Photon counts (0, 1) and (1, 0) on (B, D), read off each real lossy pair P[k, a, m, i] on B's levels 0 and 1.

    No midpoint register is built: the splitter conserves photon number, so these outcomes come
    only from the inputs (0, 1) and (1, 0), mixed by its one-photon block u (``_ONE_PHOTON``).
    Row o of u maps them to output o, whose (A, C | Eb, Ed) amplitude is u[o, 0] P[:, 0] ⊗ P[:, 1]
    + u[o, 1] P[:, 1] ⊗ P[:, 0].  Its Gram matrix is G_o = sum_{m,n} u[o,m] u*[o,n] g[m,n] ⊗
    g[1-m,1-n], with g[m, n] = P[:, m] P[:, n]† traced over the loss environment.
    """
    g = np.einsum("kamj,kbnj->kmnab", P, P)
    G = np.einsum("omn,kmnab,kmncd->koacbd", _ONE_PHOTON_GRAM, g, g[:, ::-1, ::-1])
    return ("01", "10"), np.ascontiguousarray(G.reshape(-1, 2, 4, 4))  # a strided stack would trace in another order


def dv_swap(T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Vacuum/single-photon baseline swap.

    Both pairs start as (|01> + |10>)/sqrt(2) on (local, traveling)
    modes; the midpoint accepts the photon-counting outcomes (0,1) and
    (1,0), heralding (|01>+|10>)/sqrt(2) and (|01>-|10>)/sqrt(2) on A-C.
    The results are exactly cutoff-independent for any requested cutoff
    >= 2.  This is ``swap_points`` on a stack of one.
    """
    return swap_points("dv", None, (T,), T_prime, cutoff)[0]


def he_swap_spd(alpha: float, T: float, T_prime: float = 1.0, cutoff: int | None = None) -> SwapResult:
    """Hybrid swap with single-photon detectors at the midpoint.

    The accepted outcomes are (vacuum, one photon) and (one photon,
    vacuum) on (B, D); any "two or more" count is rejected.  Heralded
    A-C states are Bell-like with coherences damped by channel loss.
    The cutoff changes neither the result nor the cost.  This is
    ``swap_points`` on a stack of one.
    """
    return swap_points("he_spd", alpha, (T,), T_prime, cutoff)[0]


def _vacuum_test(d: int, beta) -> np.ndarray:
    """The d x d two-click operator on B, M = <beta| U† (P_B>=1 ⊗ P_E>=1) U |beta>, in closed form.

    beta is a number or an array of them, whose shape leads M.  No click at one output of the
    50:50 splitter U is the normal-ordered :exp(-(b† ± beta)(b ± beta)/2): = A(±beta) =
    E† diag(2^-n) E, and at both e^{-beta²}|0><0| (Cahill and Glauber, Phys. Rev. 177, 1857
    (1969)), so M = I - A(beta) - A(-beta) + e^{-beta²}|0><0|.  E[m, l] = e^{-beta²/4}
    (-beta/2)^{l-m} sqrt(l!/m!) / (l-m)!, a cumulative product along each row, is upper
    triangular, so the corner is exact with no level cut; A(-beta) is A(beta) with its odd
    m + l entries negated; every beta-free array comes from the per-d ``_herald_tables``.
    M[0, 0] = (1 - e^{-x})² and M[1, 1] = 1 - (1 + x) e^{-x}, x = beta²/2, vanish as beta -> 0,
    so they are not taken as 1 minus order-1 terms; below x = 1, M[1, 1] is a Horner sum.
    """
    beta = np.asarray(beta, dtype=float)
    b = beta.reshape(-1)
    ratio, below, _, half, even2, eye = _herald_tables(d)[1]
    x = [0.5 * v * v for v in b.tolist()]
    steps = b[:, None, None] * ratio + below  # E[m, l] / E[m, l-1]
    steps[:, :, 0] = [[math.exp(-0.5 * v)] for v in x]
    F = np.multiply.accumulate(steps, axis=2) * half  # diag(2^-n/2) E: A = F† F
    M = eye - even2 * (F.swapaxes(1, 2) @ F)
    M[:, 0, 0] = [math.expm1(-v) ** 2 for v in x]
    M[:, 1, 1] = [_two_or_more(v) for v in x]
    return M.reshape(beta.shape + (d, d))


def _two_or_more(x: float) -> float:
    """P(n >= 2) for a Poisson mean x, to its relative digits: below x = 1 it is
    e^{-x} x² sum_k x^k / (k+2)!, by Horner."""
    if x >= 1:
        return -math.expm1(-x) - x * math.exp(-x)
    tail = 0.0
    for inv in _INV_FACTORIALS:
        tail = tail * x + inv
    return math.exp(-x) * x * x * tail


@lru_cache(maxsize=64)
def _herald_tables(d: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Read-only beta-free arrays, built on first use.  ``_displacement`` reads (b, s, c, place, sign):
    b = (2n+1+k) s, s and c = sqrt(n(n+k)) s at [n, k, 0], s = 1/sqrt((n+1)(n+1+k)); D[p].flat =
    E[..., p].flat[place] * sign puts E[n, k] at [n+k, n] for each point p.  ``_vacuum_test`` reads
    (-sqrt(l) / (2 j) where j > 0 else 0, 1 where j <= 0 else 0, sqrt(l), 2^{-m/2} where j >= 0 else 0,
    2 where j is even else 0, I) at [m, l], j = l - m; ``_coherent_columns`` reads its sqrt(l)."""
    n, k = np.ogrid[:d, :d]
    s = 1.0 / np.sqrt((n + 1) * (n + 1 + k))
    lower = n >= k  # as (row, column) of the matrix
    place = np.where(lower, k * d + n - k, n * d + k - n)
    sign = np.where(lower | ((k - n) % 2 == 0), 1.0, -1.0)
    j = k - n
    half = np.where(j < 0, 0.0, np.sqrt(0.5) ** n)
    root = np.sqrt(np.arange(d))
    b, c = (2 * n + 1 + k) * s, np.sqrt(n * (n + k)) * s
    tables = ((b[..., None], s[..., None], c[..., None], place, sign[..., None]),  # [..., None]: over the points
              (np.where(j > 0, -0.5 * root / np.maximum(j, 1), 0.0), np.where(j > 0, 0.0, 1.0), root, half,
               np.where(j % 2, 0.0, 2.0), np.eye(d)))
    for a in tables[0] + tables[1]:
        a.setflags(write=False)
    return tables


def _displacement(gamma, d: int) -> np.ndarray:
    """The d x d corner of the real displacement D(gamma) = exp(gamma (a† - a)).

    gamma is a number or an array of them, whose shape leads the result.  E[n, k] = <n+k|D|n> =
    (-1)^k <n|D|n+k> = sqrt(n!/(n+k)!) gamma^k e^{-gamma²/2} L_n^(k)(gamma²) (Cahill and Glauber,
    Phys. Rev. 177, 1857 (1969)).  Row E[0] is the coherent amplitude <k|gamma>; the normalized
    forward Laguerre recurrence E[n+1] = ((2n+1+k-gamma²) E[n] - sqrt(n(n+k)) E[n-1]) s runs
    down every diagonal of every gamma at once, one step per row.  (The column recurrence
    a D = D (a + gamma) is 1e11 off at d 65, gamma 8.5.)
    """
    gamma = np.asarray(gamma, dtype=float)
    g = gamma.reshape(-1)
    b, s, c, place, sign = _herald_tables(d)[0]
    E = np.empty((d + 1, d, g.size))  # E[n, k, point]; row d stays zero as E[-1]
    E[d] = 0.0
    E[0] = _coherent_columns(g.tolist(), d - 1)
    rows, steps, back = list(E), list(b - s * (g * g)), list(c)
    for n in range(d - 1):
        np.multiply(steps[n], rows[n], out=rows[n + 1])
        rows[n + 1] -= back[n] * rows[n - 1]
    return (E.reshape(-1, g.size)[place] * sign).transpose(2, 0, 1).reshape(gamma.shape + (d, d))


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
    quadrature-averaged corrected state, integrated exactly.  A pair
    whose kept weight is at most 1e-15 raises ``ValueError``: the cutoff
    is starved.  This is ``swap_points`` on a stack of one.
    """
    return swap_points("he_ho", alpha, (T,), T_prime, cutoff)[0]


def _homodyne_herald(alpha: float, amp: np.ndarray, env: np.ndarray, tau: np.ndarray) -> tuple[tuple[str], np.ndarray]:
    """he-ho's accepted outcome at each point of the stack, in blocks of at most _HERALD_BLOCK / d² points."""
    d = amp.shape[2]
    if min((amp[:, 0] ** 2).sum(axis=1).tolist()) <= _PROB_FLOOR:  # the cutoff keeps (almost) none of a pair
        raise ValueError(f"the pair at alpha = {alpha!r} has no amplitude at or below cutoff {d - 1}")
    step = max(1, _HERALD_BLOCK // (d * d))
    blocks = [_homodyne_contraction(alpha, amp[i:i + step], env[i:i + step], tau[i:i + step])
              for i in range(0, len(tau), step)]
    return ("click_click",), np.concatenate(blocks)


def _homodyne_contraction(alpha: float, amp: np.ndarray, env: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The (k, 1, 4, 4) A-C matrices of a block of k he-ho points.

    Each lossy pair is amp[a, m] env[a, i], so only the four B ⊗ D states Phi_ac = S(amp_a ⊗
    amp_c) exist, S the midpoint splitter, and loss enters as the environment Gram W = env env^T,
    which weighs the result as W ⊗ W.  Both clicks act on B as the vacuum test M.  Every readout x
    is accepted and its feed-forward phase e^{-i g x}, g = 4 sqrt(tau) alpha, undone on C, so the
    integral over x is an operator on D: K_0 = I where C's bits agree and K_1 = int dx |x><x|
    e^{-i g x} = D(-g/sqrt(2)) where they differ (K_1^T the other way).  With Phi[m, n, x] over
    (B, D, (A, C)) it is sum_{m,n,k} (M Phi)[m, n, x] K[n, k] Phi[m, k, y]: three (4 x d²)(d² x 4)
    products of M Phi with Phi, K_1 Phi and K_1^T Phi, each entry read from the one its C bits pick.
    """
    k, _, d = amp.shape
    M = _vacuum_test(d, [math.sqrt(2.0 * t) * alpha for t in tau.tolist()])
    g = [4.0 * math.sqrt(t) * alpha for t in tau.tolist()]  # the feed-forward phase on C is e^{-i g x}
    K1 = _displacement([-v / math.sqrt(2.0) for v in g], d)
    # Z[point, kernel, B, D, (A, C)]: Phi through the midpoint splitter one point a call (in BLAS the
    # digits of a product's column can depend on how many columns it has), then K_1 Phi and K_1^T Phi
    Z = np.empty((k, 3, d, d, 4))
    for a, out in zip(amp, Z[:, 0]):
        out[:] = bs_on_axes(a.T[:, None, :, None] * a.T[None, :, None, :], (0, 1), FIFTY_FIFTY).reshape(d, d, 4)
    K = np.empty((k, 2, 1, d, d))
    K[:, 0, 0], K[:, 1, 0] = K1, K1.swapaxes(1, 2)
    np.matmul(K, Z[:, :1], out=Z[:, 1:])
    MPhi = M @ Z[:, 0].reshape(k, d, 4 * d)  # both clicks as M on B
    R = MPhi.reshape(k, 1, d * d, 4).swapaxes(2, 3) @ Z.reshape(k, 3, d * d, 4)  # [point, kernel, x, y]
    W = env @ env.swapaxes(1, 2)
    return (W[:, :, None, :, None] * W[:, None, :, None, :]
            * R[:, _KERNEL_OF, _AC_ROWS, _AC_COLS].reshape(k, 2, 2, 2, 2)).reshape(k, 1, 4, 4)
