"""Beam splitters, photon-loss channels, and detector models.

Conventions.  The two-mode splitter acting on modes (X, Y) is
``exp[(theta/2) (x†y e^{i phi} - x y† e^{-i phi})]`` with intensity
transmission ``T = cos²(theta/2)``.  At the 50:50 working point
(theta = pi/2, phi = pi) used throughout, the defining fixtures are

    |1,0>         ->  (|1,0> + |0,1>)/sqrt(2)
    |0,1>         ->  (|0,1> - |1,0>)/sqrt(2)
    |1,1>         ->  (|0,2> - |2,0>)/sqrt(2)
    |alpha,beta>  ->  |(alpha-beta)/sqrt(2)> |(alpha+beta)/sqrt(2)>

The generator conserves total photon number, so the splitter is kept as
its total-number blocks, each exponentiated exactly; ``bs_on_axes``
applies them to two axes of any array, and ``bs_unitary`` is a dense view
for checks.  Blocks that fit under the cutoffs reproduce the
infinite-space splitter exactly; edge blocks stay exactly unitary on the
stored space, so no norm leaks through truncation.  At a real phase
e^{i phi} = ±1, as at 50:50 and every ``from_transmission`` splitter, the
blocks are real orthogonal and stored as float64.

Photon loss with survival probability T is the amplitude-damping Kraus
family ``A_k = (1-T)^{k/2} (k!)^{-1/2} T^{n/2} a^k``, with d(d+1)/2
nonzero elements (``loss_band``), all on the k-th superdiagonal of A_k.
``apply_loss`` sums d shifted slices of the density operator weighted by
that band, with no matrix product; ``loss_channel`` is a dense
``(d, d, d)`` view of the family for checks.  Loss is also the same
splitter at ``cos²(theta/2) = T`` against a vacuum environment mode:
``apply_loss_dilated`` reads its band ``<e|U|0>_env`` off the splitter
blocks.  The two bands come from independent formulas (binomial elements
vs the exponentiated blocks) and are checked against each other.

Every detector outcome is diagonal in the Fock basis and is passed as its
diagonal, a 1-D array of weights: ``w[n]`` is the probability that it
fires on |n> (0/1 for an ideal counter, ``np.arange(d) == n`` or
``np.arange(d) >= 1``).  An inefficient detector's weights are the ideal
ones pushed through the binomial survival map of a T' loss.  Measuring
scales a mode's axis by ``sqrt(w)``.

Homodyne detection is represented by quadrature bra vectors
``<x_theta|n> = e^{-i n theta} pi^{-1/4} (2^n n!)^{-1/2} H_n(x)
e^{-x^2/2}`` evaluated by the stable normalized Hermite recurrence; a
Gauss-Legendre sum over them checks the exact readout kernel of ``protocols``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    DensityOperator,
    ModeKind,
    StateVector,
    reduced_density,
)

__all__ = [
    "BeamSplitterParams",
    "FIFTY_FIFTY",
    "bs_unitary",
    "bs_on_axes",
    "apply_bs",
    "loss_band",
    "loss_channel",
    "apply_loss",
    "apply_loss_dilated",
    "quadrature_amplitudes",
    "homodyne_grid",
    "with_inefficiency",
    "measure_and_reduce",
]


@dataclass(frozen=True)
class BeamSplitterParams:
    theta: float
    phi: float

    @classmethod
    def from_transmission(cls, T: float) -> "BeamSplitterParams":
        """The splitter of intensity transmission ``T`` at phi = pi."""
        if not 0.0 <= T <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")
        return cls(2.0 * math.acos(math.sqrt(T)), math.pi)


FIFTY_FIFTY = BeamSplitterParams(math.pi / 2.0, math.pi)


@lru_cache(maxsize=256)
def _bs_blocks(d1: int, d2: int, theta: float, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The splitter's total-photon-number blocks, zero-padded into one read-only stack;
    |x, y> sits in block x + y at slot ``slot[x, y]``, row ``row[x d2 + y]`` of the stack's
    (blocks x slots) rows.  When phi is a multiple of pi
    (tested on phi itself: sin(pi) is 1.2e-16 in floats), e^{i phi} = ±1 and every block is
    real orthogonal, so the stack is float64: each block's real part, the imaginary part
    being rounding alone."""
    x, y = np.indices((d1, d2))
    block, slot = x + y, x - np.maximum(0, x + y - (d2 - 1))
    real = phi % math.pi == 0.0
    blocks = np.zeros((d1 + d2 - 1, min(d1, d2), min(d1, d2)), dtype=np.float64 if real else np.complex128)
    for n in range(d1 + d2 - 1):
        k = np.arange(max(0, n - (d2 - 1)), min(n, d1 - 1))  # every slot but the last
        # <k+1, n-k-1| x†y |k, n-k> = sqrt((k+1)(n-k))
        val = np.sqrt((k + 1.0) * (n - k))
        A = np.diag(cmath.exp(1j * phi) * val, -1) - np.diag(cmath.exp(-1j * phi) * val, 1)
        # A is anti-Hermitian; exponentiate through the Hermitian i(theta/2)A
        w, V = np.linalg.eigh(1j * (theta / 2.0) * A)
        U = (V * np.exp(-1j * w)) @ V.conj().T
        blocks[n, :k.size + 1, :k.size + 1] = U.real if real else U
    row = (block * min(d1, d2) + slot).ravel()
    for a in (blocks, row, slot):
        a.setflags(write=False)
    return blocks, row, slot


def bs_on_axes(t: np.ndarray, axes: tuple[int, int], params: BeamSplitterParams) -> np.ndarray:
    """The splitter applied to axes (x, y) of an array, one matmul per photon-number block.

    Real blocks act on complex columns as on their (re, im) float pairs, one real
    product over twice the columns, so the cached stack is never copied to complex."""
    if tuple(axes) != (0, 1):  # np.moveaxis costs as much as a small block matmul: only when needed
        return np.moveaxis(bs_on_axes(np.moveaxis(t, axes, (0, 1)), (0, 1), params), (0, 1), axes)
    blocks, row, _ = _bs_blocks(t.shape[0], t.shape[1], float(params.theta), float(params.phi))
    z = np.zeros((blocks.shape[0] * blocks.shape[1], math.prod(t.shape[2:])), dtype=np.result_type(t, blocks))
    z[row] = t.reshape(row.size, -1)
    shape = t.shape
    del t  # a temporary handed in is freed before the matmul allocates
    out = (blocks @ z.view(blocks.dtype).reshape(blocks.shape[:2] + (-1,))).view(z.dtype)
    return out.reshape(z.shape).take(row, axis=0).reshape(shape)


def bs_unitary(d1: int, d2: int, params: BeamSplitterParams) -> np.ndarray:
    """Dense two-mode splitter unitary on the (d1*d2)-dim product space, built from the blocks."""
    return bs_on_axes(np.eye(d1 * d2).reshape(d1, d2, -1), (0, 1), params).reshape(d1 * d2, -1)


def apply_bs(state: StateVector, mode_x: str, mode_y: str, params: BeamSplitterParams) -> StateVector:
    """Route two bosonic modes of a pure state through a beam splitter.

    Qubit modes are rejected: beam splitters act only on bosonic modes.
    """
    if not isinstance(state, StateVector):
        raise TypeError("state must be a StateVector")
    reg = state.register
    if mode_x == mode_y:
        raise ValueError("beam splitter needs two distinct modes")
    for m in (mode_x, mode_y):
        if reg.spec(m).kind is not ModeKind.BOSONIC:
            raise ValueError(f"mode {m!r} is not bosonic; beam splitters act only on bosonic modes")
    axes = (reg.axis(mode_x), reg.axis(mode_y))
    return StateVector(reg, bs_on_axes(state.tensor_view(), axes, params).reshape(-1), state.norm_deficit)


# ---------------------------------------------------------------------------
# photon loss

@lru_cache(maxsize=64)
def _binomial_roots(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (k, n) with k <= n < d and its sqrt(C(n, k)), from exact integers."""
    kn = [(k, n) for n in range(d) for k in range(n + 1)]
    k, n = np.array(kn).T
    return k, n, np.array([math.sqrt(math.comb(n, k)) for k, n in kn])


def loss_band(T: float, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero elements ``A_k[n-k, n] = sqrt(C(n, k) (1-T)^k T^(n-k))`` of a
    T loss on d levels, as ``(k, n, element)`` over every k <= n < d."""
    if not 0.0 <= T <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    if d < 1:
        raise ValueError(f"a loss needs at least one level, got {d} levels")
    k, n, roots = _binomial_roots(d)
    return k, n, roots * np.sqrt((1.0 - T) ** k * T ** (n - k))


def loss_channel(T: float, cutoff: int) -> np.ndarray:
    """Kraus stack ``[k] = A_k = (1-T)^{k/2} (k!)^{-1/2} T^{n/2} a^k``, shape (d, d, d):
    a dense view of :func:`loss_band` for checks, as ``bs_unitary`` is of the splitter.

    On the truncated space the family is exactly trace preserving, because
    a^k only moves occupation downward.
    """
    d = cutoff + 1
    k, n, elements = loss_band(T, d)
    kraus = np.zeros((d, d, d), dtype=np.complex128)
    kraus[k, n - k, n] = elements
    return kraus


def _band_sum(rho: DensityOperator, mode: str, k: np.ndarray, n: np.ndarray, elements: np.ndarray) -> DensityOperator:
    """Kraus sum ``sum_k A_k rho A_k†`` on one bosonic mode of the loss whose real band is
    ``A_k[n-k, n] = elements``, as band arithmetic.

    A loss operator is nonzero only on its k-th superdiagonal, ``a_k[m] = A_k[m, m+k]``,
    so the sum is d shifted, weighted slices of rho on the mode's ket and bra axes:
    ``out[m, m'] = sum_k a_k[m] rho[m+k, m'+k] a_k[m']``, taken on a (d, d, rest)
    layout with the mode's two axes first.  When rho has no imaginary part the sum
    runs in float64; each product and sum is then the real part of the complex one,
    bit for bit, and the result is a complex128 ``DensityOperator`` as always.
    """
    reg = rho.register
    if reg.spec(mode).kind is not ModeKind.BOSONIC:
        raise ValueError("loss channel requires a bosonic mode")
    d = reg.spec(mode).dim
    band = np.zeros((d, d))
    band[k, n - k] = elements  # row k: a_k, zero-padded
    m = rho.matrix
    if not m.imag.any():
        m = m.real
    ax = reg.axis(mode)
    pre, post = math.prod(reg.dims[:ax]), math.prod(reg.dims[ax + 1:])
    t = m.reshape(pre, d, post, pre, d, post).transpose(1, 4, 0, 2, 3, 5).reshape(d, d, -1)
    out = np.zeros(t.shape, t.dtype)
    for shift, a in enumerate(band):
        a = a[:d - shift]
        out[:d - shift, :d - shift] += a[:, None, None] * t[shift:, shift:] * a[:, None]
    out = out.reshape(d, d, pre, post, pre, post).transpose(2, 0, 3, 4, 1, 5)
    return DensityOperator(reg, out.reshape(reg.dim, reg.dim))


def apply_loss(rho: DensityOperator, mode: str, T: float) -> DensityOperator:
    """A T loss on one bosonic mode of rho: the band sum of :func:`loss_band`'s elements."""
    return _band_sum(rho, mode, *loss_band(T, rho.register.spec(mode).dim))


def apply_loss_dilated(rho: DensityOperator, mode: str, T: float) -> DensityOperator:
    """Loss as a splitter against a vacuum environment mode.

    Its Kraus operators ``B_e[m, n] = <m, e|U|n, 0>`` are read off the
    splitter's photon-number blocks, so this route checks the binomial
    elements of :func:`loss_band` against the exponentiated blocks; the
    band sum itself is :func:`apply_loss`'s.
    """
    d = rho.register.spec(mode).dim
    params = BeamSplitterParams.from_transmission(T)
    blocks, _, slot = _bs_blocks(d, d, params.theta, params.phi)  # float64: from_transmission's phi is pi
    k, n, _ = _binomial_roots(d)
    return _band_sum(rho, mode, k, n, blocks[n, slot[n - k, k], slot[n, 0]])  # n photons in, k lost to e


# ---------------------------------------------------------------------------
# detectors

def _weights(weights) -> np.ndarray:
    """A detector outcome's Fock diagonal, ``w[n]`` the probability that it fires on |n>,
    as a float64 copy; anything but a nonempty 1-D array of finite numbers >= 0 raises ``ValueError``."""
    w = np.asarray(weights)
    if w.ndim != 1 or not w.size or not np.isrealobj(w) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("detector weights must be a nonempty 1-D array of finite numbers >= 0")
    return w.astype(float)


def quadrature_amplitudes(xs: np.ndarray, dim: int, theta: float) -> np.ndarray:
    """Matrix V[n, i] = <x_i at angle theta | n>.

    Uses the normalized Hermite recurrence
    psi_0 = pi^{-1/4} e^{-x^2/2}, psi_n = sqrt(2/n) x psi_{n-1}
    - sqrt((n-1)/n) psi_{n-2}, which is overflow-free, then attaches the
    phase-rotation factor e^{-i n theta}.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    psi = np.zeros((dim, xs.size))
    psi[0] = math.pi ** -0.25 * np.exp(-0.5 * xs**2)
    if dim > 1:
        psi[1] = math.sqrt(2.0) * xs * psi[0]
    for n in range(2, dim):
        psi[n] = math.sqrt(2.0 / n) * xs * psi[n - 1] - math.sqrt((n - 1) / n) * psi[n - 2]
    phases = np.exp(-1j * theta * np.arange(dim))
    return psi * phases[:, None]


def homodyne_grid(x_max: float = 6.0, points: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-x_max, x_max], computed afresh on each call."""
    if points < 1:
        raise ValueError("homodyne grid needs at least one point")
    if not 0.0 < x_max < math.inf:
        raise ValueError("x_max must be positive and finite")
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return nodes * x_max, weights * x_max


def with_inefficiency(weights, T_prime: float) -> np.ndarray:
    """Fold detector inefficiency into a detector outcome's weights.

    An inefficient detector is an ideal one behind a T' loss channel, so
    the outcome fires on |n> with probability sum_m P(n -> m) w[m], where
    P(n -> m) = C(n, m) T'^m (1 - T')^(n - m) is the binomial survival
    of the loss.  At T' = 1 the weights come back unchanged, as floats.
    """
    if not 0.0 <= T_prime <= 1.0:
        raise ValueError("detector efficiency must lie in [0, 1]")
    w = _weights(weights)
    if T_prime == 1.0:
        return w
    k, n, elements = loss_band(T_prime, w.size)
    survival = np.zeros((w.size, w.size))
    survival[n - k, n] = elements**2  # [m, n] = P(n -> m)
    return w @ survival


def measure_and_reduce(state: StateVector, outcomes: dict[str, np.ndarray], keep: list[str]) -> tuple[float, DensityOperator]:
    """Joint outcome probability and normalized reduced state on kept modes.

    ``outcomes`` maps each measured mode to its outcome's weights, which
    scale the amplitudes along that mode's axis by ``sqrt(weights)``: a
    projector keeps its levels and zeroes the rest, so the returned
    probability is tr[rho * prod(M)].  The measured and environment modes
    are traced out.  When the probability is at most 1e-290 the reduced
    state is the zero matrix, as ``protocols.swap_points`` gives an
    unreachable outcome.
    """
    reg = state.register
    t = state.tensor_view()
    for mode, weights in outcomes.items():
        ax = reg.axis(mode)
        w = _weights(weights)
        if w.size != reg.dims[ax]:
            raise ValueError(f"weights on mode {mode!r} have wrong dimension")
        shape = [1] * len(reg.dims)
        shape[ax] = -1
        t = t * np.sqrt(w).reshape(shape)
    filtered = StateVector(reg, t.reshape(-1), state.norm_deficit)
    prob = filtered.norm_sq()
    rho = reduced_density(filtered, keep)
    return prob, DensityOperator(rho.register, rho.matrix / prob if prob > 1e-290 else np.zeros_like(rho.matrix))
