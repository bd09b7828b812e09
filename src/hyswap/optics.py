"""Beam splitters, photon-loss channels, and detector models.

Conventions.  The two-mode splitter acting on modes (X, Y) is
``exp[(theta/2) (x†y e^{i phi} - x y† e^{-i phi})]`` with intensity
transmission ``T = cos²(theta/2)``.  At the 50:50 working point
(theta = pi/2, phi = pi) used throughout, the defining fixtures are

    |1,0>         ->  (|1,0> + |0,1>)/sqrt(2)
    |0,1>         ->  (|0,1> - |1,0>)/sqrt(2)
    |1,1>         ->  (|0,2> - |2,0>)/sqrt(2)
    |alpha,beta>  ->  |(alpha-beta)/sqrt(2)> |(alpha+beta)/sqrt(2)>

The generator conserves total photon number, so the unitary is built by
exact exponentiation inside each total-number block of the truncated
space.  Blocks that fit under the cutoffs reproduce the infinite-space
splitter exactly; edge blocks stay exactly unitary on the stored space,
so no norm leaks through truncation.

Photon loss with survival probability T is the same splitter at
``cos²(theta/2) = T`` against a vacuum environment mode, or equivalently
the amplitude-damping Kraus family ``A_k = (1-T)^{k/2} (k!)^{-1/2}
T^{n/2} a^k``.  Both routes are provided and are checked against each
other in the tests rather than merged.

Homodyne detection is represented by quadrature bra vectors
``<x_theta|n> = e^{-i n theta} pi^{-1/4} (2^n n!)^{-1/2} H_n(x)
e^{-x^2/2}`` evaluated by the stable normalized Hermite recurrence; a
Gauss-Legendre grid plays the role of the continuum.
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
    ModeRegister,
    StateVector,
    bosonic,
    partial_trace,
    reduced_density,
    tensor_rho,
)

__all__ = [
    "BeamSplitterParams",
    "FIFTY_FIFTY",
    "bs_unitary",
    "apply_bs",
    "LossChannel",
    "loss_channel",
    "apply_loss",
    "apply_loss_dilated",
    "MeasurementElement",
    "fock_projector",
    "pnr_elements",
    "onoff_elements",
    "spd_elements",
    "quadrature_amplitudes",
    "homodyne_grid",
    "with_inefficiency",
    "measure_and_reduce",
]


@dataclass(frozen=True)
class BeamSplitterParams:
    theta: float
    phi: float

    @property
    def transmission(self) -> float:
        return math.cos(self.theta / 2.0) ** 2

    @classmethod
    def from_transmission(cls, T: float, phi: float = math.pi) -> "BeamSplitterParams":
        if not 0.0 <= T <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")
        return cls(2.0 * math.acos(math.sqrt(T)), phi)


FIFTY_FIFTY = BeamSplitterParams(math.pi / 2.0, math.pi)


@lru_cache(maxsize=256)
def _bs_unitary_cached(d1: int, d2: int, theta: float, phi: float) -> np.ndarray:
    U = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
    for n in range(d1 + d2 - 1):
        ks = list(range(max(0, n - (d2 - 1)), min(n, d1 - 1) + 1))
        m = len(ks)
        A = np.zeros((m, m), dtype=np.complex128)
        for j, k in enumerate(ks[:-1]):
            # <k+1, n-k-1| x†y |k, n-k> = sqrt((k+1)(n-k))
            val = math.sqrt((k + 1) * (n - k))
            A[j + 1, j] += cmath.exp(1j * phi) * val
            A[j, j + 1] += -cmath.exp(-1j * phi) * val
        # A is anti-Hermitian; exponentiate through the Hermitian i(theta/2)A
        H = 1j * (theta / 2.0) * A
        w, V = np.linalg.eigh(H)
        Ub = (V * np.exp(-1j * w)) @ V.conj().T
        for j, k in enumerate(ks):
            for l, k2 in enumerate(ks):
                U[k * d2 + (n - k), k2 * d2 + (n - k2)] = Ub[j, l]
    U.setflags(write=False)
    return U


def bs_unitary(d1: int, d2: int, params: BeamSplitterParams) -> np.ndarray:
    """Dense two-mode splitter unitary on the (d1*d2)-dim product space."""
    return _bs_unitary_cached(d1, d2, float(params.theta), float(params.phi))


def _apply(flat: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...], U: np.ndarray) -> np.ndarray:
    """Apply an operator U (row-major over ``axes``) to those axes of a flat array."""
    k = len(dims) - len(axes)
    tail = tuple(range(k, len(dims)))
    t = np.moveaxis(flat.reshape(dims), axes, tail)
    shp = t.shape
    t = t.reshape(-1, math.prod(shp[k:])) @ U.T
    return np.moveaxis(t.reshape(shp), tail, axes).reshape(-1)


def apply_bs(state, mode_x: str, mode_y: str, params: BeamSplitterParams):
    """Route two bosonic modes through a beam splitter.

    Accepts a StateVector or a DensityOperator.  Qubit modes are
    rejected; promote them to cutoff-1 bosonic modes explicitly if a
    dual-rail mode really needs to pass a splitter.
    """
    reg = state.register
    if mode_x == mode_y:
        raise ValueError("beam splitter needs two distinct modes")
    for m in (mode_x, mode_y):
        if reg.spec(m).kind is not ModeKind.BOSONIC:
            raise ValueError(
                f"mode {m!r} is not bosonic; promote qubit modes explicitly"
            )
    ax, ay = reg.axis(mode_x), reg.axis(mode_y)
    U = bs_unitary(reg.dims[ax], reg.dims[ay], params)
    if isinstance(state, StateVector):
        amps = _apply(state.amplitudes, reg.dims, (ax, ay), U)
        return StateVector(reg, amps, state.norm_deficit)
    if isinstance(state, DensityOperator):
        n = len(reg.dims)
        dims2 = reg.dims + reg.dims
        flat = _apply(state.matrix.reshape(-1), dims2, (ax, ay), U)
        flat = _apply(flat, dims2, (n + ax, n + ay), U.conj())
        return DensityOperator(reg, flat.reshape(reg.dim, reg.dim))
    raise TypeError("state must be a StateVector or DensityOperator")


# ---------------------------------------------------------------------------
# photon loss

@dataclass(frozen=True)
class LossChannel:
    """Amplitude damping on one bosonic mode, in Kraus form."""

    T: float
    kraus: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


def loss_channel(T: float, cutoff: int) -> LossChannel:
    """Kraus family A_k = (1-T)^{k/2} (k!)^{-1/2} T^{n/2} a^k.

    On the truncated space the family is exactly trace preserving,
    because a^k only moves occupation downward.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    d = cutoff + 1
    ops = []
    for k in range(d):
        A = np.zeros((d, d), dtype=np.complex128)
        for n in range(k, d):
            A[n - k, n] = math.sqrt(math.comb(n, k) * (1.0 - T) ** k * T ** (n - k))
        ops.append(A)
    return LossChannel(T, tuple(ops))


def apply_loss(rho: DensityOperator, mode: str, channel: LossChannel) -> DensityOperator:
    """Kraus-sum application of a loss channel to one mode of a mixed state."""
    reg = rho.register
    spec = reg.spec(mode)
    if spec.kind is not ModeKind.BOSONIC:
        raise ValueError("loss channel requires a bosonic mode")
    if spec.dim != channel.dim:
        raise ValueError(
            f"channel dimension {channel.dim} does not match mode {mode!r} "
            f"dimension {spec.dim}"
        )
    ax = reg.axis(mode)
    n = len(reg.dims)
    dims2 = reg.dims + reg.dims
    out = np.zeros(reg.dim * reg.dim, dtype=np.complex128)
    for A in channel.kraus:
        flat = _apply(rho.matrix.reshape(-1), dims2, (ax,), A)
        out += _apply(flat, dims2, (n + ax,), A.conj())
    return DensityOperator(reg, out.reshape(reg.dim, reg.dim))


def apply_loss_dilated(rho: DensityOperator, mode: str, T: float) -> DensityOperator:
    """Loss as a splitter against a vacuum environment, then a trace-out.

    Slower twin of :func:`apply_loss`; kept as an independent route so the
    two loss models can be compared against each other.
    """
    reg = rho.register
    spec = reg.spec(mode)
    if spec.kind is not ModeKind.BOSONIC:
        raise ValueError("loss channel requires a bosonic mode")
    env = mode + "_env"
    while env in reg.names:
        env += "_"
    env_reg = ModeRegister(((env, bosonic(spec.cutoff)),))
    env_vac = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    env_vac[0, 0] = 1.0
    joint = tensor_rho(rho, DensityOperator(env_reg, env_vac))
    joint = apply_bs(joint, mode, env, BeamSplitterParams.from_transmission(T))
    return partial_trace(joint, list(reg.names))


# ---------------------------------------------------------------------------
# detectors

@dataclass(frozen=True)
class MeasurementElement:
    """A labeled measurement operator on named modes.

    kind is 'projector' or 'povm-element'.
    """

    label: str
    modes: tuple[str, ...]
    operator: np.ndarray
    kind: str


def fock_projector(register: ModeRegister, mode: str, n: int) -> MeasurementElement:
    d = register.spec(mode).dim
    if not 0 <= n < d:
        raise ValueError(f"occupation out of range for mode {mode!r}: {n}")
    op = np.zeros((d, d), dtype=np.complex128)
    op[n, n] = 1.0
    return MeasurementElement(f"{n}", (mode,), op, "projector")


def pnr_elements(register: ModeRegister, mode: str, n_max: int | None = None) -> list[MeasurementElement]:
    """Photon-number-resolving detector: projectors |n><n| up to n_max.

    The default n_max (the mode cutoff) makes the set complete.
    """
    spec = register.spec(mode)
    if spec.kind is not ModeKind.BOSONIC:
        raise ValueError("photon counting requires a bosonic mode")
    top = spec.cutoff if n_max is None else int(n_max)
    if not 0 <= top <= spec.cutoff:
        raise ValueError("n_max out of range")
    return [fock_projector(register, mode, n) for n in range(top + 1)]


def onoff_elements(register: ModeRegister, mode: str) -> list[MeasurementElement]:
    """On-off (bucket) detector: {no click, click} = {P0, 1 - P0}."""
    spec = register.spec(mode)
    if spec.kind is not ModeKind.BOSONIC:
        raise ValueError("on-off detection requires a bosonic mode")
    d = spec.dim
    p0 = np.zeros((d, d), dtype=np.complex128)
    p0[0, 0] = 1.0
    click = np.eye(d, dtype=np.complex128) - p0
    return [
        MeasurementElement("off", (mode,), p0, "projector"),
        MeasurementElement("click", (mode,), click, "projector"),
    ]


def spd_elements(register: ModeRegister, mode: str) -> list[MeasurementElement]:
    """Single-photon detector: {vacuum, one photon, two or more}."""
    spec = register.spec(mode)
    if spec.kind is not ModeKind.BOSONIC:
        raise ValueError("single-photon detection requires a bosonic mode")
    d = spec.dim
    p0 = np.zeros((d, d), dtype=np.complex128)
    p0[0, 0] = 1.0
    p1 = np.zeros((d, d), dtype=np.complex128)
    p1[1, 1] = 1.0
    rest = np.eye(d, dtype=np.complex128) - p0 - p1
    return [
        MeasurementElement("0", (mode,), p0, "projector"),
        MeasurementElement("1", (mode,), p1, "projector"),
        MeasurementElement("2+", (mode,), rest, "projector"),
    ]


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


@lru_cache(maxsize=64)
def _homodyne_grid_cached(x_max: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes, weights = nodes * x_max, weights * x_max
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def homodyne_grid(x_max: float = 6.0, points: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-x_max, x_max].

    Memoized on (x_max, points); the returned arrays are read-only.
    """
    if points < 1:
        raise ValueError("homodyne grid needs at least one point")
    if not 0.0 < x_max < math.inf:
        raise ValueError("x_max must be positive and finite")
    return _homodyne_grid_cached(float(x_max), points)


def with_inefficiency(elements, T_prime: float):
    """Fold detector inefficiency into measurement elements.

    An inefficient detector is an ideal one behind a T' loss channel, so
    each element M becomes the adjoint-channel image sum_k A_k† M A_k.
    Accepts a single element or a list; projectors degrade to general
    POVM elements when T' < 1.
    """
    if not 0.0 <= T_prime <= 1.0:
        raise ValueError("detector efficiency must lie in [0, 1]")
    single = isinstance(elements, MeasurementElement)
    items = [elements] if single else list(elements)
    out = []
    for el in items:
        if T_prime == 1.0:
            out.append(el)
            continue
        if len(el.modes) != 1:
            raise ValueError("inefficiency mapping is defined per mode")
        d = el.operator.shape[0]
        ch = loss_channel(T_prime, d - 1)
        m = np.zeros_like(el.operator)
        for A in ch.kraus:
            m += A.conj().T @ el.operator @ A
        out.append(MeasurementElement(el.label, el.modes, m, "povm-element"))
    return out[0] if single else out


def _psd_sqrt(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def measure_and_reduce(state: StateVector, elements: list[MeasurementElement], keep: list[str]) -> tuple[float, DensityOperator]:
    """Joint outcome probability and normalized reduced state on kept modes.

    Each element acts on its own single mode. Projectors filter the state
    directly; general POVM elements act through their PSD square root, so
    the returned probability is tr[rho * prod(M)] either way.  The
    measured and environment modes are traced out.  When the probability
    underflows the reduced state is returned as the zero matrix.
    """
    reg = state.register
    flat = state.amplitudes
    for el in elements:
        if len(el.modes) != 1:
            raise ValueError("measure_and_reduce expects single-mode elements")
        ax = reg.axis(el.modes[0])
        if el.operator.shape[0] != reg.dims[ax]:
            raise ValueError(
                f"element on mode {el.modes[0]!r} has wrong dimension"
            )
        filt = el.operator if el.kind == "projector" else _psd_sqrt(el.operator)
        flat = _apply(flat, reg.dims, (ax,), filt)
    filtered = StateVector(reg, flat, state.norm_deficit)
    prob = filtered.norm_sq()
    rho = reduced_density(filtered, keep)
    if prob > 1e-290:
        rho = DensityOperator(rho.register, rho.matrix / prob)
    return prob, rho
