"""Multi-mode quantum states on truncated Fock and qubit spaces.

A register is an ordered list of named modes.  Each mode is either a
two-level (qubit) mode or a bosonic mode truncated at a maximum photon
number.  Amplitudes live on the row-major product basis: the first mode
is the most significant index, and occupation numbers ascend within each
mode.  That ordering is fixed here once and relied on everywhere else.

Truncation policy: constructors that start from an analytic state of the
infinite Fock space (coherent states, hybrid pairs) do not renormalize
after truncation.  The missing tail mass is recorded in
``StateVector.norm_deficit`` so that downstream probabilities expose the
truncation error instead of silently absorbing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

__all__ = [
    "ModeKind",
    "ModeSpec",
    "ModeRegister",
    "StateVector",
    "DensityOperator",
    "qubit",
    "bosonic",
    "make_fock",
    "make_coherent",
    "make_hybrid_pair",
    "make_vsp_bell",
    "tensor",
    "reduced_density",
    "overlap",
    "fidelity",
    "mean_photon",
    "coherent_tail_mass",
]


class ModeKind(Enum):
    QUBIT = "qubit"
    BOSONIC = "bosonic"


@dataclass(frozen=True)
class ModeSpec:
    """One mode: a qubit, or a bosonic mode with a Fock cutoff.

    A bosonic mode with cutoff ``c`` stores occupations ``0 .. c``
    (dimension ``c + 1``).  Qubit modes are plain two-level systems and
    carry no cutoff.
    """

    kind: ModeKind
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind is ModeKind.QUBIT:
            if self.cutoff is not None:
                raise ValueError("qubit modes carry no cutoff")
        else:
            if self.cutoff is None or int(self.cutoff) < 1:
                raise ValueError("bosonic cutoff must be a positive integer")
            object.__setattr__(self, "cutoff", int(self.cutoff))

    @property
    def dim(self) -> int:
        return 2 if self.kind is ModeKind.QUBIT else self.cutoff + 1


def qubit() -> ModeSpec:
    return ModeSpec(ModeKind.QUBIT)


def bosonic(cutoff: int) -> ModeSpec:
    return ModeSpec(ModeKind.BOSONIC, cutoff)


@dataclass(frozen=True)
class ModeRegister:
    """Ordered collection of named modes defining a product basis."""

    modes: tuple[tuple[str, ModeSpec], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "modes", tuple((str(n), s) for n, s in self.modes)
        )
        names = [n for n, _ in self.modes]
        if len(set(names)) != len(names):
            raise ValueError("mode names must be unique within a register")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for _, s in self.modes)

    @property
    def dim(self) -> int:
        d = 1
        for _, s in self.modes:
            d *= s.dim
        return d

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.modes):
            if n == name:
                return i
        raise ValueError(f"unknown mode {name!r}")

    def spec(self, name: str) -> ModeSpec:
        return self.modes[self.axis(name)][1]


@dataclass(frozen=True)
class StateVector:
    """Pure state over a register, stored as a flat complex vector.

    ``norm_deficit`` is the probability mass lost to truncation; for a
    state built from normalized analytic components,
    ``<psi|psi> + norm_deficit == 1`` up to rounding.
    """

    register: ModeRegister
    amplitudes: np.ndarray
    norm_deficit: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.register.dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match register "
                f"dimension {self.register.dim}"
            )
        nd = float(self.norm_deficit)
        if nd < -1e-12:
            raise ValueError("norm_deficit must be non-negative")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_deficit", max(nd, 0.0))

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def tensor_view(self) -> np.ndarray:
        """The amplitude array reshaped to one axis per mode."""
        return self.amplitudes.reshape(self.register.dims)


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state over a register. Not necessarily trace-normalized:
    post-selected states carry their outcome probability in the trace."""

    register: ModeRegister
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.register.dim
        if m.shape != (d, d):
            raise ValueError(
                f"matrix shape {m.shape} does not match register dimension {d}"
            )
        object.__setattr__(self, "matrix", m)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> "DensityOperator":
        tr = self.trace()
        if abs(tr) < 1e-300:
            raise ValueError("density operator has vanishing trace")
        return DensityOperator(self.register, self.matrix / tr)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


# ---------------------------------------------------------------------------
# constructors

def _basis_vec(dim: int, n: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[n] = 1.0
    return v


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def _log_poisson(n: int, mu: float) -> float:
    """log(e^-mu mu^n / n!) for mu > 0, without rounding a log of size n log mu.

    From n = 20 on, n log(mu / n) is taken as n log1p((mu - n) / n) and
    log n! through four terms of Stirling's series, whose remainder is
    below 1/(1188 n^9) < 2e-15 there; below n = 20 every log is small
    enough for lgamma.
    """
    if n < 20:
        return n * math.log(mu) - mu - math.lgamma(n + 1)
    r = 1.0 / (n * n)
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - r / 1680.0) * r) * r) / n
    return n * math.log1p((mu - n) / n) + (n - mu) - 0.5 * math.log(2.0 * math.pi * n) - stirling


def coherent_tail_mass(alpha: complex, cutoff: int) -> float:
    """Photon-number probability above the cutoff for a coherent state.

    Summed upward from n = cutoff + 1, so no cancellation occurs even
    when the tail is far below machine epsilon.  When the Poisson mode
    lies above the cutoff the tail is 1 - head, each head term taken in
    log space by ``_log_poisson``, since exp(-|alpha|^2) underflows for
    |alpha| > ~26.6.  The upward sum starts from the term at n = cutoff;
    past that underflow it is taken from ``_log_poisson`` too.
    Non-finite amplitudes are rejected: the loop would never exit.
    """
    mu = abs(alpha) ** 2
    if not math.isfinite(mu):
        raise ValueError("coherent amplitude must be finite")
    if mu == 0.0:
        return 0.0
    if mu > cutoff + 1:
        return 1.0 - math.fsum(math.exp(_log_poisson(n, mu)) for n in range(cutoff + 1))
    if mu < 700.0:
        term = math.exp(-mu)
        for n in range(1, cutoff + 1):
            term *= mu / n
    else:
        term = math.exp(_log_poisson(cutoff, mu))
    tail = 0.0
    n = cutoff
    while True:
        n += 1
        term *= mu / n
        tail += term
        if term <= tail * 1e-17 or term < 1e-300:
            return tail


def _product_state(register: ModeRegister, vectors: dict[str, np.ndarray]) -> np.ndarray:
    """Flattened outer product of one vector per mode; unspecified modes get vacuum."""
    per_mode = [vectors[name] if name in vectors else _basis_vec(spec.dim, 0) for name, spec in register.modes]
    return reduce(lambda a, b: np.multiply.outer(a, b).ravel(), per_mode)


def make_fock(register: ModeRegister, occupations: dict[str, int] | None = None) -> StateVector:
    """Product Fock state; modes absent from ``occupations`` are vacuum."""
    occupations = occupations or {}
    names = register.names
    for name in occupations:
        if name not in names:
            raise ValueError(f"unknown mode {name!r}")
    idx = 0
    for name, spec in register.modes:
        n = int(occupations.get(name, 0))
        if n < 0 or n >= spec.dim:
            raise ValueError(
                f"occupation out of range for mode {name!r}: {n} (dim {spec.dim})"
            )
        idx = idx * spec.dim + n
    amps = np.zeros(register.dim, dtype=np.complex128)
    amps[idx] = 1.0
    return StateVector(register, amps, 0.0)


def make_coherent(register: ModeRegister, mode: str, alpha: complex) -> StateVector:
    """Truncated coherent state |alpha> in ``mode``, vacuum elsewhere.

    Not renormalized: the tail mass above the cutoff goes into
    ``norm_deficit``.
    """
    spec = register.spec(mode)
    if spec.kind is not ModeKind.BOSONIC:
        raise ValueError("coherent state requires a bosonic mode")
    vec = _coherent_amplitudes(alpha, spec.cutoff)
    amps = _product_state(register, {mode: vec})
    return StateVector(register, amps, coherent_tail_mass(alpha, spec.cutoff))


def make_hybrid_pair(register: ModeRegister, qubit_mode: str, cv_mode: str, alpha: complex) -> StateVector:
    """Hybrid entangled pair (|0>|alpha> + |1>|-alpha>)/sqrt(2).

    ``qubit_mode`` holds the discrete half, ``cv_mode`` the coherent
    half; any remaining modes of the register are left in vacuum.
    """
    qspec = register.spec(qubit_mode)
    cspec = register.spec(cv_mode)
    if qspec.kind is not ModeKind.QUBIT:
        raise ValueError(f"mode {qubit_mode!r} must be a qubit mode")
    if cspec.kind is not ModeKind.BOSONIC:
        raise ValueError(f"mode {cv_mode!r} must be a bosonic mode")
    b0 = _product_state(
        register,
        {qubit_mode: _basis_vec(2, 0), cv_mode: _coherent_amplitudes(alpha, cspec.cutoff)},
    )
    b1 = _product_state(
        register,
        {qubit_mode: _basis_vec(2, 1), cv_mode: _coherent_amplitudes(-alpha, cspec.cutoff)},
    )
    amps = (b0 + b1) / math.sqrt(2.0)
    return StateVector(register, amps, coherent_tail_mass(alpha, cspec.cutoff))


_BELL_TABLE = {
    "psi+": ((0, 0), (1, 1), 1.0),
    "psi-": ((0, 0), (1, 1), -1.0),
    "phi+": ((0, 1), (1, 0), 1.0),
    "phi-": ((0, 1), (1, 0), -1.0),
}


def make_vsp_bell(register: ModeRegister, mode_1: str, mode_2: str, which: str) -> StateVector:
    """Vacuum/single-photon Bell state on two modes.

    ``psi±`` = (|00> ± |11>)/sqrt(2), ``phi±`` = (|01> ± |10>)/sqrt(2).
    Works on qubit modes or on bosonic modes of any cutoff >= 1.
    """
    if which not in _BELL_TABLE:
        raise ValueError(f"unknown Bell label {which!r}")
    (a1, a2), (b1, b2), sign = _BELL_TABLE[which]
    d1 = register.spec(mode_1).dim
    d2 = register.spec(mode_2).dim
    t0 = _product_state(register, {mode_1: _basis_vec(d1, a1), mode_2: _basis_vec(d2, a2)})
    t1 = _product_state(register, {mode_1: _basis_vec(d1, b1), mode_2: _basis_vec(d2, b2)})
    return StateVector(register, (t0 + sign * t1) / math.sqrt(2.0), 0.0)


# ---------------------------------------------------------------------------
# composition and reduction

def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; registers are concatenated in order (a first)."""
    if set(a.register.names) & set(b.register.names):
        raise ValueError("duplicate mode name in tensor product")
    reg = ModeRegister(a.register.modes + b.register.modes)
    deficit = a.norm_deficit + b.norm_deficit - a.norm_deficit * b.norm_deficit
    return StateVector(reg, np.multiply.outer(a.amplitudes, b.amplitudes).ravel(), deficit)


def reduced_density(state: StateVector, keep: list[str]) -> DensityOperator:
    """Reduced density operator of a pure state on the kept modes.

    Computed as M M† on the (kept, rest) reshaping, which never
    materializes the full density matrix of the joint state.
    """
    reg = state.register
    keep_set = set(keep)
    for name in keep_set:
        if name not in reg.names:
            raise ValueError(f"unknown mode {name!r}")
    axes_keep = [i for i, nm in enumerate(reg.names) if nm in keep_set]
    axes_rest = [i for i, nm in enumerate(reg.names) if nm not in keep_set]
    t = np.transpose(state.tensor_view(), axes_keep + axes_rest)
    kept_reg = ModeRegister(
        tuple((nm, sp) for nm, sp in reg.modes if nm in keep_set)
    )
    m = t.reshape(kept_reg.dim, -1)
    return DensityOperator(kept_reg, m @ m.conj().T)


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b> over identical registers."""
    if a.register != b.register:
        raise ValueError("register mismatch in overlap")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 with both vectors normalized first."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na < 1e-300 or nb < 1e-300:
        raise ValueError("fidelity of a null vector")
    return abs(overlap(a, b)) ** 2 / (na * nb)


def mean_photon(state: StateVector, mode: str) -> float:
    """Occupation expectation of one mode (unnormalized state as stored)."""
    ax = state.register.axis(mode)
    t = np.moveaxis(state.tensor_view(), ax, 0)
    probs = np.sum(np.abs(t.reshape(t.shape[0], -1)) ** 2, axis=1)
    return float(np.dot(probs, np.arange(len(probs))))
