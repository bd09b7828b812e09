"""Entanglement negativity via the partial transpose.

One kernel, ``_negativity_stack``, scores a whole (k, d, d) stack with one
eigen-solve and returns each matrix's negative eigenvalues and trace;
``negativity`` is it on a stack of one, wrapped in a ``NegativityReport``.
Real-valued data stays real: a stack whose imaginary part is exactly zero
(every herald stack of ``protocols``, and any complex128
``DensityOperator`` built from real amplitudes) is scored in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import DensityOperator, ModeRegister

__all__ = ["NegativityReport", "partial_transpose", "negativity"]


@dataclass(frozen=True)
class NegativityReport:
    """Negativity value with the eigenvalues that produced it.

    ``value`` is -2 * sum of the listed negative eigenvalues of the
    partially transposed, trace-normalized operator.  ``trace_factor``
    records the trace that was divided out, so post-selected inputs can
    be audited.
    """

    value: float
    negative_eigenvalues: tuple[float, ...]
    trace_factor: float


@lru_cache(maxsize=64)
def _transpose_layout(reg: ModeRegister, transpose_modes: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tensor shape and axis permutation that transpose the listed modes of a (k, d, d) stack over ``reg``.

    Transposing none or all of the modes is refused: both are global (trivial) operations
    that signal a caller bug in a bipartite split; only valid layouts are cached, so it raises every time.
    """
    names = reg.names
    tset = set(transpose_modes)
    for nm in tset:
        if nm not in names:
            raise ValueError(f"unknown mode {nm!r}")
    if not tset or tset == set(names):
        raise ValueError("partial transpose needs a proper subset of modes")
    n = len(names)
    perm = list(range(2 * n + 1))  # axis 0 runs over the stack
    for i, nm in enumerate(names, 1):
        if nm in tset:
            perm[i], perm[n + i] = perm[n + i], perm[i]
    return reg.dims * 2, tuple(perm)


def _partial_transpose_stack(mats: np.ndarray, reg: ModeRegister, transpose_modes: list[str]) -> np.ndarray:
    shape, perm = _transpose_layout(reg, tuple(transpose_modes))
    return mats.reshape((len(mats),) + shape).transpose(perm).reshape(mats.shape)


def partial_transpose(rho: DensityOperator, transpose_modes: list[str]) -> DensityOperator:
    """Transpose the listed modes only (a proper, nonempty subset)."""
    return DensityOperator(rho.register, _partial_transpose_stack(rho.matrix[None], rho.register, transpose_modes)[0])


def _negativity_stack(mats: np.ndarray, reg: ModeRegister,
                      transpose_modes: list[str]) -> tuple[list[tuple[float, ...]], list[float]]:
    """The negative eigenvalues and the trace of each matrix of a C-contiguous (k, d, d) stack over
    ``reg``, one eigen-solve for all: ``(negatives, traces)``, each a list over the stack.

    Each matrix takes the elementwise steps it would take alone, so its
    result is bit-identical to a single call's; the Hermiticity error
    names the stack's worst defect.  The partial transpose of rho + rho†
    is pt + pt†, so the sum is transposed once.  A stack with no imaginary
    part, every herald stack and every real-valued ``DensityOperator``
    among them, is scored in float64 (a real symmetric eigen-solve); any
    other is scored in complex128.  No report is built here: a caller
    forms ``-2 * sum(negatives[i])`` itself.
    """
    real = not np.iscomplexobj(mats) or not mats.imag.any()
    mats = (mats.real if real else mats).astype(np.float64 if real else np.complex128, copy=False)
    herm = mats.conj().transpose(0, 2, 1)
    defect = float(np.abs(mats - herm).max(initial=0.0))
    if defect > 1e-8:
        raise ValueError(f"density operator is not Hermitian (defect {defect:.3g})")
    tr = mats.trace(axis1=1, axis2=2).real
    factors = tr.tolist()
    if any(abs(t) < 1e-290 for t in factors):
        raise ValueError("density operator has vanishing trace")
    sym = _partial_transpose_stack(mats + herm, reg, transpose_modes) / (2.0 * tr)[:, None, None]
    return [tuple(e for e in eigs if e < -1e-12) for eigs in np.linalg.eigvalsh(sym).tolist()], factors


def negativity(rho: DensityOperator, transpose_modes: list[str]) -> NegativityReport:
    """Entanglement negativity across the bipartition set by ``transpose_modes``.

    The eigenvalues are those of the symmetrized partial transpose
    divided by the input's trace (post-selected states arrive with their
    outcome probability in the trace); the factor is reported.
    Eigenvalues at or above -1e-12 are treated as numerical zeros.  This
    is ``_negativity_stack``, which ``protocols.swap_points`` calls once
    on the outcomes of all its points, on a stack of one: a state whose
    imaginary part is zero is scored in float64.
    """
    (negatives,), (factor,) = _negativity_stack(np.ascontiguousarray(rho.matrix)[None], rho.register, transpose_modes)
    return NegativityReport(-2.0 * sum(negatives), negatives, factor)
