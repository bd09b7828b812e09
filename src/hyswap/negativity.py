"""Entanglement negativity via the partial transpose.

One kernel, ``_negativity_stack``, scores a whole (k, d, d) stack over
plain tensor dims with one eigen-solve and returns each matrix's
negativity; ``negativity`` is it on a stack of one, with the register's
mode names mapped to axes.  Real-valued data stays real: a stack whose
imaginary part is exactly zero (every herald stack of ``protocols``, and
any complex128 ``DensityOperator`` built from real amplitudes) is scored
in float64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fock import DensityOperator

__all__ = ["partial_transpose", "negativity"]


def _axes(rho: DensityOperator, transpose_modes: list[str]) -> tuple[int, ...]:
    """The sorted axes of the listed modes of ``rho``'s register, a proper, nonempty subset.

    Transposing none or all of the modes is refused: both are global (trivial) operations
    that signal a caller bug in a bipartite split.
    """
    reg = rho.register
    axes = tuple(sorted({reg.axis(nm) for nm in transpose_modes}))  # raises "unknown mode"
    if not axes or len(axes) == len(reg.dims):
        raise ValueError("partial transpose needs a proper subset of modes")
    return axes


@lru_cache(maxsize=64)
def _transpose_layout(dims: tuple[int, ...], axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tensor shape and axis permutation that transpose the listed axes of a (k, d, d) stack over ``dims``."""
    n = len(dims)
    perm = list(range(2 * n + 1))  # axis 0 runs over the stack
    for i in axes:
        perm[i + 1], perm[n + i + 1] = perm[n + i + 1], perm[i + 1]
    return dims * 2, tuple(perm)


def _partial_transpose_stack(mats: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    shape, perm = _transpose_layout(dims, axes)
    return mats.reshape((len(mats),) + shape).transpose(perm).reshape(mats.shape)


def partial_transpose(rho: DensityOperator, transpose_modes: list[str]) -> DensityOperator:
    """Transpose the listed modes only (a proper, nonempty subset)."""
    pt = _partial_transpose_stack(rho.matrix[None], rho.register.dims, _axes(rho, transpose_modes))
    return DensityOperator(rho.register, pt[0])


def _negativity_stack(mats: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """The negativity of each matrix of a C-contiguous (k, d, d) stack over the tensor ``dims``,
    across the bipartition that transposes ``axes``, one eigen-solve for all: a float64 array.

    Each negativity is -2 times the sum of the eigenvalues below -1e-12 of
    the symmetrized partial transpose divided by the matrix's trace
    (post-selected states arrive with their outcome probability in the
    trace).  Each matrix takes the elementwise steps it would take alone,
    so its result is bit-identical to a single call's; the Hermiticity
    error names the stack's worst defect.  The partial transpose of
    rho + rho† is pt + pt†, so the sum is transposed once.  A stack with
    no imaginary part, every herald stack and every real-valued
    ``DensityOperator`` among them, is scored in float64 (a real symmetric
    eigen-solve); any other is scored in complex128.
    """
    real = not np.iscomplexobj(mats) or not mats.imag.any()
    mats = (mats.real if real else mats).astype(np.float64 if real else np.complex128, copy=False)
    herm = mats.conj().transpose(0, 2, 1)
    defect = float(np.abs(mats - herm).max(initial=0.0))
    if defect > 1e-8:
        raise ValueError(f"density operator is not Hermitian (defect {defect:.3g})")
    tr = mats.trace(axis1=1, axis2=2).real
    if any(abs(t) < 1e-290 for t in tr.tolist()):
        raise ValueError("density operator has vanishing trace")
    sym = _partial_transpose_stack(mats + herm, dims, axes) / (2.0 * tr)[:, None, None]
    return np.array([-2.0 * sum(e for e in eigs if e < -1e-12) for eigs in np.linalg.eigvalsh(sym).tolist()])


def negativity(rho: DensityOperator, transpose_modes: list[str]) -> float:
    """Entanglement negativity across the bipartition set by ``transpose_modes``, as a float.

    This is ``_negativity_stack``, which ``protocols.swap_points`` calls
    once on the outcomes of all its points, on a stack of one: the state is
    scored trace-normalized, eigenvalues at or above -1e-12 are numerical
    zeros, and a state whose imaginary part is zero is scored in float64.
    """
    axes = _axes(rho, transpose_modes)
    return float(_negativity_stack(np.ascontiguousarray(rho.matrix)[None], rho.register.dims, axes)[0])
