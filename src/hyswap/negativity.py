"""Entanglement negativity via the partial transpose."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator

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


def partial_transpose(rho: DensityOperator, transpose_modes: list[str]) -> DensityOperator:
    """Transpose the listed modes only.

    Transposing none or all of the modes is refused: both are global
    (trivial) operations that signal a caller bug in a bipartite split.
    """
    reg = rho.register
    names = reg.names
    tset = set(transpose_modes)
    for nm in tset:
        if nm not in names:
            raise ValueError(f"unknown mode {nm!r}")
    if not tset or tset == set(names):
        raise ValueError("partial transpose needs a proper subset of modes")
    n = len(names)
    dims = reg.dims
    t = rho.matrix.reshape(dims + dims)
    perm = list(range(2 * n))
    for i, nm in enumerate(names):
        if nm in tset:
            perm[i], perm[n + i] = perm[n + i], perm[i]
    d = reg.dim
    return DensityOperator(reg, np.transpose(t, perm).reshape(d, d))


def negativity(rho: DensityOperator, transpose_modes: list[str]) -> NegativityReport:
    """Entanglement negativity across the bipartition set by ``transpose_modes``.

    The eigenvalues are those of the symmetrized partial transpose
    divided by the input's trace (post-selected states arrive with their
    outcome probability in the trace); the factor is reported.
    Eigenvalues at or above -1e-12 are treated as numerical zeros.
    """
    defect = rho.hermiticity_defect()
    if defect > 1e-8:
        raise ValueError(f"density operator is not Hermitian (defect {defect:.3g})")
    tr = rho.trace()
    if abs(tr) < 1e-290:
        raise ValueError("density operator has vanishing trace")
    pt = partial_transpose(rho, transpose_modes).matrix
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / (2.0 * tr))
    negatives = tuple(eigs[eigs < -1e-12].tolist())
    return NegativityReport(
        value=-2.0 * sum(negatives),
        negative_eigenvalues=negatives,
        trace_factor=tr,
    )
