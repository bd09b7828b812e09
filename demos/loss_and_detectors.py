"""Photon loss two ways (Kraus channel vs splitter dilation) and what an
inefficient detector does to its outcomes' weights."""

import math

import numpy as np

from hyswap import (
    DensityOperator,
    ModeRegister,
    apply_loss,
    apply_loss_dilated,
    bosonic,
    make_coherent,
    with_inefficiency,
)

cutoff = 10
reg = ModeRegister((("M", bosonic(cutoff)),))

# an odd cat N(|b> - |-b>), b = sqrt(2) * 0.8, is fragile: one lost photon flips its parity
b = math.sqrt(2.0) * 0.8
cat = make_coherent(reg, "M", b).amplitudes - make_coherent(reg, "M", -b).amplitudes
cat /= math.sqrt(-2.0 * math.expm1(-2.0 * b * b))
rho = DensityOperator(reg, np.outer(cat, cat.conj()))

print("=== odd cat through a lossy channel ===")
print("T      trace    p(even)   p(odd)    Kraus-vs-dilation")
for T in (1.0, 0.9, 0.6, 0.3):
    out = apply_loss(rho, "M", T)
    alt = apply_loss_dilated(rho, "M", T)
    diag = np.diag(out.matrix).real
    p_even = diag[0::2].sum()
    p_odd = diag[1::2].sum()
    gap = np.abs(out.matrix - alt.matrix).max()
    print(f"{T:.1f}    {out.trace():.4f}   {p_even:.4f}    {p_odd:.4f}    {gap:.1e}")

print("\nmean photon number scales exactly with T:")
n_op = np.arange(cutoff + 1)
n0 = float(np.diag(rho.matrix).real @ n_op)
for T in (0.75, 0.5, 0.25):
    out = apply_loss(rho, "M", T)
    n1 = float(np.diag(out.matrix).real @ n_op)
    print(f"  T = {T}: <n> = {n1:.6f} = {T} * {n0:.6f}")

print("\n=== detector elements ===")
# each outcome is its Fock diagonal: weights[n] is the probability that it fires on |n>
n = np.arange(cutoff + 1)
spd = {"0": n == 0, "1": n == 1, "2+": n >= 2}
print("ideal single-photon detector diagonal responses:")
for label, weights in spd.items():
    print(f"  outcome {label!r}: {np.round(weights[:5].astype(float), 3)}")

tp = 0.7
print(f"\nsame detector behind a T' = {tp} loss:")
for label, weights in spd.items():
    print(f"  outcome {label!r}: {np.round(with_inefficiency(weights, tp)[:5], 3)}")

off = with_inefficiency(n == 0, tp)
print(
    "\nno-click probability on |n> is (1 - T')^n:",
    np.round(off[:5], 4),
)
