"""Tour of the state constructors: what lives in the register, what the
truncation costs, and a few overlaps against their analytic values."""

import math

import numpy as np

from hyswap import (
    ModeRegister,
    bosonic,
    coherent_tail_mass,
    make_coherent,
    make_fock,
    make_hybrid_pair,
    make_vsp_bell,
    mean_photon,
    overlap,
    qubit,
    reduced_density,
)

print("=== single bosonic mode, cutoff 10 ===")
reg = ModeRegister((("M", bosonic(10)),))

for alpha in (0.3, 0.7, 1.5):
    psi = make_coherent(reg, "M", alpha)
    print(
        f"|alpha={alpha}>  norm^2 = {psi.norm_sq():.15f}  "
        f"tail above cutoff = {psi.norm_deficit:.3e}  "
        f"<n> = {mean_photon(psi, 'M'):.6f} (exact {alpha**2})"
    )

print("\ntail mass falls off factorially with the cutoff (alpha = 0.7):")
for c in (4, 8, 12, 16):
    print(f"  cutoff {c:2d}: {coherent_tail_mass(0.7, c):.3e}")

print("\n=== coherent overlaps ===")
a, b = 0.5, -0.5
got = overlap(make_coherent(reg, "M", a), make_coherent(reg, "M", b))
ref = math.exp(-((a - b) ** 2) / 2.0)
print(f"<{a}|{b}> = {got.real:+.12f}   analytic e^(-(a-b)^2/2) = {ref:+.12f}")

print("\n=== cat states N(|b> ± |-b>), b = sqrt(2) * 0.5 ===")
b = math.sqrt(2.0) * 0.5
plus, minus = (make_coherent(reg, "M", s * b).amplitudes for s in (1, -1))
for parity, sign in (("+", 1.0), ("-", -1.0)):
    cat = plus + sign * minus
    occ = np.abs(cat) ** 2 / (2.0 + sign * 2.0 * math.exp(-2.0 * b * b))
    kept = "even" if parity == "+" else "odd"
    print(
        f"|CS{parity}> keeps only {kept} occupations: "
        f"p(0..4) = {np.round(occ[:5], 6)}"
    )

print("\n=== hybrid pair (|0>|a> + |1>|-a>)/sqrt(2) ===")
pair_reg = ModeRegister((("A", qubit()), ("B", bosonic(12))))
for alpha in (0.3, 0.5, 1.0):
    pair = make_hybrid_pair(pair_reg, "A", "B", alpha)
    rho_a = reduced_density(pair, ["A"])
    coherence = rho_a.matrix[0, 1].real
    print(
        f"alpha = {alpha}: qubit coherence = {coherence:+.6f} "
        f"(analytic e^(-2a^2)/2 = {math.exp(-2 * alpha**2) / 2:+.6f})"
    )

print("\n=== vacuum/single-photon Bell states ===")
bell_reg = ModeRegister((("A", qubit()), ("C", qubit())))
for which in ("psi+", "psi-", "phi+", "phi-"):
    v = make_vsp_bell(bell_reg, "A", "C", which).amplitudes
    terms = [
        f"{v[i]:+.3f}|{i >> 1}{i & 1}>" for i in range(4) if abs(v[i]) > 1e-12
    ]
    print(f"  {which}: " + " ".join(terms))

print("\nproduct Fock state |A=1, C=0>:", make_fock(bell_reg, {"A": 1}).amplitudes.real)
