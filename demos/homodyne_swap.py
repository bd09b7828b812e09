"""Walk through the homodyne-based hybrid swap.

The midpoint keeps only the two-click event of the vacuum test, reads the
remaining arm along x_{pi/2}, and feeds the measured value forward as a
phase correction on one qubit. Every quadrature value is accepted, so the
scheme pays no extra probability for the readout itself, and the integral
over the readout is an operator: the displacement D(-g/sqrt(2)) on D, with
g = 4 sqrt(T) alpha the feed-forward slope.
"""

import math

import numpy as np

from hyswap import (
    DensityOperator,
    ModeRegister,
    StateVector,
    closed_form,
    cv_bsm_failure_prob,
    he_swap_homodyne,
    homodyne_grid,
    quadrature_amplitudes,
    qubit,
)
from hyswap.protocols import _displacement  # the exact kernel he_swap_homodyne contracts


def bell_fid(rho: DensityOperator, vec: StateVector) -> float:
    v = vec.amplitudes
    return float(np.real(v.conj() @ rho.matrix @ v))

alpha, T = 0.5, 0.7
cutoff = 10

print(f"=== homodyne swap at alpha = {alpha}, T = {T} ===")
res = he_swap_homodyne(alpha, T, cutoff=cutoff)
ref = closed_form("he_ho", alpha, T)
(out,) = res.per_outcome
print(f"outcome {out.label!r}")
print(f"p   sim {out.probability:.10f}   closed {ref.p:.10f}   "
      f"err {abs(out.probability - ref.p):.1e}")
print(f"E   sim {out.negativity:.10f}   closed {ref.E:.10f}   "
      f"err {abs(out.negativity - ref.E):.1e}")

print("\nlossless channel heralds the plain Bell state:")
res1 = he_swap_homodyne(alpha, 1.0, cutoff=cutoff)
rho1 = res1.per_outcome[0].post_state
reg2 = ModeRegister((("A", qubit()), ("C", qubit())))
bell = StateVector(reg2, np.array([1.0, 0, 0, 1.0]) / math.sqrt(2.0))
print(f"  F(rho_AC, psi+) = {bell_fid(rho1, bell):.8f}")

print("\nGauss-Legendre sums converge to the exact readout kernel, max |K_1 - D(-g/sqrt(2))|:")
# K_1 = int dx |x_{pi/2}><x_{pi/2}| e^{-i g x} = D(-g/sqrt(2)) on the stored levels;
# the [-6, 6] window stalls where the higher Fock levels reach past it
g = 4.0 * math.sqrt(T) * alpha
exact = _displacement(-g / math.sqrt(2.0), cutoff + 1)
for pts in (25, 51, 101, 201):
    errs = []
    for x_max in (6.0, 10.0):
        xs, ws = homodyne_grid(x_max, pts)
        V = quadrature_amplitudes(xs, cutoff + 1, math.pi / 2.0)
        errs.append(np.abs((V * (ws * np.exp(-1j * g * xs))) @ V.conj().T - exact).max())
    print(f"  {pts:3d} points: on [-6, 6] {errs[0]:.1e}   on [-10, 10] {errs[1]:.1e}")

print("\n=== feed-forward in isolation ===")
# a readout value x leaves the pair as (|00> + e^{i g x}|11>)/sqrt(2); the correction
# is the diagonal phase e^{-i g x} on C's bit of the bare A-C amplitudes
x = 1.3
on_c = np.exp(-1j * g * x * (np.arange(4) % 2))
skew = np.array([1.0, 0, 0, np.exp(1j * g * x)]) / math.sqrt(2.0)
fixed = on_c * skew
before = abs(np.vdot(bell.amplitudes, skew)) ** 2
after = abs(np.vdot(bell.amplitudes, fixed)) ** 2
print(f"x = {x}: |<psi+|skewed>|^2 = {before:.4f}  after correction {after:.10f}")
print(f"the phase at -x restores the skewed state: "
      f"{np.abs(on_c.conj() * fixed - skew).max():.1e} max deviation")

print("\n=== why not an all-coherent Bell measurement? ===")
for a in (0.3, 0.5, 1.0, 1.5):
    pf = cv_bsm_failure_prob(a, cutoff=24)
    print(f"  alpha = {a}: failure probability {pf:.6f}   "
          f"1/(2 cosh(2 a^2)) = {1.0 / (2.0 * math.cosh(2.0 * a * a)):.6f}")
print("small alpha pushes the failure rate toward 1/2, which is what the"
      "\nvacuum test plus homodyne readout sidesteps")
