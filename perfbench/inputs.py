"""Seeded input generation for the benchmark workloads.

Everything here is standard library only, and independent of hyswap, so
a change to the program cannot change the inputs it is measured on.

Cutoff rule: every generated (alpha, cutoff) pair satisfies
``cutoff >= min_cutoff(alpha)``, the smallest c for which the coherent
branch of amplitude sqrt(2) * alpha keeps a photon-number tail above c
of at most ``TAIL_TOL``.  Costs are set by the cutoffs, which are fixed
per workload; the seed only moves alpha, T and T' inside the ranges, so
different seeds give different inputs of the same cost.  Starved
cutoffs (cutoff below the rule) are out of scope here: they are a
correctness matter, for a regression test of their own, not a timing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TAIL_TOL = 1e-9
ALPHA_RANGE = (0.2, 0.8)
T_RANGE = (0.05, 1.0)
T_PRIME_RANGE = (0.6, 1.0)

# homodyne: mostly cutoffs 8-12, plus one cutoff-16 point per pass
HOMODYNE_CUTOFFS = (8, 9, 10, 11, 12, 16)
# counting: 25 dv points (cutoff is capped inside dv_swap) and 75 he-spd
# points spread over cutoffs 6..16; 100 points give 10 samples above p90
COUNTING_DV_CUTOFFS = tuple(2 + i % 15 for i in range(25))
COUNTING_SPD_CUTOFFS = tuple(6 + i % 11 for i in range(75))
# sweep: 3 schemes x 2 alphas x SWEEP_T_COUNT transmissions
SWEEP_SCHEMES = ("dv", "he-spd", "he-ho")
SWEEP_T_COUNT = 2
SWEEP_POINTS = 101
SWEEP_PARALLELISM = 2


@dataclass(frozen=True)
class Point:
    scheme: str
    alpha: float
    T: float
    T_prime: float
    cutoff: int


def tail_mass(alpha: float, cutoff: int) -> float:
    """P(n > cutoff) for a coherent state of amplitude ``alpha``."""
    mu = alpha * alpha
    if mu == 0.0:
        return 0.0
    term = math.exp(-mu)
    for n in range(1, cutoff + 1):
        term *= mu / n
    tail, n = 0.0, cutoff
    while n < cutoff + 1000:  # terms fall geometrically once n > mu
        n += 1
        term *= mu / n
        tail += term
        if term <= tail * 1e-17:
            break
    return tail


def min_cutoff(alpha: float) -> int:
    """Smallest cutoff the rule allows for amplitude ``alpha``."""
    c = 2
    while tail_mass(math.sqrt(2.0) * alpha, c) > TAIL_TOL:
        c += 1
    return c


def alpha_max(cutoff: int) -> float:
    """Largest alpha in ALPHA_RANGE that the rule allows at ``cutoff``."""
    lo, hi = 0.0, ALPHA_RANGE[1]
    if tail_mass(math.sqrt(2.0) * hi, cutoff) <= TAIL_TOL:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail_mass(math.sqrt(2.0) * mid, cutoff) <= TAIL_TOL:
            lo = mid
        else:
            hi = mid
    return lo


def _finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"generator drew a non-finite value {v!r}")


def _draw(rng: random.Random, scheme: str, cutoff: int) -> Point:
    T = rng.uniform(*T_RANGE)
    T_prime = rng.uniform(*T_PRIME_RANGE)
    if scheme == "dv":
        alpha = 0.0
    else:
        top = alpha_max(cutoff)
        if top < ALPHA_RANGE[0]:
            raise ValueError(f"cutoff {cutoff} admits no alpha in {ALPHA_RANGE}")
        alpha = rng.uniform(ALPHA_RANGE[0], top)
        if min_cutoff(alpha) > cutoff:
            raise ValueError(f"alpha {alpha} breaks the cutoff rule at {cutoff}")
    _finite(alpha, T, T_prime)
    return Point(scheme, alpha, T, T_prime, cutoff)


def homodyne_pass(rng: random.Random) -> list[Point]:
    points = [_draw(rng, "he-ho", c) for c in HOMODYNE_CUTOFFS]
    rng.shuffle(points)
    return points


def counting_pass(rng: random.Random) -> list[Point]:
    points = [_draw(rng, "dv", c) for c in COUNTING_DV_CUTOFFS]
    points += [_draw(rng, "he-spd", c) for c in COUNTING_SPD_CUTOFFS]
    rng.shuffle(points)
    return points


def sweep_config_text(rng: random.Random, cutoff: int, output_path: str,
                      parallelism: int = SWEEP_PARALLELISM) -> str:
    """A config shaped like demos/sweep_example.cfg, without a cutoff key.

    ``cutoff`` is the program's default, which the caller reads back
    from the parsed config; the alphas are drawn so the rule holds at it.
    """
    top = alpha_max(cutoff)
    if top < ALPHA_RANGE[0]:
        raise ValueError(f"default cutoff {cutoff} admits no alpha in {ALPHA_RANGE}")
    alphas = sorted(rng.uniform(ALPHA_RANGE[0], top) for _ in range(2))
    ts = sorted((rng.uniform(*T_RANGE) for _ in range(SWEEP_T_COUNT)), reverse=True)
    t_prime = rng.uniform(*T_PRIME_RANGE)
    _finite(*alphas, *ts, t_prime)
    return (
        f"schemes = {', '.join(SWEEP_SCHEMES)}\n"
        f"alpha_values = {', '.join(repr(a) for a in alphas)}\n"
        f"T_values = {', '.join(repr(t) for t in ts)}\n"
        f"T_prime = {t_prime!r}\n"
        f"homodyne.points = {SWEEP_POINTS}\n"
        f"output_path = {output_path}\n"
        f"parallelism = {parallelism}\n"
    )
