"""Closed-form success probabilities and negativities.

Deliberately simulation-free: everything here is elementary arithmetic
in the effective transmission tau = T * T', so it can serve as an
independent oracle for the Fock-space pipelines.  Detector inefficiency
enters only through that substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ClosedFormPoint", "closed_form", "dv_loss_limit", "SCHEMES"]

SCHEMES = ("dv", "he_spd", "he_ho")


@dataclass(frozen=True)
class ClosedFormPoint:
    scheme: str
    alpha: float
    T: float
    T_prime: float
    p: float
    E: float


def _check_range(value: float, name: str) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return v


def _finite_alpha(alpha: float) -> bool:
    return math.isfinite(alpha * alpha)  # |alpha|² overflows from about 1.3e154


def _check_alpha(alpha: float) -> float:
    if not _finite_alpha(alpha := float(alpha)):
        raise ValueError(f"alpha must be finite, with |alpha|^2 finite too, got {alpha!r}")
    return alpha


def closed_form(scheme: str, alpha: float, T: float, T_prime: float = 1.0) -> ClosedFormPoint:
    """Reference (p, E) for one scheme at one parameter point.

    dv:     p = tau(2 - tau)/2,
            E = (sqrt(1 + (1-tau)^2) - (1-tau)) / (2 - tau)
    he_spd: p = 2 tau a^2 exp(-2 tau a^2),  E = exp(-4 (1-tau) a^2)
    he_ho:  p = (1 - exp(-tau a^2))^2 / 2,  E = exp(-4 (1-tau) a^2)

    with tau = T * T' and a = |alpha|.  ``alpha`` is ignored for the dv
    scheme (echoed back unchanged).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    alpha = _check_alpha(alpha)
    T = _check_range(T, "T")
    T_prime = _check_range(T_prime, "T_prime")
    tau = T * T_prime
    if scheme == "dv":
        r = 1.0 - tau
        p = tau * (2.0 - tau) / 2.0
        E = (math.sqrt(1.0 + r * r) - r) / (2.0 - tau)
        return ClosedFormPoint(scheme, alpha, T, T_prime, p, E)
    a2 = abs(alpha) ** 2
    E = math.exp(-4.0 * (1.0 - tau) * a2)
    if scheme == "he_spd":
        p = 2.0 * tau * a2 * math.exp(-2.0 * tau * a2)
    else:
        p = 0.5 * (-math.expm1(-tau * a2)) ** 2
    return ClosedFormPoint(scheme, alpha, T, T_prime, p, E)


def dv_loss_limit() -> float:
    """Negativity of the dv scheme as the transmission goes to zero."""
    return (math.sqrt(2.0) - 1.0) / 2.0
