"""Closed-form reference values, pinned against an independent evaluation.

The FROZEN table was computed with 30-digit arbitrary-precision
arithmetic from the same algebraic expressions; it guards the module
against accidental formula edits.
"""

import math

import pytest

from hyswap import SCHEMES, ClosedFormPoint, closed_form, dv_loss_limit

# (scheme, alpha, T, T_prime) -> (p, E)
FROZEN = {
    ("dv", 0.0, 0.6, 1.0): (0.42, 0.48359497244778629),
    ("dv", 0.0, 0.5, 0.7): (0.28875, 0.32890063284100381),
    ("he_spd", 0.5, 0.7, 1.0): (0.2466408314015497, 0.74081822068171787),
    ("he_spd", 0.3, 0.5, 0.7): (0.059153438842415394, 0.79136181589558386),
    ("he_ho", 0.5, 0.5, 1.0): (0.0069034889511070313, 0.60653065971263342),
}


def test_frozen_values():
    for (scheme, alpha, T, tp), (p, E) in FROZEN.items():
        pt = closed_form(scheme, alpha, T, tp)
        assert abs(pt.p - p) < 1e-15, (scheme, alpha, T, tp)
        assert abs(pt.E - E) < 1e-15, (scheme, alpha, T, tp)


def test_lossless_endpoints():
    assert abs(closed_form("dv", 0.0, 1.0).p - 0.5) < 1e-15
    assert abs(closed_form("dv", 0.0, 1.0).E - 1.0) < 1e-15
    for alpha in (0.3, 0.7):
        pt = closed_form("he_spd", alpha, 1.0)
        assert abs(pt.E - 1.0) < 1e-15
        assert abs(pt.p - 2 * alpha**2 * math.exp(-2 * alpha**2)) < 1e-15
        assert abs(closed_form("he_ho", alpha, 1.0).E - 1.0) < 1e-15


def test_dead_channel_endpoints():
    for scheme in SCHEMES:
        pt = closed_form(scheme, 0.5, 0.0)
        assert pt.p == 0.0
        assert abs(pt.E - (dv_loss_limit() if scheme == "dv" else math.exp(-1.0))) < 1e-15


def test_dv_loss_limit_value_and_approach():
    assert abs(dv_loss_limit() - 0.20710678118654752) < 1e-16
    assert abs(dv_loss_limit() - (math.sqrt(2.0) - 1.0) / 2.0) < 1e-16
    # the closed form converges to the limit as the channel dies
    assert abs(closed_form("dv", 0.0, 1e-9).E - dv_loss_limit()) < 1e-8


def test_detector_efficiency_enters_as_product():
    for scheme in SCHEMES:
        a = closed_form(scheme, 0.4, 0.8, 0.7)
        b = closed_form(scheme, 0.4, 0.8 * 0.7, 1.0)
        assert a.p == b.p, scheme
        assert a.E == b.E, scheme


def test_he_schemes_share_negativity_but_not_probability():
    a = closed_form("he_spd", 0.5, 0.6)
    b = closed_form("he_ho", 0.5, 0.6)
    assert a.E == b.E
    assert a.p != b.p


def test_small_alpha_homodyne_probability():
    # p = (1 - e^{-tau a^2})^2 / 2 ~ (tau a^2)^2 / 2 for small alpha
    alpha, T = 0.05, 0.9
    pt = closed_form("he_ho", alpha, T)
    assert abs(pt.p - (T * alpha**2) ** 2 / 2.0) / pt.p < 1e-2


def test_point_is_frozen_record():
    pt = closed_form("dv", 0.0, 0.5)
    assert isinstance(pt, ClosedFormPoint)
    assert (pt.scheme, pt.alpha, pt.T, pt.T_prime) == ("dv", 0.0, 0.5, 1.0)
    with pytest.raises(Exception):
        pt.p = 0.0  # frozen dataclass


def test_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        closed_form("cv", 0.5, 0.5)
    with pytest.raises(ValueError, match="lie in"):
        closed_form("dv", 0.0, 1.5)
    with pytest.raises(ValueError, match="lie in"):
        closed_form("he_spd", 0.5, 0.5, -0.1)


def test_schemes_tuple():
    assert SCHEMES == ("dv", "he_spd", "he_ho")


def test_non_finite_alpha_is_rejected():
    for scheme in SCHEMES:
        for bad in (float("nan"), float("inf"), 1e200, -1e155):  # |alpha|² overflows from 1.3e154
            with pytest.raises(ValueError, match="finite"):
                closed_form(scheme, bad, 0.5)
