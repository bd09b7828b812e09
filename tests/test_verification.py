"""The acceptance battery must not only pass: driven with deliberately
broken settings it has to fail, otherwise it is not measuring anything."""

import io
import math

import numpy as np
import pytest

from hyswap import closed_form, dv_swap, he_swap_homodyne, he_swap_spd, protocols
from hyswap import verification as ver


def test_every_check_returns_a_result():
    for check in ver.CHECKS:
        assert callable(check)
    r = ver.check_dv_lossless()
    assert isinstance(r, ver.CriterionResult)
    assert r.passed
    assert r.measured and r.tolerance


def test_bs_fixture_check_catches_wrong_phase_convention():
    assert ver.check_bs_fixtures().passed
    wrong = ver.check_bs_fixtures(phi=0.0)
    assert not wrong.passed


def test_cutoff_convergence_check_flags_starved_cutoff():
    assert ver.check_cutoff_convergence().passed
    starved = ver.check_cutoff_convergence(cutoff=4)
    assert not starved.passed


# mutants of the functions the pipelines call, each built around the real one


def _drop_branch_sign(real):
    def pair(alpha, c, tau):
        amp, env = real(alpha, c, tau)
        amp[1] *= (-1.0) ** np.arange(c + 1)  # cancels the (-1)^m of the |1> branch
        return amp, env
    return pair


def _swap_kept_and_lost(real):
    def pair(tau):
        P = real(tau)
        P[0, 1, 0], P[0, 0, 1] = P[0, 0, 1], P[0, 1, 0]
        return P
    return pair


def _drop_no_click_on_both(real):
    def vacuum_test(d, beta):
        M = real(d, beta)
        M[0, 0] -= math.exp(-beta * beta)  # the e^{-beta²}|0><0| term
        return M
    return vacuum_test


@pytest.mark.parametrize("name,mutate,run,check", [
    ("_lossy_hybrid_pair", _drop_branch_sign, lambda: he_swap_spd(0.5, 0.6), ver.check_loss_routes_agree),
    ("_lossy_hybrid_pair", _drop_branch_sign, lambda: he_swap_homodyne(0.5, 0.6), ver.check_loss_routes_agree),
    ("_lossy_dv_pair", _swap_kept_and_lost, lambda: dv_swap(0.6), ver.check_loss_routes_agree),
    ("_vacuum_test", _drop_no_click_on_both, lambda: he_swap_homodyne(0.5, 0.6), ver.check_property_suite),
], ids=["hybrid-pair-sign", "hybrid-pair-sign-homodyne", "dv-pair-kept-lost", "vacuum-test-both-off"])
def test_verify_line_fails_when_a_pipeline_function_breaks(monkeypatch, name, mutate, run, check):
    """A fault in what the pipelines call must turn the verify line that checks it to FAIL."""
    assert check().passed
    monkeypatch.setattr(protocols, name, mutate(getattr(protocols, name)))
    res = run()
    ref = closed_form(res.scheme, 0.5, 0.6)
    assert abs(res.total_success_probability - ref.p) + abs(res.averaged_negativity - ref.E) > 1e-3  # a real fault
    assert not check().passed


def test_cheap_checks_pass_individually():
    assert ver.check_dv_loss_limit().passed
    assert ver.check_cv_bsm().passed
    assert ver.check_headline_point().passed


def test_report_formatting():
    results = [
        ver.CriterionResult("alpha check", True, "d=1e-12", "1e-10"),
        ver.CriterionResult("beta check", False, "d=0.5", "1e-10"),
    ]
    buf = io.StringIO()
    ok = ver.report(results, buf)
    lines = buf.getvalue().splitlines()
    assert not ok
    assert lines[0] == "[PASS] alpha check: d=1e-12 (tolerance 1e-10)"
    assert lines[1] == "[FAIL] beta check: d=0.5 (tolerance 1e-10)"
    assert lines[2] == "1/2 criteria passed"


def test_report_all_green():
    results = [ver.CriterionResult("only", True, "d=0", "exact")]
    buf = io.StringIO()
    assert ver.report(results, buf)
    assert "1/1 criteria passed" in buf.getvalue()
