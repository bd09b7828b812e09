"""The acceptance battery must not only pass: driven with deliberately
broken settings it has to fail, otherwise it is not measuring anything."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyswap import closed_form, dv_swap, he_swap_homodyne, he_swap_spd, optics, protocols
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


# (each takes a number or a stack of them, as the pipelines' functions do)


def _drop_branch_sign(real):
    def pair(alpha, c, tau):
        amp, env = real(alpha, c, tau)
        amp[..., 1, :] *= (-1.0) ** np.arange(c + 1)  # cancels the (-1)^m of the |1> branch
        return amp, env
    return pair


def _swap_kept_and_lost(real):
    def pair(tau):
        P = real(tau)
        P[..., 0, [1, 0], [0, 1]] = P[..., 0, [0, 1], [1, 0]]
        return P
    return pair


def _drop_no_click_on_both(real):
    def vacuum_test(d, beta):
        M = real(d, beta)
        M[..., 0, 0] -= np.exp(-np.square(beta))  # the e^{-beta²}|0><0| term
        return M
    return vacuum_test


@pytest.mark.parametrize("name,mutate,run,check", [
    ("_lossy_hybrid_pair", _drop_branch_sign, lambda: he_swap_spd(0.5, 0.6), ver.check_loss_routes_agree),
    ("_lossy_hybrid_pair", _drop_branch_sign, lambda: he_swap_homodyne(0.5, 0.6), ver.check_loss_routes_agree),
    ("_lossy_dv_pair", _swap_kept_and_lost, lambda: dv_swap(0.6), ver.check_loss_routes_agree),
    ("_vacuum_test", _drop_no_click_on_both, lambda: he_swap_homodyne(0.5, 0.6), ver.check_property_suite),
    ("_lossy_hybrid_pair", _drop_branch_sign, lambda: he_swap_spd(0.5, 0.6), ver.check_closed_form_grid),
    ("_lossy_dv_pair", _swap_kept_and_lost, lambda: dv_swap(0.6), ver.check_closed_form_grid),
], ids=["hybrid-pair-sign", "hybrid-pair-sign-homodyne", "dv-pair-kept-lost", "vacuum-test-both-off",
        "hybrid-pair-sign-grid", "dv-pair-kept-lost-grid"])
def test_verify_line_fails_when_a_pipeline_function_breaks(monkeypatch, name, mutate, run, check):
    """A fault in what the pipelines call must turn the verify line that checks it to FAIL."""
    assert check().passed
    monkeypatch.setattr(protocols, name, mutate(getattr(protocols, name)))
    res = run()
    ref = closed_form(res.scheme, 0.5, 0.6)
    assert abs(res.total_success_probability - ref.p) + abs(res.averaged_negativity - ref.E) > 1e-3  # a real fault
    assert not check().passed


# mutants of the references the checks compare against, each built around the real one


def _shift_one_band_element(real):
    def band(T, d):
        k, n, elements = real(T, d)
        return k, n, elements + 1e-6 * ((k == 1) & (n == 2))  # A_1[1, 2], on the band
    return band


def _shift_one_block_entry(real):
    def blocks(d1, d2, theta, phi):
        stack, block, slot = real(d1, d2, theta, phi)
        stack = stack.copy()
        stack[2, 1, 2] += 1e-6  # <1, 1|U|2, 0>: one photon lost in the dilation; block 2 is no longer unitary
        return stack, block, slot
    return blocks


def _shift_one_dense_entry(real):
    def unitary(d1, d2, params):
        U = real(d1, d2, params).copy()
        U[3, 5] += 1e-9
        return U
    return unitary


def _part(result, name):
    return float(re.search(re.escape(name) + r"=(\S+)", result.measured).group(1))


@pytest.mark.parametrize("module,name,mutate,check,broken,intact", [
    (optics, "loss_band", _shift_one_band_element, ver.check_loss_routes_agree, "Kraus max|d|", "dilation max|d|"),
    (optics, "_bs_blocks", _shift_one_block_entry, ver.check_loss_routes_agree, "dilation max|d|", "Kraus max|d|"),
    (ver, "bs_unitary", _shift_one_dense_entry, ver.check_property_suite, "bs unitarity", "negativity"),
    (optics, "_bs_blocks", _shift_one_block_entry, ver.check_property_suite, "bs unitarity", "negativity"),
], ids=["kraus-band-element", "dilation-block-entry", "dense-unitary-entry", "non-unitary-block"])
def test_verify_line_fails_when_a_reference_breaks(monkeypatch, module, name, mutate, check, broken, intact):
    """A fault in one side of a cross-check must turn its verify line to FAIL, through that side alone."""
    assert check().passed
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    res = check()
    assert not res.passed
    assert _part(res, broken) > 1e-10
    assert _part(res, intact) < 1e-13


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a second BLAS thread needs a second core")
def test_warm_verify_pass_leaves_no_cpu_behind():
    """No product in a warm pass may wake a BLAS helper thread that spins on after it.

    A spinning helper bills CPU for about 135 ms after the product that woke it, so a
    pass followed by 0.5 s of sleep would charge well over its own wall time.  The first
    pass's cold ``eigh`` of the 33-level splitter blocks wakes it once per process; the
    sleep before the measured pass lets that spin end.
    """
    script = (
        "import resource, time\n"
        "from hyswap import verification\n"
        "cpu = lambda: sum(resource.getrusage(resource.RUSAGE_SELF)[:2])\n"
        "verification.run_all(); verification.run_all()\n"
        "time.sleep(0.5)\n"
        "c0, w0 = cpu(), time.perf_counter()\n"
        "verification.run_all()\n"
        "wall = time.perf_counter() - w0\n"
        "time.sleep(0.5)\n"
        "print(cpu() - c0 - wall)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 0.05, f"{float(out.stdout) * 1e3:.0f} ms of CPU beyond the pass's wall time"


def test_verify_pass_stacks_its_points(monkeypatch):
    """One pass of the battery calls ``swap_points`` 26 times: each grid of points at one (scheme,
    alpha, T') is one stacked call.  Looping the grids point by point made 142 calls."""
    calls = []
    real_run = protocols.swap_points
    monkeypatch.setattr(protocols, "swap_points", lambda *args: calls.append(args[0]) or real_run(*args))
    assert all(r.passed for r in ver.run_all())
    assert len(calls) == 26


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
