"""Tests of the benchmark itself; none of them is timed.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from layertrace import WRAPPED, Tracer  # noqa: E402

from hyswap import sweep  # noqa: E402
from hyswap.fock import coherent_tail_mass  # noqa: E402


def _default_cutoff(tmp_path):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("schemes = dv\nalpha_values = 0.2\nT_values = 1.0\noutput_path = x.csv\n")
    return sweep.parse_config(str(cfg)).cutoff


def test_sweep_csv_identical_at_parallelism_1_and_2(tmp_path, monkeypatch):
    """A pool or batching change must not reorder or perturb sweep rows."""
    monkeypatch.delenv("HYSWAP_CUTOFF", raising=False)
    cutoff = _default_cutoff(tmp_path)
    outputs = []
    for par in (1, 2):
        out = tmp_path / f"par{par}.csv"
        cfg = tmp_path / f"par{par}.cfg"
        rng = random.Random("sweep:1")
        cfg.write_text(inputs.sweep_config_text(rng, cutoff, str(out), parallelism=par))
        config = sweep.parse_config(str(cfg))
        assert config.parallelism == par
        sweep.run_sweep(config)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_inputs_repeat_for_a_seed_and_obey_the_cutoff_rule():
    for make in (inputs.homodyne_pass, inputs.counting_pass):
        a = make(random.Random("w:7"))
        assert a == make(random.Random("w:7"))
        assert a != make(random.Random("w:8"))
        for p in a:
            assert all(math.isfinite(v) for v in (p.alpha, p.T, p.T_prime))
            assert inputs.T_RANGE[0] <= p.T <= inputs.T_RANGE[1]
            assert inputs.T_PRIME_RANGE[0] <= p.T_prime <= inputs.T_PRIME_RANGE[1]
            if p.scheme != "dv":
                assert inputs.ALPHA_RANGE[0] <= p.alpha <= inputs.ALPHA_RANGE[1]
                assert p.cutoff >= inputs.min_cutoff(p.alpha)
    counting = inputs.counting_pass(random.Random("w:1"))
    assert len(counting) >= 100
    assert 16 in inputs.HOMODYNE_CUTOFFS


def test_tail_mass_agrees_with_the_program():
    for alpha in (0.0, 0.1, 0.3 * math.sqrt(2), 0.8 * math.sqrt(2), 2.0):
        for cutoff in (4, 8, 12, 16):
            want = coherent_tail_mass(alpha, cutoff)
            assert inputs.tail_mass(alpha, cutoff) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_alpha_max_is_the_rule_boundary():
    for cutoff in (5, 8, 12, 16):
        top = inputs.alpha_max(cutoff)
        assert inputs.min_cutoff(top) <= cutoff
        if top < inputs.ALPHA_RANGE[1]:
            assert inputs.min_cutoff(top + 1e-6) > cutoff


def test_tracer_self_times_subtract_children():
    tr = Tracer()
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.02)
    self_s, calls = tr.self_times()
    outer = tr.spans[0][4] - tr.spans[0][3]
    assert self_s["outer"] + self_s["inner"] == pytest.approx(outer)
    assert self_s["inner"] >= 0.02 and calls == {"outer": 1, "inner": 1}


def test_tracer_reports_unbound_names_as_absent(capsys):
    """A refactor that drops a wrapped name warns; it neither crashes nor reads zero."""
    calls = []
    protocols = SimpleNamespace(apply_bs=lambda *a: calls.append(a) or "out")
    tr = Tracer()
    tr.install({"protocols": protocols})
    assert protocols.apply_bs(None, "B", "D") == "out"
    tr.uninstall()
    assert "hyswap.protocols.make_fock" in tr.absent
    assert "hyswap.sweep.run_sweep" in tr.absent
    assert "is not bound" in capsys.readouterr().err
    assert tr.installed == {"optics.apply_bs"}
    assert tr.counts["optics.apply_bs_uncounted"] == 1
    bench = SimpleNamespace(workload="homodyne", sweep_children=None)
    layers = workload.layer_metrics(bench, tr, {"import_s": 0.1, "warmup_s": 0.1}, 1.0)
    assert layers["optics.apply_bs_calls"] == 1
    assert "fock.prep_s" not in layers and "protocols.he_ho.self_s" not in layers


def test_untraced_run_installs_no_wrappers():
    bench = workload.Bench("counting")
    bench.setup()
    assert bench.tracer is None
    for mod, attr in WRAPPED:
        assert not hasattr(getattr(bench.modules[mod], attr), "__wrapped__")


def test_hang_guard_kills_and_reports():
    with pytest.raises(run.RunFailed, match="killed"):
        run._child(["--workload", "verify", "--seconds", "60"], time.monotonic() + 0.5)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
