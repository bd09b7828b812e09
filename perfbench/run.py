"""hyswap benchmark: accuracy-gated timings of four workloads.

    python3 perfbench/run.py --workload homodyne --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a child process (``workload.py``) under a
wall-clock limit; a child that exceeds it is killed with its process
group and counted as failed.  Set-up time is sampled in SETUP_PROBES
extra short-lived processes as well, and reported as the median.

Standard output carries a human-readable report, one metric per line
with its unit, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record, with the machine it ran on, goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.  The exit code
is 0 only when every point, row and criterion passed its check.

The benchmark sets no BLAS thread count and no HYSWAP_CUTOFF: pinning
threads would hide the pool's oversubscription, and HYSWAP_CUTOFF would
move the sweep's default-cutoff path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("homodyne", "counting", "sweep", "verify")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # per workload run, set-up probes included

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# reported beside the end-to-end metrics where the workload has them
DETAIL_UNITS = {"first_pass_s": "s", "point_ms_p50": "ms", "point_ms_p90": "ms", "point_samples": "count",
                "fail_frac": "ratio", "digits_min": "digits"}
LAYER_UNITS = {
    "setup.import_s": "s", "setup.warmup_s": "s",
    "fock.prep_s": "s", "fock.prep_calls": "count", "fock.amplitudes_max": "count",
    "fock.reduce_s": "s", "fock.reduce_calls": "count",
    "optics.apply_bs_s": "s", "optics.apply_bs_calls": "count",
    "optics.apply_bs_amplitudes": "count",
    "optics.apply_bs_gflop": "GFLOP", "optics.apply_bs_gbyte": "GB",
    "optics.measure_s": "s", "optics.measure_calls": "count",
    "optics.quadrature_s": "s", "optics.grid_s": "s", "optics.grid_calls": "count",
    "protocols.dv.self_s": "s", "protocols.he_spd.self_s": "s",
    "protocols.he_ho.self_s": "s", "protocols.calls": "count",
    "negativity.s": "s", "negativity.calls": "count",
    "sweep.evaluate_point.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unaccounted_frac": "ratio",
}
UNITS = {**E2E_UNITS, **DETAIL_UNITS, **LAYER_UNITS}


def _unit(name: str) -> str:
    """Unit of a reported figure, including the workload-specific layer ones."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_calls") or name == "sweep.rows":
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


class RunFailed(Exception):
    """A child process timed out, crashed or printed no result."""


def _child(args: list[str], deadline: float) -> dict:
    """Run workload.py with ``args``; kill its process group at ``deadline``."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"killed after the {RUN_LIMIT_S:.0f} s limit: {' '.join(args)}")
    finally:
        # sweep's pool workers share the child's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload run; returns the result record (``correct`` etc.)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    attempted = failed = 0
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = _child(["--workload", workload, "--setup-only"], deadline)
            setups.append(probe["setup"]["setup_s"])
            attempted += probe["attempted"]
            failed += probe["failed"]
        raw = _child(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)], deadline)
    except RunFailed as exc:
        sys.stderr.write(f"{workload}: {exc}\n")
        return {"workload": workload, "correct": False, "attempted": attempted + 1,
                "failed": failed + 1, "metrics": {}, "detail": {}}
    setups.append(raw["setup"]["setup_s"])
    attempted += raw["attempted"]
    failed += raw["failed"]
    e2e = dict(raw["e2e"], setup_s=statistics.median(setups))
    e2e["fail_frac"] = failed / attempted
    if trace:
        metrics = {k: v for k, v in raw["layers"].items() if k in LAYER_UNITS}
        detail = {k: v for k, v in raw["layers"].items() if k not in LAYER_UNITS}
    else:
        metrics = {k: e2e[k] for k in E2E_UNITS}
        detail = {k: e2e[k] for k in DETAIL_UNITS if k in e2e}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail, "setup_samples": setups,
        "passes": raw["passes"], "absent": raw.get("absent", []),
        "spans_file": raw.get("spans_file"), "check_s": raw.get("check_s"),
        "machine": dict(raw["machine"], seed=seed, **_source_record()),
    }


def report(res: dict) -> None:
    w = res["workload"]
    print(f"== {w}: {'correct' if res['correct'] else 'FAILED'}, "
          f"{res['failed']} failed of {res['attempted']} attempted")
    for name, value in {**res["metrics"], **res["detail"]}.items():
        print(f"{w:9s} {name:40s} {value:>16.6g} {_unit(name)}")
    for name in res.get("absent", []):
        print(f"{w:9s} {name:40s} {'absent':>16s}")
    machine = res.get("machine")
    if machine:
        print(f"{w:9s} machine: nproc={machine['nproc']} blas={machine['blas']} "
              f"threads={machine['blas_threads']} numpy={machine['numpy']} "
              f"python={machine['python']} seed={machine['seed']} "
              f"commit={machine['commit']} src={machine['source_sha256'][:12]}")


def _json_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hyswap benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyswap" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hyswap sources under {ROOT / 'src'}\n")
        return 2

    RESULTS.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, args.trace)
        out = RESULTS / f"{w}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
        report(res)
        results.append(res)

    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        print(_json_line(correct, attempted, failed, results[0]["metrics"]))
    else:
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "workloads": {r["workload"]: r["metrics"] for r in results}}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
