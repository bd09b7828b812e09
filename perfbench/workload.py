"""Run one benchmark workload in this process and print its raw figures.

Started by ``run.py``, which owns the wall-clock limit, the extra set-up
samples and the report; run that instead.  The last line of standard
output is one JSON object with the raw figures of this process.

    python3 perfbench/workload.py --workload counting --seed 1 --seconds 10 --trace 0
    python3 perfbench/workload.py --workload counting --setup-only

hyswap is imported from ``src/`` (the console script cannot be
installed offline) and driven only through ``sweep.evaluate_point``,
``sweep.parse_config``/``sweep.run_sweep`` and ``verification.CHECKS``.
Each workload is a closed loop: one caller, next call after the previous
one returns.  The only concurrency is sweep's own process pool.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from layertrace import Tracer  # noqa: E402

WORKLOADS = ("homodyne", "counting", "sweep", "verify")
INTERNAL = {"dv": "dv", "he-spd": "he_spd", "he-ho": "he_ho"}
# acceptance tolerances of verification.py: (p, E)
TOLERANCE = {"dv": (1e-6, 1e-6), "he-spd": (1e-6, 1e-6), "he-ho": (1e-4, 2e-3)}
WARMUP_ALPHA, WARMUP_T, WARMUP_T_PRIME = 0.2, 0.8, 0.9
GRID_POINTS = 201  # evaluate_point's default homodyne grid


def _cpu() -> float:
    """User+system CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _children_cpu() -> float:
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return c.ru_utime + c.ru_stime


class Bench:
    """State of one workload run: the imported program and its tallies."""

    def __init__(self, workload: str, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digits: list[float] = []
        self.latencies: list[float] = []
        self.check_times: dict[str, float] = {}
        self.rows = 0
        self.sweep_children = None  # (worker CPU, wall) of the last sweep

    # -- set-up -----------------------------------------------------------
    def setup(self) -> dict:
        t0 = time.perf_counter()
        from hyswap import optics, protocols, sweep, verification
        from hyswap.closed_form import closed_form
        self.modules = {"protocols": protocols, "optics": optics,
                        "sweep": sweep, "verification": verification}
        self.sweep, self.verification = sweep, verification
        self.closed_form = closed_form
        t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.install(self.modules)
        self.sweep_cutoff = self._default_cutoff() if self.workload == "sweep" else None
        cutoff, points = self._warmup_shape()
        with self._span("setup.warmup"):
            for scheme in ("dv", "he-spd", "he-ho"):
                self.point(inputs.Point(scheme, WARMUP_ALPHA, WARMUP_T,
                                        WARMUP_T_PRIME, cutoff), points, timed=False)
        t2 = time.perf_counter()
        self.digits.clear()  # digits_min covers the timed points only
        return {"import_s": t1 - t0, "warmup_s": t2 - t1, "setup_s": t2 - t0}

    def _warmup_shape(self) -> tuple[int, int]:
        """One small point per scheme at the workload's smallest cutoff."""
        smallest = {
            "homodyne": min(inputs.HOMODYNE_CUTOFFS),
            "counting": min(inputs.COUNTING_SPD_CUTOFFS),
            "sweep": self.sweep_cutoff,
            "verify": 6,  # smallest cutoff any check uses
        }[self.workload]
        cutoff = max(smallest, inputs.min_cutoff(WARMUP_ALPHA))
        points = inputs.SWEEP_POINTS if self.workload == "sweep" else GRID_POINTS
        return cutoff, points

    def _default_cutoff(self) -> int:
        """The cutoff sweep.parse_config applies when a config sets none."""
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"probe-{os.getpid()}.cfg"
        path.write_text("schemes = dv\nalpha_values = 0.2\nT_values = 1.0\n"
                        "output_path = unused.csv\n", encoding="utf-8")
        try:
            return self.sweep.parse_config(str(path)).cutoff
        finally:
            path.unlink()

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    # -- correctness gate -------------------------------------------------
    def check(self, scheme: str, alpha: float, T: float, T_prime: float,
              p_sim: float, E_sim: float) -> bool:
        """Compare one result with closed_form at the acceptance tolerances."""
        self.attempted += 1
        ref = self.closed_form(INTERNAL[scheme], alpha, T, T_prime)
        err_p, err_E = abs(p_sim - ref.p), abs(E_sim - ref.E)
        tol_p, tol_E = TOLERANCE[scheme]
        ok = math.isfinite(err_p) and math.isfinite(err_E) and err_p <= tol_p and err_E <= tol_E
        if ok:
            self.digits.append(-math.log10(max(err_p, err_E, 1e-16)))
        else:
            self._fail(f"{scheme} alpha={alpha!r} T={T!r} T'={T_prime!r}: "
                       f"err_p={err_p:.3e} err_E={err_E:.3e}", attempted=0)
        return ok

    def _fail(self, what: str, attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += max(attempted, 1)
        sys.stderr.write(f"FAIL {what}\n")

    def _raised(self, what: str) -> None:
        self._fail(f"{what} raised:\n{traceback.format_exc()}")

    # -- workloads --------------------------------------------------------
    def point(self, pt: inputs.Point, points: int = GRID_POINTS, timed: bool = True) -> None:
        try:
            t0 = time.perf_counter()
            row = self.sweep.evaluate_point(pt.scheme, pt.alpha, pt.T, pt.T_prime,
                                            pt.cutoff, 6.0, points)
            dt = time.perf_counter() - t0
            p_sim, E_sim = float(row["p_sim"]), float(row["E_sim"])
        except Exception:  # a point that raises is counted, the run goes on
            self._raised(f"evaluate_point{(pt.scheme, pt.alpha, pt.T, pt.T_prime, pt.cutoff)}")
            return
        if timed:
            self.latencies.append(dt)
        self.check(pt.scheme, pt.alpha, pt.T, pt.T_prime, p_sim, E_sim)

    def run_pass(self, rng: random.Random) -> None:
        if self.workload == "homodyne":
            for pt in inputs.homodyne_pass(rng):
                self.point(pt)
        elif self.workload == "counting":
            for pt in inputs.counting_pass(rng):
                self.point(pt)
        elif self.workload == "sweep":
            self.sweep_pass(rng)
        else:
            self.verify_pass()

    def sweep_pass(self, rng: random.Random) -> None:
        RESULTS.mkdir(exist_ok=True)
        cfg_path = RESULTS / f"sweep-{os.getpid()}.cfg"
        csv_path = RESULTS / f"sweep-{os.getpid()}.csv"
        cfg_path.write_text(inputs.sweep_config_text(rng, self.sweep_cutoff, str(csv_path)),
                            encoding="utf-8")
        try:
            cfg = self.sweep.parse_config(str(cfg_path))
            if cfg.cutoff != self.sweep_cutoff:
                raise ValueError(f"default cutoff moved from {self.sweep_cutoff} to {cfg.cutoff}")
            c0 = _children_cpu()
            t0 = time.perf_counter()
            count = self.sweep.run_sweep(cfg)
            wall = time.perf_counter() - t0
            self.sweep_children = (_children_cpu() - c0, wall)
            text = csv_path.read_text(encoding="utf-8")
        except Exception:  # a sweep that raises is counted, the run goes on
            self._raised("run_sweep")
            return
        finally:
            cfg_path.unlink(missing_ok=True)
            csv_path.unlink(missing_ok=True)
        self.check_sweep_csv(cfg, count, text)

    def check_sweep_csv(self, cfg, count: int, text: str) -> None:
        """Every row in config order, each within tolerance of closed_form."""
        expected = [(s, a, t) for s in cfg.schemes for a in cfg.alpha_values for t in cfg.T_values]
        rows = list(csv.DictReader(text.splitlines()))
        if count != len(expected) or len(rows) != len(expected):
            self._fail(f"sweep wrote {len(rows)} rows (returned {count}), "
                       f"expected {len(expected)}", attempted=len(expected))
            return
        for row, (scheme, alpha, T) in zip(rows, expected):
            try:
                ra, rT = float(row["alpha"]), float(row["T"])
                in_order = (row["scheme"] == scheme and math.isclose(ra, alpha, rel_tol=1e-9)
                            and math.isclose(rT, T, rel_tol=1e-9))
                p_sim, E_sim = float(row["p_sim"]), float(row["E_sim"])
            except (KeyError, TypeError, ValueError):
                self._raised(f"sweep row {row!r}")
                continue
            if not in_order:
                self._fail(f"sweep row out of order: {row!r}")
                continue
            self.check(scheme, alpha, T, cfg.T_prime, p_sim, E_sim)
        self.rows += len(rows)

    def verify_pass(self) -> None:
        for check in self.verification.CHECKS:
            name = check.__name__
            t0 = time.perf_counter()
            try:
                with self._span(f"verification.{name}"):
                    result = check()
            except Exception:
                self._raised(name)
                continue
            self.check_times[name] = self.check_times.get(name, 0.0) + time.perf_counter() - t0
            self.attempted += 1
            if not result.passed:
                self._fail(f"{name}: {result.measured} (tolerance {result.tolerance})",
                           attempted=0)


def _run_passes(bench: Bench, rng: random.Random, seconds: float) -> list[dict]:
    """Back-to-back passes while the next one is expected to end within
    ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.fmean(p["wall_s"] for p in passes)) <= seconds:
        c0, t0 = _cpu(), time.perf_counter()
        bench.run_pass(rng)
        passes.append({"wall_s": time.perf_counter() - t0, "cpu_s": _cpu() - c0})
    return passes


def blas_threads():
    """Thread count of the loaded OpenBLAS, as the library itself reports it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HYSWAP_CUTOFF")},
    }


def layer_metrics(bench: Bench, tracer: Tracer, setup: dict, wall: float) -> dict:
    """Per-layer self times and counts over the traced warm-up and pass.

    A metric whose wrapped names are all unbound is left out (absent).
    """
    self_s, calls = tracer.self_times()
    counts, spans = tracer.counts, tracer.spans
    roots = {sid for sid, parent, _n, _s, _e in spans if parent is None}
    covered = setup["import_s"] + sum(
        end - start for _sid, parent, _name, start, end in spans if parent in roots)
    have = tracer.installed

    def s(name):
        return self_s.get(name, 0.0) if name in have else None

    def n(name):
        return calls.get(name, 0) if name in have else None

    def bs(value):
        return value if "optics.apply_bs" in have else None

    out = {
        "setup.import_s": setup["import_s"],
        "setup.warmup_s": setup["warmup_s"],
        "fock.prep_s": s("fock.prep"), "fock.prep_calls": n("fock.prep"),
        "fock.amplitudes_max": bs(counts.get("fock.amplitudes_max", 0)),
        "fock.reduce_s": s("fock.reduce"), "fock.reduce_calls": n("fock.reduce"),
        "optics.apply_bs_s": s("optics.apply_bs"), "optics.apply_bs_calls": n("optics.apply_bs"),
        "optics.apply_bs_amplitudes": bs(counts.get("optics.apply_bs_amplitudes", 0)),
        "optics.apply_bs_gflop": bs(counts.get("optics.apply_bs_flop", 0) / 1e9),
        "optics.apply_bs_gbyte": bs(counts.get("optics.apply_bs_byte", 0) / 1e9),
        "optics.measure_s": s("optics.measure"), "optics.measure_calls": n("optics.measure"),
        "optics.quadrature_s": s("optics.quadrature"),
        "optics.grid_s": s("optics.grid"), "optics.grid_calls": n("optics.grid"),
        "optics.loss_s": s("optics.loss"), "optics.loss_calls": n("optics.loss"),
        "protocols.dv.self_s": s("protocols.dv"),
        "protocols.he_spd.self_s": s("protocols.he_spd"),
        "protocols.he_ho.self_s": s("protocols.he_ho"),
        "protocols.cv_bsm.self_s": s("protocols.cv_bsm"),
        "protocols.calls": sum(v for k, v in calls.items() if k.startswith("protocols.")),
        "negativity.s": s("negativity"), "negativity.calls": n("negativity"),
        "sweep.evaluate_point.self_s": s("sweep.evaluate_point"),
        "trace.wall_s": wall,
        "trace.unaccounted_frac": max(0.0, 1.0 - covered / wall),
    }
    if bench.sweep_children and "sweep.run_sweep" in have:
        children_cpu, sweep_wall = bench.sweep_children
        out["sweep.run_sweep_s"] = self_s.get("sweep.run_sweep", 0.0)
        out["sweep.rows"] = bench.rows
        out["sweep.children_cpu_s"] = children_cpu
        out["sweep.cpu_per_wall"] = children_cpu / sweep_wall
    if bench.workload == "verify":
        inclusive = {name: end - start for _sid, _p, name, start, end in spans
                     if name.startswith("verification.")}
        out.update({f"{name}_s": v for name, v in inclusive.items()})
        out["verification.self_s"] = sum(self_s.get(name, 0.0) for name in inclusive)
    return {k: v for k, v in out.items() if v is not None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and warm up, print the set-up time, exit")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace and not args.setup_only else None
    bench = Bench(args.workload, tracer)
    setup = bench.setup()
    if args.setup_only:
        print(json.dumps({"setup": setup, "attempted": bench.attempted, "failed": bench.failed}))
        return 0
    rng = random.Random(f"{args.workload}:{args.seed}")
    out = {"setup": setup}

    if tracer is not None:
        # traced: the warm-up above and one pass.  An untraced pass first takes
        # the first-pass costs (allocator, caches), so that the traced pass and
        # the untraced passes after it, whose mean gives the overhead, are alike.
        tracer.uninstall()
        t_timed = time.perf_counter()
        bench.run_pass(rng)
        bench.rows = 0
        tracer.install(bench.modules)
        t0 = time.perf_counter()
        with tracer.span("pass"):
            bench.run_pass(rng)
        traced_pass = time.perf_counter() - t0
        tracer.uninstall()
        layers = layer_metrics(bench, tracer, setup, setup["setup_s"] + traced_pass)
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.dump(spans_path)
        bench.latencies.clear()
        bench.check_times.clear()
        passes = _run_passes(bench, rng, args.seconds - (time.perf_counter() - t_timed))
        layers["trace.overhead_s"] = traced_pass - statistics.fmean(p["wall_s"] for p in passes)
        out.update(layers=layers, absent=tracer.absent,
                   spans_file=str(spans_path.relative_to(ROOT)))
    else:
        passes = _run_passes(bench, rng, args.seconds)
    out["machine"] = machine_record()

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    e2e = {
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
        "peak_rss_mb": max(self_rss, child_rss) if args.workload == "sweep" else self_rss,
        "first_pass_s": passes[0]["wall_s"],
    }
    if bench.latencies:
        e2e["point_ms_p50"] = 1e3 * statistics.median(bench.latencies)
        e2e["point_samples"] = len(bench.latencies)
        if len(bench.latencies) >= 100:
            p90 = statistics.quantiles(bench.latencies, n=10, method="inclusive")[8]
            e2e["point_ms_p90"] = 1e3 * p90
    if bench.digits:
        e2e["digits_min"] = min(bench.digits)
    if bench.check_times:
        out["check_s"] = {k: v / len(passes) for k, v in bench.check_times.items()}
    out.update(e2e=e2e, passes=passes, attempted=bench.attempted, failed=bench.failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
