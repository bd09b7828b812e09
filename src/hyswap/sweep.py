"""Parameter sweeps to CSV, with a flat key=value config format.

Example config::

    # entanglement and success probability against channel loss
    schemes = dv, he-spd, he-ho
    alpha_values = 0.3, 0.7
    one_minus_T_range = 0:1:0.05
    T_prime = 1.0
    cutoff = 12
    output_path = sweep.csv

``T_values`` may be given instead of ``one_minus_T_range``.  Rows are
computed in-process and emitted in config order (schemes outermost, then
alpha, then T).  The T values of one (scheme, alpha) group run as one stack
through ``protocols.swap_points``, at most ``_ROWS_PER_CALL`` at a time, and
each row equals, byte for byte, the row ``hyswap point`` prints at the same
inputs.  ``parallelism`` (>= 1) and ``homodyne.x_max`` / ``.points`` (> 0
and finite / >= 1) are validated but ignored, as the homodyne integral is
exact, so the output is the same for any value of them.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

from .closed_form import SCHEMES, _finite_alpha, closed_form
from .protocols import default_cutoff, swap_points
# never called here: perfbench's WRAPPED names them all
from .protocols import dv_swap, he_swap_homodyne, he_swap_spd  # noqa: F401
from .optics import homodyne_grid  # noqa: F401

__all__ = ["CSV_COLUMNS", "SCHEME_ALIASES", "SweepConfig", "ConfigError",
           "parse_config", "evaluate_points", "evaluate_point", "run_sweep", "format_value"]

CSV_COLUMNS = [
    "scheme", "alpha", "T", "T_prime", "cutoff",
    "p_sim", "E_sim", "p_closed", "E_closed", "err_p", "err_E",
]

# CLI vocabulary -> internal scheme names
SCHEME_ALIASES = {s.replace("_", "-"): s for s in SCHEMES}

_MAX_RANGE_POINTS = 1_000_000  # most values one_minus_T_range may ask for
_ROWS_PER_CALL = 256  # most T values of a (scheme, alpha) group one stacked call takes


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    schemes: tuple[str, ...]
    alpha_values: tuple[float, ...]
    T_values: tuple[float, ...]
    T_prime: float
    cutoff: int
    output_path: str
    parallelism: int


_KNOWN_KEYS = {
    "schemes", "alpha_values", "T_values", "one_minus_T_range", "T_prime",
    "cutoff", "homodyne.x_max", "homodyne.points", "output_path",
    "parallelism",
}


def _split_list(raw: str) -> list[str]:
    parts = [p.strip() for p in raw.replace(",", " ").split()]
    return [p for p in parts if p]


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in _split_list(raw))
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {raw!r}")


def _parse_range(raw: str, key: str) -> tuple[float, ...]:
    try:
        start_s, stop_s, step_s = raw.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {raw!r} (want start:stop:step)")
    if not (step > 0.0 and stop >= start):  # false for a nan too
        raise ConfigError(f"invalid value for {key}: {raw!r}")
    # floor never passes stop; 1e-9 keeps an exact multiple whose quotient rounds low
    span = (stop - start) / step + 1e-9
    if not span < _MAX_RANGE_POINTS:  # an inf span too
        raise ConfigError(f"invalid value for {key}: {raw!r} (more than {_MAX_RANGE_POINTS} values)")
    count = math.floor(span) + 1
    return tuple(min(start + i * step, stop) for i in range(count))  # i * step may round past stop


def parse_config(path: str) -> SweepConfig:
    """Parse a flat key=value sweep config; unknown keys are errors."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    except OSError as exc:  # a directory, a name too long, no permission
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno} is not a key = value pair: {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if key in entries:
            raise ConfigError(f"duplicate config key: {key}")
        entries[key] = raw

    for required in ("schemes", "alpha_values", "output_path"):
        if required not in entries:
            raise ConfigError(f"missing config key: {required}")
    if ("T_values" in entries) == ("one_minus_T_range" in entries):
        raise ConfigError(
            "config needs exactly one of T_values, one_minus_T_range"
        )

    schemes = tuple(_split_list(entries["schemes"]))
    for s in schemes:
        if s not in SCHEME_ALIASES:
            raise ConfigError(f"invalid value for schemes: {s!r}")
    alphas = _parse_floats(entries["alpha_values"], "alpha_values")
    if "T_values" in entries:
        ts = _parse_floats(entries["T_values"], "T_values")
    else:
        ts = tuple(1.0 - v for v in _parse_range(entries["one_minus_T_range"], "one_minus_T_range"))

    def _scalar(key, conv, default):
        if key not in entries:
            return default
        try:
            return conv(entries[key])
        except ValueError:
            raise ConfigError(f"invalid value for {key}: {entries[key]!r}")

    cfg = SweepConfig(
        schemes=schemes,
        alpha_values=alphas,
        T_values=ts,
        T_prime=_scalar("T_prime", float, 1.0),
        cutoff=_scalar("cutoff", int, None) if "cutoff" in entries else default_cutoff(),
        output_path=entries["output_path"],
        parallelism=_scalar("parallelism", int, 1),
    )
    checks = [
        ("schemes", bool(cfg.schemes), "must not be empty"),
        ("alpha_values", bool(cfg.alpha_values), "must not be empty"),
        ("T_values", bool(cfg.T_values), "must not be empty"),
        ("alpha_values", all(map(_finite_alpha, cfg.alpha_values)), "must be finite, with |alpha|^2 finite too"),
        ("T_values", all(0.0 <= t <= 1.0 for t in cfg.T_values), "must lie in [0, 1]"),
        ("T_prime", 0.0 <= cfg.T_prime <= 1.0, "must lie in [0, 1]"),
        ("cutoff", cfg.cutoff >= 2, "must be >= 2"),
        ("homodyne.x_max", 0.0 < _scalar("homodyne.x_max", float, 1.0) < math.inf, "must be positive and finite"),
        ("homodyne.points", _scalar("homodyne.points", int, 1) >= 1, "must be >= 1"),
        ("parallelism", cfg.parallelism >= 1, "must be >= 1"),
        ("output_path", Path(cfg.output_path).parent.is_dir(), "its directory does not exist"),
        ("output_path", not Path(cfg.output_path).is_dir(), "it is a directory"),
    ]
    for key, ok, rule in checks:
        if not ok:
            raise ConfigError(f"invalid value for {key}: {rule}")
    return cfg


def evaluate_points(scheme: str, alpha: float, Ts, T_prime: float, cutoff: int) -> list[dict]:
    """Simulated and closed-form rows of one scheme at one (alpha, T', cutoff) over a sequence of T.

    The simulation is one ``swap_points`` call for all of them; each row equals that of its T alone.
    """
    internal = SCHEME_ALIASES.get(scheme)
    if internal is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    rows = []
    for T, sim in zip(Ts, swap_points(internal, alpha, Ts, T_prime, cutoff)):
        ref = closed_form(internal, alpha, T, T_prime)
        p_sim = sim.total_success_probability
        e_sim = sim.averaged_negativity
        rows.append({
            "scheme": scheme,
            "alpha": alpha,
            "T": T,
            "T_prime": T_prime,
            "cutoff": cutoff,
            "p_sim": p_sim,
            "E_sim": e_sim,
            "p_closed": ref.p,
            "E_closed": ref.E,
            "err_p": abs(p_sim - ref.p),
            "err_E": abs(e_sim - ref.E),
        })
    return rows


def evaluate_point(scheme: str, alpha: float, T: float, T_prime: float,
                   cutoff: int, x_max: float | None = None, points: int | None = None) -> dict:
    """One (scheme, alpha, T) row, ``evaluate_points`` on a stack of one; the grid arguments are ignored."""
    return evaluate_points(scheme, alpha, (T,), T_prime, cutoff)[0]


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def run_sweep(config: SweepConfig) -> int:
    """Run every configured point and write the CSV; returns the row count.

    Points are computed in-process, one ``evaluate_points`` call per (scheme, alpha)
    group (per ``_ROWS_PER_CALL`` T values of a longer one), and written in config
    order; ``config.parallelism`` is ignored.  The output is opened before the first
    point and removed if any point fails, so a failed sweep leaves no CSV.
    """
    out = Path(config.output_path)
    fh = out.open("w", newline="", encoding="utf-8")
    Ts = config.T_values
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for scheme, alpha in itertools.product(config.schemes, config.alpha_values):
                for i in range(0, len(Ts), _ROWS_PER_CALL):
                    for row in evaluate_points(scheme, alpha, Ts[i:i + _ROWS_PER_CALL], config.T_prime, config.cutoff):
                        writer.writerow([format_value(row[col]) for col in CSV_COLUMNS])
    except BaseException:  # a bad point, out of memory, an interrupt: re-raised
        out.unlink(missing_ok=True)
        raise
    return len(config.schemes) * len(config.alpha_values) * len(config.T_values)
