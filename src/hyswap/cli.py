"""Command-line entry points: point, sweep, verify."""

from __future__ import annotations

import argparse
import sys

from . import sweep as sweep_mod
from . import verification
from .optics import HOMODYNE_POINTS, HOMODYNE_X_MAX
from .protocols import default_cutoff


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyswap",
        description="Entanglement swapping with hybrid qubit/coherent resources "
        "on a truncated Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one parameter point as a CSV row")
    point.add_argument("--scheme", required=True, choices=sorted(sweep_mod.SCHEME_ALIASES))
    point.add_argument("--alpha", type=float, default=None,
                       help="coherent amplitude (required for he-* schemes)")
    point.add_argument("--T", type=float, required=True, help="channel transmission")
    point.add_argument("--Tp", type=float, default=1.0, help="detector efficiency")
    point.add_argument("--cutoff", type=int, default=None,
                       help="Fock cutoff (default: HYSWAP_CUTOFF or 12)")
    point.add_argument("--x-max", type=float, default=HOMODYNE_X_MAX, help="homodyne grid half-width")
    point.add_argument("--points", type=int, default=HOMODYNE_POINTS, help="homodyne grid size")

    swp = sub.add_parser("sweep", help="run a config-driven sweep to CSV")
    swp.add_argument("config", help="path to a key = value sweep config")

    sub.add_parser("verify", help="run the acceptance battery and report per criterion")
    return parser


def _cmd_point(args) -> int:
    if args.scheme != "dv" and args.alpha is None:
        sys.stderr.write(f"--alpha is required for scheme {args.scheme}\n")
        return 2
    alpha = 0.0 if args.alpha is None else args.alpha
    try:
        cutoff = default_cutoff() if args.cutoff is None else args.cutoff
        row = sweep_mod.evaluate_point(
            args.scheme, alpha, args.T, args.Tp, cutoff, args.x_max, args.points
        )
    except (ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc or 'out of memory'}\n")
        return 1
    print(",".join(sweep_mod.CSV_COLUMNS))
    print(",".join(sweep_mod.format_value(row[c]) for c in sweep_mod.CSV_COLUMNS))
    return 0


def _cmd_sweep(args) -> int:
    try:
        config = sweep_mod.parse_config(args.config)
        count = sweep_mod.run_sweep(config)
    except (ValueError, MemoryError) as exc:  # ConfigError, a bad point, or a cutoff too large
        sys.stderr.write(f"error: {exc or 'out of memory'}\n")
        return 1
    sys.stderr.write(f"wrote {count} rows to {config.output_path}\n")
    return 0


def _cmd_verify(_args) -> int:
    results = verification.run_all()
    ok = verification.report(results, sys.stderr)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "point":
        return _cmd_point(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
