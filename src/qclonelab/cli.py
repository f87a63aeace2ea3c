"""Command-line front end: run one scenario, sweep a grid, or verify invariants.

Exit codes: 0 all verdicts pass, 1 scientific verdict failure, 2 input the
scenario cannot accept (a configuration error, a file that cannot be read or
written, a rejected value, or an input too large to allocate), 3 numerical
failure (a residual guard tripped).  Errors print one line on stderr.  The
QCLONELAB_TOL environment variable supplies the default assertion
tolerance; explicit config keys and flags win.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import DEFAULT_SEED, ConfigError, grid_points, load_config, require_tolerance
from .scenarios import run_config, run_configs
from .verification import run_all_checks

ENV_TOLERANCE = "QCLONELAB_TOL"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_tolerance_overrides() -> dict[str, object]:
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return {}
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_TOLERANCE}={raw!r} is not a number") from exc
    return {"tolerance.assert": require_tolerance(f"{ENV_TOLERANCE}={raw!r}", value)}


def _cmd_run(args) -> int:
    cfg = load_config(args.config, _env_tolerance_overrides())
    report = run_config(cfg)
    fmt = args.format or str(cfg.get("format"))
    _emit(report.render(fmt), args.out)
    return 0 if report.all_pass else 1


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, _env_tolerance_overrides())
    report = run_configs(grid_points(cfg, args.grid))
    if args.format == "json":
        rows = (report.render("json", k).rstrip("\n") for k in range(len(report)))
        text = "[\n" + ",\n".join(rows) + "\n]\n"
    else:
        text = report.render("csv")
    _emit(text, args.out)
    return 0 if report.all_pass else 1


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed}: must be >= 0")
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = _env_tolerance_overrides().get("tolerance.assert")
    else:
        require_tolerance("--tolerance", tolerance)
    results = run_all_checks(seed=args.seed, tolerance=tolerance)
    lines = [r.line() for r in results]
    failed = sum(0 if r.passed else 1 for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclonelab",
        description="Cloning machines, signalling magnitudes, and entanglement deltas "
        "on labeled qubit registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config file")
    p_run.add_argument("config")
    p_run.add_argument("--format", choices=("table", "csv", "json"), default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid over a config file")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--grid", nargs="+", required=True, metavar="KEY=LO:HI:STEP",
        help="one or more sweep axes",
    )
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run every invariant check")
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"input too large: MemoryError: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"rejected input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
