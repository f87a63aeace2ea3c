"""Command-line front end: run one scenario, sweep a grid, or verify invariants.

Exit codes: 0 all verdicts pass, 1 scientific verdict failure, 2 input the
scenario cannot accept (a misused command line, a configuration error, a
file or stdout that cannot be read or written, a rejected value, or an input
too large to allocate), 3 numerical failure (a residual guard tripped).  Errors
print one line on stderr.  The QCLONELAB_TOL environment variable supplies
the default assertion tolerance; explicit config keys and flags win.
"""

from __future__ import annotations

import errno
import os
import stat
import sys
from contextlib import nullcontext

from .config import DEFAULT_SEED, ConfigError, checked_value, grid_points, load_config
from .report import render_sweep, verdict_lines
from .scenarios import run_configs
from .verification import run_all_checks

USAGE = """\
usage: qclonelab run CONFIG [--format table|csv|json] [--out PATH]
       qclonelab sweep CONFIG --grid KEY=LO:HI:STEP... [--format csv|json] [--out PATH]
       qclonelab verify [--seed N] [--tolerance X] [--out PATH]
A flag takes its value as --flag VALUE or --flag=VALUE.  Exit codes: 0 pass,
1 verdict failure, 2 input refused, 3 numerical failure.
"""

ENV_TOLERANCE = "QCLONELAB_TOL"


def _refuse_unwritable(path: str) -> None:
    """Fail, before any work, as opening ``path`` to write would where it is
    empty, names a directory or its parent is not one; create or truncate no file."""
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if os.path.isdir(path) or path.endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


class UsageError(Exception):
    """A command line that names no command, config path or flag as :data:`USAGE` does."""


class OutputError(Exception):
    """A write of a command's output failed: a full disk, a closed pipe."""


def _emit(pieces, out_path: str | None) -> None:
    """Write the strings ``pieces`` in turn to ``out_path``, or to stdout and
    flush it; a failed write raises :class:`OutputError`."""
    try:
        out = nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8")
        with out as fh:
            fh.writelines(pieces)
            fh.flush()
    except OSError as exc:
        if out_path is None:  # stdout's flush at exit goes to os.devnull, and cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left
            target = "stdout" if out_path is None else f"--out {out_path}"
            exc = f"{target} was closed before all output was written"
        raise OutputError(exc)


def _env_tolerance_overrides() -> dict[str, object]:
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return {}
    return {"tolerance.assert": checked_value("tolerance.assert", raw, f"{ENV_TOLERANCE}={raw!r}")}


def _cmd_run(path: str, flags: dict) -> int:
    grid = grid_points(load_config(path, _env_tolerance_overrides()))
    [(report, _)] = run_configs(grid)
    _emit([report.render(flags.get("--format") or grid.shared["format"])], flags.get("--out"))
    return 0 if report.all_pass else 1


def _cmd_sweep(path: str, flags: dict) -> int:
    if not flags.get("--grid"):
        raise UsageError("sweep needs --grid with at least one KEY=LO:HI:STEP axis")
    if flags.get("--format") == "table":
        raise UsageError("sweep --format takes csv or json")
    grid = grid_points(load_config(path, _env_tolerance_overrides()), flags["--grid"])
    parts = run_configs(grid)
    _emit(render_sweep(parts, flags.get("--format") or "csv"), flags.get("--out"))
    return 0 if all(report.all_pass for report, _ in parts) else 1


def _cmd_verify(_path, flags: dict) -> int:
    tolerance = flags.get("--tolerance") or _env_tolerance_overrides().get("tolerance.assert")
    results = run_all_checks(seed=flags.get("--seed", DEFAULT_SEED), tolerance=tolerance)
    failed = sum(0 if r.passed else 1 for r in results)
    summary = f"{len(results) - failed}/{len(results)} checks passed\n"
    _emit([*(f"{line}\n" for line in verdict_lines(results)), summary], flags.get("--out"))
    return 0 if failed == 0 else 1


# Per command: its handler, whether it takes a config path, and its flags with
# the config key each value is checked as (None: as given; --grid: a list).
_COMMANDS = {
    "run": (_cmd_run, True, {"--format": "format", "--out": None}),
    "sweep": (_cmd_sweep, True, {"--grid": None, "--format": "format", "--out": None}),
    "verify": (_cmd_verify, False,
               {"--tolerance": "tolerance.assert", "--seed": "seed", "--out": None}),
}


def _parse(argv: list[str]):
    """The handler, config path and checked flag values that ``argv`` names.
    A flag is matched whole, never by a prefix, and given at most once."""
    command, *rest = argv or [""]
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}" if argv else "no command given")
    fn, takes_config, known = _COMMANDS[command]
    paths, flags = [], {}
    while rest:
        token = rest.pop(0)
        flag, eq, value = token.partition("=")
        if not token.startswith("-"):
            paths.append(token)
        elif flag not in known or flag in flags:
            raise UsageError(f"{command}: {'repeated' if flag in flags else 'unknown'} flag {flag}")
        elif flag == "--grid":
            flags[flag] = [value] if eq else []
            while rest and not rest[0].startswith("-"):
                flags[flag].append(rest.pop(0))
        elif eq or rest:
            value, key = value if eq else rest.pop(0), known[flag]
            flags[flag] = value if key is None else checked_value(key, value, f"{flag} {value}")
        else:
            raise UsageError(f"{command}: flag {flag} needs a value")
    if len(paths) != takes_config:
        raise UsageError(f"{command} takes {'one' if takes_config else 'no'} config path, "
                         f"got {len(paths)}")
    return fn, paths[0] if paths else None, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--help" in argv or "-h" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        fn, path, flags = _parse(argv)
        if flags.get("--out") is not None:
            _refuse_unwritable(flags["--out"])
        return fn(path, flags)
    except UsageError as exc:
        print(f"usage error: {exc}; see qclonelab --help", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"input too large: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"rejected input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
