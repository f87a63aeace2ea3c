"""Which functions of the ``qclonelab`` package the commands reach.

    python reachability.py OUT_DIR

runs a fixed set of CLI commands in this process under ``sys.setprofile``
and prints one JSON object: ``functions``, every function and method
defined in the package's source files (by qualified name, prefixed with its
module), ``reached``, those that any command called, and ``exit_codes``, the
commands' exit codes by kind.  ``OUT_DIR`` takes the commands' ``--out``
files.  A fresh interpreter matters: ``verify`` caches results in-process,
and a cached check would look unreached.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SRC = ROOT / "src" / "qclonelab"
sys.path.insert(0, str(ROOT / "src"))

CUBE = ["overlap.a=0:1:0.1", "overlap.b=0:1:0.1", "overlap.c=0:1:0.1"]
THETA = ["basis2.theta=0:3.1:0.01"]
PI = "3.141592653589793"


def _config(name: str) -> str:
    return str(CONFIGS / f"{name}.cfg")


def commands(out: Path) -> tuple[list[list[str]], list[list[str]]]:
    """The commands that report, and those that exit 2.

    The first are ``run`` on every shipped config in every format and
    without ``--format``; the cube, wishful and isometry sweeps as CSV and
    JSON; a gram-equivalence sweep over the family size (one batch per
    size); and ``verify``.  The second are the exit-2 cases of
    ``tests/test_cli.py``, its file cases, and the conflicting wishful rules
    of ``tests/test_scenarios.py``.  No test drives a config to exit 3: the
    one exit-3 case patches the runner.
    """
    argv = []
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        argv.append(["run", str(cfg)])
        for fmt in ("table", "csv", "json"):
            argv.append(["run", str(cfg), "--format", fmt, "--out", str(out / "run")])
    for name, grid in (
        ("conservation_violation", CUBE),
        ("nosignal_wishful", THETA),
        ("nosignal_isometry", THETA),
    ):
        for fmt in ("csv", "json"):
            argv.append(["sweep", _config(name), "--grid", *grid, "--format", fmt,
                         "--out", str(out / "sweep")])
    argv.append(["sweep", _config("gram_equivalence"), "--grid", "family.size=1:4:1",
                 "--out", str(out / "sweep")])
    argv.append(["verify", "--seed", "7", "--out", str(out / "verify")])

    failing = []
    bad = out / "bad"
    bad.mkdir(exist_ok=True)
    texts = {
        "unknown-key": "kind = conservation\noverlap.a = 0.6\nwat = 1\n",
        "nan-phase": (
            "kind = conservation\noverlap.a = 0.6\noverlap.b = 0.5\noverlap.c = 0.5\n"
            "overlap.a_phase = nan\n"
        ),
        "small-target": (
            "kind = gram-equivalence\nfamily.dimension = 4\nfamily.target_dimension = 3\n"
        ),
        "negative-seed": "kind = gram-equivalence\nseed = -3\n",
        "conflicting-rules": f"kind = nosignal\nbasis1.theta = 0.0\nbasis2.theta = {PI}\n",
    }
    for name, text in texts.items():
        (bad / f"{name}.cfg").write_text(text)
        failing.append(["run", str(bad / f"{name}.cfg")])
    violation = _config("conservation_violation")
    for axes in (
        ["overlap.a=0:1:nan"],
        ["overlap.a=0:1:1e-9"],
        ["overlap.a=0:1e-12:1e-13"],
        ["overlap.a=0:1:0.5", "overlap.a=0:1:1"],
        ["machine.ancilla_dim=2:3:0.5"],
        ["overlap.a=0.9:1.2:0.1"],
        ["branch.weight=0.9:1.2:0.1"],
        ["machine.ancilla_dim=1:2:1"],
    ):
        failing.append(["sweep", violation, "--grid", *axes])
    failing.append(["sweep", _config("gram_equivalence"), "--grid", "seed=1:3:0.5"])
    failing.append(["sweep", _config("nosignal_isometry"), "--grid", "seed=-2:1:1"])
    failing.append(["run", "/nonexistent/x.cfg"])
    failing.append(["run", str(bad)])
    failing.append(["run", violation, "--out", str(bad)])
    failing.append(["verify", "--seed", "-1"])
    return argv, failing


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> module-qualified name of every
    function, method and lambda in the package source; comprehensions and
    class bodies are not functions."""
    found = {}

    def walk(code, module: str, prefix: str) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            name = const.co_name
            is_function = bool(const.co_flags & 0x2)  # CO_NEWLOCALS
            if is_function and name.startswith("<") and name != "<lambda>":
                continue  # a comprehension
            qualname = f"{prefix}{name}"
            if is_function:
                found[(const.co_filename, const.co_firstlineno, name)] = f"{module}.{qualname}"
                walk(const, module, qualname + ".<locals>.")
            else:
                walk(const, module, qualname + ".")

    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(), str(path.resolve()), "exec")
        walk(code, path.stem, "")
    return found


def main(out: Path) -> int:
    import qclonelab.cli as cli

    functions = defined_functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in functions:
                reached.add(functions[key])

    codes = {}
    sys.setprofile(profile)
    try:
        for kind, argvs in zip(("reporting", "failing"), commands(out)):
            codes[kind] = []
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes[kind].append(cli.main(argv))
    finally:
        sys.setprofile(None)
    json.dump({"functions": sorted(functions.values()), "reached": sorted(reached),
               "exit_codes": codes}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
