"""Whether this tree's commands give the same bytes as another tree's.

    python tests/bytecheck.py PARENT_ROOT

runs every command of ``reachability.commands()`` twice, once with this
tree's ``src`` and once with ``PARENT_ROOT/src`` on ``PYTHONPATH``, each in
a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` and a temporary working
directory, so that neither tree gains a ``__pycache__``.  It compares the
exit code, stdout, stderr and the bytes of the ``--out`` file, with each
run's ``--out`` directory written as ``OUT``, prints one line per
difference, and exits 1 if there is any.  The commands and configs are this
tree's, so both trees read the same inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # before the import: no __pycache__ in tests/
import reachability  # noqa: E402


def _outcomes(src: Path, work: Path) -> list[tuple[str, tuple]]:
    """Each command, with ``work`` written as ``OUT``, and its exit code,
    stdout, stderr and ``--out`` bytes, run with the package at ``src``;
    ``work`` takes the ``--out`` files."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    reporting, failing = reachability.commands(work)
    found = []
    for argv in reporting + failing:
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out is not None and out.is_file():
            out.unlink()
        done = subprocess.run([sys.executable, "-m", "qclonelab.cli", *argv], env=env,
                              cwd=work, capture_output=True, timeout=600)
        written = out.read_bytes() if out is not None and out.is_file() else None
        normal = str(work).encode()
        found.append((" ".join(argv).replace(str(work), "OUT"),
                      (done.returncode, done.stdout.replace(normal, b"OUT"),
                       done.stderr.replace(normal, b"OUT"), written)))
    return found


def main(parent: Path) -> int:
    here = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        trees = [Path(tmp) / "this", Path(tmp) / "parent"]
        for work in trees:
            work.mkdir()
        ours, theirs = _outcomes(here / "src", trees[0]), _outcomes(parent / "src", trees[1])
    fields = ("exit code", "stdout", "stderr", "--out bytes")
    differ = 0
    for (command, mine), (_, other) in zip(ours, theirs):
        changed = [name for name, a, b in zip(fields, mine, other) if a != b]
        if changed:
            differ += 1
            print(f"differs in {', '.join(changed)}: {command.replace(str(here), '.')}")
    print(f"{len(ours)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(Path(sys.argv[1]).resolve()))
