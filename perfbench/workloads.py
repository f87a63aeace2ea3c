"""Benchmark workloads: seeded config files, CLI argument lists and output oracles.

Every workload runs one whole ``sweep`` or ``verify`` command single-process
(``--workers`` is deliberately not exercised).  An *item* is one grid point of
a sweep or one named check of ``verify``; each oracle returns how many of the
expected items are missing or wrong in the command's output.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

OVERLAP_GRID = ("overlap.a=0:1:0.1", "overlap.b=0:1:0.1", "overlap.c=0:1:0.1")
THETA_GRID = ("basis2.theta=0:3.1:0.01",)
VERIFY_CHECKS = 31

# Tolerances of the oracles.  Sweep rows carry 12 significant digits, so a
# value read back from the CSV is within 5e-13 of the computed one.
LAMBDA_TOL = 1e-12
NO_SIGNAL_TOL = 1e-10


def _phase(rng: random.Random) -> str:
    return repr(rng.uniform(0.0, 2.0 * math.pi))


def conservation_config(seed: int) -> str:
    """Off-surface overlap triple; the seed draws the three overlap phases,
    which leave the moduli (and so the closed forms) unchanged."""
    rng = random.Random(seed)
    return (
        "kind = conservation\n"
        "overlap.a = 0.6\noverlap.b = 0.5\noverlap.c = 0.5\n"
        f"overlap.a_phase = {_phase(rng)}\n"
        f"overlap.b_phase = {_phase(rng)}\n"
        f"overlap.c_phase = {_phase(rng)}\n"
    )


def wishful_config(seed: int) -> str:
    """Computational basis against a swept basis; the seed draws the swept
    basis' azimuth, which the signalling magnitude does not depend on."""
    rng = random.Random(seed)
    return (
        "kind = nosignal\n"
        "basis1.theta = 0.0\nbasis2.theta = 0.7853981633974483\n"
        f"basis2.phi = {_phase(rng)}\n"
    )


def isometry_config(seed: int) -> str:
    """Same bases with a seeded random isometry in place of the cloner."""
    return (
        "kind = nosignal\n"
        "basis1.theta = 0.0\nbasis2.theta = 0.7853981633974483\n"
        f"machine.mode = isometry\nseed = {seed}\n"
    )


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _missing(rows: list, expected: int) -> int:
    return max(expected - len(rows), 0)


def check_conservation(text: str) -> int:
    rows = _rows(text)
    bad = _missing(rows, 1331)
    for row in rows:
        try:
            a, b, c = (float(row[f"config.overlap.{k}"]) for k in "abc")
            gap = max(
                abs(float(row["lambda_before_numeric"]) - (0.5 + a * b / 2.0)),
                abs(float(row["lambda_after_numeric"]) - (0.5 + a * a * c / 2.0)),
            )
        except (KeyError, ValueError):
            bad += 1
            continue
        bad += not gap <= LAMBDA_TOL
    return bad


def check_wishful(text: str) -> int:
    rows = _rows(text)
    bad = _missing(rows, 311)
    for row in rows:
        try:
            theta = float(row["config.basis2.theta"])
            magnitude = float(row["signalling_magnitude"])
            valid = (
                row["verdict.premachine_bob_marginal_maximally_mixed"] == "1"
                and row["verdict.bob_marginals_are_density_matrices"] == "1"
            )
        except (KeyError, ValueError):
            bad += 1
            continue
        bad += not (valid and (magnitude == 0.0 if theta == 0.0 else magnitude > 0.0))
    return bad


def check_isometry(text: str) -> int:
    rows = _rows(text)
    bad = _missing(rows, 311)
    for row in rows:
        try:
            magnitude = float(row["signalling_magnitude"])
        except (KeyError, ValueError):
            bad += 1
            continue
        bad += not magnitude < NO_SIGNAL_TOL
    return bad


def check_verify(text: str) -> int:
    passed = sum(1 for line in text.splitlines() if line.startswith("PASS "))
    return max(VERIFY_CHECKS - passed, 0)


@dataclass(frozen=True)
class Workload:
    name: str
    items: int
    config: Callable[[int], str] | None
    argv: Callable[[str, str, int], list[str]]
    check: Callable[[str], int]


def _sweep(grid: tuple[str, ...]) -> Callable[[str, str, int], list[str]]:
    return lambda cfg, out, seed: ["sweep", cfg, "--grid", *grid, "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("conservation-grid", 1331, conservation_config, _sweep(OVERLAP_GRID),
                 check_conservation),
        Workload("nosignal-wishful", 311, wishful_config, _sweep(THETA_GRID), check_wishful),
        Workload("nosignal-isometry", 311, isometry_config, _sweep(THETA_GRID), check_isometry),
        Workload("verify", VERIFY_CHECKS, None,
                 lambda cfg, out, seed: ["verify", "--seed", str(seed), "--out", out],
                 check_verify),
    )
}
