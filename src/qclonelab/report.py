"""Byte-stable scenario reports, stacked over points: ``sweep`` renders every
row of one report, and ``run`` is a batch of one, a report with a single row.

All numbers render at 12 significant digits with lowercase exponents, so a
report for a given configuration is identical across runs and machines.  The
JSON rendering of a row is the canonical machine format: it holds every
string, number and verdict of the row, so a report read back from it renders
the same bytes again; the CSV rendering is the flat scalar record, one line
per row.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np


def format_scalar(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return f"{x:.11e}"


def format_complex(z: complex) -> str:
    z = complex(z)
    re = format_scalar(z.real)
    im = format_scalar(z.imag)
    return f"{re}{im}j" if im.startswith("-") else f"{re}+{im}j"


@dataclass(frozen=True)
class Verdict:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name} deviation={format_scalar(self.deviation)} "
            f"tolerance={format_scalar(self.tolerance)}"
        )


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Echoed configs, quantities and verdicts of n points of one kind, row k
    for point k: per config key one shared string or n strings; (n,) scalar
    arrays; (n, rows, cols) matrix stacks, or lists of n matrices once several
    batches merge; (n,) verdict deviations and tolerances.  A verdict passes
    where its deviation is below its tolerance."""

    kind: str
    config: dict[str, str | list[str]]
    scalars: dict[str, np.ndarray]
    matrices: dict[str, np.ndarray | list[np.ndarray]]
    verdicts: dict[str, tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(next(iter(self.scalars.values())))

    @property
    def all_pass(self) -> bool:
        return all(bool(np.all(dev < tol)) for dev, tol in self.verdicts.values())

    def to_json_dict(self, row: int = 0) -> dict:
        config = {k: v if isinstance(v, str) else v[row] for k, v in sorted(self.config.items())}
        return {
            "kind": self.kind,
            "config": config,
            "scalars": {k: format_scalar(v[row]) for k, v in self.scalars.items()},
            "matrices": {
                name: [[format_complex(z) for z in r] for r in stack[row]]
                for name, stack in self.matrices.items()
            },
            "verdicts": [
                {"name": name, "passed": bool(dev[row] < tol[row]),
                 "deviation": format_scalar(dev[row]), "tolerance": format_scalar(tol[row])}
                for name, (dev, tol) in self.verdicts.items()
            ],
        }

    def render(self, fmt: str = "table", row: int = 0) -> str:
        """One row as a table or JSON; as CSV, every row."""
        if fmt == "json":
            return json.dumps(self.to_json_dict(row), indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            return render_csv(self)
        if fmt != "table":
            raise ValueError(f"unknown report format {fmt!r}")
        doc = self.to_json_dict(row)
        lines = [f"kind = {self.kind}", "", "[config]"]
        lines += [f"{k} = {v}" for k, v in doc["config"].items()]
        lines += ["", "[scalars]"]
        lines += [f"{k} = {v}" for k, v in doc["scalars"].items()]
        for name, rows in doc["matrices"].items():
            lines += ["", f"[matrix {name}]", *("  ".join(r) for r in rows)]
        verdicts = [Verdict(name, dev[row], tol[row]) for name, (dev, tol) in self.verdicts.items()]
        lines += ["", "[verdicts]", *(v.line() for v in verdicts)]
        lines += ["", f"overall = {'PASS' if all(v.passed for v in verdicts) else 'FAIL'}"]
        return "\n".join(lines) + "\n"


def render_csv(report: ScenarioReport) -> str:
    """A header line, then one line per row of the report, its cells joined
    by commas: the strings every row shares as they are, verdicts as 1 or 0
    and numbers as :func:`format_scalar` formats them, each distinct number
    of the report once."""
    n = len(report)
    formatted = iter(_formatted([
        *report.scalars.values(), *(dev for dev, _ in report.verdicts.values())
    ], n))
    fields = [("kind", report.kind)]
    fields += [(f"config.{key}", column) for key, column in sorted(report.config.items())]
    fields += [(name, next(formatted)) for name in report.scalars]
    for name, (dev, tol) in report.verdicts.items():
        fields.append((f"verdict.{name}", np.where(dev < tol, "1", "0").tolist()))
        fields.append((f"verdict.{name}.deviation", next(formatted)))
    cells = (itertools.repeat(c, n) if isinstance(c, str) else c for _, c in fields)
    rows = map(",".join, zip(*cells))
    return "\n".join([",".join(name for name, _ in fields), *rows]) + "\n"


def _formatted(columns: list, n: int) -> list[list[str]]:
    """:func:`format_scalar` of each value of the n-value columns, run once
    per distinct value: adding 0.0 first collapses -0.0 into 0.0."""
    values = np.concatenate([np.asarray(c, dtype=float).reshape(n) for c in columns]) + 0.0
    distinct, at = np.unique(values, return_inverse=True)
    text = np.array(["%.11e" % x for x in distinct.tolist()], dtype=object)
    return text[at].reshape(len(columns), n).tolist()


def _merge(columns: list, sizes: list[int], order: np.ndarray):
    """The columns of parts of ``sizes`` rows as one column in ``order``: the
    string every part shares, an array of values or a list of rows; tuples
    and dicts of columns merge entry by entry."""
    first = columns[0]
    if isinstance(first, tuple):
        return tuple(_merge(list(c), sizes, order) for c in zip(*columns))
    if isinstance(first, dict):
        return {key: _merge([c[key] for c in columns], sizes, order) for key in first}
    if all(isinstance(c, str) and c == first for c in columns):
        return first
    rows = [r for c, n in zip(columns, sizes) for r in ([c] * n if isinstance(c, str) else c)]
    rows = [rows[k] for k in order.tolist()]
    return np.array(rows) if isinstance(first, np.ndarray) and first.ndim == 1 else rows


def concatenate_rows(parts: list[ScenarioReport], order: np.ndarray) -> ScenarioReport:
    """The rows of ``parts`` one after another, taken in ``order``: row k of
    the result is row ``order[k]`` of the concatenation."""
    fields = [(p.config, p.scalars, p.matrices, p.verdicts) for p in parts]
    return ScenarioReport(parts[0].kind, *_merge(fields, [len(p) for p in parts], order))

