"""Byte-stable scenario reports, stacked over points: ``run`` is a batch of
one, a report with a single row, and ``sweep`` writes the rows of its
batches' reports in grid order through :func:`render_sweep`.

All numbers render at 12 significant digits with lowercase exponents, so a
report for a given configuration is identical across runs and machines.  One
formatting pass, :func:`_formatted`, gives every format its numbers: the CSV
all at once, the table and JSON one window of rows at a time through
:meth:`ScenarioReport.documents`, and the verdict lines of the table and of
``verify`` through :func:`verdict_lines`.  The JSON rendering of a row is the
canonical machine format: it holds every string, number and verdict of the
row, so a report read back from it renders the same bytes again; the table
shows the same fields, and the CSV is the flat scalar record, one line per row.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .core import Record, chunks


class Verdict(NamedTuple):
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def verdict_lines(verdicts: list[Verdict]) -> list[str]:
    """Each verdict as ``PASS name deviation=D tolerance=T``, or ``FAIL ...``,
    its numbers from one :func:`_formatted` pass over all of them."""
    deviations, tolerances = _formatted([np.array([v.deviation for v in verdicts], dtype=float),
                                         np.array([v.tolerance for v in verdicts], dtype=float)])
    return [f"{'PASS' if v.passed else 'FAIL'} {v.name} deviation={d} tolerance={t}"
            for v, d, t in zip(verdicts, deviations, tolerances)]


class ScenarioReport(Record):
    """Echoed configs, quantities and verdicts of n points of one kind, row k
    for point k: per config key one shared string or n strings; (n,) scalar
    arrays; (n, rows, cols) matrix stacks; (n,) verdict deviations and
    tolerances.  A verdict passes where its deviation is below its tolerance."""

    kind: str
    config: dict[str, str | list[str]]
    scalars: dict[str, np.ndarray]
    matrices: dict[str, np.ndarray]
    verdicts: dict[str, tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(next(iter(self.scalars.values())))

    @property
    def all_pass(self) -> bool:
        return all(bool(np.all(dev < tol)) for dev, tol in self.verdicts.values())

    def documents(self) -> Iterator[dict]:
        """Each row's JSON document in turn, its numbers from one
        :func:`_formatted` call per :func:`~qclonelab.core.chunks` window of
        rows, so that a long report is never held formatted whole."""
        reals = [*self.scalars.values(), *(c for pair in self.verdicts.values() for c in pair)]
        matrices, config = list(self.matrices.values()), sorted(self.config.items())
        for window in chunks(len(self), sum(np.size(c[0]) for c in reals + matrices)):
            texts = _formatted([c[window] for c in reals], [m[window] for m in matrices])
            numbers = iter(texts[len(self.scalars):len(reals)])
            checks = [(name, (dev[window] < tol[window]).tolist(), next(numbers), next(numbers))
                      for name, (dev, tol) in self.verdicts.items()]
            for k, row in enumerate(range(len(self))[window]):
                yield {
                    "kind": self.kind,
                    "config": {key: v if isinstance(v, str) else v[row] for key, v in config},
                    "scalars": {name: t[k] for name, t in zip(self.scalars, texts)},
                    "matrices": {name: t[k] for name, t in zip(self.matrices, texts[len(reals):])},
                    "verdicts": [{"name": v, "passed": p[k], "deviation": d[k], "tolerance": t[k]}
                                 for v, p, d, t in checks],
                }

    def render(self, fmt: str = "table") -> str:
        """The first row (``run``'s only one) as a table or JSON; as CSV, every row."""
        if fmt == "json":
            return next(render_json(self)) + "\n"
        if fmt == "csv":
            return "".join(render_csv(self))
        if fmt != "table":
            raise ValueError(f"unknown report format {fmt!r}")
        doc = next(self.documents())
        lines = [f"kind = {self.kind}", "", "[config]"]
        lines += [f"{k} = {v}" for k, v in doc["config"].items()]
        lines += ["", "[scalars]"]
        lines += [f"{k} = {v}" for k, v in doc["scalars"].items()]
        for name, rows in doc["matrices"].items():
            lines += ["", f"[matrix {name}]", *("  ".join(r) for r in rows)]
        verdicts = [Verdict(name, dev[0], tol[0]) for name, (dev, tol) in self.verdicts.items()]
        lines += ["", "[verdicts]", *verdict_lines(verdicts)]
        lines += ["", f"overall = {'PASS' if all(v.passed for v in verdicts) else 'FAIL'}"]
        return "\n".join(lines) + "\n"


def render_json(report: ScenarioReport) -> Iterator[str]:
    """Each row's document as ``json.dumps(indent=2, sort_keys=True)`` gives it."""
    import json  # here, so that no other command pays its import

    for doc in report.documents():
        yield json.dumps(doc, indent=2, sort_keys=True)


def render_csv(report: ScenarioReport) -> Iterator[str]:
    """A header line, then one line per row of the report, each ending in a
    newline, its cells joined by commas: the strings every row shares as
    they are, verdicts as 1 or 0 and numbers as :func:`_formatted` formats
    them, each distinct number of the report once."""
    n = len(report)
    formatted = iter(_formatted([
        *report.scalars.values(), *(dev for dev, _ in report.verdicts.values())
    ]))
    fields = [("kind", report.kind)]
    fields += [(f"config.{key}", column) for key, column in sorted(report.config.items())]
    fields += [(name, next(formatted)) for name in report.scalars]
    for name, (dev, tol) in report.verdicts.items():
        fields.append((f"verdict.{name}", np.where(dev < tol, "1", "0").tolist()))
        fields.append((f"verdict.{name}.deviation", next(formatted)))
    cells = (itertools.repeat(c, n) if isinstance(c, str) else c for _, c in fields)
    rows = map(str.__add__, map(",".join, zip(*cells)), itertools.repeat("\n"))
    return itertools.chain([",".join(name for name, _ in fields) + "\n"], rows)


def render_sweep(parts: list[tuple[ScenarioReport, Sequence[int]]], fmt: str) -> Iterator[str]:
    """A sweep's output from each batch's report and the grid indices of its
    rows, in ascending order: as CSV, one header line and then every point's
    line; as JSON, the array of every point's document; the points in grid order."""
    streams = [(render_csv if fmt == "csv" else render_json)(report) for report, _ in parts]
    # owner[k]: the batch of grid row k, which is the next row of that batch's stream.
    owner = np.empty(sum(len(at) for _, at in parts), dtype=np.intp)
    for p, (_, at) in enumerate(parts):
        owner[at] = p
    rows = map(next, map(streams.__getitem__, owner.tolist()))
    if fmt == "csv":  # every batch's header names the grid's keys; the first stands for all
        return itertools.chain([next(stream) for stream in streams][:1], rows)
    docs = (("," if k else "[") + "\n" + doc for k, doc in enumerate(rows))
    return itertools.chain(docs, ["\n]\n"])


def _formatted(reals: list, complexes: list = ()) -> list:
    """Each value of the ``reals`` columns as ``%.11e`` formats it, then each
    entry of the ``complexes`` columns as ``re+imj`` or ``re-imj``, in nested
    lists of each column's shape: (n,) values or an (n, rows, cols) stack.
    One ``%`` formats each distinct real or imaginary part once: adding 0.0
    collapses -0.0 first."""
    arrays = [(np.asarray(c), j) for j, part in enumerate((reals, complexes)) for c in part]
    parts = [p.ravel() for a, j in arrays for p in ((a.real, a.imag) if j else (a,))]
    distinct, at = np.unique(np.concatenate(parts, dtype=float) + 0.0, return_inverse=True)
    text = ("%.11e\n" * len(distinct) % tuple(distinct.tolist())).split("\n")[:-1]
    text = np.array(text, dtype=object)
    shown, ends = text[at], list(itertools.accumulate(map(len, parts)))
    imag = np.where(distinct < 0, text, "+" + text) + "j" if complexes else None
    spans = map(slice, [0, *ends], ends)
    return [(shown[next(spans)] + imag[at[next(spans)]] if j else shown[next(spans)])
            .reshape(a.shape).tolist() for a, j in arrays]
