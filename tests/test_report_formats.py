"""Every report format takes its numbers from one formatting pass: each row
of ``render_json`` and the table of ``render`` equal the reference that
formats every value on its own (``oracles.report_row``), on drawn reports
whose rows split into drawn ``core.chunks`` windows, and so do ``verify``'s
verdict lines (``oracles.verdict_line``)."""

import json
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import report_row, report_table, verdict_line
from qclonelab import core
from qclonelab.report import ScenarioReport, Verdict, render_json, verdict_lines

# Signed zeros, infinities, NaN, subnormals and the ends of the exponent
# range, beside any float.
_NUMBER = st.one_of(
    st.sampled_from([-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324,
                     2.2e-308, 1e300, -1e300, 1e-300, -1e-300, 0.65]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Strings that JSON escapes: quotes, backslashes, control and non-ASCII characters.
_TEXT = st.text(st.one_of(st.sampled_from(['"', "\\", "\n", "\x00", "é", "→", "%", ","]),
                          st.characters()), max_size=6)


@st.composite
def _reports(draw) -> ScenarioReport:
    """A report of 1 to 5 rows: shared and per-row config strings, scalars,
    matrices as (n, rows, cols) stacks of complex or real entries, and
    verdicts."""
    n = draw(st.integers(1, 5))

    def numbers(*shape):
        return np.array(draw(st.lists(_NUMBER, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    def complexes(*shape):
        z = np.empty(shape, dtype=complex)  # not re + 1j * im: 1j * inf has a NaN real part
        z.real, z.imag = numbers(*shape), numbers(*shape)
        return z

    config = draw(st.dictionaries(_TEXT, st.one_of(_TEXT, st.lists(_TEXT, min_size=n,
                                                                   max_size=n)), max_size=3))
    scalars = {f"s{k}": numbers(n) for k in range(draw(st.integers(1, 3)))}
    matrices = {}
    for k in range(draw(st.integers(0, 3))):
        shape = n, draw(st.integers(1, 3)), draw(st.integers(1, 3))
        matrices[f"m{k}"] = complexes(*shape) if draw(st.booleans()) else numbers(*shape)
    verdicts = {f"v{k}": (numbers(n), numbers(n)) for k in range(draw(st.integers(0, 2)))}
    return ScenarioReport(draw(_TEXT), config, scalars, matrices, verdicts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(report=_reports(), chunk=st.integers(1, 40))
def test_every_format_matches_the_per_value_reference(report, chunk):
    with mock.patch.object(core, "CHUNK_ENTRIES", chunk):
        rows = list(render_json(report))
        table, first = report.render("table"), report.render("json")
    assert rows == [json.dumps(report_row(report, k), indent=2, sort_keys=True)
                    for k in range(len(report))]
    assert first == rows[0] + "\n"
    assert table == report_table(report)


@settings(max_examples=150, deadline=None)
@given(verdicts=st.lists(st.tuples(_TEXT, _NUMBER, _NUMBER), max_size=40))
def test_verdict_lines_match_the_per_value_reference(verdicts):
    lines = verdict_lines([Verdict(*v) for v in verdicts])
    assert lines == [verdict_line(*v) for v in verdicts]
