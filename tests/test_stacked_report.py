"""The stacked scenario report: a sweep's rows are the reports ``run`` gives
for each grid point on its own, and rendering a sweep costs a fixed number of
report calls, not a number per point."""

import functools
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qclonelab import core
from qclonelab.cli import main
from qclonelab.config import (
    echo_columns,
    grid_points,
    load_config,
    parse_config_text,
)
from qclonelab.report import ScenarioReport, Verdict, render_csv, render_sweep
from qclonelab.scenarios import run_configs
from oracles import format_scalar

# The text of perfbench.workloads.conservation_config(7).
SEED7_CONFIG = """\
kind = conservation
overlap.a = 0.6
overlap.b = 0.5
overlap.c = 0.5
overlap.a_phase = 2.034701269983068
overlap.b_phase = 0.9478133132026084
overlap.c_phase = 4.089941916940695
"""

CONSERVATION_AXES = {
    "overlap.a": ["0:1:0.5", "0.3:0.9:0.3", "0.6:0.6:1"],
    "overlap.b": ["0:1:0.5", "0.2:0.4:0.2"],
    "overlap.c": ["0:1:1", "0.25:0.75:0.25"],
    "overlap.c_phase": ["0:6:3"],
    "branch.weight": ["0:1:0.5", "0.2:0.8:0.6"],
}
NOSIGNAL_AXES = {
    "basis1.alpha.theta": ["0:0.7:0.7"],
    "basis2.theta": ["0:2.4:0.8", "0.3:0.3:1"],
    "basis2.phi": ["0:4:2"],
    "seed": ["1:3:1"],
}
GRAM_AXES = {
    "family.size": ["1:4:3", "2:3:1", "1:3:2"],  # two sizes each
    "seed": ["1:2:1", "0:6:3", "5:5:1"],
}


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text)
    return str(path)


def _point_texts(grid) -> list[str]:
    """The config text of each point of a grid."""
    echoed = echo_columns(grid)
    return [
        "".join(f"{key} = {v if isinstance(v, str) else v[k]}\n" for key, v in echoed.items())
        for k in range(len(grid))
    ]


def _output(argv: list[str], out: Path) -> tuple[int, str | None]:
    """Exit code and output of a command; exit 2 writes no output."""
    code = main([*argv, "--out", str(out)])
    return code, None if code == 2 else out.read_text()


def _assert_sweep_rows_are_runs(config_text: str, axes: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = _write(tmp, "base.cfg", config_text)
        points = _point_texts(grid_points(load_config(path), axes))
        runs = {fmt: [] for fmt in ("csv", "json")}
        codes = []
        for k, point in enumerate(points):
            point_path = _write(tmp, f"point{k}.cfg", point)
            for fmt in runs:
                code, text = _output(["run", point_path, "--format", fmt], tmp / "run.out")
                runs[fmt].append(text)
            codes.append(code)
        if 2 in codes:
            # A point the physics rejects (conflicting wishful rules) stops
            # the sweep as it stops its own run.
            assert main(["sweep", path, "--grid", *axes]) == 2
            return
        expected_code = 1 if 1 in codes else 0

        code, csv_text = _output(["sweep", path, "--grid", *axes], tmp / "sweep.csv")
        assert code == expected_code
        header = runs["csv"][0].splitlines()[0]
        assert all(text.splitlines()[0] == header for text in runs["csv"])
        rows = [text.splitlines()[1] for text in runs["csv"]]
        assert csv_text == "\n".join([header, *rows]) + "\n"

        code, json_text = _output(
            ["sweep", path, "--grid", *axes, "--format", "json"], tmp / "sweep.json"
        )
        assert code == expected_code
        objects = ",\n".join(text.rstrip("\n") for text in runs["json"])
        assert json_text == "[\n" + objects + "\n]\n"


@st.composite
def _grid(draw, axes: dict[str, list[str]], dims: list[str]) -> list[str]:
    """One to three axes of ``axes`` and a ``machine.ancilla_dim`` axis, in a
    drawn order, so that the dimensions' batches interleave on the grid."""
    keys = draw(st.lists(st.sampled_from(sorted(axes)), min_size=1, max_size=3, unique=True))
    specs = [f"{key}={draw(st.sampled_from(axes[key]))}" for key in keys]
    specs.append(f"machine.ancilla_dim={draw(st.sampled_from(dims))}")
    return draw(st.permutations(specs))


_PROPERTY = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_PROPERTY
@given(
    moduli=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    phase=st.floats(0.0, 6.0),
    axes=_grid(CONSERVATION_AXES, ["2:3:1", "2:4:2", "3:5:1"]),
)
def test_conservation_sweep_rows_are_runs(moduli, phase, axes):
    a, b, c = moduli
    text = (
        f"kind = conservation\noverlap.a = {a!r}\noverlap.b = {b!r}\noverlap.c = {c!r}\n"
        f"overlap.b_phase = {phase!r}\n"
    )
    _assert_sweep_rows_are_runs(text, axes)


@_PROPERTY
@given(
    mode=st.sampled_from(["termwise", "isometry"]),
    theta=st.floats(0.0, 1.5),
    axes=_grid(NOSIGNAL_AXES, ["2:3:1"]),
)
def test_nosignal_sweep_rows_are_runs(mode, theta, axes):
    text = f"kind = nosignal\nmachine.mode = {mode}\nbasis1.phi = 1.0\nbasis1.psi.theta = {theta!r}\n"
    _assert_sweep_rows_are_runs(text, axes)


@_PROPERTY
@given(
    dimension=st.integers(2, 4),
    axes=st.tuples(*(st.sampled_from([f"{key}={spec}" for spec in specs])
                     for key, specs in GRAM_AXES.items())).flatmap(st.permutations),
)
def test_gram_equivalence_sweep_rows_are_runs(dimension, axes):
    # Each family size is its own batch, so the rows' family_gram matrices
    # come in two sizes; with the seed axis first, the batches interleave.
    text = f"kind = gram-equivalence\nfamily.dimension = {dimension}\n"
    _assert_sweep_rows_are_runs(text, axes)


def _csv_lines(report: ScenarioReport) -> list[str]:
    """The lines ``render_csv`` yields, each one line ending in a newline."""
    lines = list(render_csv(report))
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    return [line[:-1] for line in lines]


def test_csv_columns_format_as_scalars():
    values = [-0.0, 0.0, 0.65, 1e-12, -2.5e300, float("inf"), float("nan")]
    # A shared string passes through as it is, % included.
    report = ScenarioReport("k", {"key": "5%d"}, {"x": np.array(values)}, {}, {})
    header, *rows = _csv_lines(report)
    assert header == "kind,config.key,x"
    assert rows == [f"k,5%d,{format_scalar(x)}" for x in values]


_CELL_VALUES = [
    0.65, -0.0, 0.0, 0.65, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
    2.2e-308, 0.65, float("nan"), -0.0, 1e-12, -2.5e300, 1e-12,
]


@pytest.mark.parametrize("n", [len(_CELL_VALUES), 1])
def test_csv_cells_are_format_scalar(n):
    # Repeated values, both zeros, NaN, infinities and subnormals, shared by
    # several columns: every cell is format_scalar of its own value.
    x = np.array(_CELL_VALUES[:n])
    y, dev = x[::-1].copy(), np.roll(x, 3)
    tol = np.full(n, 1e-9)
    swept = [f"{k}%s" for k in range(n)]
    report = ScenarioReport(
        "k%", {"a": "5%d%%", "b": swept, "c": "%", "d": "x"}, {"x": x, "y": y}, {},
        {"v": (dev, tol)},
    )
    header, *rows = _csv_lines(report)
    assert header == "kind,config.a,config.b,config.c,config.d,x,y,verdict.v,verdict.v.deviation"
    assert len(rows) == n
    for k, row in enumerate(rows):
        passed = "1" if dev[k] < tol[k] else "0"
        assert row.split(",") == [
            "k%", "5%d%%", swept[k], "%", "x", format_scalar(x[k]), format_scalar(y[k]),
            passed, format_scalar(dev[k]),
        ]


def test_run_is_a_batch_of_one():
    [(report, rows)] = run_configs(grid_points(parse_config_text(SEED7_CONFIG)))
    assert isinstance(report, ScenarioReport) and len(report) == 1 and list(rows) == [0]


class TestSweepCost:
    """Expanding, evaluating and rendering a sweep makes the same package
    calls on every grid size: it builds no config, report or verdict per
    point, and checks each axis value once.  Counted under
    ``sys.setprofile``, so the figures do not depend on the host."""

    @staticmethod
    @functools.cache
    def _count(step: str, fmt: str = "csv") -> tuple[int, Counter]:
        """Points and calls of the sweep over ``overlap.{a,b,c}=0:1:step``
        rendered as ``fmt``.  ``all`` counts every package call, ``qclonelab``
        those made outside the axis value checks, with every point in one
        chunk of the kernel; ``report.NAME`` the calls of each function of
        ``report``, and ``windows`` the slices ``core.chunks`` gives it."""
        cfg = parse_config_text(SEED7_CONFIG)
        calls = Counter()
        built = (Verdict, ScenarioReport)
        checking = [False]

        def profile(frame, event, arg):
            module = frame.f_globals.get("__name__", "")
            if event not in ("call", "return") or not module.startswith("qclonelab"):
                return
            name = frame.f_code.co_name
            if event == "return" and name == "chunks" and \
                    frame.f_back.f_globals["__name__"] == "qclonelab.report":
                calls["windows"] += len(arg)
            if name == "checked_value":
                calls[name] += event == "call"
                checking[0] = event == "call"
            if event != "call":
                return
            calls["all"] += 1
            calls["qclonelab"] += not checking[0]
            if module == "qclonelab.report":
                calls["report"] += 1
                calls[f"report.{name}"] += 1
            if name == "__init__" and isinstance(frame.f_locals.get("self"), built):
                calls[type(frame.f_locals["self"]).__name__] += 1

        chunk = 64 * 11**3  # conservation points hold 16 * ancilla_dim entries
        with mock.patch.object(core, "CHUNK_ENTRIES", chunk):
            sys.setprofile(profile)
            try:
                grid = grid_points(cfg, [f"overlap.{key}=0:1:{step}" for key in "abc"])
                "".join(render_sweep(run_configs(grid), fmt))
            finally:
                sys.setprofile(None)
        return len(grid), calls

    def test_report_calls_do_not_grow_with_the_grid(self):
        small_points, small = self._count("0.5")
        cube_points, cube = self._count("0.1")
        assert (small_points, cube_points) == (27, 1331)
        assert cube["report"] == small["report"]
        assert cube["ScenarioReport"] == small["ScenarioReport"] <= 1
        assert cube["Verdict"] == small["Verdict"] == 0

    @pytest.mark.parametrize("step", ["0.5", "0.1"])
    def test_json_formats_once_per_window(self, step):
        # Rendering JSON once called format_scalar for every number of every
        # row; its numbers now come from one _formatted call per window.
        _, calls = self._count(step, "json")
        assert calls["report.format_scalar"] == 0
        assert 1 <= calls["report._formatted"] <= calls["windows"]

    @pytest.mark.parametrize("step", ["0.5", "0.1"])
    def test_package_calls_per_point(self, step):
        points, calls = self._count(step)
        assert calls["all"] <= 20 * points

    def test_package_calls_do_not_grow_with_the_grid(self):
        assert self._count("0.1")[1]["qclonelab"] == self._count("0.5")[1]["qclonelab"]

    @pytest.mark.parametrize("step, axis_values", [("0.5", 3 * 3), ("0.1", 3 * 11)])
    def test_each_axis_value_checked_once(self, step, axis_values):
        _, calls = self._count(step)
        assert calls["checked_value"] == axis_values
