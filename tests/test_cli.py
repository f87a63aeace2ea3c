import itertools
import json
import math
import os
import subprocess
import sys
import threading
from decimal import Decimal
from pathlib import Path

import pytest

from qclonelab import cli, config
from qclonelab.cli import main
from qclonelab.scenarios import run_configs
from qclonelab.config import (
    ConfigError,
    checked_value,
    grid_points,
    parse_config_text,
    parse_grid_axis,
)
from qclonelab.report import Verdict, verdict_lines

from conftest import parse_report

CONS_TEXT = """\
# conservation demo point
kind = conservation
overlap.a = 0.6
overlap.b = 0.5
overlap.c = 0.5
"""

NOSIG_TEXT = """\
kind = nosignal
basis1.theta = 0.0
basis2.theta = 0.7853981633974483
machine.mode = isometry
seed = 11
"""


def _run(text: str):
    """The report ``run`` gives for a config text."""
    [(report, _)] = run_configs(grid_points(parse_config_text(text)))
    return report


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = parse_config_text(CONS_TEXT)
        assert (cfg.kind, len(cfg), cfg.swept) == ("conservation", 1, {})
        assert cfg.shared["machine.ancilla_dim"] == 4
        assert cfg.shared["tolerance.assert"] == 1e-10
        assert cfg.shared["branch.weight"] == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_text(CONS_TEXT + "bogus.key = 3\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config_text("overlap.a = 0.5\n")

    def test_missing_required_overlap(self):
        with pytest.raises(ConfigError, match="overlap.b"):
            parse_config_text("kind = conservation\noverlap.a = 0.5\noverlap.c = 0.5\n")

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match="overlap.a"):
            parse_config_text("kind = conservation\noverlap.a = abc\noverlap.b = 0\noverlap.c = 0\n")

    def test_out_of_range_modulus(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("kind = conservation\noverlap.a = 1.5\noverlap.b = 0\noverlap.c = 0\n")

    def test_line_number_in_error(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("kind = conservation\nnot a pair\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("kind = nosignal\nseed = 1\nseed = 2\n")

    # A second kind line once silently replaced the first: this config ran
    # as a conservation scenario and exited 1.
    def test_repeated_kind_rejected(self, tmp_path, capsys):
        text = "kind = nosignal\n" + CONS_TEXT
        with pytest.raises(ConfigError, match="^line 3: duplicate key 'kind'$"):
            parse_config_text(text)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: line 3: duplicate key 'kind'\n"

    def test_shorthand_conflict_rejected(self):
        cfg = parse_config_text(
            "kind = nosignal\nbasis2.theta = 0.5\nbasis2.psi.theta = 0.2\n"
        )
        with pytest.raises(ConfigError, match="conflicts"):
            grid_points(cfg)

    def test_cross_outputs_key_rejected(self):
        with pytest.raises(ConfigError, match="machine.cross_outputs"):
            parse_config_text(NOSIG_TEXT + "machine.cross_outputs = passthrough\n")

    def test_env_default_override(self):
        cfg = parse_config_text(NOSIG_TEXT, {"tolerance.assert": 1e-6})
        assert cfg.shared["tolerance.assert"] == 1e-6
        explicit = parse_config_text(
            NOSIG_TEXT + "tolerance.assert = 1e-4\n", {"tolerance.assert": 1e-6}
        )
        assert explicit.shared["tolerance.assert"] == 1e-4


def _never(*args, **kwargs):
    raise AssertionError("no work may run")


class TestRulesBetweenKeysBeforeAnyBatch:
    """A rule between keys stops a grid before any runner is called.  A part
    beside its basis shorthand was once found by the runner, so that a sweep
    whose points split into batches blamed "grid point 0" for it."""

    @pytest.mark.parametrize(
        "text, axis, message",
        [
            ("kind = nosignal\nbasis2.theta = 0.5\nbasis2.psi.theta = 0.2\n",
             "machine.ancilla_dim=2:3:1",
             "basis2.psi.theta conflicts with shorthand basis2.theta"),
            ("kind = nosignal\nbasis2.theta = 0.5\nbasis2.psi.theta = 0.2\n", "seed=2:3:1",
             "basis2.psi.theta conflicts with shorthand basis2.theta"),
            ("kind = gram-equivalence\nfamily.target_dimension = 3\n", "seed=2:3:1",
             "key 'family.target_dimension': 3 is smaller than family.dimension 4 "
             "(0 means the same)"),
        ],
        ids=["shorthand-ancilla-dim", "shorthand-seed", "target-dimension-seed"],
    )
    def test_sweep_exits_2_before_any_runner(self, tmp_path, capsys, monkeypatch,
                                             text, axis, message):
        monkeypatch.setattr(cli, "run_configs", _never)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert main(["sweep", str(path), "--grid", axis]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"


class TestOneRuleForEverySource:
    """A value of a key is accepted or refused alike, with the same message,
    whether a config file gives it or a one-point grid axis does."""

    BASES = {
        "nosignal": "kind = nosignal\n",
        "conservation": CONS_TEXT,
        "gram-equivalence": "kind = gram-equivalence\n",
    }
    # Each exactly what an axis lo:lo:1 gives: range boundaries (0, 1, pi
    # and 2*pi at 12 decimals), values just beside them, and values far out.
    PROBES = [-1.0, 0.0, 1e-12, 0.5, 1.0, 1.5, 2.0, 3.0, 3.141592653589, 3.14159265359,
              6.283185307179, 6.28318530718, 1e300]

    @staticmethod
    def _outcome(make, key):
        try:
            return make().column(key)
        except ConfigError as exc:
            return str(exc)

    @pytest.mark.parametrize(
        "kind, key",
        [(kind, key) for kind, schema in config._SCHEMAS.items()
         for key, (typ, _) in schema.items() if typ is not str],
    )
    def test_file_and_axis_agree(self, kind, key):
        typ = config._SCHEMAS[kind][key][0]
        lines = [line for line in self.BASES[kind].splitlines(keepends=True)
                 if not line.startswith(f"{key} =")]
        base = parse_config_text(self.BASES[kind])
        accepted = 0
        for value in self.PROBES:
            if typ is int and not value.is_integer():
                continue  # a file's "2.5" and an axis' 2.5 each fail their own parse
            text = repr(typ(value))
            from_file = self._outcome(
                lambda: grid_points(parse_config_text("".join(lines) + f"{key} = {text}\n")), key
            )
            from_axis = self._outcome(lambda: grid_points(base, [f"{key}={text}:{text}:1"]), key)
            assert from_file == from_axis, (key, text)
            accepted += isinstance(from_file, list)
        assert accepted


class TestGrid:
    def test_axis_parsing(self):
        key, values = parse_grid_axis("overlap.a=0:1:0.5")
        assert key == "overlap.a"
        assert values == [0.0, 0.5, 1.0]

    def test_nonsweepable_key_rejected(self):
        cfg = parse_config_text(CONS_TEXT)
        with pytest.raises(ConfigError, match="swept"):
            grid_points(cfg, ["format=0:1:1"])

    def test_lexicographic_order(self):
        cfg = parse_config_text(CONS_TEXT)
        grid = grid_points(cfg, ["overlap.a=0:1:0.5", "overlap.b=0:1:1"])
        seen = list(zip(grid.column("overlap.a"), grid.column("overlap.b")))
        assert seen == [
            (0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]

    @pytest.mark.parametrize("axes", [
        ["overlap.a=0:1:0.25"],
        ["overlap.b=0:1:0.5", "overlap.a=0:1:0.25"],
        ["overlap.c=0:1:0.25", "branch.weight=0:1:1", "overlap.a=0:1:0.5"],
    ])
    def test_columns_follow_the_product(self, axes):
        # Each column repeats and tiles its values, with no tuple per point.
        keys, values = zip(*map(parse_grid_axis, axes))
        grid = grid_points(parse_config_text(CONS_TEXT), axes)
        assert len(grid) == math.prod(map(len, values))
        expected = [list(column) for column in zip(*itertools.product(*values))]
        assert [grid.column(key) for key in keys] == expected

    def test_single_point_grid_matches_run(self):
        cfg = parse_config_text(CONS_TEXT)
        grid = grid_points(cfg, ["overlap.a=0.6:0.6:1"])
        assert len(grid) == 1
        assert run_configs(grid)[0][0].scalars == run_configs(grid_points(cfg))[0][0].scalars

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid_axis("overlap.a=1:0:0.1")

    # A non-finite bound or step once made the expansion loop run forever.
    @pytest.mark.parametrize(
        "bounds", ["0:1:nan", "0:inf:0.5", "nan:1:0.5", "-inf:0:0.5", "0:1:inf"]
    )
    def test_non_finite_axis_rejected(self, bounds):
        with pytest.raises(ConfigError, match="finite"):
            parse_grid_axis(f"overlap.a={bounds}")

    def test_non_finite_axis_exits_2(self, capsys):
        path = str(Path(__file__).resolve().parents[1] / "configs" / "conservation_violation.cfg")
        assert main(["sweep", path, "--grid", "overlap.a=0:1:nan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1


class TestGridAxisExpansion:
    """Every value a grid axis gives is a value of its key, once."""

    CONFIGS = Path(__file__).resolve().parents[1] / "configs"

    # The axes of the byte pins and the benchmark expand to lo + k * step in
    # exact decimal arithmetic, as they always have.
    @pytest.mark.parametrize(
        "bounds", ["0:1:0.1", "0:3.1:0.01", "0:3.1:0.1", "0:6:0.5", "2:5:1", "0:1:0.25", "0:1:0.5"]
    )
    def test_pinned_axes_unchanged(self, bounds):
        lo, hi, step = (Decimal(x) for x in bounds.split(":"))
        count = int((hi - lo) / step) + 1
        _, values = parse_grid_axis(f"overlap.a={bounds}")
        assert values == [float(lo + k * step) for k in range(count)]

    def test_slack_scales_with_the_step(self):
        # An absolute end slack of 1e-9 once ran this axis to 1.1e-9.
        _, values = parse_grid_axis("overlap.a=0:1e-10:1e-11")
        assert len(values) == 11 and values[-1] == 1e-10

    def test_colliding_values_rejected(self):
        # Rounded to 12 decimals, this axis once gave 10,011 mostly equal values.
        with pytest.raises(ConfigError, match="collide at 12 decimals"):
            parse_grid_axis("overlap.a=0.5:0.500000000001:1e-13")

    def test_small_axis_keeps_its_significant_digits(self):
        # Rounded to 12 decimals, a tolerance of 1e-13 once read as 0.
        assert parse_grid_axis("tolerance.assert=1e-13:1e-13:1") == ("tolerance.assert", [1e-13])
        _, values = parse_grid_axis("overlap.a=0:1e-12:1e-13")
        assert len(set(values)) == 11 and values[1] == 1e-13 and values[-1] == 1e-12

    def test_small_swept_tolerance_reports(self, tmp_path):
        # The same axis once exited 2: "tolerance 0.0 must be finite and positive".
        out = tmp_path / "sweep.csv"
        axes = ["basis2.theta=0:0.2:0.1", "tolerance.assert=1e-13:1e-13:1"]
        path = str(self.CONFIGS / "nosignal_wishful.cfg")
        assert main(["sweep", path, "--grid", *axes, "--out", str(out)]) == 1
        lines = out.read_text().splitlines()
        column = lines[0].split(",").index("config.tolerance.assert")
        assert [line.split(",")[column] for line in lines[1:]] == ["1e-13"] * 3

    def test_repeated_axis_key_rejected(self):
        # The second axis once replaced the first, emitting 6 rows with repeats.
        cfg = parse_config_text(CONS_TEXT)
        with pytest.raises(ConfigError, match="'overlap.a' repeats"):
            grid_points(cfg, ["overlap.a=0:1:0.5", "overlap.a=0:1:1"])

    @pytest.mark.parametrize("key", ["seed", "machine.ancilla_dim"])
    def test_fractional_integer_override_rejected(self, key):
        cfg = parse_config_text(CONS_TEXT)
        with pytest.raises(ConfigError, match=f"'{key}': 2.5 is not an integer"):
            grid_points(cfg, [f"{key}=2.5:2.5:1"])
        assert grid_points(cfg, [f"{key}=3:3:1"]).column(key) == [3]

    @pytest.mark.parametrize(
        "config, axes",
        [
            # Seeds 1, 1, 2, 2, 3 and ancilla dimensions 2, 2, 3 once ran
            # and exited 0.
            ("gram_equivalence", ["seed=1:3:0.5"]),
            ("conservation_violation", ["machine.ancilla_dim=2:3:0.5"]),
            ("conservation_violation", ["overlap.a=0.5:0.500000000001:1e-13"]),
            ("conservation_violation", ["overlap.a=0:1:0.5", "overlap.a=0:1:1"]),
        ],
        ids=["fractional-seed", "fractional-ancilla-dim", "colliding-values", "repeated-key"],
    )
    def test_exits_2(self, capsys, config, axes):
        path = str(self.CONFIGS / f"{config}.cfg")
        assert main(["sweep", path, "--grid", *axes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["machine.mode", "format"])
    def test_text_key_sweep_exits_2(self, capsys, key):
        # A text key is never swept, so machine.mode never splits a batch.
        path = str(self.CONFIGS / "nosignal_isometry.cfg")
        assert main(["sweep", path, "--grid", f"{key}=0:1:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"configuration error: key '{key}' is not numeric and cannot be swept\n"
        )


class TestGridBound:
    # A tiny step once expanded into a list of 10^9 values, growing memory
    # until the process was killed.
    def test_long_axis_rejected(self):
        with pytest.raises(ConfigError, match="more than"):
            parse_grid_axis("overlap.a=0:1:1e-9")

    def test_axis_at_the_bound_accepted(self):
        bound = config.MAX_GRID_POINTS
        assert bound >= 100 * 11**3
        _, values = parse_grid_axis(f"seed=1:{bound}:1")
        assert len(values) == bound

    def test_large_product_rejected(self):
        cfg = parse_config_text(CONS_TEXT)
        axes = [f"overlap.{key}=0:1:0.01" for key in "abc"]  # 101^3 points
        with pytest.raises(ConfigError, match="exceeds"):
            grid_points(cfg, axes)

    def test_long_axis_exits_2(self, capsys):
        path = str(Path(__file__).resolve().parents[1] / "configs" / "conservation_violation.cfg")
        assert main(["sweep", path, "--grid", "overlap.a=0:1:1e-9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    def test_each_point_built_once(self, monkeypatch):
        # No point is built as a config: each axis value is checked once.
        cfg = parse_config_text(CONS_TEXT)
        checked = []

        def counted(key, value, name=None):
            checked.append((key, value))
            return checked_value(key, value, name)

        monkeypatch.setattr(config, "checked_value", counted)
        grid = grid_points(cfg, ["overlap.a=0:1:0.5", "overlap.b=0:1:1"])
        assert len(grid) == 6
        assert checked == [("overlap.a", 0.0), ("overlap.a", 0.5), ("overlap.a", 1.0),
                           ("overlap.b", 0.0), ("overlap.b", 1.0)]

    def test_cross_key_ranges_checked_on_whole_points(self):
        # Half-built points once failed this check: target 2 against the
        # default family.dimension 4.
        cfg = parse_config_text("kind = gram-equivalence\n")
        grid = grid_points(cfg, ["family.target_dimension=2:2:1", "family.dimension=2:2:1"])
        assert len(grid) == 1
        assert grid.column("family.target_dimension") == grid.column("family.dimension") == [2]

    def test_cross_key_rule_checked_on_every_combination(self):
        # Target 3 against the default family.dimension 4 holds at no point
        # of the second grid and at every point of the first.
        cfg = parse_config_text("kind = gram-equivalence\nfamily.target_dimension = 3\n")
        assert grid_points(cfg, ["family.dimension=2:3:1"]).column("family.dimension") == [2, 3]
        with pytest.raises(ConfigError, match="3 is smaller than family.dimension 4"):
            grid_points(cfg, ["seed=1:2:1"])


class TestNonFiniteConfigValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["overlap.a_phase", "overlap.b_phase", "overlap.c_phase"])
    def test_phase_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT + f"{key} = {value}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert key in err and "not finite" in err

    def test_override_rejected(self):
        # A grid axis never gives a NaN; the check of its numbers refuses one.
        with pytest.raises(ConfigError, match="^key 'overlap.c_phase': nan is not finite$"):
            checked_value("overlap.c_phase", float("nan"))


class TestReport:
    def test_scalar_formatting(self):
        # 12 significant digits with a lowercase exponent, -0.0 as 0.0.
        assert verdict_lines([Verdict("x", -0.0, 0.65), Verdict("y", 1e-12, 1e-12)]) == [
            "PASS x deviation=0.00000000000e+00 tolerance=6.50000000000e-01",
            "FAIL y deviation=1.00000000000e-12 tolerance=1.00000000000e-12",
        ]

    def test_json_roundtrip_field_for_field(self):
        report = _run(CONS_TEXT)
        parsed = parse_report(report.render("json"))
        assert (parsed.kind, parsed.config) == (report.kind, report.config)
        for field in ("scalars", "matrices", "verdicts"):
            assert sorted(getattr(parsed, field)) == sorted(getattr(report, field))
        assert parsed.render("json") == report.render("json")

    def test_verdict_pass_iff_deviation_below_tolerance(self):
        assert Verdict("x", 1e-13, 1e-12).passed
        assert not Verdict("x", 1e-11, 1e-12).passed

    def test_csv_columns_stable(self):
        rep = _run(CONS_TEXT)
        header, row = (line.split(",") for line in rep.render("csv").splitlines())
        assert header[0] == "kind"
        assert len(header) == len(row)
        assert "delta_lambda" in header

    def test_deterministic_rendering(self):
        assert _run(CONS_TEXT).render("table") == _run(CONS_TEXT).render("table")


class TestRunCommand:
    def test_conservation_violating_point_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "lambda_before_closed = 6.50000000000e-01" in out
        assert "lambda_after_closed = 5.90000000000e-01" in out
        assert "FAIL machine_gram_consistency" in out
        assert "FAIL entanglement_conserved" in out

    def test_conservation_consistent_point_exits_0(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT.replace("overlap.b = 0.5", "overlap.b = 0.3"))
        assert main(["run", str(path), "--out", str(tmp_path / "r.txt")]) == 0

    def test_degenerate_marginal_reports(self, tmp_path, capsys):
        # Alice's marginal after the cloner is I/2 up to 1e-20: nearly
        # diagonal and nearly degenerate, which the 2x2 eigensolver must
        # still diagonalize within its residual guard.
        path = tmp_path / "c.cfg"
        path.write_text("kind = conservation\noverlap.a = 1\noverlap.b = 0\noverlap.c = 1e-20\n")
        assert main(["run", str(path)]) == 0
        assert "overall = PASS" in capsys.readouterr().out

    def test_nosignal_isometry_passes(self, tmp_path, capsys):
        path = tmp_path / "n.cfg"
        path.write_text(NOSIG_TEXT)
        code = main(["run", str(path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert float(doc["scalars"]["signalling_magnitude"]) < 1e-12

    def test_nosignal_wishful_fails_no_signalling(self, tmp_path, capsys):
        path = tmp_path / "n.cfg"
        path.write_text(NOSIG_TEXT.replace("isometry", "termwise"))
        code = main(["run", str(path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert float(doc["scalars"]["signalling_magnitude"]) == pytest.approx(
            0.26050269163999357, abs=1e-10
        )

    @pytest.mark.parametrize("theta", [1e-10, 2e-10])
    def test_wishful_magnitude_near_basis_1(self, tmp_path, capsys, theta):
        # Basis 1's rule kets match basis 2's within ASSERT_TOL here; basis
        # 2's own rules answer for it, so the magnitude is its closed form
        # sqrt(1 - cos^4(theta / 2)) / 2, written without the cancellation.
        path = tmp_path / "n.cfg"
        path.write_text(f"kind = nosignal\nbasis2.theta = {theta!r}\n")
        main(["run", str(path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        half = theta / 2
        closed = math.sin(half) * math.sqrt(1 + math.cos(half) ** 2) / 2
        assert float(doc["scalars"]["signalling_magnitude"]) == pytest.approx(closed, rel=1e-9)

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("kind = conservation\noverlap.a = 0.6\nwat = 1\n")
        assert main(["run", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "/nonexistent/x.cfg"]) == 2
        assert "configuration error" in capsys.readouterr().err

    # A file that cannot be read or written once ended in a traceback and
    # exit 1, the code of a failed verdict.
    @staticmethod
    def _file_error(capsys, argv) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("configuration error:")
        return captured.err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        err = self._file_error(capsys, ["run", str(tmp_path)])
        assert "Is a directory" in err and str(tmp_path) in err

    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])
    def test_directory_as_out_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        argv = {
            "run": ["run", str(path)],
            "sweep": ["sweep", str(path), "--grid", "overlap.b=0.3:0.5:0.2"],
            "verify": ["verify", "--seed", "7"],
        }[command]
        err = self._file_error(capsys, [*argv, "--out", str(tmp_path)])
        assert "Is a directory" in err

    def test_out_below_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        err = self._file_error(capsys, ["run", str(path), "--out", str(path / "r.txt")])
        assert "Not a directory" in err

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads any file"
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        path.chmod(0)
        err = self._file_error(capsys, ["run", str(path)])
        assert "Permission denied" in err

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # A config saved with a UTF-8 byte-order mark once read its first key
        # as '\ufeffkind' and exited 2 with "missing required key 'kind'".
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(CONS_TEXT, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + CONS_TEXT.encode())
        outputs = []
        for path in (plain, marked):
            assert main(["run", str(path), "--format", "csv"]) == 1
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_config_that_is_not_utf8_is_a_configuration_error(self, tmp_path, capsys):
        # A Latin-1 byte in a comment once exited 2 as "rejected input:
        # UnicodeDecodeError", the label of a value the physics rejects.
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# café\n".encode("latin-1") + CONS_TEXT.encode())
        err = self._file_error(capsys, ["run", str(path)])
        assert err == f"configuration error: {path}: not UTF-8 text " \
                      "(invalid continuation byte at byte 5)\n"


class TestUnwritableOutBeforeAnyWork:
    """An ``--out`` that cannot be opened to write once failed only after the
    whole command had run: 0.57 s for the cube sweep as JSON."""

    CUBE = ["overlap.a=0:1:0.1", "overlap.b=0:1:0.1", "overlap.c=0:1:0.1"]

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        monkeypatch.setattr(cli, "run_configs", _never)
        monkeypatch.setattr(cli, "run_all_checks", _never)

    @pytest.mark.parametrize("where", ["directory", "below-a-file", "trailing-separator"])
    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])
    def test_refused_before_any_work(self, tmp_path, capsys, command, where):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        (tmp_path / "d").mkdir()
        out, fault = {
            "directory": (tmp_path / "d", "[Errno 21] Is a directory"),
            "below-a-file": (path / "r.txt", "[Errno 20] Not a directory"),
            "trailing-separator": (f"{tmp_path / 'new'}{os.sep}", "[Errno 21] Is a directory"),
        }[where]
        argv = {
            "run": ["run", str(path)],
            "sweep": ["sweep", str(path), "--grid", *self.CUBE, "--format", "json"],
            "verify": ["verify", "--seed", "7"],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {fault}: {str(out)!r}\n"
        assert sorted(tmp_path.rglob("*")) == before and path.read_text() == CONS_TEXT

    @pytest.mark.parametrize("out", [["--out", ""], ["--out="]], ids=["spaced", "joined"])
    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])
    def test_empty_out_refused_before_any_work(self, tmp_path, capsys, command, out):
        # An empty --out once wrote the whole output to stdout and exited 0.
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        argv = {
            "run": ["run", str(path)],
            "sweep": ["sweep", str(path), "--grid", *self.CUBE],
            "verify": ["verify", "--seed", "7"],
        }[command]
        assert main([*argv, *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: [Errno 2] No such file or directory: ''\n"

    def test_failed_run_leaves_out_untouched(self, tmp_path):
        out = tmp_path / "r.txt"
        out.write_text("earlier report\n")
        path = tmp_path / "bad.cfg"
        path.write_text(CONS_TEXT + "wat = 1\n")
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert out.read_text() == "earlier report\n"


class TestSweepCommand:
    def test_full_grid_delta_lambda_column_matches_closed_form(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(path),
            "--grid", "overlap.a=0:1:0.1", "overlap.b=0:1:0.1", "overlap.c=0:1:0.1",
            "--out", str(out),
        ])
        assert code == 1  # off-surface points fail the conservation verdict
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + 11**3
        ia = header.index("config.overlap.a")
        ib = header.index("config.overlap.b")
        ic = header.index("config.overlap.c")
        idl = header.index("delta_lambda")
        for line in lines[1:]:
            cells = line.split(",")
            a, b, c = float(cells[ia]), float(cells[ib]), float(cells[ic])
            assert float(cells[idl]) == pytest.approx((a * a * c - a * b) / 2, abs=1e-12)

    def test_nosignal_theta_grid_zero_at_origin(self, tmp_path):
        path = tmp_path / "n.cfg"
        path.write_text("kind = nosignal\nbasis1.theta = 0.0\n")
        out = tmp_path / "sweep.csv"
        main([
            "sweep", str(path),
            "--grid", "basis2.theta=0:1.5707963267948966:0.7853981633974483",
            "--out", str(out),
        ])
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        imag = header.index("signalling_magnitude")
        itheta = header.index("config.basis2.theta")
        rows = {float(l.split(",")[itheta]): float(l.split(",")[imag]) for l in lines[1:]}
        assert rows[0.0] < 1e-12
        assert rows[round(math.pi / 4, 12)] > 1e-5

    @pytest.mark.parametrize(
        "axis", ["overlap.a=0.9:1.2:0.1", "branch.weight=0.9:1.2:0.1", "machine.ancilla_dim=1:2:1"]
    )
    def test_out_of_range_swept_value_exits_2(self, tmp_path, capsys, axis):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        assert main(["sweep", str(path), "--grid", axis]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert axis.partition("=")[0] in err


class TestGramEquivalenceCommand:
    def test_target_smaller_than_dimension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.cfg"
        path.write_text(
            "kind = gram-equivalence\nfamily.dimension = 4\nfamily.target_dimension = 3\n"
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "family.target_dimension" in err

    def test_roundtrip_report(self, tmp_path, capsys):
        path = tmp_path / "g.cfg"
        path.write_text(
            "kind = gram-equivalence\nfamily.dimension = 6\nfamily.size = 4\nseed = 3\n"
        )
        code = main(["run", str(path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert float(doc["scalars"]["member_reconstruction_residual"]) < 1e-8
        assert float(doc["scalars"]["isometry_residual"]) < 1e-10

    def test_rectangular_target(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text(
            "kind = gram-equivalence\nfamily.dimension = 3\n"
            "family.target_dimension = 5\nfamily.size = 2\nseed = 5\n"
        )
        assert main(["run", str(path), "--out", str(tmp_path / "r.txt")]) == 0


class TestVerifyCommand:
    def test_all_pass_default_tolerances(self, tmp_path):
        out = tmp_path / "v.txt"
        assert main(["verify", "--seed", "7", "--out", str(out)]) == 0
        text = out.read_text()
        assert "FAIL" not in text
        assert text.count("PASS") == text.count("\n") - 1

    def test_tightened_tolerance_reports_named_failures(self, tmp_path, capsys):
        code = main(["verify", "--seed", "7", "--tolerance", "1e-15"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_env_var_sets_default_tolerance(self, monkeypatch, capsys):
        monkeypatch.setenv("QCLONELAB_TOL", "1e-15")
        code = main(["verify", "--seed", "7"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_env_var_applies_to_run(self, monkeypatch, tmp_path, capsys):
        # Loosened via environment: the 0.12 Gram deviation now "passes",
        # demonstrating the file-overridable default.
        monkeypatch.setenv("QCLONELAB_TOL", "0.5")
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        code = main(["run", str(path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["tolerance.assert"] == "0.5"
        for verdict in doc["verdicts"]:
            if verdict["name"] == "machine_gram_consistency":
                assert verdict["passed"] is True
        assert code == 1  # entanglement_conserved still fails at residual tol


class TestNegativeSeed:
    # A negative seed once reached NumPy and exited 2 with "expected
    # non-negative integer", naming neither the key nor the flag.
    CONFIGS = Path(__file__).resolve().parents[1] / "configs"

    def _err(self, capsys, argv) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        return captured.err

    def test_run_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "g.cfg"
        path.write_text("kind = gram-equivalence\nseed = -3\n")
        err = self._err(capsys, ["run", str(path)])
        assert err == "configuration error: key 'seed': must be >= 0\n"

    def test_sweep_names_the_key(self, capsys):
        path = str(self.CONFIGS / "nosignal_isometry.cfg")
        err = self._err(capsys, ["sweep", path, "--grid", "seed=-2:1:1"])
        assert err == "configuration error: key 'seed': must be >= 0\n"

    def test_verify_names_the_flag(self, capsys):
        err = self._err(capsys, ["verify", "--seed", "-1"])
        assert err.startswith("configuration error: --seed")


class TestArgvReader:
    """The command line is read by one table-driven reader: any misuse exits
    2 with one stderr line before any work, ``--help`` prints the usage."""

    CUBE = ["overlap.a=0:1:0.1", "overlap.b=0:1:0.1", "overlap.c=0:1:0.1"]
    SEE = "; see qclonelab --help\n"

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        monkeypatch.setattr(cli, "run_configs", _never)
        monkeypatch.setattr(cli, "run_all_checks", _never)

    @pytest.mark.parametrize(
        "argv, err",
        [
            ([], "usage error: no command given" + SEE),
            (["wat", "CFG", "--out", "OUT"], "usage error: unknown command 'wat'" + SEE),
            (["run", "--out", "OUT"], "usage error: run takes one config path, got 0" + SEE),
            (["sweep", "--grid", *CUBE, "--out", "OUT"],
             "usage error: sweep takes one config path, got 0" + SEE),
            (["verify", "CFG", "--out", "OUT"],
             "usage error: verify takes no config path, got 1" + SEE),
            (["sweep", "CFG", "--out", "OUT"],
             "usage error: sweep needs --grid with at least one KEY=LO:HI:STEP axis" + SEE),
            (["sweep", "CFG", "--grid", "--out", "OUT"],
             "usage error: sweep needs --grid with at least one KEY=LO:HI:STEP axis" + SEE),
            (["run", "CFG", "--wat", "--out", "OUT"], "usage error: run: unknown flag --wat" + SEE),
            # Argparse once expanded a unique prefix of a flag.
            (["run", "CFG", "--form", "json", "--out", "OUT"],
             "usage error: run: unknown flag --form" + SEE),
            (["run", "CFG", "--out", "OUT", "--out", "OUT"],
             "usage error: run: repeated flag --out" + SEE),
            (["run", "CFG", "--out", "OUT", "--format"],
             "usage error: run: flag --format needs a value" + SEE),
            (["sweep", "CFG", "--grid", *CUBE, "--format", "table", "--out", "OUT"],
             "usage error: sweep --format takes csv or json" + SEE),
            (["run", "CFG", "--format", "xml", "--out", "OUT"],
             "configuration error: --format xml: 'xml' is not one of ('table', 'csv', 'json')\n"),
            (["verify", "--seed", "abc", "--out", "OUT"],
             "configuration error: --seed abc is not a number\n"),
            (["verify", "--seed=2.5", "--out", "OUT"],
             "configuration error: --seed 2.5 is not a number\n"),
            (["verify", "--tolerance", "x", "--out", "OUT"],
             "configuration error: --tolerance x is not a number\n"),
        ],
        ids=["no-command", "unknown-command", "run-no-config", "sweep-no-config",
             "verify-with-config", "no-grid", "grid-without-axis", "unknown-flag",
             "flag-prefix", "repeated-flag", "flag-without-value", "sweep-table",
             "unknown-format", "seed-abc", "seed-fraction", "tolerance-x"],
    )
    def test_misuse_exits_2_with_one_line(self, tmp_path, capsys, argv, err):
        path = tmp_path / "c.cfg"
        path.write_text(CONS_TEXT)
        out = tmp_path / "out.txt"
        argv = [{"CFG": str(path), "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["sweep", "--help"],
                                      ["verify", "--seed", "abc", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (cli.USAGE, "")
        assert captured.out.startswith("usage: qclonelab run CONFIG")

    @staticmethod
    def _flags(monkeypatch, command: str, argv: list[str]) -> dict:
        """The flag values the reader hands ``command``'s handler."""
        seen = []
        entry = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command,
                            (lambda path, flags: seen.append(flags) or 0, *entry[1:]))
        assert main(argv) == 0
        return seen[0]

    def test_flag_value_after_equals_sign(self, monkeypatch):
        spaced = ["sweep", "c.cfg", "--grid", *self.CUBE, "--format", "json", "--out", "o"]
        joined = ["sweep", "--out=o", f"--grid={self.CUBE[0]}", *self.CUBE[1:], "--format=json",
                  "c.cfg"]
        expected = {"--grid": self.CUBE, "--format": "json", "--out": "o"}
        assert self._flags(monkeypatch, "sweep", spaced) == expected
        assert self._flags(monkeypatch, "sweep", joined) == expected

    def test_values_are_checked_as_their_keys(self, monkeypatch):
        flags = self._flags(monkeypatch, "verify", ["verify", "--seed", "3", "--tolerance=1e-9"])
        assert flags == {"--seed": 3, "--tolerance": 1e-9}


def test_cli_imports_neither_argparse_nor_locale(tmp_path):
    # Argparse's first use cost 2.7-3.4 ms of every cold command, 1.2-2.3 ms
    # of it gettext importing locale.
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import qclonelab.cli as cli\n"
        "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
        f"code = cli.main(['sweep', {str(root / 'configs' / 'conservation_violation.cfg')!r},"
        f" '--grid', *{TestArgvReader.CUBE!r}, '--out', {str(tmp_path / 's.csv')!r}])\n"
        "print(code, sorted(m for m in ('argparse', 'locale') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == "[]\n1 []\n"


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_closed_stdout_pipe_exits_2_with_one_output_line():
    # Piped into `head -c 10`, the cube sweep once said "configuration error:
    # [Errno 32] Broken pipe", and the flush at exit could add a second line.
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "qclonelab.cli", "sweep",
            str(_CONFIGS / "conservation_violation.cfg"), "--grid", *TestArgvReader.CUBE]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b"kind,confi"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 2
    assert err.startswith("output error: stdout") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_closed_out_fifo_names_out(tmp_path, capsys):
    # A reader of an --out FIFO that leaves after 10 bytes once gave "stdout
    # was closed", though stdout was never written.
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)

    def read_ten():
        with open(fifo, "rb") as fh:
            got.append(fh.read(10))

    reader = threading.Thread(target=read_ten, daemon=True)
    reader.start()
    code = main(["sweep", str(_CONFIGS / "conservation_violation.cfg"), "--grid",
                 *TestArgvReader.CUBE, "--out", str(fifo)])
    reader.join(timeout=10)  # a daemon, left blocked if the command never opened the FIFO
    assert got == [b"kind,confi"] and code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"output error: --out {fifo} was closed before all output was written\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("target", ["stdout", "stdout-unbuffered", "--out"])
@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
def test_full_device_is_one_output_error(command, target):
    # A write that fails on a full disk once said "configuration error:
    # [Errno 28] No space left on device", though the config was fine.
    root = Path(__file__).resolve().parents[1]
    violation = str(_CONFIGS / "conservation_violation.cfg")
    argv = {
        "run": ["run", violation],
        "sweep": ["sweep", violation, "--grid", "overlap.a=0:1:0.5", "--format", "json"],
        "verify": ["verify", "--seed", "7"],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    if target == "stdout-unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    if target == "--out":
        argv += ["--out", "/dev/full"]
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "qclonelab.cli", *argv], env=env,
                              stdout=full if target != "--out" else subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "output error: [Errno 28] No space left on device\n"


def test_no_command_imports_numpy_ma(tmp_path):
    # One import audit of the commands that render no JSON.  Importing
    # numpy.ma, as np.unique of integers may, cost 15-17 ms: more than a
    # whole cold cube sweep; json, which only a JSON rendering needs, 1-2 ms;
    # dataclasses, which numpy does not load, 1-2 ms, and its decorators
    # another 6-8 ms of generated code.
    root = Path(__file__).resolve().parents[1]
    commands = [
        ["sweep", str(_CONFIGS / "conservation_violation.cfg"), "--grid", *TestArgvReader.CUBE],
        ["sweep", str(_CONFIGS / "nosignal_isometry.cfg"),
         "--grid", "seed=1:3:1", "basis2.theta=0:3:0.5"],
        ["sweep", str(_CONFIGS / "nosignal_wishful.cfg"), "--grid", "basis2.theta=0:3.1:0.1"],
        ["sweep", str(_CONFIGS / "gram_equivalence.cfg"), "--grid", "seed=0:4:1"],
        ["run", str(_CONFIGS / "nosignal_wishful.cfg")],
        ["verify", "--seed", "7"],
    ]
    script = (
        "import sys\n"
        "import qclonelab.cli as cli\n"
        f"for k, argv in enumerate({commands!r}):\n"
        f"    cli.main([*argv, '--out', {str(tmp_path)!r} + '/' + str(k)])\n"
        "print(sorted({'numpy.ma', 'json', 'dataclasses'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout == "[]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [str(k) for k in range(len(commands))]
