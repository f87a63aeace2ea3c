import json
import math
import os
from decimal import Decimal
from pathlib import Path

import pytest

from qclonelab import config
from qclonelab.cli import main
from qclonelab.scenarios import run_config, run_configs
from qclonelab.config import (
    ConfigError,
    grid_points,
    parse_config_text,
    parse_grid_axis,
)
from qclonelab.report import Verdict, format_scalar

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


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = parse_config_text(CONS_TEXT)
        assert cfg.kind == "conservation"
        assert cfg.get("machine.ancilla_dim") == 4
        assert cfg.get("tolerance.assert") == 1e-10
        assert cfg.get("branch.weight") == 0.5

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

    def test_shorthand_conflict_rejected(self):
        cfg = parse_config_text(
            "kind = nosignal\nbasis2.theta = 0.5\nbasis2.psi.theta = 0.2\n"
        )
        with pytest.raises(ConfigError, match="conflicts"):
            grid_points(cfg).basis_angles("basis2")

    def test_cross_outputs_key_rejected(self):
        with pytest.raises(ConfigError, match="machine.cross_outputs"):
            parse_config_text(NOSIG_TEXT + "machine.cross_outputs = passthrough\n")

    def test_env_default_override(self):
        cfg = parse_config_text(NOSIG_TEXT, {"tolerance.assert": 1e-6})
        assert cfg.get("tolerance.assert") == 1e-6
        explicit = parse_config_text(
            NOSIG_TEXT + "tolerance.assert = 1e-4\n", {"tolerance.assert": 1e-6}
        )
        assert explicit.get("tolerance.assert") == 1e-4


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

    def test_single_point_grid_matches_run(self):
        cfg = parse_config_text(CONS_TEXT)
        grid = grid_points(cfg, ["overlap.a=0.6:0.6:1"])
        assert len(grid) == 1
        assert run_configs(grid).scalars == run_config(cfg).scalars

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
        with pytest.raises(ConfigError, match="collide"):
            parse_grid_axis("overlap.a=0:1e-12:1e-13")

    def test_repeated_axis_key_rejected(self):
        # The second axis once replaced the first, emitting 6 rows with repeats.
        cfg = parse_config_text(CONS_TEXT)
        with pytest.raises(ConfigError, match="'overlap.a' repeats"):
            grid_points(cfg, ["overlap.a=0:1:0.5", "overlap.a=0:1:1"])

    @pytest.mark.parametrize("key", ["seed", "machine.ancilla_dim"])
    def test_fractional_integer_override_rejected(self, key):
        cfg = parse_config_text(CONS_TEXT)
        with pytest.raises(ConfigError, match=f"'{key}': 2.5 is not an integer"):
            cfg.with_overrides({key: 2.5})
        assert cfg.with_overrides({key: 3.0}).get(key) == 3

    @pytest.mark.parametrize(
        "config, axes",
        [
            # Seeds 1, 1, 2, 2, 3 and ancilla dimensions 2, 2, 3 once ran
            # and exited 0.
            ("gram_equivalence", ["seed=1:3:0.5"]),
            ("conservation_violation", ["machine.ancilla_dim=2:3:0.5"]),
            ("conservation_violation", ["overlap.a=0:1e-12:1e-13"]),
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
        built = []
        with_overrides = type(cfg).with_overrides

        def counted(self, overrides):
            built.append(overrides)
            return with_overrides(self, overrides)

        monkeypatch.setattr(type(cfg), "with_overrides", counted)
        grid = grid_points(cfg, ["overlap.a=0:1:0.5", "overlap.b=0:1:1"])
        assert len(grid) == 6
        assert built == [{"overlap.a": 0.0}, {"overlap.a": 0.5}, {"overlap.a": 1.0},
                         {"overlap.b": 0.0}, {"overlap.b": 1.0}]

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
        cfg = parse_config_text(CONS_TEXT)
        with pytest.raises(ConfigError, match="overlap.c_phase"):
            cfg.with_overrides({"overlap.c_phase": float("nan")})


class TestReport:
    def test_scalar_formatting(self):
        assert format_scalar(0.65) == "6.50000000000e-01"
        assert format_scalar(-0.0) == "0.00000000000e+00"
        assert format_scalar(1e-12) == "1.00000000000e-12"

    def test_json_roundtrip_field_for_field(self):
        report = run_config(parse_config_text(CONS_TEXT))
        parsed = parse_report(report.render("json"))
        assert (parsed.kind, parsed.config) == (report.kind, report.config)
        for field in ("scalars", "matrices", "verdicts"):
            assert sorted(getattr(parsed, field)) == sorted(getattr(report, field))
        assert parsed.render("json") == report.render("json")

    def test_verdict_pass_iff_deviation_below_tolerance(self):
        assert Verdict("x", 1e-13, 1e-12).passed
        assert not Verdict("x", 1e-11, 1e-12).passed

    def test_csv_columns_stable(self):
        rep = run_config(parse_config_text(CONS_TEXT))
        header, row = (line.split(",") for line in rep.render("csv").splitlines())
        assert header[0] == "kind"
        assert len(header) == len(row)
        assert "delta_lambda" in header

    def test_deterministic_rendering(self):
        cfg = parse_config_text(CONS_TEXT)
        assert run_config(cfg).render("table") == run_config(cfg).render("table")


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
