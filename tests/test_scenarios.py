"""The scenario layer behind ``run`` and ``sweep``: pinned report bytes,
documented exit codes, and one evaluation of each scenario quantity."""

import ast
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qclonelab.cli as cli
import qclonelab.core as core
import qclonelab.nosignal as nosig
import qclonelab.scenarios as scenarios
from qclonelab.cli import main
from qclonelab.config import grid_points, load_config
from qclonelab.conservation import roundtrip_draws, roundtrips

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# sha256 of `run` on each shipped config.  The reports are byte-identical to
# those of the runners' earlier home in cli.py, except that nosignal reports
# no longer echo the removed `machine.cross_outputs` key.
RUN_PINNED = {
    ("conservation_consistent", "table"):
        "f6111f872ade0a45dcd924337de8a5a681a7cd75c218ea4d6666625f3bd81317",
    ("conservation_consistent", "csv"):
        "91843fb1afa220f079a5acc76b4c99b2cd47cc02fa10ea9a7073b689517d94fb",
    ("conservation_consistent", "json"):
        "fcf763f2d91c28fdc326188662952f41620cd561f61f48c0e877346f255bddc6",
    ("conservation_violation", "table"):
        "1b69980a6521d8a787b0ede15123be40edb7509b457fedf290a95fa12bb11824",
    ("conservation_violation", "csv"):
        "b828da7b7d3080d1abb5da81d0306e6e0d625f66fd2dc8a61cb945d90bf05ad9",
    ("conservation_violation", "json"):
        "f15de793a67e2ebf8fc42bcdbd67aeb938bbfe47c932deaa6c9caba19951515d",
    ("gram_equivalence", "table"):
        "a203aa741178825013bcf37e1b23b7d88b8a64409e7d87ce89f52dc0da77de22",
    ("gram_equivalence", "csv"):
        "2f90eab74aad644b8c88b49873a9bf09f6bf453dee20bbc6f0e156342791828d",
    ("gram_equivalence", "json"):
        "90f2bfd801c4be42241e2e559ae2329d257ccb151f45d72c50afd3e11846c7bc",
    ("nosignal_isometry", "table"):
        "761255119347217d8d74d1dcaeed9dda423a25b0031e04b614959f16d9eac77e",
    ("nosignal_isometry", "csv"):
        "79fedc42a8855b04804c038fd1bfa3de534187f3752ffe4a76316af9b37c4119",
    ("nosignal_isometry", "json"):
        "5b9089dc518782338c82e038b8b3568f1344eaf3939aa51f0bc26cb7ea0fc0db",
    ("nosignal_wishful", "table"):
        "c837ae73bf351c6b09567e913c3fcdafedbec03f045534ecaf80ff067e66c985",
    ("nosignal_wishful", "csv"):
        "04230d36d1ff715db91f5de6bed8fff47be0077c639b722375c9fd8efc52e4c3",
    ("nosignal_wishful", "json"):
        "570ae382409572e8341b0beebdb346c70964393d3a54dcffe043365543cb22fc",
}
# The demonstration configs exit 1 on purpose: the failing verdict is the
# phenomenon.
RUN_EXIT = {
    "conservation_consistent": 0,
    "conservation_violation": 1,
    "gram_equivalence": 0,
    "nosignal_isometry": 0,
    "nosignal_wishful": 1,
}

SWEEP_PINNED = [
    pytest.param("nosignal_wishful", 1,
                 "44e984f8a40ff891358213a74bea78b3622652eea9911e988089dc206fda6af9",
                 id="wishful"),
    pytest.param("nosignal_isometry", 0,
                 "bcea2a4caacabb64d9c942a05d4af68e765683137a08e4f3d830273a34ff4b9d",
                 id="isometry"),
]

VERIFY_SEED7 = "7740cbd4c9c338b281d00b7ec8dd514205014a908e533b4139e47eea90cf3814"
# `verify` on more seeds: 1 and 501 taken from the per-point nosignal and
# Gram-boundary checks that the batched kernel replaced; 2-10 and 200-209
# from the per-trial isometry loops that the stacked machine layer replaced.
VERIFY_PINNED = {
    1: "19da2c3ac882225452ddc5dff0c6ce199eac94b8102343fcf2ee07dfeed72c41",
    501: "90436e2ef3749437517cbebff229e60f4c2c4e1f53efa47e3c01fe03005f875a",
    2: "4a312a6d7a737a74e6b179c24ab07fb0cb53ded308ac2c09bb33f9d80a7d3be2",
    3: "8b5bf32fe1766414a8fb9839b94cccac12917d8287a19a2f4a4130996d3327d0",
    4: "2ae0f009c8e4f967e9ad2fb2f7720b2f48eccf6cf19d54c464cdd6badf673c6b",
    5: "9e6685bbda413c6fbd3e87393290b69f742a0b29c906705e60c4fff14be0710a",
    6: "d2e7dc03f28e306fa1ca7cca95c6d02bd1e2d51e85bdf31681100a1e78b52d6f",
    7: "7740cbd4c9c338b281d00b7ec8dd514205014a908e533b4139e47eea90cf3814",
    8: "460ca40df5def0b616d8f9d68b325128d2e3973a771561bd3b4d8d0683269d91",
    9: "567a0a4fe4b922a7ef0c009e86deff3371129847cd9d432777600c7efa8f2d95",
    10: "bfcb9e123630faa999717ac6e0c902d44c6a5ed4c08d486dd76d7a112c2bc58d",
    200: "e9fcb1c76c19f620f6ed1a4cdd8d4622e8c0a77f979031a1beffeaa2e9363ed2",
    201: "14e6ac4e2bc79fd34fd412f8fe56bd7fc530d7bc0c287d855574d7d2fec64e15",
    202: "6ec432c6a3cbb707c8a4f3443a3730805471d76cf77a2e0aee3d6dd4c876da1f",
    203: "f4e1fb8c999df1fafc58376bd29656680b76b04c04dc4f0d383a5c7c94529c99",
    204: "63026cf5593bd3759134dae6d7bdbddd03208ef850ec81db67e3c113fa2bd046",
    205: "a7bab2c10205b3745a6e27f15dc9680982c43ebfe36d7a77a0c19f0a0cc5b99b",
    206: "c5f2f4f664f00bc96d93b1d95e3845d49c7b3e77785030072d362d017ba2fca7",
    207: "9590fe7be459fed1c419f40af7960687a1b3bf7492809acea22f369ffddaf6df",
    208: "349c7f2ec71d2266185413c15e77a1abb778472523ce86e2183ee0a76e67fabd",
    209: "e020e508b0c64fc5c5d37ffa1f72390ed2bf0eaef97c26596268c572ff7e26fe",
}

PI = "3.141592653589793"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, fmt", sorted(RUN_PINNED))
def test_run_bytes_pinned(tmp_path, name, fmt):
    out = tmp_path / f"report.{fmt}"
    code = main(["run", str(CONFIGS / f"{name}.cfg"), "--format", fmt, "--out", str(out)])
    assert code == RUN_EXIT[name]
    assert _sha256(out) == RUN_PINNED[(name, fmt)]


@pytest.mark.parametrize("name, exit_code, digest", SWEEP_PINNED)
def test_nosignal_sweep_bytes_pinned(tmp_path, name, exit_code, digest):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", str(CONFIGS / f"{name}.cfg"), "--grid", "basis2.theta=0:3.1:0.1",
        "--out", str(out),
    ])
    assert code == exit_code
    assert _sha256(out) == digest


def test_verify_bytes_pinned(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "7", "--out", str(out)]) == 0
    assert _sha256(out) == VERIFY_SEED7


@pytest.mark.parametrize("seed", sorted(VERIFY_PINNED))
def test_verify_more_seeds_bytes_pinned(tmp_path, seed):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    assert _sha256(out) == VERIFY_PINNED[seed]


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "s.cfg"
    path.write_text(text)
    return str(path)


def _one_line(err: str, prefix: str) -> None:
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


class TestExitCodes:
    def test_0_every_verdict_passes(self, tmp_path):
        out = str(tmp_path / "r.txt")
        assert main(["run", str(CONFIGS / "nosignal_isometry.cfg"), "--out", out]) == 0

    def test_1_verdict_fails(self, tmp_path):
        out = str(tmp_path / "r.txt")
        assert main(["run", str(CONFIGS / "nosignal_wishful.cfg"), "--out", out]) == 1

    def test_2_bad_tolerance_variable_for_verify(self, monkeypatch, capsys):
        monkeypatch.setenv("QCLONELAB_TOL", "abc")
        assert main(["verify", "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line(captured.err, "configuration error:")
        assert "QCLONELAB_TOL" in captured.err

    @pytest.mark.parametrize(
        "bases",
        [
            f"basis1.theta = 0.0\nbasis2.theta = {PI}\n",
            f"basis1.theta = 0\nbasis2.psi.theta = 0\nbasis2.alpha.theta = {PI}\n",
        ],
        ids=["basis2-theta-pi", "basis2-alpha-theta-pi"],
    )
    def test_2_conflicting_wishful_rules(self, tmp_path, capsys, bases):
        # The two bases' rule sets take one product state, up to phase, to
        # different clones: no termwise reading exists.
        assert main(["run", _write(tmp_path, "kind = nosignal\n" + bases)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line(captured.err, "rejected input: ConflictingRules:")

    def test_2_allocation_failure(self, tmp_path):
        # machine.ancilla_dim = 100000 passes parsing, then asks for Bob's
        # 400000 x 400000 marginals: 4.66 TiB.  The child's address space is
        # capped, so the allocation fails before any of it is touched,
        # whatever the host's overcommit policy.
        limit = 1 << 30

        def capped():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        text = "kind = nosignal\nbasis1.theta = 0.0\nbasis2.theta = 0.5\n"
        path = _write(tmp_path, text + "machine.ancilla_dim = 100000\n")
        threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env = {**os.environ, **threads, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "qclonelab.cli", "run", path],
            env=env, preexec_fn=capped, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2 and done.stdout == ""
        _one_line(done.stderr, "input too large: MemoryError: Unable to allocate")

    def test_3_numerical_failure(self, monkeypatch, capsys):
        def tripped(cfg):
            raise ArithmeticError("eigendecomposition residual 0.5 exceeds 1e-12")

        monkeypatch.setattr(cli, "run_config", tripped)
        assert main(["run", str(CONFIGS / "conservation_consistent.cfg")]) == 3
        _one_line(capsys.readouterr().err, "numerical failure: ArithmeticError:")


class TestSweepGuardsNameGridPoints:
    """A sweep evaluates its points in groups (one per machine mode, ancilla
    dimension and assertion tolerance) and a nosignal group in chunks; a
    guard error names the failing point's index on the whole grid."""

    # At basis1.psi.theta = pi - 1 with phi = pi, basis 1's psi is basis 2's
    # psibar up to a sign, and the two rule sets clone it differently.
    CONFLICT = (
        "kind = nosignal\nbasis1.alpha.theta = 0.0\n"
        f"basis1.psi.phi = {PI}\nbasis2.psi.theta = 1.0\nbasis2.alpha.theta = 0.0\n"
    )

    def _sweep_error(self, tmp_path, capsys, *grid) -> str:
        assert main(["sweep", _write(tmp_path, self.CONFLICT), "--grid", *grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line(captured.err, "rejected input: ConflictingRules:")
        return captured.err

    def test_point_behind_another_group(self, tmp_path, capsys):
        # Ancilla dimensions alternate, so grid point 4 is index 2 of its group.
        err = self._sweep_error(
            tmp_path, capsys,
            "basis1.psi.theta=2.04159265359:2.14159265359:0.05", "machine.ancilla_dim=2:3:1",
        )
        assert err.endswith(" at grid point 4\n")

    def test_point_beyond_the_first_chunk(self, tmp_path, capsys):
        # 21 points per group; at ancilla dimension 4 a chunk holds 16, so
        # grid point 40 is index 4 of its group's second chunk.
        assert core.CHUNK_ENTRIES // 16**2 == 16
        err = self._sweep_error(
            tmp_path, capsys,
            "basis1.psi.theta=1.94159265359:2.14159265359:0.01", "machine.ancilla_dim=4:5:1",
        )
        assert err.endswith(" at grid point 40\n")

    def test_single_point_group_is_named(self, tmp_path, capsys):
        # One point per ancilla dimension: each group is a batch of one,
        # whose guards name no index.
        err = self._sweep_error(
            tmp_path, capsys, "machine.ancilla_dim=2:3:1", "basis1.psi.theta=2.14159265359:2.2:1",
        )
        assert err.endswith(" at grid point 0\n")

    def test_run_message_names_no_point(self, tmp_path, capsys):
        text = self.CONFLICT + "basis1.psi.theta = 2.14159265359\n"
        assert main(["run", _write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        _one_line(err, "rejected input: ConflictingRules:")
        assert "point" not in err and "batch index" not in err


BAD_TOLERANCES = ["nan", "inf", "-1", "0"]


class TestToleranceRange:
    """A NaN, infinite or non-positive tolerance is a configuration error
    (exit 2), not a verdict that passes or fails regardless of the physics."""

    @pytest.mark.parametrize("key", ["tolerance.assert", "tolerance.residual"])
    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    def test_config_key(self, tmp_path, capsys, key, value):
        text = (CONFIGS / "conservation_consistent.cfg").read_text() + f"{key} = {value}\n"
        assert main(["run", _write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line(captured.err, "configuration error:")
        assert key in captured.err

    def test_swept_tolerance(self, capsys):
        code = main([
            "sweep", str(CONFIGS / "nosignal_isometry.cfg"),
            "--grid", "tolerance.assert=0:1e-10:1e-10",
        ])
        assert code == 2
        _one_line(capsys.readouterr().err, "configuration error:")

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_environment_variable(self, monkeypatch, capsys, command, value):
        monkeypatch.setenv("QCLONELAB_TOL", value)
        argv = ["verify", "--seed", "7"] if command == "verify" else [
            "run", str(CONFIGS / "nosignal_isometry.cfg")
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line(captured.err, "configuration error:")
        assert "QCLONELAB_TOL" in captured.err

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    def test_verify_flag(self, capsys, value):
        assert main(["verify", "--seed", "7", "--tolerance", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line(captured.err, "configuration error:")
        assert "--tolerance" in captured.err


class TestWishfulRulesUpToPhase:
    def test_equal_bases_up_to_phase_do_not_signal(self, tmp_path, capsys):
        # At theta = pi the azimuth only rephases the basis states, so the
        # two bases' rules agree once phases are folded into the outputs.
        text = f"kind = nosignal\nbasis1.theta = {PI}\nbasis2.theta = {PI}\nbasis2.phi = 1\n"
        assert main(["run", _write(tmp_path, text), "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        magnitude = float(row.split(",")[header.split(",").index("signalling_magnitude")])
        assert magnitude < 1e-12

    def test_equal_bases_do_not_signal(self, tmp_path, capsys):
        text = "kind = nosignal\nbasis1.theta = 0.7\nbasis2.theta = 0.7\n"
        assert main(["run", _write(tmp_path, text)]) == 0
        assert "signalling_magnitude = 0.00000000000e+00" in capsys.readouterr().out


class TestOneEvaluationPerQuantity:
    def test_cli_imports_no_physics_module(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        physics = {"core", "states", "machines", "nosignal", "conservation", "numpy"}
        assert not {name.rpartition(".")[2] for name in imported} & physics

    @pytest.mark.parametrize("name", ["nosignal_wishful", "nosignal_isometry"])
    def test_nosignal_point_builds_and_diagonalizes_once(self, monkeypatch, name):
        # A whole nosignal batch is one kernel call: one pre-machine stage,
        # and per chunk of points one stacked spectrum of the Bob marginals
        # and one of their differences; no per-point eigensolve.
        keys = ("evaluate_batch", "premachine", "eig_hermitian_batch", "eig_hermitian")
        calls = dict.fromkeys(keys, 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key in ("evaluate_batch", "premachine", "eig_hermitian_batch"):
            monkeypatch.setattr(nosig, key, counted(key, getattr(nosig, key)))
        # The differences' spectrum is taken inside core.trace_distances.
        for key in ("eig_hermitian_batch", "eig_hermitian"):
            monkeypatch.setattr(core, key, counted(key, getattr(core, key)))
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        report = scenarios.run_config(cfg)
        assert calls == dict(zip(keys, (1, 1, 2, 0)))
        assert report.scalars["premachine_deviation_from_maximally_mixed"] < 1e-12

        calls.update(dict.fromkeys(calls, 0))
        reports = scenarios.run_configs(grid_points(cfg, ["basis2.theta=0:3.1:0.1"]))
        assert len(reports) == 32
        chunks = -(-32 // max(1, core.CHUNK_ENTRIES // 16**2))  # 16x16 Bob marginals
        assert calls == dict(zip(keys, (1, 1, 2 * chunks, 0)))


def _roundtrip(dim, target_dim, size, seed):
    family, draw = roundtrip_draws(dim, target_dim, size, np.random.default_rng(seed))
    return family, *roundtrips(family[None], draw[None])


class TestEquivalenceRoundtrip:
    def test_rectangular_roundtrip(self):
        family, moved, found = _roundtrip(3, 5, 4, 5)
        assert family.shape == (4, 3) and moved.shape == (1, 4, 5)
        assert found.isometries.shape == (1, 5, 3)
        assert found.member_residual[0] < 1e-12
        assert found.isometry_residual[0] < 1e-12

    def test_gram_equivalence_report_reads_the_roundtrip(self):
        # configs/gram_equivalence.cfg: dimension 6, four members, seed 3.
        report = scenarios.run_config(load_config(str(CONFIGS / "gram_equivalence.cfg")))
        _, _, found = _roundtrip(6, 6, 4, 3)
        assert report.scalars["gram_deviation"] == found.gram_deviation[0]
        assert report.scalars["member_reconstruction_residual"] == found.member_residual[0]
        assert report.scalars["isometry_residual"] == found.isometry_residual[0]
