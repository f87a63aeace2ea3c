"""The scenario layer behind ``run`` and ``sweep``: pinned report bytes,
documented exit codes, and one evaluation of each scenario quantity."""

import ast
import csv
import hashlib
import io
import os
import re
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
from qclonelab.config import grid_points, load_config, parse_config_text
from qclonelab.conservation import roundtrip_normals, roundtrips
from qclonelab.machines import haar_isometries

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# sha256 of `run` on each shipped config.  The reports are byte-identical to
# those of the runners' earlier home in cli.py, except that nosignal reports
# no longer echo the removed `machine.cross_outputs` key.  The isometric
# nosignal digests here, in SWEEP_PINNED and in every `verify` pin moved
# with the low-rank spectra, in the rounding-level signalling magnitude only
# (see the masked pins below).
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
        "9403da3b2e1123f3ff7a66bfcbd8c028f7bdea16f617ae339a662c1888fe966a",
    ("nosignal_isometry", "csv"):
        "73fcd97b33dfa11d5b9bd371c4a8af13078c83ebcbf02b1d52d5488b617e8fe1",
    ("nosignal_isometry", "json"):
        "81c0cfe73922ddfe4a8560523f4d7967efb6518ae0052d245c59e79101b8dbb4",
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
                 "8b73bf9a44d3e9d484d97d3c67d60e8e3a620f9278f6db1e49a743a9584cca05",
                 id="isometry"),
]

# Sweeps over the keys that split nosignal points into batches: the ancilla
# dimension in both machine modes (252 rows) and the wishful cloner's
# assertion tolerance (630 rows), each against basis 2's theta.
_DIM_THETA = ("machine.ancilla_dim=2:8:2", "basis2.theta=0:3.1:0.05")
_TOL_THETA = ("tolerance.assert=1e-11:2e-9:2e-10", "basis2.theta=0:3.1:0.05")
BATCHED_SWEEP_PINNED = [
    pytest.param("nosignal_wishful", _DIM_THETA, "csv", 1,
                 "04f450587067fe0ff64e81f5a9b203eba9d210fedccf2f1afb6ecb4b5482cfe6",
                 id="wishful-dim-csv"),
    pytest.param("nosignal_wishful", _DIM_THETA, "json", 1,
                 "f4060eb545404ad61278ea8d076fadce6ffb6dde105fef4178d575d428419436",
                 id="wishful-dim-json"),
    pytest.param("nosignal_isometry", _DIM_THETA, "csv", 0,
                 "1240df369b60ce91e2a8bbcb57c2315e3f4bfcfed14e04c56976914827f9abd0",
                 id="isometry-dim-csv"),
    pytest.param("nosignal_isometry", _DIM_THETA, "json", 0,
                 "308bbccec49a7ea4296d263663596806eba26232f8b1a4f135e3f8874d8174ad",
                 id="isometry-dim-json"),
    pytest.param("nosignal_wishful", _TOL_THETA, "csv", 1,
                 "763980948d5ce1987e0a0474c346de0cde75868e16531a697990436664213c9c",
                 id="wishful-tol-csv"),
    pytest.param("nosignal_wishful", _TOL_THETA, "json", 1,
                 "bb677875c6c9815cd73555356349231704de5f56d1f01cda3e0effe90eb53c40",
                 id="wishful-tol-json"),
]

VERIFY_SEED7 = "6fc9561161dac3b352ecdf8d147613e65e6d727ffae3e3ab2d0435d2fe55e17e"
# `verify` on more seeds: 1 and 501 taken from the per-point nosignal and
# Gram-boundary checks that the batched kernel replaced; 2-10 and 200-209
# from the per-trial isometry loops that the stacked machine layer replaced.
VERIFY_PINNED = {
    1: "44b97df2d40d57b0c80af930a0b18450a6222de6f75b064188d1703b079b0bc2",
    501: "7e9219824c3bfafcab5dffe5ac24037a735b9832fca6a4e42de1e6ea8b84d28c",
    2: "309cdf4d4a403dcde4c232b6a026641b4963253a1a18ffb4699c0ccf1896fd36",
    3: "d75d92e7dc4fdf7a78724d4e25f8d20e23110a1d06bba7d6645b40bf410b4877",
    4: "4899429fad839d5f11bf610e453e51436e7e5c24fa245754d0f804da8b7da770",
    5: "08f0598a0be8c83cec9978956b88a08bbea2296f1ed5d5351ebef2b3a8f6e0d1",
    6: "fccb8492fa39337a3eef3e945d7b7df7c7cf872f551cfde16368c6efc74dbf9b",
    7: "6fc9561161dac3b352ecdf8d147613e65e6d727ffae3e3ab2d0435d2fe55e17e",
    8: "46cad276c9d2d98bf8c04acd4307f6a39cb4eb6bf77dc6e7569ad7e6272dc2fa",
    9: "ae3987e3a004a7a2f175cd2e398ebcac6f6b7a3d905bf2f9c35f2a8c038cd356",
    10: "3a3a87678946939471142395964e96a0d836414fd1be2521411ed5988b4b7d82",
    200: "547fce45ed600bd458d0533cbe3190b4771bfd1c3628e907d13932a9c405e0d9",
    201: "641e190f354dec25295582a5847e4e51f24f781c3478873d9a1e33e595306ee5",
    202: "f052ef60cea3e0a952380392715549f95997b90da38fbd2383aabf73f48e7575",
    203: "5f6fe9047467f8f97003633ddf7688e438e6413f5f5709f5d57478a3125f77c7",
    204: "c7230e8852a1d6c23773ae58e10f122c7cf05b089d63d165f9629d8a7303f04c",
    205: "b0dacd4e1eb36257166a56b0d82c543949d49e89365420624308eb740e96c41b",
    206: "ad3fdcab65061bb6f461d0f64efd3c2b751320f53261eabb665edb9977ec5753",
    207: "7480fed2dcde680991ad2a9373c664f87a93a921274efedb08f70f9eab2103d5",
    208: "dbe3b5c06896c44499aa9ea18c996f3172ce8008df45d124ad339e066f8c9526",
    209: "75f22e0576f2987b14959b8788fc41067bda5ba07d4339106e2d1ca866f06c70",
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


@pytest.mark.parametrize("name, grid, fmt, exit_code, digest", BATCHED_SWEEP_PINNED)
def test_sweep_over_nosignal_batch_keys_pinned(tmp_path, name, grid, fmt, exit_code, digest):
    out = tmp_path / f"sweep.{fmt}"
    code = main([
        "sweep", str(CONFIGS / f"{name}.cfg"), "--grid", *grid, "--format", fmt,
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


# An isometric machine's signalling magnitude is a rounding residual (about
# 1e-16): its digits follow the order of the arithmetic that forms it, and
# they are the only bytes a change of that order may move.  These pins hash
# every other byte: `verify` without the isometric check's line, and the
# isometric reports and sweep with the magnitude fields blanked.  Every value
# they leave out must stay below MOVED_BOUND.
MOVED_BOUND = 1e-15
_ISOMETRIC_CHECK = " nosignal.isometric_machine_zero_signalling deviation="
_MAGNITUDE_CELLS = ("signalling_magnitude", "verdict.no_signalling.deviation")
_MAGNITUDE_FIELDS = (
    re.compile(r"(?<=^signalling_magnitude = )\S+$", re.M),
    re.compile(r"(?<= no_signalling deviation=)\S+"),
    re.compile(r'(?<="signalling_magnitude": ")[^"]+'),
    re.compile(r'(?<="deviation": ")[^"]+(?=",\s+"name": "no_signalling")'),
)

VERIFY_MASKED = {
    1: "47ab786b5029b2601f2fde3f5baf7f59c0a7b7e2cb8db4436eca61440c81b261",
    2: "483f520f894100418cf6241d3186cdc329b2cc5735ef9f5900719d0ba830f878",
    3: "1204617ccc7389b0c7bfe82873745fab0dfa30671821dd044b6be3de209e9d17",
    4: "2fe63d7e281980f09af1f79e6710541eaac3255e7c197a33c4c8920d84d24ad9",
    5: "51db8eb14b2cb98739b8e7fb25258fc9608e9675f91b7cb1ade1cabdac475b44",
    6: "e63af379c1a52be51ce5e80d7ed2c2752bb9cae61817cf14c18d7981f6086833",
    7: "833c75bc910c65159e9167bdaa42067fe9cad2dcd45e9f6e90afe2d14d2e2ee2",
    8: "c43799cff20b9ac165852bef9c80039d0f30bfe1a46e23271a660a7d363b8633",
    9: "7188863498aeb1faeb39b2962cff0a7ddf3851a226bd2735f72ef31cdeedcf1b",
    10: "84de21eae332e9cb7519f114be7538e72189a1805d01fab2490aac8c377814eb",
    200: "60e103325b907a65dcdf1f9e978bcfd0a662ec34087f83f81b98eccdf2f99177",
    201: "908a8c994d56b0a491c55a12b8f54419548774ee95b70519fd825dbb4e16a720",
    202: "86b79348cd933ee4b4b97d51982b6732b674541fce4721aeafc1492d7a9f5e31",
    203: "1014b1b90b9c93a64120a7070995f27d13f483b76537c279e88617d74647741b",
    204: "aac6cd01368c9110b5daed25a9e253adddae14f611a1a1eb44e18319d06f54dc",
    205: "4ab75d4b0258f1c8f1404d8f3d94e31e504672d6513cc36fb34c47174f411b20",
    206: "a66a6b57c046a70d736af9f8ee840de01c34c33315bbf4a0b499a2d09b0c0336",
    207: "f6e968af61e4ff2ff3487d3d61acfc248016a70ec2801eff4c1d10c15c585f36",
    208: "e28439726b4d9324b3ba034555fb58857f4dfeabace3e863560289d73bbefacb",
    209: "7b4b5126ec6cac5746d6f06f1555c7173c086725c33e551ae022a921a30ccaac",
    501: "64a8c7c6f32db05ef9c306acb819b8d638c35c01d05442a53637d06b5d2325a8",
}
RUN_ISOMETRY_MASKED = {
    "table": "5993ad801b8623f1e817ec1d7810d1d0c12019de299790e9ee01be4607cb29a2",
    "csv": "92004765b2900307b1e488861700f59283a244f84da2166b789acff3ebf60962",
    "json": "88fad536d71f0c5be946d910c73a866980133be62c21fc8aaaaad47b395c5081",
}
SWEEP_ISOMETRY_MASKED = "895216c8d371677afcb34de527237a4b133f5964368976f549d3bd15d779a99a"


def _without_isometric_check(text: str) -> tuple[str, list[float]]:
    """``verify`` text without the isometric check's line, and its deviation."""
    lines = text.splitlines(keepends=True)
    moved = [line for line in lines if _ISOMETRIC_CHECK in line]
    assert len(moved) == 1
    kept = "".join(line for line in lines if _ISOMETRIC_CHECK not in line)
    return kept, [float(moved[0].split("deviation=")[1].split()[0])]


def _without_magnitudes(text: str, fmt: str) -> tuple[str, list[float]]:
    """A nosignal report (table, csv or json) with its signalling magnitude
    and no-signalling deviation blanked, and the values blanked."""
    moved = []
    if fmt == "csv":
        rows = [line.split(",") for line in text.split("\n")]
        columns = [rows[0].index(name) for name in _MAGNITUDE_CELLS]
        for row in rows[1:-1]:
            for c in columns:
                moved.append(float(row[c]))
                row[c] = "*"
        return "\n".join(",".join(row) for row in rows), moved

    def blank(match) -> str:
        moved.append(float(match[0]))
        return "*"

    for field in _MAGNITUDE_FIELDS:
        text = field.sub(blank, text)
    return text, moved


def _masked_digest(masked: tuple[str, list[float]], count: int) -> str:
    """sha256 of a masked text, after checking it left out ``count`` values,
    each below MOVED_BOUND."""
    text, moved = masked
    assert len(moved) == count and max(moved) < MOVED_BOUND, moved
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(VERIFY_MASKED))
def test_verify_bytes_but_the_isometric_check_pinned(tmp_path, seed):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    masked = _without_isometric_check(out.read_text())
    assert _masked_digest(masked, 1) == VERIFY_MASKED[seed]


@pytest.mark.parametrize("fmt", sorted(RUN_ISOMETRY_MASKED))
def test_isometric_run_bytes_but_the_magnitude_pinned(tmp_path, fmt):
    out = tmp_path / f"report.{fmt}"
    code = main(["run", str(CONFIGS / "nosignal_isometry.cfg"), "--format", fmt, "--out", str(out)])
    assert code == 0
    masked = _without_magnitudes(out.read_text(), fmt)
    assert _masked_digest(masked, 2) == RUN_ISOMETRY_MASKED[fmt]


def test_isometric_sweep_bytes_but_the_magnitude_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", str(CONFIGS / "nosignal_isometry.cfg"), "--grid", "basis2.theta=0:3.1:0.1",
        "--out", str(out),
    ])
    assert code == 0
    masked = _without_magnitudes(out.read_text(), "csv")
    assert _masked_digest(masked, 2 * 32) == SWEEP_ISOMETRY_MASKED


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

    @staticmethod
    def _capped_run(tmp_path, ancilla_dim: int) -> tuple[int, str, float]:
        """``run`` of a nosignal point at ``ancilla_dim`` in a child whose
        address space is capped at 1 GiB, so that an allocation fails before
        any of it is touched, whatever the host's overcommit policy: the exit
        code, stderr and peak RSS in MB, which the child prints as its only
        stdout after the command."""
        limit = 1 << 30

        def capped():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        text = "kind = nosignal\nbasis1.theta = 0.0\nbasis2.theta = 0.5\n"
        path = _write(tmp_path, text + f"machine.ancilla_dim = {ancilla_dim}\n")
        threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env = {**os.environ, **threads, "PYTHONPATH": str(ROOT / "src")}
        script = (
            "import resource, sys\nfrom qclonelab.cli import main\ncode = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\nsys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "run", path],
            env=env, preexec_fn=capped, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stderr, float(done.stdout)

    def test_2_allocation_failure(self, tmp_path):
        # machine.ancilla_dim = 5000 is within the point bound (Bob's 2 x
        # 20000^2 marginal entries), then asks for 11.9 GiB of them, which
        # the capped child cannot allocate: the MemoryError backstop.
        code, err, _ = self._capped_run(tmp_path, 5000)
        assert code == 2
        _one_line(err, "input too large: MemoryError: Unable to allocate")

    def test_2_oversized_point_refused_before_any_work(self, tmp_path):
        # machine.ancilla_dim = 100000 would ask for Bob's 400000 x 400000
        # marginals, 4.66 TiB.  It once ran about 150 MB of work before its
        # MemoryError; grid_points now refuses it, at the import's peak RSS,
        # which a point below the key's minimum, refused on parsing, shows.
        code, err, rss = self._capped_run(tmp_path, 100000)
        assert code == 2
        _one_line(err, "configuration error: key 'machine.ancilla_dim': 100000 needs ")
        assert "more than 1073741824" in err
        _, parse_err, import_rss = self._capped_run(tmp_path, 1)
        assert parse_err.startswith("configuration error: key 'machine.ancilla_dim'")
        assert rss < import_rss + 10.0

    def test_2_allocation_failure_without_a_message(self, monkeypatch, capsys):
        # A MemoryError raised with no message once printed an empty reason:
        # "input too large: MemoryError: ".
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(nosig, "evaluate_batch", exhausted)
        assert main(["run", str(CONFIGS / "nosignal_wishful.cfg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input too large: MemoryError: out of memory\n"

    def test_3_numerical_failure(self, monkeypatch, capsys):
        def tripped(grid):
            raise ArithmeticError("eigendecomposition residual 0.5 exceeds 1e-12")

        monkeypatch.setattr(cli, "run_configs", tripped)
        assert main(["run", str(CONFIGS / "conservation_consistent.cfg")]) == 3
        _one_line(capsys.readouterr().err, "numerical failure: ArithmeticError:")


class TestSweepGuardsNameGridPoints:
    """A sweep evaluates its points in groups (one per machine mode and
    ancilla dimension) and a nosignal group in chunks; a guard error names
    the failing point's index on the whole grid."""

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

    def test_span_missing_a_state_exits_3_naming_the_point(self, monkeypatch, capsys):
        # Point 5 of the second chunk loses basis 2's first cloned-branch
        # state (outcome psi alpha) from the span of its conditioned states,
        # which then misses part of the difference of Bob's marginals.
        span, calls = nosig._span, []

        def dropping(states):
            calls.append(len(states))
            if len(calls) == 2:
                states = states.copy()
                states[5, 4] = 0.0
            return span(states)

        monkeypatch.setattr(nosig, "_span", dropping)
        wishful = str(CONFIGS / "nosignal_wishful.cfg")
        assert main(["sweep", wishful, "--grid", "basis2.theta=0.1:3.1:0.1"]) == 3
        assert calls == [16, 15]
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line(captured.err, "numerical failure: ArithmeticError:")
        assert "Frobenius norm" in captured.err
        assert captured.err.endswith(" at grid point 21\n")

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


class TestAssertionToleranceJudgesVerdictsOnly:
    """A config's ``tolerance.assert`` judges its verdicts and nothing else:
    the termwise cloner matches its rules within ``ASSERT_TOL`` whatever the
    config says.  Loosened, it once broke the machine: at 0.5 the wishful
    run exited 2 on a Bob marginal of trace 2, and at 1e-2 the theta sweep
    exited 2 at grid point 1."""

    WISHFUL = str(CONFIGS / "nosignal_wishful.cfg")

    @staticmethod
    def _csv_rows(monkeypatch, capsys, tolerance, argv) -> list[dict[str, str]]:
        if tolerance is None:
            monkeypatch.delenv("QCLONELAB_TOL", raising=False)
        else:
            monkeypatch.setenv("QCLONELAB_TOL", tolerance)
        code = main([*argv, "--format", "csv"])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        return list(csv.DictReader(io.StringIO(captured.out)))

    def test_loose_run_moves_only_the_echo_and_the_no_signalling_verdict(
        self, monkeypatch, capsys
    ):
        argv = ["run", self.WISHFUL]
        default = self._csv_rows(monkeypatch, capsys, None, argv)
        loose = self._csv_rows(monkeypatch, capsys, "0.5", argv)
        moved = ("config.tolerance.assert", "verdict.no_signalling")
        assert [loose[0][key] for key in moved] == ["0.5", "1"]
        assert [default[0][key] for key in moved] == ["1e-10", "0"]
        for row in default + loose:
            for key in moved:
                del row[key]
        assert loose == default

    def test_loose_theta_sweep_keeps_the_magnitudes(self, monkeypatch, capsys):
        argv = ["sweep", self.WISHFUL, "--grid", "basis2.theta=0:3.1:0.01"]
        default = self._csv_rows(monkeypatch, capsys, None, argv)
        loose = self._csv_rows(monkeypatch, capsys, "1e-2", argv)
        assert len(default) == 311
        magnitudes = [[row["signalling_magnitude"] for row in rows] for rows in (default, loose)]
        assert magnitudes[1] == magnitudes[0]


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
        [(report, _)] = scenarios.run_configs(grid_points(cfg))
        assert calls == dict(zip(keys, (1, 1, 2, 0)))
        assert report.scalars["premachine_deviation_from_maximally_mixed"] < 1e-12

        calls.update(dict.fromkeys(calls, 0))
        [(reports, _)] = scenarios.run_configs(grid_points(cfg, ["basis2.theta=0:3.1:0.1"]))
        assert len(reports) == 32
        chunks = -(-32 // max(1, core.CHUNK_ENTRIES // 16**2))  # 16x16 Bob marginals
        assert calls == dict(zip(keys, (1, 1, 2 * chunks, 0)))


    def test_isometric_machine_applied_once_per_chunk(self, monkeypatch):
        # Both of Alice's basis choices condition one image of the shared state.
        apply, sizes = nosig.apply_isometries, []

        def counted(mats, blocks):
            sizes.append(len(mats))
            return apply(mats, blocks)

        monkeypatch.setattr(nosig, "apply_isometries", counted)
        cfg = load_config(str(CONFIGS / "nosignal_isometry.cfg"))
        scenarios.run_configs(grid_points(cfg, ["basis2.theta=0:3.1:0.1"]))
        step = core.CHUNK_ENTRIES // 16**2  # points per chunk at ancilla_dim 4
        assert step == 16 and sizes == [16, 16]


class TestIsometriesPerDistinctSeed:
    """An isometric sweep draws and factors one Haar matrix per distinct
    seed and gathers it to the points, with the bits of a draw per point."""

    @staticmethod
    def _sweep(monkeypatch, axes, seed=11):
        rows = []

        def counted(normals, n_out, n_in):
            rows.append(len(normals))
            return haar_isometries(normals, n_out, n_in)

        monkeypatch.setattr(scenarios, "haar_isometries", counted)
        text = (CONFIGS / "nosignal_isometry.cfg").read_text()
        text = text.replace("seed = 11", f"seed = {seed}")
        grid = grid_points(parse_config_text(text), axes)
        [(report, _)] = scenarios.run_configs(grid)
        return grid, report, sum(rows)

    @staticmethod
    def _per_point(grid):
        # The draw per point that the gathered draws replace.
        dim = 4 * grid.column("machine.ancilla_dim")[0]
        rngs = map(np.random.default_rng, grid.column("seed"))
        normals = [rng.standard_normal(2 * dim * dim) for rng in rngs]
        isometries = haar_isometries(np.stack(normals), dim, dim)
        return nosig.evaluate_batch(scenarios._bases(grid), isometries)

    @pytest.mark.parametrize("axes, points, seeds", [
        (["basis2.theta=0:3.1:0.01"], 311, 1),
        (["seed=1:3:1", "basis2.theta=0:3:0.5"], 21, 3),
        (["basis2.theta=0:3:0.5", "seed=1:3:1"], 21, 3),
    ])
    def test_one_draw_per_distinct_seed(self, monkeypatch, axes, points, seeds):
        grid, report, draws = self._sweep(monkeypatch, axes)
        assert (len(report), draws) == (points, seeds)
        reference = self._per_point(grid)
        assert report.scalars["signalling_magnitude"].tobytes() == (
            reference.signalling_magnitude.tobytes()
        )
        assert report.matrices["bob_marginal_basis2"].tobytes() == (
            reference.marginal_after[:, 1].tobytes()
        )

    def test_seed_past_64_bits(self, monkeypatch):
        grid, report, draws = self._sweep(monkeypatch, ["basis2.theta=0:3:1"], seed=10**24)
        assert (len(report), draws) == (4, 1)
        reference = self._per_point(grid)
        assert report.scalars["signalling_magnitude"].tobytes() == (
            reference.signalling_magnitude.tobytes()
        )


def _roundtrip(dim, target_dim, size, seed):
    normals = roundtrip_normals(dim, target_dim, size, np.random.default_rng(seed))
    families, moved, found = roundtrips(dim, target_dim, size, [normals])
    return families[0], moved, found


class TestEquivalenceRoundtrip:
    def test_rectangular_roundtrip(self):
        family, moved, found = _roundtrip(3, 5, 4, 5)
        assert family.shape == (4, 3) and moved.shape == (1, 4, 5)
        assert found.isometries.shape == (1, 5, 3)
        assert found.member_residual[0] < 1e-12
        assert found.isometry_residual[0] < 1e-12

    def test_gram_equivalence_report_reads_the_roundtrip(self):
        # configs/gram_equivalence.cfg: dimension 6, four members, seed 3.
        cfg = load_config(str(CONFIGS / "gram_equivalence.cfg"))
        [(report, _)] = scenarios.run_configs(grid_points(cfg))
        _, _, found = _roundtrip(6, 6, 4, 3)
        assert report.scalars["gram_deviation"] == found.gram_deviation[0]
        assert report.scalars["member_reconstruction_residual"] == found.member_residual[0]
        assert report.scalars["isometry_residual"] == found.isometry_residual[0]
