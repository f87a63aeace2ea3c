"""Byte output of batched conservation sweeps, and batch/point agreement of
the conservation kernel.

The pinned sha256 values were taken from the output of the per-point
conservation path that the batched kernel replaced, so they hold the
byte-stable report contract across that change.
"""

import hashlib
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclonelab.conservation as cons
from qclonelab import core
from oracles import partial_trace_einsum
from qclonelab.cli import main
from qclonelab.conservation import ConservationBatch, evaluate_batch
from qclonelab.core import eig_hermitian_batch, kron_stack
from qclonelab.states import overlap_pair_amplitudes

# The text of perfbench.workloads.conservation_config(7): an off-surface
# overlap triple with seeded phases.
SEED7_CONFIG = """\
kind = conservation
overlap.a = 0.6
overlap.b = 0.5
overlap.c = 0.5
overlap.a_phase = 2.034701269983068
overlap.b_phase = 0.9478133132026084
overlap.c_phase = 4.089941916940695
"""

CUBE = ["overlap.a=0:1:0.1", "overlap.b=0:1:0.1", "overlap.c=0:1:0.1"]
WEIGHT_PHASE = ["branch.weight=0:1:0.1", "overlap.c_phase=0:6:0.5"]
MIXED_DIMS = ["machine.ancilla_dim=2:5:1", "overlap.b=0:1:0.25", "branch.weight=0:1:0.5"]

PINNED = [
    pytest.param("", CUBE, "csv",
                 "6394458328593676468347a84467578e97fd3ff1295e91e04ca2f36351cd940d",
                 id="cube-1331-csv"),
    pytest.param("", CUBE, "json",
                 "7c91b5822b71154776948e134ade1ec54dee03a56a70411ba4f6eb6ca758af69",
                 id="cube-1331-json"),
    pytest.param("machine.ancilla_dim = 3\n", WEIGHT_PHASE, "csv",
                 "9c17982ab805865eaae6f14a0f553c172b2b1232e3d8c84379b7c3297a9c21d4",
                 id="weight-phase-dim3-csv"),
    pytest.param("machine.ancilla_dim = 3\n", WEIGHT_PHASE, "json",
                 "6a14edc66c8d2638f78ae3326a10a5ec6ba604e31d5d3072011cd50ae3ea6314",
                 id="weight-phase-dim3-json"),
    pytest.param("", MIXED_DIMS, "csv",
                 "d9db3fcc6a12a0660751a3087dc119e31eb183713a577961ffc6c6d7e346805e",
                 id="mixed-dims-csv"),
    pytest.param("", MIXED_DIMS, "json",
                 "cae648a50edc5c0988ed932eeaf9b849cf6af740ce514e1d2e315067886dbf77",
                 id="mixed-dims-json"),
]


@pytest.mark.parametrize("extra, grid, fmt, digest", PINNED)
def test_sweep_bytes_pinned(tmp_path, extra, grid, fmt, digest):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SEED7_CONFIG + extra)
    out = tmp_path / f"sweep.{fmt}"
    code = main(["sweep", str(cfg), "--grid", *grid, "--format", fmt, "--out", str(out)])
    assert code == 1  # off-surface points fail the conservation verdict
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# 1,125 points that share Alice's state before (a, b, weight) or after (a,
# c, weight): 345 and 207 distinct by bits.  At a = 0 the phases give
# overlaps with either sign of zero in their real or imaginary part, so the
# same points have only 315 and 189 distinct values.
SHARED_HALVES = [
    "overlap.a=0:1:0.25", "overlap.b=0:1:0.25", "overlap.c=0:1:0.5",
    "overlap.a_phase=0:6:1.5", "branch.weight=0:1:0.5",
]
SHARED_HALVES_PINNED = [
    pytest.param([], "csv",
                 "c63776a5177ccf3f040d380685111044ce6034a7409c49e5eed2be114f8d894c",
                 id="csv"),
    pytest.param([], "json",
                 "d24c660273a0c58db5c663783289b8e39cab842c80afe9071a9bfeb94dabb891",
                 id="json"),
    pytest.param(["machine.ancilla_dim=2:3:1"], "csv",
                 "87a8b7825c1150a3cc14b1811541d3f205d01f5235ea01f5210e832344067c22",
                 id="dims-csv"),
    pytest.param(["machine.ancilla_dim=2:3:1"], "json",
                 "ca8a025e78a855a64dd2c720efef5083659cefb86dfa74606aeef7bc8f9c56ae",
                 id="dims-json"),
]


@pytest.mark.parametrize("extra, fmt, digest", SHARED_HALVES_PINNED)
def test_sweep_with_shared_halves_pinned(tmp_path, extra, fmt, digest):
    config = Path(__file__).resolve().parents[1] / "configs" / "conservation_violation.cfg"
    out = tmp_path / f"sweep.{fmt}"
    grid = [*SHARED_HALVES, *extra]
    code = main(["sweep", str(config), "--grid", *grid, "--format", fmt, "--out", str(out)])
    assert code == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_overlap = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))
_point = st.tuples(_overlap, _overlap, _overlap, st.floats(0.0, 1.0))


def _complex(modulus: float, phase: float) -> complex:
    return modulus * complex(math.cos(phase), math.sin(phase))


def _failing_index(exc: Exception) -> int:
    """The point a guard failure names; a batch of one names none."""
    found = re.search(r"(?:point|batch index) (\d+)", str(exc))
    return int(found.group(1)) if found else 0


def _assert_batch_is_batches_of_one(a, b, c, w, ancilla_dim):
    singles = []
    for k in range(len(a)):
        try:
            singles.append(evaluate_batch([a[k]], [b[k]], [c[k]], [w[k]], ancilla_dim))
        except ArithmeticError as exc:
            singles.append(exc)
    if any(isinstance(s, ArithmeticError) for s in singles):
        # A residual guard trips on some points: the batch trips too and
        # names one of them.
        with pytest.raises(ArithmeticError) as exc:
            evaluate_batch(a, b, c, w, ancilla_dim)
        assert isinstance(singles[_failing_index(exc.value)], ArithmeticError)
        return
    batch = evaluate_batch(a, b, c, w, ancilla_dim)
    for k, one in enumerate(singles):
        for name in ConservationBatch.__annotations__:
            assert getattr(batch, name)[k].tobytes() == getattr(one, name)[0].tobytes(), name
        # The generic partial trace of the dense projector is the reference.
        psis, alphas = (overlap_pair_amplitudes([z[k]], 2) for z in (a, b))
        branches = (kron_stack(psis[:, j], alphas[:, j]) for j in (0, 1))
        shared = cons._superpose(np.array([w[k]]), *branches).reshape(-1)
        reference = partial_trace_einsum(np.outer(shared, shared.conj()), (2, 2, 2), (0,))
        assert batch.marginal_before[k].tobytes() == reference.tobytes()


@settings(max_examples=60, deadline=None)
@given(points=st.lists(_point, min_size=1, max_size=6), ancilla_dim=st.integers(2, 5))
def test_batch_equals_batches_of_one(points, ancilla_dim):
    a = [_complex(*p[0]) for p in points]
    b = [_complex(*p[1]) for p in points]
    c = [_complex(*p[2]) for p in points]
    w = [p[3] for p in points]
    _assert_batch_is_batches_of_one(a, b, c, w, ancilla_dim)


# Phases 0 and pi put +0.0 and -0.0 in the real part of a zero overlap.
_pool_overlap = st.builds(
    _complex,
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, 2.0 * math.pi)),
)


@settings(max_examples=60, deadline=None)
@given(
    overlaps=st.lists(_pool_overlap, min_size=1, max_size=3),
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
    picks=st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=2, max_size=12),
    ancilla_dim=st.integers(2, 5),
)
def test_batch_with_repeated_halves_equals_batches_of_one(overlaps, weights, picks, ancilla_dim):
    # Points drawn from a pool of at most three overlaps and two weights
    # share their halves before (a, b, weight) and after (a, c, weight).
    a, b, c = ([overlaps[p[k] % len(overlaps)] for p in picks] for k in range(3))
    w = [weights[p[3] % len(weights)] for p in picks]
    _assert_batch_is_batches_of_one(a, b, c, w, ancilla_dim)


def test_cube_evaluates_each_half_once_per_distinct_key(tmp_path, monkeypatch):
    # The cube's 1,331 points have 121 distinct (a, b, weight) and 121
    # distinct (a, c, weight).
    rows = Counter()

    def counted(name, fn, key):
        def wrapper(*args, **kwargs):
            rows[key(*args)] += len(args[0])
            return fn(*args, **kwargs)
        monkeypatch.setattr(cons, name, wrapper)

    # Alice's states before and after both have 8 * ancilla_dim amplitudes
    # per branch: a reduction belongs to the half whose density guard is next.
    counted("reduced_states", cons.reduced_states,
            lambda kets, dims, keep: "after" if rows["marginal before"] else "before")
    counted("eig_hermitian_batch", cons.eig_hermitian_batch, lambda stack: "eig")
    counted("require_density_matrices", cons.require_density_matrices, lambda rho, what: what)
    # Each half builds the overlap pairs of a and of its own factor: b
    # before, c (at dimension 2 * ancilla_dim) after.
    counted("overlap_pair_amplitudes", cons.overlap_pair_amplitudes,
            lambda targets, dimension: f"pairs at dimension {dimension}")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SEED7_CONFIG)
    assert main(["sweep", str(cfg), "--grid", *CUBE, "--out", str(tmp_path / "sweep.csv")]) == 1
    assert rows == {
        "before": 121, "after": 121, "eig": 121 + 121,
        "marginal before": 121, "marginal after": 121,
        "pairs at dimension 2": 121 + 121 + 121, "pairs at dimension 8": 121,
    }


class TestResidualFailureNamesFirstPoint:
    """A guard of Alice's state that fails on some distinct halves names the
    first grid point among them, whatever order their keys sort in.  Here
    the eigendecomposition residual fails; the subclasses below fail the
    density and closed-form guards, which also run on the distinct rows."""

    # Points b = 0.1, 0.3, 0.5 (each against three c); Alice's state before
    # fails on b = 0.3 and 0.5, first met at grid point 3.  Their keys sort
    # by bytes as b = 0.5, 0.3, 0.1 (lowest mantissa bytes 0x00, 0x33, 0x9a).
    GRID = ["overlap.b=0.1:0.5:0.2", "overlap.c=0:1:0.5"]
    CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "conservation_violation.cfg")
    ERROR, CODE, MESSAGE = ArithmeticError, 3, "eigendecomposition residual 1 exceeds 1e-12"

    @pytest.fixture(autouse=True)
    def passing_dims(self, monkeypatch):
        """Fails the guard on Alice's states whose |off-diagonal| exceeds 0.06
        (0.3 b before: 0.03, 0.09 and 0.15), except in batches at the
        ancilla dimensions added to the returned set."""
        passing, evaluate, batch_dim = set(), cons.evaluate_batch, [None]

        def evaluate_at(a, b, c, weight, ancilla_dim=4):
            batch_dim[0] = ancilla_dim
            return evaluate(a, b, c, weight, ancilla_dim)

        def bad(mat):
            return (np.abs(mat[..., 1, 0]) > 0.06) & (batch_dim[0] not in passing)

        monkeypatch.setattr(cons, "evaluate_batch", evaluate_at)
        self.fail(monkeypatch, bad)
        return passing

    def fail(self, monkeypatch, bad):
        exact = core._eig_2x2

        def failing(mat):
            vals, vecs = exact(mat)
            return vals + bad(mat)[..., None], vecs

        monkeypatch.setattr(core, "_eig_2x2", failing)

    def stderr(self, where=""):
        kind = "numerical failure" if self.ERROR is ArithmeticError else "rejected input"
        return f"{kind}: {self.ERROR.__name__}: {self.MESSAGE}{where}\n"

    def test_sweep_names_the_earlier_point(self, capsys):
        assert main(["sweep", self.CONFIG, "--grid", *self.GRID]) == self.CODE
        assert capsys.readouterr().err == self.stderr(" at grid point 3")

    def test_run_names_no_point(self, capsys):
        assert main(["run", self.CONFIG]) == self.CODE
        assert capsys.readouterr().err == self.stderr()

    def test_one_distinct_half_names_batch_index_0(self):
        with pytest.raises(self.ERROR) as exc:
            evaluate_batch([0.6] * 3, [0.5] * 3, [0.5] * 3, [0.5] * 3)
        assert str(exc.value) == self.MESSAGE + " at batch index 0"

    def test_failure_in_a_later_batch_names_its_grid_point(self, capsys, passing_dims):
        # Grid point (b, c, dim) is 6 ib + 2 ic + id: the batch at dim 3 holds
        # the odd points, and its first failing one (b = 0.3, c = 0) is 7.
        passing_dims.add(2)
        grid = [*self.GRID, "machine.ancilla_dim=2:3:1"]
        assert main(["sweep", self.CONFIG, "--grid", *grid]) == self.CODE
        assert capsys.readouterr().err == self.stderr(" at grid point 7")


class TestDensityFailureNamesFirstPoint(TestResidualFailureNamesFirstPoint):
    ERROR, CODE, MESSAGE = ValueError, 2, "marginal before trace deviates from 1 by 1"
    SHIFT = np.diag([1.0, 0.0])

    def fail(self, monkeypatch, bad):
        reduce = cons.reduced_states

        def shifted(*args):
            rho = reduce(*args)
            return rho + self.SHIFT * bad(rho)[:, None, None]

        monkeypatch.setattr(cons, "reduced_states", shifted)


class TestClosedFormFailureNamesFirstPoint(TestDensityFailureNamesFirstPoint):
    # Still Hermitian with unit trace, and 0.5 off the closed form.
    ERROR, CODE, MESSAGE = ArithmeticError, 3, "marginal before deviates from its closed form"
    SHIFT = np.diag([0.5, -0.5])


@settings(max_examples=60, deadline=None)
@given(points=st.lists(_point, min_size=1, max_size=6))
def test_closed_forms_round_as_scalar_arithmetic(points):
    # The reported closed-form deviations are pinned to this rounding of the
    # closed-form marginals, point by point in Python complex arithmetic.
    a = [_complex(*p[0]) for p in points]
    b = [_complex(*p[1]) for p in points]
    c = [_complex(*p[2]) for p in points]
    w = [p[3] for p in points]
    try:
        batch = evaluate_batch(a, b, c, w, 2)
    except ArithmeticError:
        return
    for k, (ak, bk, ck, wk) in enumerate(zip(a, b, c, w)):
        pq = math.sqrt(wk * (1.0 - wk))
        before = np.array([[wk, pq * np.conj(ak * bk)], [pq * ak * bk, 1.0 - wk]], dtype=complex)
        after = np.array(
            [[wk, pq * np.conj(ak * ak * ck)], [pq * ak * ak * ck, 1.0 - wk]], dtype=complex
        )
        for rho, closed, dev in (
            (batch.marginal_before, before, batch.closed_deviation_before),
            (batch.marginal_after, after, batch.closed_deviation_after),
        ):
            assert dev[k].tobytes() == np.max(np.abs(rho[k] - closed)).tobytes()


def test_degenerate_marginal_after_has_a_flat_spectrum():
    # Alice's state after is degenerate up to 1e-20 here: the closed-form 2x2
    # eigensolver still answers, within its residual guard.
    batch = evaluate_batch([1.0], [0.0], [1e-20], [0.5], 4)
    np.testing.assert_allclose(batch.marginal_after[0], np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(batch.eigenvalues_after[0], [0.5, 0.5], atol=1e-15)


class TestGuardsNameFirstFailingPoint:
    def test_overlap_modulus(self):
        with pytest.raises(ValueError, match="exceeds 1 at batch index 2"):
            evaluate_batch([0.5, 0.5, 1.2, 1.3], [0.5] * 4, [0.5] * 4, [0.5] * 4)

    def test_branch_weight(self):
        with pytest.raises(ValueError, match="at batch index 1"):
            evaluate_batch([0.5] * 3, [0.5] * 3, [0.5] * 3, [0.5, 1.5, -1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="length"):
            evaluate_batch([0.5, 0.5], [0.5], [0.5, 0.5], [0.5, 0.5])

    def test_eigensolver_hermiticity(self):
        stack = np.stack([np.eye(2) / 2, np.array([[0.5, 0.1], [0.3, 0.5]]), np.eye(2) / 2])
        with pytest.raises(ValueError, match="not Hermitian .* at batch index 1"):
            eig_hermitian_batch(stack)
