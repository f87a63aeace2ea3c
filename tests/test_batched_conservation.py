"""Byte output of batched conservation sweeps, and batch/point agreement of
the conservation kernel.

The pinned sha256 values were taken from the output of the per-point
conservation path that the batched kernel replaced, so they hold the
byte-stable report contract across that change.
"""

import hashlib
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclonelab.conservation as cons
from oracles import partial_trace_einsum
from qclonelab.cli import main
from qclonelab.conservation import ConservationBatch, evaluate_batch
from qclonelab.core import eig_hermitian_batch
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


_overlap = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))
_point = st.tuples(_overlap, _overlap, _overlap, st.floats(0.0, 1.0))


def _complex(modulus: float, phase: float) -> complex:
    return modulus * complex(math.cos(phase), math.sin(phase))


def _failing_index(exc: Exception) -> int:
    """The point a guard failure names; a batch of one names none."""
    found = re.search(r"(?:point|batch index) (\d+)", str(exc))
    return int(found.group(1)) if found else 0


@settings(max_examples=60, deadline=None)
@given(points=st.lists(_point, min_size=1, max_size=6), ancilla_dim=st.integers(2, 5))
def test_batch_equals_batches_of_one(points, ancilla_dim):
    a = [_complex(*p[0]) for p in points]
    b = [_complex(*p[1]) for p in points]
    c = [_complex(*p[2]) for p in points]
    w = [p[3] for p in points]
    singles = []
    for k in range(len(points)):
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
        for f in fields(ConservationBatch):
            assert getattr(batch, f.name)[k].tobytes() == getattr(one, f.name)[0].tobytes(), f.name
        # The generic partial trace of the dense projector is the reference.
        psis, alphas = (overlap_pair_amplitudes([z[k]], 2) for z in (a, b))
        shared = cons._shared(np.array([w[k]]), psis, alphas).reshape(-1)
        reference = partial_trace_einsum(np.outer(shared, shared.conj()), (2, 2, 2), (0,))
        assert batch.marginal_before[k].tobytes() == reference.tobytes()


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
        assert np.abs(batch.closed_before[k] - before).tobytes() == bytes(32)
        assert np.abs(batch.closed_after[k] - after).tobytes() == bytes(32)


def test_marginal_helpers_need_no_spectrum():
    # Here Alice's after-marginal is degenerate up to 1e-20, where the
    # closed-form 2x2 eigenvectors lose accuracy; the marginal stage does not
    # diagonalize anything, so it still answers.
    after = cons._marginals([1.0], [0.0], [1e-20], [0.5], 4)[1]
    np.testing.assert_allclose(after[0], np.eye(2) / 2, atol=1e-15)


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
