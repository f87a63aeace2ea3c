"""The per-point formulas of a conservation sweep, computed on whole columns,
give every point's value bit for bit as the scalar Python arithmetic does."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complement_amplitude,
    lambda_after_scalar,
    lambda_before_scalar,
    overlap_scalar,
)
from qclonelab.config import ScenarioGrid
from qclonelab.conservation import lambda_after, lambda_before
from qclonelab.scenarios import _overlaps
from qclonelab.states import overlap_pair_amplitudes

_EDGE_MODULI = [0.0, 1.0, 1e-160, 1e-300]
_MODULI = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EDGE_MODULI))
_PHASES = st.one_of(
    st.floats(0.0, 2.0 * math.pi, exclude_max=True), st.sampled_from([0.0, -0.0, math.pi])
)
_POINT = st.tuples(_MODULI, _PHASES, _MODULI, _PHASES, st.floats(0.0, 1.0))


def _same_bytes(stacked, scalars) -> bool:
    stacked = np.asarray(stacked)
    return stacked.tobytes() == np.array(scalars, dtype=stacked.dtype).tobytes()


def _assert_columns_match_scalars(m_a, p_a, m_b, p_b, weights):
    grid = ScenarioGrid(
        "conservation",
        {},
        {"overlap.a": m_a, "overlap.a_phase": p_a, "overlap.b": m_b, "overlap.b_phase": p_b},
        len(m_a),
    )
    a, b = _overlaps(grid, "a"), _overlaps(grid, "b")
    scalar_a = list(map(overlap_scalar, m_a, p_a))
    scalar_b = list(map(overlap_scalar, m_b, p_b))
    assert _same_bytes(a, scalar_a) and _same_bytes(b, scalar_b)

    amplitudes = overlap_pair_amplitudes(a, 2)[:, 1, 1]
    assert _same_bytes(amplitudes.real, list(map(complement_amplitude, scalar_a)))
    assert not amplitudes.imag.any()

    w = np.array(weights)
    before = list(map(lambda_before_scalar, scalar_a, scalar_b, weights))
    after = list(map(lambda_after_scalar, scalar_a, scalar_b, weights))
    assert _same_bytes(lambda_before(a, b, w), before)
    assert _same_bytes(lambda_after(a, b, w), after)


@settings(max_examples=200, deadline=None)
@given(points=st.lists(_POINT, min_size=1, max_size=40))
def test_stacked_formulas_match_scalar_arithmetic(points):
    _assert_columns_match_scalars(*(list(column) for column in zip(*points)))


def test_stacked_formulas_match_scalar_arithmetic_in_bulk():
    # An array's ** 2 differs from the scalar x ** 2 for about 1 value in
    # 1,200, and a closed form built on it for about 1 in 5,000: too rarely
    # for the drawn lists to show.
    rng = np.random.default_rng(12)
    m_a, m_b, weights = rng.uniform(0.0, 1.0, (3, 100_000)).tolist()
    p_a, p_b = rng.uniform(0.0, 2.0 * math.pi, (2, 100_000)).tolist()
    _assert_columns_match_scalars(m_a, p_a, m_b, p_b, weights)
