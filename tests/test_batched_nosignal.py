"""The batched two-singlet kernel: batch/point agreement, its guards, and the
stacked machine building blocks it is made of."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclonelab.nosignal as nosig
from oracles import kron_all, partial_trace_einsum
from conftest import random_isometry, signature
from qclonelab.core import CHUNK_ENTRIES
from qclonelab.machines import (
    ConflictingRules,
    deleter_rules,
    gram_comparison,
    haar_draw,
    haar_isometries,
    require_isometries,
    wishful_rules,
)
from qclonelab.states import basis_amplitudes, overlap_pair_amplitudes

# Bloch angles, with the edges where the two bases' wishful rules coincide
# (theta = 0) or coincide up to phase (theta = pi).
_theta = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))
_phi = st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi - 1e-9))
_scenario = st.lists(st.tuples(_theta, _phi), min_size=4, max_size=4)


def _bases(angles) -> np.ndarray:
    """(n, 2, 2, 2, 2) basis amplitudes of scenarios given as four (theta, phi)
    pairs: basis 1 psi, basis 1 alpha, basis 2 psi, basis 2 alpha."""
    return np.array([
        [[basis_amplitudes(*point[0]), basis_amplitudes(*point[1])],
         [basis_amplitudes(*point[2]), basis_amplitudes(*point[3])]]
        for point in angles
    ])


def _failing_index(exc: Exception) -> int:
    """The point a guard failure names; a batch of one names none."""
    found = re.search(r"batch index (\d+)", str(exc))
    return int(found.group(1)) if found else 0


def _isometries(seeds, ancilla_dim):
    n = 4 * ancilla_dim
    return np.stack([haar_draw(n, n, np.random.default_rng(seed)) for seed in seeds])


@settings(max_examples=40, deadline=None)
@given(
    angles=st.lists(_scenario, min_size=1, max_size=6),
    ancilla_dim=st.integers(2, 4),
    isometric=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_batch_equals_batches_of_one(angles, ancilla_dim, isometric, seed):
    bases = _bases(angles)
    machine = {}
    if isometric:
        seeds = range(seed, seed + len(angles))
        machine["isometries"] = haar_isometries(_isometries(seeds, ancilla_dim))
    singles = []
    for k in range(len(angles)):
        one = {key: value[k:k + 1] for key, value in machine.items()}
        try:
            singles.append(nosig.evaluate_batch(bases[k:k + 1], ancilla_dim, **one))
        except ValueError as exc:
            singles.append(exc)
    failed = [k for k, s in enumerate(singles) if isinstance(s, Exception)]
    if failed:
        with pytest.raises(ValueError) as caught:
            nosig.evaluate_batch(bases, ancilla_dim, **machine)
        assert type(caught.value) is type(singles[failed[0]])
        assert _failing_index(caught.value) == failed[0]
        return
    batch = nosig.evaluate_batch(bases, ancilla_dim, **machine)
    for f in fields(nosig.NosignalBatch):
        one_by_one = np.concatenate([getattr(s, f.name) for s in singles])
        assert getattr(batch, f.name).tobytes() == one_by_one.tobytes(), f.name


@settings(max_examples=30, deadline=None)
@given(angles=st.lists(_scenario, min_size=1, max_size=4), ancilla_dim=st.integers(2, 5))
def test_premachine_marginal_is_partial_trace_bit_for_bit(angles, ancilla_dim):
    # The stage contracts the kets in the order of the partial trace einsum
    # on the dense projector.
    before = nosig.premachine(_bases(angles), ancilla_dim)
    for k, point in enumerate(angles):
        one = nosig.premachine(_bases([point]), ancilla_dim)
        joint = one.joint[0]
        reduced = partial_trace_einsum(
            np.outer(joint, joint.conj()), (2, 2, 2, 2, ancilla_dim), (1, 3)
        )
        assert before.marginal[k].tobytes() == reduced.tobytes()
        assert before.deviation[k] == one.deviation[0]


def test_wishful_rules_from_angles_match_the_preset():
    angles = [(0.3, 1.0), (2.0, 0.5), (1.1, 4.0), (0.2, 6.0)]
    inputs, outputs = nosig.wishful_machine_rules(_bases([angles]), 3)
    for k in (0, 1):
        psi, alpha = (basis_amplitudes(*a) for a in angles[2 * k:2 * k + 2])
        xs, ys = wishful_rules(psi, alpha, 3)
        for r, (x, y) in enumerate(zip(xs, ys)):
            assert inputs[0, 4 * k + r].tobytes() == x.tobytes()
            assert outputs[0, 4 * k + r].tobytes() == y.tobytes()


def test_conflict_beyond_the_first_chunk_names_its_chunk():
    computational, tilted = basis_amplitudes(0.0), basis_amplitudes(0.7)
    good = [[computational, computational], [tilted, tilted]]
    bad = [[computational, computational], [basis_amplitudes(math.pi)] * 2]
    step = CHUNK_ENTRIES // 16**2  # points per chunk at ancilla_dim 4
    bases = np.array([good] * (step + 2) + [bad] + [good])
    # Index 2 of the second chunk, named by its index in the whole batch.
    with pytest.raises(ConflictingRules, match=f"at batch index {step + 2}$"):
        nosig.evaluate_batch(bases)


def test_non_isometric_machine_named():
    bases = _bases([[(0.1, 0.0)] * 4] * 3)
    machines = haar_isometries(_isometries([1, 2, 3], 4))
    machines[2, 0, 0] += 0.1
    with pytest.raises(ValueError, match="not an isometry .*batch index 2"):
        nosig.evaluate_batch(bases, isometries=machines)


def test_non_orthogonal_basis_named():
    bases = _bases([[(0.1, 0.0)] * 4] * 2)
    bases[1, 1, 0, 1] = bases[1, 1, 0, 0]
    with pytest.raises(ValueError, match="not orthogonal at batch index 1"):
        nosig.premachine(bases)


class TestStackedMachineParts:
    def test_deleter_rules_match_the_preset(self):
        # The declared rules |psi_k>|psi_k>|A> -> |psi_k>|0>|A_k>, written
        # out with np.kron.
        blank, env_in = np.eye(2)[0], np.eye(4)[0]
        for a, g in ((0.3, 0.3), (0.8, 0.1)):
            psis = overlap_pair_amplitudes([a], 2)[0]
            records = overlap_pair_amplitudes([g], 4)[0]
            inputs, outputs = deleter_rules(psis[None], records[None], 4)
            for r in (0, 1):
                x = kron_all(psis[r], psis[r], env_in.astype(complex))
                y = kron_all(psis[r], blank.astype(complex), records[r])
                assert inputs[0, r].tobytes() == x.tobytes()
                assert outputs[0, r].tobytes() == y.tobytes()

    def test_gram_comparison_names_unnormalized_rule(self):
        inputs = np.tile(np.eye(2, 4, dtype=complex), (3, 1, 1))
        outputs = inputs.copy()
        outputs[1, 0] *= 1.1
        with pytest.raises(ValueError, match="output is not normalized at batch index 1"):
            gram_comparison(inputs, outputs)

    def test_stacked_haar_isometries_match_one_at_a_time(self):
        draws = _isometries(range(40), 2)  # 8x8: several QR chunks
        singles = np.concatenate([haar_isometries(z[None]) for z in draws])
        stacked = haar_isometries(draws)
        assert stacked.tobytes() == singles.tobytes()
        require_isometries(stacked)

    def test_random_isometry_matches_a_plain_qr(self):
        # The stacked QR gives what one np.linalg.qr call on the draw gives.
        lm = random_isometry(3, 5, np.random.default_rng(9))
        q, r = np.linalg.qr(haar_draw(3, 5, np.random.default_rng(9)))
        d = np.diag(r)
        assert lm.tobytes() == (q * (d.conj() / np.abs(d))).tobytes()


class TestSignatureFields:
    def test_derived_fields_built_once(self):
        sig = signature(("a", 2), ("b", 3))
        assert sig.labels == ("a", "b") and sig.dims == (2, 3) and sig.dim == 6
        assert sig.dims is sig.dims

    def test_equality_and_hash_use_entries_only(self):
        a, b = signature(("a", 2), ("b", 3)), signature(("a", 2), ("b", 3))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "SubsystemSignature(entries=(('a', 2), ('b', 3)))"
