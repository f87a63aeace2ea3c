"""The batched two-singlet kernel: batch/point agreement, its guards, and the
stacked machine building blocks it is made of."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import qclonelab.nosignal as nosig
from oracles import kron_all, partial_trace_einsum, spectra_eigvalsh, trace_distance_eigsum
from conftest import random_isometry, signature
from qclonelab.core import CHUNK_ENTRIES, kron_stack
from qclonelab.machines import (
    ConflictingRules,
    deleter_rules,
    gram_comparison,
    haar_isometries,
    product_outcomes,
    require_isometries,
    wishful_rules,
)
from qclonelab.states import basis_amplitudes, overlap_pair_amplitudes, random_kets

# Bloch angles, with the edges where the two bases' wishful rules coincide
# (theta = 0) or coincide up to phase (theta = pi).
_theta = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))
_phi = st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi - 1e-9))
_scenario = st.lists(st.tuples(_theta, _phi), min_size=4, max_size=4)


def _bases(angles) -> np.ndarray:
    """(n, 2, 2, 2, 2) basis amplitudes of scenarios given as four (theta, phi)
    pairs: basis 1 psi, basis 1 alpha, basis 2 psi, basis 2 alpha."""
    return nosig.scenario_bases(np.reshape(angles, (-1, 2, 2, 2)))


def _failing_index(exc: Exception) -> int:
    """The point a guard failure names; a batch of one names none."""
    found = re.search(r"batch index (\d+)", str(exc))
    return int(found.group(1)) if found else 0


def _normals(seeds, n):
    """Standard normals of one Haar (n, n) isometry per seed, stacked."""
    return np.stack([np.random.default_rng(seed).standard_normal(2 * n * n) for seed in seeds])


def _isometries(seeds, ancilla_dim):
    n = 4 * ancilla_dim
    return haar_isometries(_normals(seeds, n), n, n)


@settings(max_examples=40, deadline=None)
@given(
    angles=st.lists(_scenario, min_size=1, max_size=6),
    ancilla_dim=st.integers(2, 4),
    isometric=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_batch_equals_batches_of_one(angles, ancilla_dim, isometric, seed):
    bases = _bases(angles)
    machine = _machine(isometric, bases, ancilla_dim, seed)
    singles = []
    for k in range(len(angles)):
        one = machine[k:k + 1] if isometric else tuple(x[k:k + 1] for x in machine)
        try:
            singles.append(nosig.evaluate_batch(bases[k:k + 1], one))
        except ValueError as exc:
            singles.append(exc)
    failed = [k for k, s in enumerate(singles) if isinstance(s, Exception)]
    if failed:
        with pytest.raises(ValueError) as caught:
            nosig.evaluate_batch(bases, machine)
        assert type(caught.value) is type(singles[failed[0]])
        assert _failing_index(caught.value) == failed[0]
        return
    batch = nosig.evaluate_batch(bases, machine)
    for name in nosig.NosignalBatch.__annotations__:
        one_by_one = np.concatenate([getattr(s, name) for s in singles])
        assert getattr(batch, name).tobytes() == one_by_one.tobytes(), name


def _machine(isometric: bool, bases, ancilla_dim: int, seed: int):
    """``evaluate_batch``'s machine argument: one Haar isometry per point, or
    the wishful cloner's rules."""
    if not isometric:
        return nosig.wishful_machine_rules(bases, ancilla_dim)
    return _isometries(range(seed, seed + len(bases)), ancilla_dim)


_generic_scenario = st.lists(
    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi - 1e-9)),
    min_size=4, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    angles=st.lists(_generic_scenario, min_size=1, max_size=3),
    ancilla_dim=st.integers(2, 8),
    isometric=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_low_rank_spectra_and_distance_match_dense_eigvalsh(angles, ancilla_dim, isometric, seed):
    try:
        bases = _bases(angles)
        batch = nosig.evaluate_batch(bases, _machine(isometric, bases, ancilla_dim, seed))
    except ConflictingRules:
        reject()
    vals = batch.eigenvalues_after
    assert np.max(np.abs(vals - spectra_eigvalsh(batch.marginal_after))) < 1e-13
    assert np.all(np.diff(vals, axis=-1) <= 0.0)
    for magnitude, (first, second) in zip(batch.signalling_magnitude, batch.marginal_after):
        assert abs(magnitude - trace_distance_eigsum(first, second)) < 1e-13


def test_a_negative_gram_eigenvalue_sorts_after_the_padded_zeros():
    # Two equal conditioned states make each Gram matrix singular; at this
    # seed basis 1's smallest Gram eigenvalue rounds below zero.
    conditioned = 0.5 * random_kets(8, np.random.default_rng(0), 8).reshape(1, 2, 4, 8)
    conditioned[:, :, 3] = conditioned[:, :, 2]
    rho, vals, validity, _ = nosig._spectra_and_distance(conditioned)
    assert vals.min() < 0.0 and np.all(np.diff(vals, axis=-1) <= 0.0)
    assert validity[0] >= -vals.min()
    assert np.max(np.abs(vals - spectra_eigvalsh(rho))) < 1e-13


@settings(max_examples=30, deadline=None)
@given(
    basis1=st.lists(st.tuples(_theta, _phi), min_size=2, max_size=2),
    ancilla_dim=st.integers(2, 8),
    isometric=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_magnitude_exactly_zero_when_basis_2_is_basis_1(basis1, ancilla_dim, isometric, seed):
    bases = _bases([basis1 * 2])
    batch = nosig.evaluate_batch(bases, _machine(isometric, bases, ancilla_dim, seed))
    assert batch.signalling_magnitude.tolist() == [0.0]


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
        nosig.evaluate_batch(bases, nosig.wishful_machine_rules(bases))


def test_non_isometric_machine_named():
    bases = _bases([[(0.1, 0.0)] * 4] * 3)
    machines = _isometries([1, 2, 3], 4)
    machines[2, 0, 0] += 0.1
    with pytest.raises(ValueError, match="not an isometry .*batch index 2"):
        nosig.evaluate_batch(bases, machines)


def test_non_orthogonal_basis_named():
    bases = _bases([[(0.1, 0.0)] * 4] * 2)
    bases[1, 1, 0, 1] = bases[1, 1, 0, 0]
    with pytest.raises(ValueError, match="not orthogonal at batch index 1"):
        nosig.premachine(bases)


def _termwise_deleter(bases) -> tuple[np.ndarray, np.ndarray]:
    """A machine built outside the kernel: the termwise deleter of both basis
    choices, basis 1's rules first, over (src, reg, env 2) in and (src,
    second, env 2) out.  psi alpha C -> psi 0 R and psibar alphabar C ->
    psibar 0 R, with R = |1> orthogonal to C = |0>; psi alphabar C and
    psibar alpha C pass through."""
    c, r = np.eye(2, dtype=complex)
    outcomes = product_outcomes(bases[:, :, 0], bases[:, :, 1])  # (n, 2, 4, 4)
    deleted = kron_stack(kron_stack(bases[:, :, 0], c), r)  # psi 0 R, psibar 0 R
    outputs = np.concatenate([deleted, kron_stack(outcomes[..., 2:, :], c)], axis=-2)
    return kron_stack(outcomes, c).reshape(len(bases), 8, 8), outputs.reshape(len(bases), 8, 8)


# Within about 2e-10 of pi, basis 2's rule inputs factor over basis 1's
# expansion within ASSERT_TOL, and the kernel refuses them as it does at pi.
@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi - 1e-9), phi=_phi)
@example(theta=1e-8, phi=0.0)
@example(theta=1e-10, phi=0.0)
def test_a_deleter_built_outside_the_kernel_signals_as_its_closed_form(theta, phi):
    # Basis 1 computational, basis 2 at (theta, phi), psi = alpha in both:
    # the magnitude is s sqrt(1 - s^2) / 2 with s = |<psi_1|psi_2>|, and the
    # rules' input dimension 8 is an ancilla dimension of 2.  sqrt(1 - s^2)
    # is read as |<psi_1|psibar_2>|: near s = 1, 1 - s * s loses every digit
    # (at theta = 1e-8, s rounds to 1 and the closed form to 0, not 2.5e-9).
    bases = _bases([[(0.0, 0.0)] * 2 + [(theta, phi)] * 2])
    batch = nosig.evaluate_batch(bases, _termwise_deleter(bases))
    assert batch.marginal_after.shape == (1, 2, 8, 8)
    s, s_perp = (abs(np.vdot(bases[0, 0, 0, 0], bases[0, 1, 0, k])) for k in (0, 1))
    # Below about theta = 2e-10, basis 1's rule kets also match basis 2's
    # within ASSERT_TOL; basis 2's own rules, the closer match, answer for it.
    assert abs(batch.signalling_magnitude[0] - s * s_perp / 2.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(basis1=st.tuples(_theta, _phi))
def test_the_deleter_is_silent_when_basis_2_is_basis_1(basis1):
    bases = _bases([[basis1] * 4])
    batch = nosig.evaluate_batch(bases, _termwise_deleter(bases))
    assert batch.signalling_magnitude.tolist() == [0.0]


def test_the_deleter_at_swapped_bases_raises_conflicting_rules():
    # At theta_2 = pi, basis 2's kets are basis 1's swapped, up to phase.
    bases = _bases([[(0.0, 0.0)] * 2 + [(math.pi, 0.0)] * 2])
    with pytest.raises(ConflictingRules):
        nosig.evaluate_batch(bases, _termwise_deleter(bases))


# One point against machines that do not fit it: an isometry stack whose
# input dimension is not a multiple of 4, rule inputs cut to 10 columns, 7
# rule inputs against 8 outputs, and two isometries for one point.
_ONE_POINT = _bases([[(0.0, 0.0)] * 2 + [(0.7, 0.3)] * 2])
_RULES = nosig.wishful_machine_rules(_ONE_POINT, 4)
_MISFITS = {
    "input-dimension-10": (haar_isometries(_normals([1], 10), 10, 10), r"\(1, 10, 10\)"),
    "10-input-columns": ((_RULES[0][..., :10], _RULES[1]), r"\(1, 8, 10\) and \(1, 8, 16\)"),
    "7-inputs-8-outputs": ((_RULES[0][:, :7], _RULES[1]), r"\(1, 7, 16\) and \(1, 8, 16\)"),
    "2-machines-1-point": (_isometries([1, 2], 2), r"\(2, 8, 8\)"),
}


@pytest.mark.parametrize("case", sorted(_MISFITS))
def test_a_machine_that_does_not_fit_is_refused_by_its_shapes(case):
    machine, shapes = _MISFITS[case]
    with pytest.raises(ValueError, match=f"machine of shape {shapes} does not fit a batch of 1:"):
        nosig.evaluate_batch(_ONE_POINT, machine)


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
        normals = _normals(range(40), 16)  # 16x16: three QR chunks
        singles = np.concatenate([haar_isometries(z[None], 16, 16) for z in normals])
        stacked = haar_isometries(normals, 16, 16)
        assert stacked.tobytes() == singles.tobytes()
        require_isometries(stacked)

    def test_random_isometry_matches_a_plain_qr(self):
        # The stacked QR gives what one np.linalg.qr call on the draw gives.
        lm = random_isometry(3, 5, np.random.default_rng(9))
        real, imag = np.random.default_rng(9).standard_normal((2, 5, 3))
        q, r = np.linalg.qr(real + 1j * imag)
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
