import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclonelab.core as core
import qclonelab.nosignal as nosig

from conftest import (
    consistent,
    deleter,
    gram_deviation,
    random_isometry,
    strong_cloner,
    wishful_cloner,
)
from oracles import kron_all, random_amplitudes
from qclonelab.core import kron_stack, reduced_states
from qclonelab.machines import (
    ConflictingRules,
    DependentInputsConflict,
    InconsistentGram,
    apply_isometries,
    apply_termwise,
    extend_to_isometries,
    extend_to_isometry,
    gram_comparison,
    haar_draw,
    haar_isometries,
    images,
    isometry_matrix_from_pairs,
    require_isometries,
    termwise_batch,
)
from qclonelab.states import basis_amplitudes


class TestConsistency:
    def test_orthonormal_inputs_consistent(self):
        rules = (np.eye(2, dtype=complex)[None],) * 2
        assert consistent(rules)[0]

    def test_strong_cloner_deviation_is_gram_arithmetic(self):
        g_in, g_out, dev = gram_comparison(*strong_cloner(0.6, 0.5, 0.5))
        assert g_in[0, 0, 1] == pytest.approx(0.30, abs=1e-12)
        assert g_out[0, 0, 1] == pytest.approx(0.18, abs=1e-12)
        assert dev[0] == pytest.approx(0.12, abs=1e-12)
        assert not consistent(strong_cloner(0.6, 0.5, 0.5))[0]

    def test_forced_equality_is_consistent(self):
        assert gram_deviation(strong_cloner(0.6, 0.3, 0.5))[0] < 1e-12
        assert consistent(strong_cloner(0.6, 0.3, 0.5))[0]


class TestExtendToIsometry:
    def test_identity_spec(self):
        eye = np.eye(3, dtype=complex)[None]
        found = extend_to_isometries(eye, eye)
        np.testing.assert_allclose(found.isometries[0], np.eye(3), atol=1e-12)

    def test_basis_swap_acts_linearly(self):
        eye = np.eye(2, dtype=complex)
        found = extend_to_isometries(eye[None], eye[::-1][None])
        plus = np.array([1, 1]) / math.sqrt(2)
        np.testing.assert_allclose(found.isometries[0] @ plus, plus, atol=1e-12)

    def test_consistent_strong_cloner_reproduces_rules(self):
        inputs, outputs = strong_cloner(0.6, 0.3, 0.5)
        m = extend_to_isometries(inputs, outputs).isometries[0]
        for x, y in zip(inputs[0], outputs[0]):
            assert np.max(np.abs(m @ x - y)) < 1e-10
        assert np.max(np.abs(m.conj().T @ m - np.eye(inputs.shape[-1]))) < 1e-10

    def test_inconsistent_raises_with_report(self):
        with pytest.raises(InconsistentGram) as exc:
            extend_to_isometries(*strong_cloner(0.6, 0.5, 0.5))
        assert exc.value.max_deviation == pytest.approx(0.12, abs=1e-12)
        assert exc.value.input_gram[0, 1] == pytest.approx(0.30, abs=1e-12)
        assert exc.value.output_gram[0, 1] == pytest.approx(0.18, abs=1e-12)

    def test_dependent_inputs_consistent_outputs_accepted(self, rng):
        hide = random_isometry(3, 3, rng)
        a = random_amplitudes(3, rng)
        inputs, outputs = np.array([[a, a]]), np.array([[hide @ a, hide @ a]])
        m = extend_to_isometries(inputs, outputs).isometries[0]
        assert np.max(np.abs(m @ a - outputs[0, 0])) < 1e-10

    def test_dependent_inputs_conflicting_outputs_rejected(self):
        # Same input declared twice with outputs tilted by 1e-5: the Gram
        # deviation 1-cos(1e-5) ~ 5e-11 sits inside tolerance, but the second
        # output conflicts with the linearly induced one and must be refused
        # rather than silently fitted.
        z = np.array([1.0, 0.0], dtype=complex)
        eps = 1e-5
        tilted = np.array([math.cos(eps), math.sin(eps)], dtype=complex)
        rules = (np.array([[z, z]]), np.array([[z, tilted]]))
        assert consistent(rules)[0]
        with pytest.raises(DependentInputsConflict):
            extend_to_isometries(*rules)


@settings(max_examples=100, deadline=None)
@given(
    in_dim=st.integers(1, 8),
    extra_out=st.integers(0, 4),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_extension_of_gram_consistent_spec(in_dim, extra_out, picks, seed):
    # Inputs are drawn from up to six random kets, so repeated picks declare
    # duplicated inputs; outputs are a hidden isometry's images.
    rng = np.random.default_rng(seed)
    kets = np.array([random_amplitudes(in_dim, rng) for _ in range(6)])
    hide = random_isometry(in_dim, in_dim + extra_out, rng)
    inputs = kets[picks]
    outputs = inputs @ hide.T
    m = extend_to_isometries(inputs[None], outputs[None]).isometries[0]
    assert np.max(np.abs(m.conj().T @ m - np.eye(in_dim))) < 1e-10
    for x, y in zip(inputs, outputs):
        assert np.max(np.abs(m @ x - y)) < 1e-10


def _hidden_images(rng, inputs, out_dim):
    """Images of stacked inputs (n, K, d_in) under one hidden random
    isometry into ``out_dim`` per slice."""
    n, _, in_dim = inputs.shape
    hidden = haar_isometries(np.array([haar_draw(in_dim, out_dim, rng) for _ in range(n)]))
    return images(hidden, inputs)


@st.composite
def _mixed_rank_stacks(draw):
    """Stacks of declared pairs, some slices full rank and some with a
    repeated input ket."""
    in_dim = draw(st.integers(2, 6))
    size = draw(st.integers(2, in_dim))
    mixed = st.lists(st.booleans(), min_size=2, max_size=6).filter(lambda r: len(set(r)) == 2)
    repeated = draw(mixed)
    out_dim = in_dim + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = np.array([[random_amplitudes(in_dim, rng) for _ in range(size)] for _ in repeated])
    for k, r in enumerate(repeated):
        if r:
            inputs[k, -1] = inputs[k, 0]
    return inputs, _hidden_images(rng, inputs, out_dim)


@settings(max_examples=60, deadline=None)
@given(stack=_mixed_rank_stacks())
def test_stacked_extension_slices_match_batches_of_one(stack):
    inputs, outputs = stack
    mats, residual, deviation = isometry_matrix_from_pairs(inputs, outputs)
    ranks = np.linalg.matrix_rank(inputs)
    assert ranks.min() < ranks.max()
    for k in range(len(inputs)):
        one, one_residual, one_deviation = isometry_matrix_from_pairs(
            inputs[k:k + 1], outputs[k:k + 1]
        )
        assert mats[k].tobytes() == one[0].tobytes()
        assert residual[k] == one_residual[0] and deviation[k] == one_deviation[0]
    assert np.max(residual) < 1e-10 and np.max(deviation) < 1e-10


class TestStackedGuardsNameTheSlice:
    def _stack(self, rng, n=4, size=3, in_dim=4, out_dim=5):
        inputs = np.array([
            [random_amplitudes(in_dim, rng) for _ in range(size)] for _ in range(n)
        ])
        return inputs, _hidden_images(rng, inputs, out_dim)

    def test_dependent_inputs_conflict(self, rng):
        # Slice 2 declares one input twice, the second output tilted by 1e-5
        # away from the slice's other outputs: Gram-consistent within
        # tolerance, but no isometry maps both.
        inputs, outputs = self._stack(rng)
        inputs[2, 1] = inputs[2, 0]
        span = np.stack([outputs[2, 0], outputs[2, 2], outputs[1, 0]], axis=1)
        away = np.linalg.qr(span)[0][:, 2]
        outputs[2, 1] = math.cos(1e-5) * outputs[2, 0] + math.sin(1e-5) * away
        assert consistent((inputs[2:3], outputs[2:3]))[0]
        with pytest.raises(DependentInputsConflict, match="at batch index 2$"):
            isometry_matrix_from_pairs(inputs, outputs)
        with pytest.raises(DependentInputsConflict, match="at batch index 2$"):
            extend_to_isometries(inputs, outputs)

    def test_inconsistent_gram(self, rng):
        inputs, outputs = self._stack(rng)
        outputs[1] = outputs[1, ::-1]
        with pytest.raises(InconsistentGram, match="at batch index 1$") as exc:
            extend_to_isometries(inputs, outputs)
        assert exc.value.max_deviation > 1e-3

    def test_unnormalized_rule(self, rng):
        inputs, outputs = self._stack(rng)
        outputs[3, 2] *= 1.01
        with pytest.raises(ValueError, match="output is not normalized at batch index 3$"):
            extend_to_isometries(inputs, outputs)

    def test_non_isometry_beyond_the_first_chunk(self):
        mats = np.stack([np.eye(32, dtype=complex)] * 10)
        assert core.CHUNK_ENTRIES // mats[0].size < 7
        mats[7, 0, 0] = 1.1
        with pytest.raises(ValueError, match="not an isometry .* at batch index 7$"):
            require_isometries(mats)
        assert require_isometries(mats[0]).shape == ()

    def test_output_smaller_than_input(self, rng):
        inputs, _ = self._stack(rng)
        with pytest.raises(ValueError, match="output dimension"):
            isometry_matrix_from_pairs(inputs, inputs[..., :3])

    def test_non_orthonormal_expansion(self, rng):
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        probe, bases, inputs, outputs = (
            np.repeat(a, 3, axis=0) for a in (_probe(rng, anc), basis, inputs, outputs)
        )
        bases[1, 1] = bases[1, 0]
        with pytest.raises(ValueError, match="non-orthonormal expansion at batch index 1$"):
            termwise_batch(probe, bases, inputs, outputs)


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
def test_equivalence_of_nearly_identical_kets(eps):
    # Four kets within eps of each other in dimension 6, and their images
    # under a hidden unitary: the Gram matrices agree by construction at
    # every eps, so the solver must recover a unitary at every eps.
    rng = np.random.default_rng(6)
    for _ in range(5):
        base = random_amplitudes(6, rng)
        members = []
        for _ in range(4):
            z = base + eps * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
            members.append(z / np.linalg.norm(z))
        hide = random_isometry(6, 6, rng)
        moved = [hide @ k for k in members]
        u = extend_to_isometries(np.array([members]), np.array([moved])).isometries[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10
        for x, y in zip(members, moved):
            assert np.max(np.abs(u @ x - y)) < 1e-10


class TestApplyLinear:
    """An isometry on the acted factors of stacked states, spectators
    untouched: :func:`~qclonelab.machines.apply_isometries`."""

    def test_identity_machine(self, rng):
        eye = np.eye(6, dtype=complex)[None]
        identity = extend_to_isometries(eye, eye).isometries
        state = random_amplitudes(12, rng)  # (w 2, x 2, y 3), acting on (x, y)
        out = apply_isometries(identity, state.reshape(1, 2, 6))
        assert abs(abs(np.vdot(out.reshape(-1), state)) - 1.0) < 1e-12

    def test_spectator_marginal_untouched_product(self, rng):
        spectator = random_amplitudes(3, rng)
        acted = random_amplitudes(4, rng)
        state = np.kron(spectator, acted)
        lm = random_isometry(4, 6, rng)
        out = apply_isometries(lm[None], state.reshape(1, 3, 4))
        before = np.outer(spectator, spectator.conj())
        after = reduced_states(out.reshape(-1), (3, 6), (0,))
        assert np.max(np.abs(before - after)) < 1e-12

    def test_no_signalling_entangled(self, rng):
        state = random_amplitudes(24, rng)  # (al 3, b1 2, b2 4)
        lm = random_isometry(8, 12, rng)  # (b1, b2) to (n1 4, n2 3)
        before = reduced_states(state, (3, 2, 4), (0,))
        moved = apply_isometries(lm[None], state.reshape(1, 3, 8)).reshape(-1)
        after = reduced_states(moved, (3, 12), (0,))
        assert np.max(np.abs(before - after)) < 1e-12
        assert np.linalg.norm(moved) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        # On arrays a factor is named by its axis, not by a label; what is
        # left to check is that the rules' dimensions admit an isometry.
        with pytest.raises(ValueError, match="^target dimension 2 is smaller than source 3$"):
            extend_to_isometries(np.eye(2, 3, dtype=complex)[None], np.eye(2, dtype=complex)[None])

    def test_unknown_label_rejected(self):
        # ... and that every declared output has a declared input.
        with pytest.raises(ValueError, match="^family sizes differ: 2 vs 3$"):
            extend_to_isometries(np.eye(2, 3, dtype=complex)[None], np.eye(3, dtype=complex)[None])


def _termwise_fixture(rng, d_anc=3):
    """A stack of one consistent rule set whose inputs are an orthonormal
    expansion basis of (p, q) times a fixed ancilla state on e: the basis
    (1, 4, 4), its rules' inputs and outputs (1, 4, 4 d_anc), and the
    ancilla state (d_anc,)."""
    basis = random_isometry(4, 4, rng).T  # rows: the expansion elements
    anc = random_amplitudes(d_anc, rng)
    inputs = kron_stack(basis, anc)
    out_iso = random_isometry(4 * d_anc, 4 * d_anc, rng)
    return basis[None], inputs[None], (inputs @ out_iso.T)[None], anc


def _probe(rng, anc, d_w: int = 2) -> np.ndarray:
    """A random state of a spectator w and the expansion factors (p, q),
    times the ancilla state ``anc`` on e, as a block (1, d_w, 4 len(anc))."""
    return np.kron(random_amplitudes(4 * d_w, rng), anc).reshape(1, d_w, -1)


class TestApplyTermwise:
    def test_agrees_with_linear_extension(self, rng):
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        lm = extend_to_isometries(inputs, outputs).isometries
        for _ in range(20):
            probe = _probe(rng, anc, d_w=3)
            via_term = termwise_batch(probe, basis, inputs, outputs)
            via_lin = apply_isometries(lm, probe)
            assert np.max(np.abs(via_term - via_lin)) < 1e-10

    def test_nonorthonormal_expansion_rejected(self, rng):
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        skewed = basis[:, [0, 0, 2, 3]]
        with pytest.raises(ValueError, match="orthonormal"):
            termwise_batch(_probe(rng, anc), skewed, inputs, outputs)

    def test_uncovered_expansion_element_rejected(self, rng):
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        with pytest.raises(ValueError, match="not covered"):
            termwise_batch(_probe(rng, anc), basis, inputs[:, :2], outputs[:, :2])

    def test_wrong_ancilla_state_rejected(self, rng):
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        other = random_amplitudes(3, rng)
        with pytest.raises(ValueError, match="ancilla"):
            termwise_batch(_probe(rng, other), basis, inputs, outputs)


class TestTermwiseRulesUpToPhase:
    def test_rephased_rule_reads_the_same(self, rng):
        # A rule declared on e^{i t} (u_k x anc) -> e^{i t} y_k is the same
        # linear rule; its phase is folded into the output.
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        probe = _probe(rng, anc)
        phases = np.array([1.0, np.exp(1.1j), 1.0, 1.0])[:, None]
        plain = termwise_batch(probe, basis, inputs, outputs)
        folded = termwise_batch(probe, basis, phases * inputs, phases * outputs)
        np.testing.assert_allclose(folded, plain, atol=1e-12)

    def test_agreeing_duplicate_rule_accepted(self, rng):
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        probe = _probe(rng, anc)
        doubled = (np.concatenate([rules, -rules[:, 2:3]], axis=1) for rules in (inputs, outputs))
        plain = termwise_batch(probe, basis, inputs, outputs)
        same = termwise_batch(probe, basis, *doubled)
        assert same.tobytes() == plain.tobytes()

    def test_conflicting_duplicate_rule_raises(self, rng):
        basis, inputs, outputs, anc = _termwise_fixture(rng)
        conflicting = (
            np.concatenate([inputs, 1j * inputs[:, 2:3]], axis=1),
            np.concatenate([outputs, outputs[:, 3:4]], axis=1),
        )
        with pytest.raises(ConflictingRules, match="rules 2 and 4 .* element 2"):
            termwise_batch(_probe(rng, anc), basis, *conflicting)


def test_batches_of_one_give_the_stacks_bits(rng):
    # extend_to_isometry and apply_termwise, kept for the benchmark harness,
    # are the stacked kernels on one rule set.
    basis, inputs, outputs, anc = _termwise_fixture(rng)
    probe = _probe(rng, anc)
    one = extend_to_isometry(inputs[0], outputs[0])
    assert one.isometries.tobytes() == extend_to_isometries(inputs, outputs).isometries.tobytes()
    termwise = apply_termwise(probe[0], basis[0], inputs[0], outputs[0])
    assert termwise.tobytes() == termwise_batch(probe, basis, inputs, outputs)[0].tobytes()


def _same(theta, phi=0.0):
    """Source and register bases both at Bloch angles (theta, phi)."""
    return basis_amplitudes(theta, phi), basis_amplitudes(theta, phi)


class TestMergeSpecs:
    def test_union_has_all_pairs(self):
        # The two-basis wishful machine is the union of both bases' rules.
        inputs, _ = nosig.wishful_machine_rules(np.array([[_same(0.0), _same(0.5)]]))
        assert inputs.shape[1] == 8


class TestWishfulPreset:
    def test_four_normalized_pairs(self):
        inputs, outputs = wishful_cloner(_same(0.0))
        assert inputs.shape[1] == outputs.shape[1] == 4
        np.testing.assert_allclose(np.linalg.norm(inputs, axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(outputs, axis=-1), 1.0, atol=1e-12)

    def test_first_rule_output_is_double_copy(self):
        psi = basis_amplitudes(0.9, 0.4)
        _, outputs = wishful_cloner((psi, basis_amplitudes(1.3, 2.0)))
        p = psi[0]
        c1 = np.zeros(4, dtype=complex)
        c1[0] = 1.0
        np.testing.assert_allclose(outputs[0, 0], kron_all(p, p, c1), atol=1e-15)

    def test_single_basis_rules_form_isometry(self):
        # Within one basis the four rules map an orthonormal set to an
        # orthonormal set, so the unphysical content only appears in the
        # two-basis union.
        assert consistent(wishful_cloner(_same(0.7)))[0]

    def test_two_basis_union_inconsistent(self):
        for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            union = wishful_cloner(_same(0.0), _same(theta))
            assert not consistent(union)[0]

    def test_identical_bases_union_consistent(self):
        union = wishful_cloner(_same(0.4, 0.2), _same(0.4, 0.2))
        assert consistent(union)[0]


class TestStrongClonerPreset:
    def test_orthogonal_pair_consistent(self):
        assert consistent(strong_cloner(0.0, 0.0, 0.0))[0]

    def test_062505_deviation(self):
        assert gram_deviation(strong_cloner(0.6, 0.5, 0.5))[0] == pytest.approx(0.12, abs=1e-12)

    def test_forced_equality_extends(self):
        found = extend_to_isometries(*strong_cloner(0.6, 0.3, 0.5))
        assert found.isometries.shape == (1, 32, 32)

    def test_boundary_sampled(self, rng):
        for _ in range(50):
            a, c = rng.uniform(0.05, 1.0, size=2)
            assert consistent(strong_cloner(a, a * c, c))[0]
        for _ in range(50):
            a = rng.uniform(0.1, 1.0)
            b, c = rng.uniform(0.0, 1.0, size=2)
            if abs(b - a * c) < 0.05:
                continue
            assert not consistent(strong_cloner(a, b, c))[0]


class TestDeleterPreset:
    def test_orthogonal_consistent(self):
        assert consistent(deleter(0.0, 0.0))[0]

    def test_squared_ancilla_overlap_inconsistent(self):
        # Input Gram a^2 against output a*a^2: information fails to persist.
        a = 0.7
        rules = deleter(a, a * a)
        assert gram_deviation(rules)[0] == pytest.approx(abs(a**2 - a**3), abs=1e-12)
        assert not consistent(rules)[0]

    def test_matching_ancilla_overlap_consistent(self, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 1.0)
            assert consistent(deleter(a, a))[0]


class TestRandomIsometry:
    """Haar-random isometries as the commands draw them:
    :func:`~qclonelab.machines.haar_draw`, then
    :func:`~qclonelab.machines.haar_isometries`."""

    def test_columns_orthonormal(self, rng):
        for n_in, n_out in ((4, 4), (4, 7)):
            m = random_isometry(n_in, n_out, rng)
            assert m.shape == (n_out, n_in)
            assert np.max(np.abs(m.conj().T @ m - np.eye(n_in))) < 1e-12

    def test_seeded_reproducibility(self):
        m1 = random_isometry(4, 4, np.random.default_rng(5))
        m2 = random_isometry(4, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(m1, m2)
