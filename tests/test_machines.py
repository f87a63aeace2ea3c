import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclonelab.core as core
import qclonelab.nosignal as nosig

from conftest import (
    basis_ket,
    deleter,
    random_ket,
    spec_from_rules,
    strong_cloner,
    wishful_cloner,
)
from oracles import kron_all
from qclonelab.conservation import equivalence_unitary
from qclonelab.core import Ket, density_of, partial_trace, signature, tensor
from qclonelab.machines import (
    ConflictingRules,
    DependentInputsConflict,
    InconsistentGram,
    MachineSpec,
    apply_linear,
    apply_termwise,
    check_consistency,
    extend_to_isometries,
    extend_to_isometry,
    haar_draw,
    haar_isometries,
    images,
    isometry_matrix_from_pairs,
    random_isometry,
    require_isometries,
    termwise_batch,
)
from qclonelab.states import StateFamily, basis_amplitudes


class TestConsistency:
    def test_orthonormal_inputs_consistent(self):
        sig = signature(("x", 2))
        spec = MachineSpec(
            sig,
            sig,
            ((basis_ket(sig, 0), basis_ket(sig, 0)), (basis_ket(sig, 1), basis_ket(sig, 1))),
        )
        assert check_consistency(spec).consistent

    def test_strong_cloner_deviation_is_gram_arithmetic(self):
        report = check_consistency(strong_cloner(0.6, 0.5, 0.5))
        assert report.input_gram[0, 1] == pytest.approx(0.30, abs=1e-12)
        assert report.output_gram[0, 1] == pytest.approx(0.18, abs=1e-12)
        assert report.max_deviation == pytest.approx(0.12, abs=1e-12)
        assert not report.consistent

    def test_forced_equality_is_consistent(self):
        report = check_consistency(strong_cloner(0.6, 0.3, 0.5))
        assert report.max_deviation < 1e-12
        assert report.consistent


class TestExtendToIsometry:
    def test_identity_spec(self):
        sig = signature(("x", 3))
        pairs = tuple((basis_ket(sig, k), basis_ket(sig, k)) for k in range(3))
        lm = extend_to_isometry(MachineSpec(sig, sig, pairs))
        np.testing.assert_allclose(lm.matrix, np.eye(3), atol=1e-12)

    def test_basis_swap_acts_linearly(self):
        sig = signature(("x", 2))
        pairs = ((basis_ket(sig, 0), basis_ket(sig, 1)), (basis_ket(sig, 1), basis_ket(sig, 0)))
        lm = extend_to_isometry(MachineSpec(sig, sig, pairs))
        plus = np.array([1, 1]) / math.sqrt(2)
        np.testing.assert_allclose(lm.matrix @ plus, plus, atol=1e-12)

    def test_consistent_strong_cloner_reproduces_rules(self):
        spec = strong_cloner(0.6, 0.3, 0.5)
        lm = extend_to_isometry(spec)
        for x, y in spec.pairs:
            assert np.max(np.abs(lm.matrix @ x.amplitudes - y.amplitudes)) < 1e-10
        eye = np.eye(spec.input_signature.dim)
        assert np.max(np.abs(lm.matrix.conj().T @ lm.matrix - eye)) < 1e-10

    def test_inconsistent_raises_with_report(self):
        with pytest.raises(InconsistentGram) as exc:
            extend_to_isometry(strong_cloner(0.6, 0.5, 0.5))
        assert exc.value.report.max_deviation == pytest.approx(0.12, abs=1e-12)

    def test_dependent_inputs_consistent_outputs_accepted(self, rng):
        sig = signature(("x", 3))
        sig_out = signature(("y", 3))
        hide = random_isometry(sig, sig_out, rng)
        a = random_ket(sig, rng)
        pairs = (
            (a, Ket(sig_out, hide.matrix @ a.amplitudes)),
            (a, Ket(sig_out, hide.matrix @ a.amplitudes)),
        )
        lm = extend_to_isometry(MachineSpec(sig, sig_out, pairs))
        assert np.max(np.abs(lm.matrix @ a.amplitudes - pairs[0][1].amplitudes)) < 1e-10

    def test_dependent_inputs_conflicting_outputs_rejected(self):
        # Same input declared twice with outputs tilted by 1e-5: the Gram
        # deviation 1-cos(1e-5) ~ 5e-11 sits inside tolerance, but the second
        # output conflicts with the linearly induced one and must be refused
        # rather than silently fitted.
        sig = signature(("x", 2))
        z = basis_ket(sig, 0)
        eps = 1e-5
        tilted = Ket(sig, np.array([math.cos(eps), math.sin(eps)]))
        spec = MachineSpec(sig, sig, ((z, z), (z, tilted)))
        assert check_consistency(spec).consistent
        with pytest.raises(DependentInputsConflict):
            extend_to_isometry(spec)


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
    sig_in = signature(("x", in_dim))
    sig_out = signature(("y", in_dim + extra_out))
    kets = [random_ket(sig_in, rng) for _ in range(6)]
    hide = random_isometry(sig_in, sig_out, rng)
    pairs = tuple(
        (kets[k], Ket(sig_out, hide.matrix @ kets[k].amplitudes)) for k in picks
    )
    lm = extend_to_isometry(MachineSpec(sig_in, sig_out, pairs))
    assert np.max(np.abs(lm.matrix.conj().T @ lm.matrix - np.eye(in_dim))) < 1e-10
    for x, y in pairs:
        assert np.max(np.abs(lm.matrix @ x.amplitudes - y.amplitudes)) < 1e-10


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
    sig = signature(("x", in_dim))
    inputs = np.array([[random_ket(sig, rng).amplitudes for _ in range(size)] for _ in repeated])
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
        sig = signature(("x", in_dim))
        inputs = np.array([
            [random_ket(sig, rng).amplitudes for _ in range(size)] for _ in range(n)
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
        assert check_consistency(spec_from_rules(
            signature(("x", 4)), signature(("y", 5)), inputs[2], outputs[2]
        )).consistent
        with pytest.raises(DependentInputsConflict, match="at batch index 2$"):
            isometry_matrix_from_pairs(inputs, outputs)
        with pytest.raises(DependentInputsConflict, match="at batch index 2$"):
            extend_to_isometries(inputs, outputs)

    def test_inconsistent_gram(self, rng):
        inputs, outputs = self._stack(rng)
        outputs[1] = outputs[1, ::-1]
        with pytest.raises(InconsistentGram, match="at batch index 1$") as exc:
            extend_to_isometries(inputs, outputs)
        assert exc.value.report.max_deviation > 1e-3

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
        spec, expansion, anc = _termwise_fixture(rng)
        basis = np.stack([k.amplitudes for k in expansion.members], axis=1)
        inputs = np.stack([x.amplitudes for x, _ in spec.pairs])
        outputs = np.stack([y.amplitudes for _, y in spec.pairs])
        probe = tensor(random_ket(signature(("w", 2), ("p", 2), ("q", 2)), rng), anc)
        bases = np.stack([basis] * 3)
        bases[1, :, 1] = bases[1, :, 0]
        with pytest.raises(ValueError, match="non-orthonormal expansion at batch index 1$"):
            termwise_batch(
                np.stack([probe.amplitudes.reshape(2, 12)] * 3), bases,
                np.stack([inputs] * 3), np.stack([outputs] * 3),
            )


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
def test_equivalence_of_nearly_identical_kets(eps):
    # Four kets within eps of each other in dimension 6, and their images
    # under a hidden unitary: the Gram matrices agree by construction at
    # every eps, so the solver must recover a unitary at every eps.
    rng = np.random.default_rng(6)
    sig_f, sig_g = signature(("x", 6)), signature(("y", 6))
    for _ in range(5):
        base = random_ket(sig_f, rng).amplitudes
        members = []
        for _ in range(4):
            z = base + eps * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
            members.append(Ket(sig_f, z / np.linalg.norm(z)))
        hide = random_isometry(sig_f, sig_g, rng)
        moved = [Ket(sig_g, hide.matrix @ k.amplitudes) for k in members]
        u = equivalence_unitary(StateFamily(tuple(members)), StateFamily(tuple(moved)))
        assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(6))) < 1e-10
        for x, y in zip(members, moved):
            assert np.max(np.abs(u.matrix @ x.amplitudes - y.amplitudes)) < 1e-10


class TestApplyLinear:
    def test_identity_machine(self, rng):
        sig = signature(("x", 2), ("y", 3))
        lm = extend_to_isometry(
            MachineSpec(sig, sig, tuple((basis_ket(sig, k), basis_ket(sig, k)) for k in range(6)))
        )
        state = random_ket(signature(("w", 2), ("x", 2), ("y", 3)), rng)
        out = apply_linear(lm, state, ("x", "y"))
        assert abs(abs(np.vdot(out.amplitudes, state.amplitudes)) - 1.0) < 1e-12

    def test_spectator_marginal_untouched_product(self, rng):
        spectator = random_ket(signature(("al", 3)), rng)
        acted = random_ket(signature(("b", 4)), rng)
        state = tensor(spectator, acted)
        lm = random_isometry(signature(("m", 4)), signature(("n", 6)), rng)
        out = apply_linear(lm, state, ("b",))
        before = density_of(spectator).entries
        after = partial_trace(out, ("al",)).entries
        assert np.max(np.abs(before - after)) < 1e-12

    def test_no_signalling_entangled(self, rng):
        sig = signature(("al", 3), ("b1", 2), ("b2", 4))
        state = random_ket(sig, rng)
        lm = random_isometry(
            signature(("m1", 2), ("m2", 4)), signature(("n1", 4), ("n2", 3)), rng
        )
        before = partial_trace(state, ("al",)).entries
        moved = apply_linear(lm, state, ("b1", "b2"))
        after = partial_trace(moved, ("al",)).entries
        assert np.max(np.abs(before - after)) < 1e-12
        assert moved.norm == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        lm = random_isometry(signature(("m", 3)), signature(("n", 3)), rng)
        state = random_ket(signature(("a", 2), ("b", 2)), rng)
        with pytest.raises(ValueError, match="dimension"):
            apply_linear(lm, state, ("b",))

    def test_unknown_label_rejected(self, rng):
        lm = random_isometry(signature(("m", 2)), signature(("n", 2)), rng)
        state = random_ket(signature(("a", 2)), rng)
        with pytest.raises(ValueError, match="zz"):
            apply_linear(lm, state, ("zz",))


def _termwise_fixture(rng, d_anc=3):
    """Consistent machine whose inputs are an orthonormal expansion times a
    fixed ancilla, plus the expansion family itself."""
    sig_exp = signature(("p", 2), ("q", 2))
    sig_anc = signature(("e", d_anc))
    sig_in = sig_exp.concat(sig_anc)
    sig_out = signature(("r", 2), ("s", 2), ("f", d_anc))
    basis_iso = random_isometry(sig_exp, signature(("t", 4)), rng)
    expansion = StateFamily(tuple(Ket(sig_exp, basis_iso.matrix[:, k]) for k in range(4)))
    anc = random_ket(sig_anc, rng)
    out_iso = random_isometry(sig_in, sig_out, rng)
    pairs = tuple(
        (
            Ket(sig_in, np.kron(u.amplitudes, anc.amplitudes)),
            Ket(sig_out, out_iso.matrix @ np.kron(u.amplitudes, anc.amplitudes)),
        )
        for u in expansion.members
    )
    return MachineSpec(sig_in, sig_out, pairs), expansion, anc


class TestApplyTermwise:
    def test_agrees_with_linear_extension(self, rng):
        spec, expansion, anc = _termwise_fixture(rng)
        lm = extend_to_isometry(spec)
        for _ in range(20):
            probe = tensor(random_ket(signature(("w", 3), ("p", 2), ("q", 2)), rng), anc)
            via_term = apply_termwise(spec, probe, ("p", "q", "e"), expansion)
            via_lin = apply_linear(lm, probe, ("p", "q", "e"))
            assert np.max(np.abs(via_term.amplitudes - via_lin.amplitudes)) < 1e-10

    def test_nonorthonormal_expansion_rejected(self, rng):
        spec, expansion, anc = _termwise_fixture(rng)
        skewed = StateFamily(
            (expansion.members[0],) * 2 + expansion.members[2:]
        )
        probe = tensor(random_ket(signature(("w", 2), ("p", 2), ("q", 2)), rng), anc)
        with pytest.raises(ValueError, match="orthonormal"):
            apply_termwise(spec, probe, ("p", "q", "e"), skewed)

    def test_uncovered_expansion_element_rejected(self, rng):
        spec, expansion, anc = _termwise_fixture(rng)
        partial = MachineSpec(spec.input_signature, spec.output_signature, spec.pairs[:2])
        probe = tensor(random_ket(signature(("w", 2), ("p", 2), ("q", 2)), rng), anc)
        with pytest.raises(ValueError, match="not covered"):
            apply_termwise(partial, probe, ("p", "q", "e"), expansion)

    def test_wrong_ancilla_state_rejected(self, rng):
        spec, expansion, anc = _termwise_fixture(rng)
        other = random_ket(signature(("e", 3)), rng)
        probe = tensor(random_ket(signature(("w", 2), ("p", 2), ("q", 2)), rng), other)
        with pytest.raises(ValueError, match="ancilla"):
            apply_termwise(spec, probe, ("p", "q", "e"), expansion)


def _with_pairs(spec: MachineSpec, pairs) -> MachineSpec:
    return MachineSpec(spec.input_signature, spec.output_signature, pairs)


def _rephased(pair, phase):
    x, y = pair
    return Ket(x.signature, phase * x.amplitudes), Ket(y.signature, phase * y.amplitudes)


class TestTermwiseRulesUpToPhase:
    def _probe(self, rng, anc):
        return tensor(random_ket(signature(("w", 2), ("p", 2), ("q", 2)), rng), anc)

    def test_rephased_rule_reads_the_same(self, rng):
        # A rule declared on e^{i t} (u_k x anc) -> e^{i t} y_k is the same
        # linear rule; its phase is folded into the output.
        spec, expansion, anc = _termwise_fixture(rng)
        probe = self._probe(rng, anc)
        rephased = _with_pairs(
            spec, (spec.pairs[0], _rephased(spec.pairs[1], np.exp(1.1j)), *spec.pairs[2:])
        )
        plain = apply_termwise(spec, probe, ("p", "q", "e"), expansion)
        folded = apply_termwise(rephased, probe, ("p", "q", "e"), expansion)
        np.testing.assert_allclose(folded.amplitudes, plain.amplitudes, atol=1e-12)

    def test_agreeing_duplicate_rule_accepted(self, rng):
        spec, expansion, anc = _termwise_fixture(rng)
        probe = self._probe(rng, anc)
        doubled = _with_pairs(spec, spec.pairs + (_rephased(spec.pairs[2], -1.0),))
        plain = apply_termwise(spec, probe, ("p", "q", "e"), expansion)
        same = apply_termwise(doubled, probe, ("p", "q", "e"), expansion)
        assert same.amplitudes.tobytes() == plain.amplitudes.tobytes()

    def test_conflicting_duplicate_rule_raises(self, rng):
        spec, expansion, anc = _termwise_fixture(rng)
        x2, _ = _rephased(spec.pairs[2], 1j)
        conflicting = _with_pairs(spec, spec.pairs + ((x2, spec.pairs[3][1]),))
        with pytest.raises(ConflictingRules, match="rules 2 and 4 .* element 2"):
            apply_termwise(conflicting, self._probe(rng, anc), ("p", "q", "e"), expansion)


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
        spec = wishful_cloner(_same(0.0))
        assert len(spec.pairs) == 4
        for x, y in spec.pairs:
            assert x.norm == pytest.approx(1.0, abs=1e-12)
            assert y.norm == pytest.approx(1.0, abs=1e-12)

    def test_first_rule_output_is_double_copy(self):
        psi = basis_amplitudes(0.9, 0.4)
        spec = wishful_cloner((psi, basis_amplitudes(1.3, 2.0)))
        p = psi[0]
        c1 = np.zeros(4, dtype=complex)
        c1[0] = 1.0
        np.testing.assert_allclose(spec.pairs[0][1].amplitudes, kron_all(p, p, c1), atol=1e-15)

    def test_single_basis_rules_form_isometry(self):
        # Within one basis the four rules map an orthonormal set to an
        # orthonormal set, so the unphysical content only appears in the
        # two-basis union.
        spec = wishful_cloner(_same(0.7))
        assert check_consistency(spec).consistent

    def test_two_basis_union_inconsistent(self):
        for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            union = wishful_cloner(_same(0.0), _same(theta))
            assert not check_consistency(union).consistent

    def test_identical_bases_union_consistent(self):
        union = wishful_cloner(_same(0.4, 0.2), _same(0.4, 0.2))
        assert check_consistency(union).consistent


class TestStrongClonerPreset:
    def test_orthogonal_pair_consistent(self):
        spec = strong_cloner(0.0, 0.0, 0.0)
        assert check_consistency(spec).consistent

    def test_062505_deviation(self):
        assert check_consistency(strong_cloner(0.6, 0.5, 0.5)).max_deviation == pytest.approx(
            0.12, abs=1e-12
        )

    def test_forced_equality_extends(self):
        lm = extend_to_isometry(strong_cloner(0.6, 0.3, 0.5))
        assert lm.matrix.shape == (32, 32)

    def test_boundary_sampled(self, rng):
        for _ in range(50):
            a, c = rng.uniform(0.05, 1.0, size=2)
            assert check_consistency(strong_cloner(a, a * c, c)).consistent
        for _ in range(50):
            a = rng.uniform(0.1, 1.0)
            b, c = rng.uniform(0.0, 1.0, size=2)
            if abs(b - a * c) < 0.05:
                continue
            assert not check_consistency(strong_cloner(a, b, c)).consistent


class TestDeleterPreset:
    def test_orthogonal_consistent(self):
        spec = deleter(0.0, 0.0)
        assert check_consistency(spec).consistent

    def test_squared_ancilla_overlap_inconsistent(self):
        # Input Gram a^2 against output a*a^2: information fails to persist.
        a = 0.7
        spec = deleter(a, a * a)
        report = check_consistency(spec)
        assert report.max_deviation == pytest.approx(abs(a**2 - a**3), abs=1e-12)
        assert not report.consistent

    def test_matching_ancilla_overlap_consistent(self, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 1.0)
            spec = deleter(a, a)
            assert check_consistency(spec).consistent


class TestRandomIsometry:
    def test_columns_orthonormal(self, rng):
        for n_in, n_out in ((4, 4), (4, 7)):
            lm = random_isometry(signature(("a", n_in)), signature(("b", n_out)), rng)
            eye = np.eye(n_in)
            assert np.max(np.abs(lm.matrix.conj().T @ lm.matrix - eye)) < 1e-12

    def test_seeded_reproducibility(self):
        sig_a, sig_b = signature(("a", 4)), signature(("b", 4))
        m1 = random_isometry(sig_a, sig_b, np.random.default_rng(5)).matrix
        m2 = random_isometry(sig_a, sig_b, np.random.default_rng(5)).matrix
        np.testing.assert_array_equal(m1, m2)
