import numpy as np
import pytest

import qclonelab.conservation as cons
from conftest import consistent, random_isometry, strong_cloner
from oracles import binary_entropy, partial_trace_einsum, random_amplitudes
from qclonelab.conservation import evaluate_batch, lambda_after, lambda_before
from qclonelab.core import eig_hermitian_batch, kron_stack, reduced_states
from qclonelab.machines import (
    InconsistentGram,
    apply_isometries,
    extend_to_isometries,
    gram_comparison,
)
from qclonelab.states import overlap_pair_amplitudes

GRID = np.round(np.arange(0.0, 1.0 + 1e-12, 0.1), 10)


def point(a, b, c, weight=0.5):
    """The conservation kernel on one overlap triple."""
    return evaluate_batch([a], [b], [c], [weight])


def before(a, b, c=0.0, weight=0.5):
    return point(a, b, c, weight).marginal_before[0]


def after(a, b, c, weight=0.5):
    return point(a, b, c, weight).marginal_after[0]


def shared(a, b, weight=0.5):
    """The shared state over (A, bp, br), flat."""
    psis, alphas = overlap_pair_amplitudes([a], 2), overlap_pair_amplitudes([b], 2)
    branches = (kron_stack(psis[:, k], alphas[:, k]) for k in (0, 1))
    return cons._superpose(np.array([weight]), *branches).reshape(-1)


def largest_eigenvalue(rho) -> float:
    return float(eig_hermitian_batch(rho)[0][0])


def equivalence_isometry(family, moved) -> np.ndarray:
    """The isometry recovered from two Gram-equal families (K, d) and
    (K, d'): :func:`~qclonelab.machines.extend_to_isometries` on a stack of
    one."""
    return extend_to_isometries(np.asarray(family)[None], np.asarray(moved)[None]).isometries[0]


def delta(a, b, c):
    """Change in Alice's leading eigenvalue and entropy across the cloner."""
    batch = point(a, b, c)
    return (
        batch.eigenvalues_after[0, 0] - batch.eigenvalues_before[0, 0],
        batch.entropy_after[0] - batch.entropy_before[0],
    )


class TestBuild:
    def test_orthogonal_branches_maximally_mixed(self):
        np.testing.assert_allclose(before(0.0, 0.7, 0.2), np.eye(2) / 2, atol=1e-14)

    def test_product_state_pure_marginal(self):
        assert largest_eigenvalue(before(1.0, 1.0, 0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_off_diagonal_is_half_ab(self):
        assert before(0.6, 0.5, 0.5)[1, 0] == pytest.approx(0.15, abs=1e-12)

    def test_out_of_range_modulus(self):
        with pytest.raises(ValueError, match="modulus"):
            point(1.2, 0.5, 0.5)

    def test_complex_overlaps_realized(self):
        a = 0.5 * np.exp(1j * 0.7)
        b = 0.3 * np.exp(-1j * 1.2)
        assert np.linalg.norm(shared(a, b)) == pytest.approx(1.0, abs=1e-12)
        assert before(a, b, 0.4)[1, 0] == pytest.approx(a * b / 2, abs=1e-12)


class TestMarginals:
    def test_after_off_diagonal_is_half_a2c(self):
        assert after(0.6, 0.5, 0.5)[1, 0] == pytest.approx(0.09, abs=1e-12)

    def test_after_unchanged_when_a_zero(self):
        np.testing.assert_allclose(after(0.0, 0.4, 0.9), np.eye(2) / 2, atol=1e-14)

    def test_after_pure_when_all_one(self):
        assert largest_eigenvalue(after(1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_route_equals_closed_form(self):
        # The operation itself cross-checks; verify independently through the
        # generic partial trace on the raw projector.
        amp = shared(0.7, 0.2)
        reduced = partial_trace_einsum(np.outer(amp, amp.conj()), (2, 2, 2), (0,))
        np.testing.assert_allclose(reduced, before(0.7, 0.2, 0.6), atol=1e-14)


class TestClosedForms:
    def test_lambda_values(self):
        assert lambda_before(0.0, 0.9) == pytest.approx(0.5)
        assert lambda_before(1.0, 1.0) == pytest.approx(1.0)
        assert lambda_before(0.6, 0.5) == pytest.approx(0.65, abs=1e-15)
        assert lambda_after(0.0, 0.9) == pytest.approx(0.5)
        assert lambda_after(1.0, 1.0) == pytest.approx(1.0)
        assert lambda_after(0.6, 0.5) == pytest.approx(0.59, abs=1e-15)

    def test_full_grid_against_numeric_eigenvalues(self):
        worst = 0.0
        for a in GRID:
            for b in GRID:
                for c in GRID:
                    batch = point(a, b, c)
                    worst = max(
                        worst,
                        abs(largest_eigenvalue(batch.marginal_before[0]) - lambda_before(a, b)),
                        abs(largest_eigenvalue(batch.marginal_after[0]) - lambda_after(a, c)),
                    )
        assert worst < 1e-12

    def test_generalized_branch_weight_cross_checked(self):
        # Unequal amplitudes: closed form against the numeric eigenvalue.
        for w in (0.2, 0.35, 0.8):
            num_b = largest_eigenvalue(before(0.6, 0.5, 0.5, weight=w))
            num_a = largest_eigenvalue(after(0.6, 0.5, 0.5, weight=w))
            assert num_b == pytest.approx(lambda_before(0.6, 0.5, w), abs=1e-12)
            assert num_a == pytest.approx(lambda_after(0.6, 0.5, w), abs=1e-12)

    def test_entropy_matches_binary_entropy_of_lambda(self):
        got = point(0.6, 0.5, 0.5).entropy_before[0]
        assert got == pytest.approx(binary_entropy(0.65), abs=1e-12)
        assert got == pytest.approx(0.93407, abs=5e-6)


class TestEntanglementDelta:
    def test_consistency_surface_zero(self):
        delta_lambda, delta_entropy = delta(0.6, 0.3, 0.5)
        assert abs(delta_lambda) < 1e-12
        assert abs(delta_entropy) < 1e-12

    def test_violating_point(self):
        delta_lambda, _ = delta(0.6, 0.5, 0.5)
        assert delta_lambda == pytest.approx(-0.06, abs=1e-12)

    def test_orthogonal_branches_zero(self):
        delta_lambda, delta_entropy = delta(0.0, 0.8, 0.3)
        assert abs(delta_lambda) < 1e-12
        assert abs(delta_entropy) < 1e-12

    def test_closed_form_everywhere_on_grid(self):
        worst = 0.0
        for a in GRID[::2]:
            for b in GRID[::2]:
                for c in GRID[::2]:
                    delta_lambda, _ = delta(a, b, c)
                    worst = max(worst, abs(delta_lambda - (a * a * c - a * b) / 2))
        assert worst < 1e-12

    def test_isometric_machine_never_changes_alice(self, rng):
        for _ in range(25):
            a, c = rng.uniform(0.0, 1.0, size=2)
            lm = extend_to_isometries(*strong_cloner(a, a * c, c)).isometries
            # (A, bp, br) with a blank slot and the environment input
            # appended, Bob's factors moved into the cloner's order.
            full = kron_stack(kron_stack(shared(a, a * c), np.eye(2)[0]), np.eye(4)[0])
            block = full.reshape(2, 2, 2, 2, 4).transpose(0, 1, 3, 2, 4).reshape(1, 2, 32)
            moved = apply_isometries(lm, block).reshape(-1)
            marginal = before(a, a * c, c)
            assert np.max(np.abs(marginal - reduced_states(moved, (2, 32), (0,)))) < 1e-12


class TestEquivalenceUnitary:
    """The isometry U with U f_k = g_k of Gram-equal families, recovered by
    :func:`~qclonelab.machines.extend_to_isometries`."""

    def test_identity_on_same_family(self, rng):
        fam = np.array([random_amplitudes(4, rng) for _ in range(3)])
        u = equivalence_isometry(fam, fam)
        for k in fam:
            assert np.max(np.abs(u @ k - k)) < 1e-10

    def test_roundtrip_random_families(self, rng):
        worst_member = 0.0
        worst_iso = 0.0
        for trial in range(100):
            dim = 2 + trial % 7
            size = 1 + trial % 4
            fam = np.array([random_amplitudes(dim, rng) for _ in range(size)])
            hide = random_isometry(dim, dim, rng)
            moved = np.array([hide @ k for k in fam])
            u = equivalence_isometry(fam, moved)
            for x, y in zip(fam, moved):
                worst_member = max(worst_member, np.max(np.abs(u @ x - y)))
            worst_iso = max(worst_iso, np.max(np.abs(u.conj().T @ u - np.eye(dim))))
        assert worst_member < 1e-8
        assert worst_iso < 1e-10

    def test_gram_mismatch_raises_with_deviation(self):
        f, g = (overlap_pair_amplitudes([z], 2)[0] for z in (0.30, 0.18))
        with pytest.raises(InconsistentGram) as exc:
            equivalence_isometry(f, g)
        assert exc.value.max_deviation == pytest.approx(0.12, abs=1e-12)

    def test_dimension_incompatibility(self, rng):
        f = np.array([random_amplitudes(4, rng) for _ in range(2)])
        g = np.array([random_amplitudes(3, rng) for _ in range(2)])
        with pytest.raises(ValueError, match="dimension"):
            equivalence_isometry(f, g)


class TestStackedEquivalenceGuards:
    """The stacked round trips behind ``verify`` keep every guard, and each
    names the first failing trial."""

    _SHAPE = (4, 4, 3)  # dimension, target dimension, family size

    def _trials(self, rng, n=4):
        return np.array([cons.roundtrip_normals(*self._SHAPE, rng) for _ in range(n)])

    def test_roundtrips_are_batches_of_one(self, rng):
        normals = self._trials(rng)
        families, moved, found = cons.roundtrips(*self._SHAPE, normals)
        for k in range(len(normals)):
            one_family, one_moved, one = cons.roundtrips(*self._SHAPE, normals[k:k + 1])
            assert one_family[0].tobytes() == families[k].tobytes()
            assert one_moved[0].tobytes() == moved[k].tobytes()
            for name in ("isometries", "family_gram", "member_residual", "isometry_residual"):
                assert getattr(one, name)[0].tobytes() == getattr(found, name)[k].tobytes()
        assert np.max(found.member_residual) < 1e-12
        assert np.max(found.isometry_residual) < 1e-12

    def test_gram_mismatch(self, rng):
        families, moved, _ = cons.roundtrips(*self._SHAPE, self._trials(rng))
        moved[2] = moved[2, ::-1]
        with pytest.raises(InconsistentGram, match="at batch index 2$") as exc:
            extend_to_isometries(families, moved)
        assert exc.value.max_deviation > 1e-3

    def test_unnormalized_member(self, rng):
        families, moved, _ = cons.roundtrips(*self._SHAPE, self._trials(rng))
        families[1, 0] *= 1.01
        with pytest.raises(ValueError, match="not normalized at batch index 1$"):
            extend_to_isometries(families, moved)

    def test_family_shapes(self, rng):
        families, moved, _ = cons.roundtrips(*self._SHAPE, self._trials(rng))
        with pytest.raises(ValueError, match="family sizes differ"):
            extend_to_isometries(families, moved[:, :2])
        with pytest.raises(ValueError, match="target dimension"):
            extend_to_isometries(families, moved[..., :3])


class TestConsistencySurfaceVerdicts:
    def test_checker_flips_with_delta(self):
        # Away from a = 0 the Gram verdict and the vanishing deltas agree.
        for a in GRID[1:]:
            for c in GRID:
                assert consistent(strong_cloner(a, a * c, c))[0]
        assert not consistent(strong_cloner(0.6, 0.5, 0.5))[0]

    def test_a_zero_always_consistent(self):
        for b in GRID[::3]:
            for c in GRID[::3]:
                assert consistent(strong_cloner(0.0, b, c))[0]

    def test_phase_sensitive_vs_modulus_only_deviation(self):
        # A pure phase on b keeps the moduli equal while the entrywise
        # comparison sees the rotation; both readings are exposed.
        a, c = 0.6, 0.5
        b = a * c * np.exp(1j * 0.8)
        g_in, g_out, dev = gram_comparison(*strong_cloner(a, b, c))
        assert not consistent(strong_cloner(a, b, c))[0]
        modulus_dev = np.max(np.abs(np.abs(g_in) - np.abs(g_out)))
        assert modulus_dev < 1e-12
        assert dev[0] == pytest.approx(
            abs(a * b - a * a * c), abs=1e-12
        )
