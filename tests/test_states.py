import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_basis_angles, random_isometry, signature
from oracles import basis_amplitudes_scalar, bloch_pair, kron_all, random_amplitudes
from qclonelab.core import Ket, eig_hermitian_batch, kron_stack, reduced_states
from qclonelab.machines import apply_isometries
from qclonelab.nosignal import _singlets
from qclonelab.states import (
    basis_amplitudes,
    gram_stack,
    overlap_pair_amplitudes,
    random_kets,
)
from qclonelab.tolerances import ASSERT_TOL


# -0.0 lies in range and has its own sine, so it must not share 0.0's.
_THETAS = st.one_of(
    st.floats(0.0, math.pi), st.sampled_from([0.0, -0.0, math.pi, 5e-324, math.pi / 2])
)
_PHIS = st.one_of(
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 5e-324]),
)


class TestQubitBasis:
    def test_computational(self):
        primary, complement = basis_amplitudes(0.0, 0.0)
        np.testing.assert_allclose(primary, [1, 0])
        np.testing.assert_allclose(complement, [0, 1])

    def test_hadamard_angle(self):
        primary, complement = basis_amplitudes(math.pi / 2, 0.0)
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(primary, [r, r], atol=1e-15)
        np.testing.assert_allclose(complement, [-r, r], atol=1e-15)
        assert abs(np.vdot(primary, complement)) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_amplitudes(-0.1, 0.0)
        with pytest.raises(ValueError):
            basis_amplitudes(0.5, 7.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.0, math.pi, allow_nan=False),
        st.floats(0.0, 2 * math.pi, exclude_max=True, allow_nan=False),
    )
    def test_always_orthonormal(self, theta, phi):
        primary, complement = basis_amplitudes(theta, phi)
        assert np.linalg.norm(primary) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(complement) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(primary, complement)) < 1e-12

    def test_out_of_range_names_the_first_failing_index(self):
        with pytest.raises(ValueError, match=r"got -0\.1$"):
            basis_amplitudes(-0.1, 0.0)
        with pytest.raises(ValueError, match=r"theta .* got -1\.0 at batch index 2$"):
            basis_amplitudes([0.1, 0.2, -1.0, 4.0], 0.0)
        with pytest.raises(ValueError, match=r"phi .* got nan at batch index 1$"):
            basis_amplitudes([0.1, 0.2], [0.0, float("nan")])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_THETAS, _PHIS), min_size=1, max_size=30))
    def test_columns_round_as_the_scalar_recipe(self, angles):
        want = np.array([basis_amplitudes_scalar(t, p) for t, p in angles])
        theta, phi = (list(column) for column in zip(*angles))
        assert basis_amplitudes(theta, phi).tobytes() == want.tobytes()
        # The scalar call is the batch of one.
        for (t, p), pair in zip(angles, want):
            assert basis_amplitudes(t, p).shape == (2, 2)
            assert basis_amplitudes(t, p).tobytes() == pair.tobytes()

    def test_signed_zero_angles_keep_their_own_bits(self):
        angles = [(0.0, 4.0), (-0.0, 4.0), (0.5, -0.0), (0.5, 0.0)]
        want = np.array([basis_amplitudes_scalar(t, p) for t, p in angles])
        assert basis_amplitudes(*zip(*angles)).tobytes() == want.tobytes()

    def test_columns_round_as_the_scalar_recipe_in_bulk(self):
        rng = np.random.default_rng(13)
        theta = rng.uniform(0.0, math.pi, 20_000)
        phi = rng.uniform(0.0, 2.0 * math.pi, 20_000)
        want = np.array([basis_amplitudes_scalar(t, p) for t, p in zip(theta.tolist(), phi.tolist())])
        assert basis_amplitudes(theta, phi).tobytes() == want.tobytes()

    def test_overlap_with_pole(self):
        theta = 1.234
        got = abs(np.vdot(basis_amplitudes(0.0, 0.0)[0], basis_amplitudes(theta, 0.0)[0]))
        assert got == pytest.approx(math.cos(theta / 2), abs=1e-12)


def singlet(theta, phi, labels=("u", "v")) -> Ket:
    """The singlet of the basis pair at Bloch angles (theta, phi)."""
    return Ket(signature((labels[0], 2), (labels[1], 2)), _singlets(basis_amplitudes(theta, phi)))


class TestSinglet:
    def test_computational_amplitudes(self):
        s = _singlets(basis_amplitudes(0.0, 0.0))
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(s, [0, r, -r, 0])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="u"):
            singlet(0.0, 0.0, ("u", "u"))

    def test_basis_invariance_50_random(self, rng):
        worst = 0.0
        for _ in range(50):
            s1 = _singlets(basis_amplitudes(*random_basis_angles(rng)))
            s2 = _singlets(basis_amplitudes(*random_basis_angles(rng)))
            worst = max(worst, abs(1.0 - abs(np.vdot(s1, s2))))
        assert worst < 1e-10

    def test_marginals_maximally_mixed(self, rng):
        s = _singlets(basis_amplitudes(*random_basis_angles(rng)))
        for keep in (0, 1):
            np.testing.assert_allclose(
                reduced_states(s, (2, 2), (keep,)), np.eye(2) / 2, atol=1e-13
            )

    def test_two_singlet_product_matches_termwise_expansion(self, rng):
        # Product of two singlets expanded term by term carries the
        # (+, -, -, +)/2 sign pattern over the four basis products.
        th, ph = random_basis_angles(rng)
        th2, ph2 = random_basis_angles(rng)
        got = kron_stack(
            _singlets(basis_amplitudes(th, ph)), _singlets(basis_amplitudes(th2, ph2))
        )
        psi, psibar = bloch_pair(th, ph)
        al, albar = bloch_pair(th2, ph2)
        want = 0.5 * (
            kron_all(psi, psibar, al, albar)
            - kron_all(psi, psibar, albar, al)
            - kron_all(psibar, psi, al, albar)
            + kron_all(psibar, psi, albar, al)
        )
        np.testing.assert_allclose(got, want, atol=1e-14)


ZERO, ONE = np.eye(2, dtype=complex)
PLUS = np.array([1, 1]) / math.sqrt(2)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 300), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_random_kets_are_the_one_at_a_time_draws_bit_for_bit(dim, n, seed):
    # The stream and the rounding of one ket after another, each divided by
    # np.linalg.norm of its amplitudes.
    rng = np.random.default_rng(seed)
    one_at_a_time = []
    for _ in range(n):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        one_at_a_time.append(z / np.linalg.norm(z))
    stacked = random_kets(dim, np.random.default_rng(seed), n)
    assert stacked.tobytes() == np.array(one_at_a_time).tobytes()


class TestGram:
    def test_orthonormal_family_identity(self):
        np.testing.assert_allclose(gram_stack(np.eye(3, dtype=complex)), np.eye(3))

    def test_zero_plus_family(self):
        g = gram_stack(np.array([ZERO, PLUS]))
        assert g[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert g[1, 0] == pytest.approx(1 / math.sqrt(2))

    def test_unitary_invariance(self, rng):
        fam = np.array([random_amplitudes(5, rng) for _ in range(4)])
        u = random_isometry(5, 5, rng)
        moved = apply_isometries(u[None], fam[None])[0]
        np.testing.assert_allclose(gram_stack(fam), gram_stack(moved), atol=1e-12)

    def test_positive_semidefinite(self, rng):
        fam = np.array([random_amplitudes(4, rng) for _ in range(3)])
        assert eig_hermitian_batch(gram_stack(fam))[0].min() > -1e-10


def has_orthogonal_pair(family: np.ndarray) -> bool:
    """Whether two members have a Gram entry below the assertion tolerance."""
    g = np.abs(gram_stack(family))
    return bool(np.any(g[np.triu_indices(len(family), 1)] < ASSERT_TOL))


class TestOrthogonalPair:
    def test_detects_orthogonal(self):
        assert has_orthogonal_pair(np.array([ZERO, ONE]))

    def test_rejects_nonorthogonal(self):
        assert not has_orthogonal_pair(overlap_pair_amplitudes([1 / math.sqrt(2)], 2)[0])

    def test_triple_with_hidden_pair(self):
        assert has_orthogonal_pair(np.array([ZERO, PLUS, ONE]))


class TestKetsWithOverlap:
    """Ket pairs with a prescribed overlap:
    :func:`~qclonelab.states.overlap_pair_amplitudes`."""

    def test_orthogonal_target(self):
        a, b = overlap_pair_amplitudes([0.0], 3)[0]
        assert np.vdot(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_identical_target(self):
        a, b = overlap_pair_amplitudes([1.0], 2)[0]
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_roundtrip_grid(self):
        for modulus in np.arange(0.0, 1.0 + 1e-12, 0.1):
            for phase in (0.0, math.pi / 3, math.pi):
                target = modulus * np.exp(1j * phase)
                a, b = overlap_pair_amplitudes([target], 4)[0]
                assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
                assert np.vdot(a, b) == pytest.approx(target, abs=1e-12)

    def test_requested_value_verified(self):
        a, b = overlap_pair_amplitudes([0.6], 4)[0]
        assert np.vdot(a, b) == pytest.approx(0.6, abs=1e-15)

    def test_modulus_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            overlap_pair_amplitudes([1.2], 2)
