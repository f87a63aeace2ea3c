import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_ket, random_basis_angles, random_ket
from oracles import basis_amplitudes_scalar, bloch_pair, kron_all
from qclonelab.core import (
    Ket,
    eig_hermitian,
    inner,
    kron_stack,
    reduced_states,
    signature,
)
from qclonelab.nosignal import _singlets
from qclonelab.states import StateFamily, basis_amplitudes, gram, kets_with_overlap
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


class TestGram:
    def test_orthonormal_family_identity(self):
        sig = signature(("x", 3))
        fam = StateFamily(tuple(basis_ket(sig, k) for k in range(3)))
        np.testing.assert_allclose(gram(fam), np.eye(3))

    def test_zero_plus_family(self):
        sig = signature(("x", 2))
        zero = basis_ket(sig, 0)
        plus = Ket(sig, np.array([1, 1]) / math.sqrt(2))
        g = gram(StateFamily((zero, plus)))
        assert g[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert g[1, 0] == pytest.approx(1 / math.sqrt(2))

    def test_unitary_invariance(self, rng):
        from qclonelab.machines import apply_linear, random_isometry

        sig = signature(("x", 5))
        fam = StateFamily(tuple(random_ket(sig, rng) for _ in range(4)))
        u = random_isometry(sig, signature(("y", 5)), rng)
        moved = StateFamily(tuple(apply_linear(u, k, ("x",)) for k in fam.members))
        np.testing.assert_allclose(gram(fam), gram(moved), atol=1e-12)

    def test_positive_semidefinite(self, rng):
        sig = signature(("x", 4))
        fam = StateFamily(tuple(random_ket(sig, rng) for _ in range(3)))
        assert eig_hermitian(gram(fam)).eigenvalues.min() > -1e-10


def has_orthogonal_pair(family: StateFamily) -> bool:
    """Whether two members have a Gram entry below the assertion tolerance."""
    g = np.abs(gram(family))
    return bool(np.any(g[np.triu_indices(len(family), 1)] < ASSERT_TOL))


class TestOrthogonalPair:
    def test_detects_orthogonal(self):
        sig = signature(("x", 2))
        z, o = basis_ket(sig, 0), basis_ket(sig, 1)
        assert has_orthogonal_pair(StateFamily((z, o)))

    def test_rejects_nonorthogonal(self):
        z, p = kets_with_overlap(1 / math.sqrt(2), 2)
        assert not has_orthogonal_pair(StateFamily((z, p)))

    def test_triple_with_hidden_pair(self):
        sig = signature(("x", 2))
        z, o = basis_ket(sig, 0), basis_ket(sig, 1)
        plus = Ket(sig, np.array([1, 1]) / math.sqrt(2))
        assert has_orthogonal_pair(StateFamily((z, plus, o)))


class TestKetsWithOverlap:
    def test_orthogonal_target(self):
        a, b = kets_with_overlap(0.0, 3)
        assert inner(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_identical_target(self):
        a, b = kets_with_overlap(1.0, 2)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)

    def test_roundtrip_grid(self):
        for modulus in np.arange(0.0, 1.0 + 1e-12, 0.1):
            for phase in (0.0, math.pi / 3, math.pi):
                target = modulus * np.exp(1j * phase)
                a, b = kets_with_overlap(target, 4)
                assert a.norm == pytest.approx(1.0, abs=1e-12)
                assert b.norm == pytest.approx(1.0, abs=1e-12)
                assert inner(a, b) == pytest.approx(target, abs=1e-12)

    def test_requested_value_verified(self):
        a, b = kets_with_overlap(0.6, 4)
        assert inner(a, b) == pytest.approx(0.6, abs=1e-15)

    def test_modulus_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            kets_with_overlap(1.2, 2)
