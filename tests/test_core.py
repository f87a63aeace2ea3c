import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ket
from oracles import partial_trace_loop, trace_distance_eigsum
from qclonelab.core import (
    DensityMatrix,
    Ket,
    density_of,
    eig_hermitian,
    eig_hermitian_batch,
    entropy,
    inner,
    partial_trace,
    signature,
    tensor,
    trace_distance,
)
from qclonelab.states import qubit_basis, singlet


def ket(label, amps):
    return Ket(signature((label, len(amps))), np.array(amps, dtype=complex))


Q0 = ket("q0", [1, 0])
Q1 = ket("q1", [0, 1])
PLUS = ket("p", [1 / math.sqrt(2), 1 / math.sqrt(2)])


class TestSignature:
    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="q0"):
            signature(("q0", 2), ("q0", 2))

    def test_dim_is_product(self):
        assert signature(("a", 2), ("b", 3), ("c", 4)).dim == 24

    def test_keep_preserves_order(self):
        sig = signature(("a", 2), ("b", 3), ("c", 4))
        assert sig.keep(("c", "a")).labels == ("a", "c")

    def test_keep_unknown_label(self):
        with pytest.raises(ValueError, match="zz"):
            signature(("a", 2)).keep(("zz",))


class TestTensorInner:
    def test_basis_product(self):
        prod = tensor(Q0, Q1)
        np.testing.assert_allclose(prod.amplitudes, [0, 1, 0, 0])
        assert prod.signature.labels == ("q0", "q1")

    def test_plus_plus_uniform(self):
        prod = tensor(PLUS, ket("p2", [1 / math.sqrt(2), 1 / math.sqrt(2)]))
        np.testing.assert_allclose(prod.amplitudes, [0.25**0.5] * 4)

    def test_duplicate_label_named(self):
        with pytest.raises(ValueError, match="q0"):
            tensor(Q0, ket("q0", [0, 1]))

    def test_inner_basics(self):
        assert inner(Q0, Q0) == pytest.approx(1.0)
        assert inner(Q0, ket("q0", [0, 1])) == pytest.approx(0.0)

    def test_inner_conjugate_linear_first(self):
        a = ket("q", [1j / math.sqrt(2), 1 / math.sqrt(2)])
        b = ket("q", [1, 0])
        assert inner(a, b) == pytest.approx(-1j / math.sqrt(2))

    def test_inner_signature_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(Q0, Q1)

    def test_bloch_overlap(self):
        theta = 0.83
        got = inner(qubit_basis(theta, 0.0, "q0").primary, Q0)
        assert got == pytest.approx(math.cos(theta / 2.0), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_inner_factorizes_over_tensor(self, seed):
        rng = np.random.default_rng(seed)
        a, c = (random_ket(signature(("x", 3)), rng) for _ in range(2))
        b, d = (random_ket(signature(("y", 4)), rng) for _ in range(2))
        lhs = inner(tensor(a, b), tensor(c, d))
        assert lhs == pytest.approx(inner(a, c) * inner(b, d), abs=1e-12)

    def test_tensor_norm_multiplicative(self, rng):
        a = random_ket(signature(("x", 3)), rng)
        b = random_ket(signature(("y", 5)), rng)
        assert tensor(a, b).norm == pytest.approx(a.norm * b.norm, abs=1e-12)


class TestDensity:
    def test_projector_of_zero(self):
        np.testing.assert_allclose(density_of(Q0).entries, np.diag([1, 0]))

    def test_projector_of_plus(self):
        np.testing.assert_allclose(density_of(PLUS).entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_zero_ket_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            density_of(ket("q", [0, 0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            density_of(ket("q", [1, 1]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(signature(("q", 2)), np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(signature(("q", 2)), np.eye(2))


class TestPartialTrace:
    def test_product_state_marginal(self):
        rho = density_of(tensor(Q0, Q1))
        np.testing.assert_allclose(partial_trace(rho, ("q0",)).entries, np.diag([1, 0]))

    def test_singlet_marginal_maximally_mixed(self):
        s = singlet(qubit_basis(0.7, 1.1), ("u", "v"))
        for keep in ("u", "v"):
            np.testing.assert_allclose(
                partial_trace(density_of(s), (keep,)).entries, np.eye(2) / 2, atol=1e-14
            )

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(density_of(tensor(Q0, Q1)), ())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_and_hermiticity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        sig = signature(("x", 2), ("y", 3), ("z", 2))
        rho = density_of(random_ket(sig, rng))
        for keep in (("x",), ("y",), ("x", "z"), ("x", "y", "z")):
            red = partial_trace(rho, keep).entries
            assert abs(np.trace(red) - 1.0) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) < 1e-12

    def test_matches_loop_oracle(self, rng):
        sig = signature(("x", 2), ("y", 3), ("z", 2))
        rho = density_of(random_ket(sig, rng))
        got = partial_trace(rho, ("x", "z")).entries
        want = partial_trace_loop(rho.entries, (2, 3, 2), keep=[0, 2])
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestEig:
    def test_diagonal(self):
        spec = eig_hermitian(np.diag([0.3, 0.7]))
        np.testing.assert_allclose(spec.eigenvalues, [0.7, 0.3])

    def test_2x2_closed_form(self):
        m = 0.3 * np.exp(0.4j)
        spec = eig_hermitian(0.5 * np.array([[1.0, np.conj(m)], [m, 1.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [0.65, 0.35], atol=1e-14)

    def test_random_reconstruction_and_numpy_agreement(self, rng):
        for n in (3, 8, 16):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (z + z.conj().T)
            spec = eig_hermitian(h)
            recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.max(np.abs(h - recon)) < 1e-12
            np.testing.assert_allclose(
                np.sort(spec.eigenvalues), np.linalg.eigvalsh(h), atol=1e-12
            )
            ortho = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.max(np.abs(ortho - np.eye(n))) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_descending_order(self, rng):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        vals = eig_hermitian(0.5 * (z + z.conj().T)).eigenvalues
        assert np.all(np.diff(vals) <= 1e-14)

    def test_dense_batch_equals_single_calls_bitwise(self, rng):
        z = rng.standard_normal((5, 16, 16)) + 1j * rng.standard_normal((5, 16, 16))
        stack = 0.5 * (z + np.swapaxes(z, -1, -2).conj())
        vals, vecs = eig_hermitian_batch(stack)
        for k, h in enumerate(stack):
            spec = eig_hermitian(h)
            assert vals[k].tobytes() == spec.eigenvalues.tobytes()
            assert vecs[k].tobytes() == spec.eigenvectors.tobytes()

    @pytest.mark.parametrize(
        "a, d, b",
        [
            (0.5, 0.5, 1e-20),
            (0.5 + 5e-17, 0.5 - 5e-17, 1e-20j),
            (0.49999999999999994, 0.5, 8.05e-55 + 7.4e-55j),
            (0.5, 0.5, 1e-170),
            (0.5, 0.5, 5e-324j),
            (0.25, 0.75, 1e-300),
        ],
    )
    def test_2x2_nearly_diagonal_nearly_degenerate(self, a, d, b):
        # The closed-form eigenvectors stay orthonormal where the two
        # eigenvalues meet and the off-diagonal entry is tiny or subnormal.
        h = np.array([[a, b], [np.conj(b), d]])
        spec = eig_hermitian(h)
        vecs = spec.eigenvectors
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2))) < 1e-15
        recon = (vecs * spec.eigenvalues) @ vecs.conj().T
        assert np.max(np.abs(h - recon)) < 1e-15

    def test_nan_residual_raises(self):
        with pytest.raises(ArithmeticError, match="residual nan"):
            eig_hermitian(np.array([[np.nan, 0.1], [0.1, 0.5]]))


class TestTraceDistance:
    def test_self_distance_zero(self):
        rho = density_of(PLUS)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_states(self):
        assert trace_distance(density_of(Q0), density_of(ket("q0", [0, 1]))) == pytest.approx(1.0)

    def test_bitwise_symmetric(self, rng):
        sig = signature(("x", 4))
        a = partial_trace(density_of(random_ket(signature(("x", 4), ("y", 4)), rng)), ("x",))
        b = partial_trace(density_of(random_ket(signature(("x", 4), ("y", 4)), rng)), ("x",))
        assert trace_distance(a, b) == trace_distance(b, a)

    def test_triangle_inequality(self, rng):
        sig = signature(("x", 4), ("y", 4))
        mats = [partial_trace(density_of(random_ket(sig, rng)), ("x",)) for _ in range(3)]
        a, b, c = mats
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_matches_eigsum_oracle(self, rng):
        sig = signature(("x", 4), ("y", 4))
        a = partial_trace(density_of(random_ket(sig, rng)), ("x",))
        b = partial_trace(density_of(random_ket(sig, rng)), ("x",))
        assert trace_distance(a, b) == pytest.approx(
            trace_distance_eigsum(a.entries, b.entries), abs=1e-13
        )

    def test_signature_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(density_of(Q0), density_of(Q1))


class TestEntropy:
    def test_pure_state_zero(self, rng):
        for _ in range(5):
            k = random_ket(signature(("x", 5)), rng)
            assert abs(entropy(density_of(k))) < 1e-12

    def test_maximally_mixed_one_bit(self):
        rho = DensityMatrix(signature(("q", 2)), np.eye(2) / 2)
        assert entropy(rho) == pytest.approx(1.0, abs=1e-14)

    def test_product_marginal_zero(self):
        rho = partial_trace(density_of(tensor(Q0, PLUS)), ("q0",))
        assert abs(entropy(rho)) < 1e-12

    def test_mixed_two_level(self):
        rho = DensityMatrix(signature(("q", 2)), np.diag([0.65, 0.35]))
        want = -(0.65 * math.log2(0.65) + 0.35 * math.log2(0.35))
        assert entropy(rho) == pytest.approx(want, abs=1e-13)
