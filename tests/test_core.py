import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ket, signature
from oracles import (
    partial_trace_einsum,
    partial_trace_loop,
    random_amplitudes,
    reduced_states_loop,
    trace_distance_eigsum,
)
from qclonelab import core
from qclonelab.core import (
    DensityMatrix,
    Ket,
    eig_hermitian,
    eig_hermitian_batch,
    entropy_bits,
    kron_stack,
    partial_trace,
    reduced_states,
    require_density_matrices,
    trace_distance,
    trace_distances,
)
from qclonelab.nosignal import _singlets
from qclonelab.states import basis_amplitudes


def ket(label, amps):
    return Ket(signature((label, len(amps))), np.array(amps, dtype=complex))


def projector(amp) -> np.ndarray:
    amp = np.asarray(amp, dtype=complex)
    return np.outer(amp, amp.conj())


def entropy(rho) -> float:
    """Von Neumann entropy in bits of one density matrix, through the kernels."""
    return float(entropy_bits(eig_hermitian_batch(rho)[0]))


Q0 = ket("q0", [1, 0])
Q1 = ket("q1", [0, 1])
PLUS = ket("p", [1 / math.sqrt(2), 1 / math.sqrt(2)])
# The same states as amplitudes.
ZERO, ONE = np.eye(2, dtype=complex)
PLUS_AMP = np.array([1, 1], dtype=complex) / math.sqrt(2)


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
    """Tensor products and inner products of amplitude vectors:
    :func:`~qclonelab.core.kron_stack` and ``np.vdot``, as ``verify`` takes
    them."""

    def test_basis_product(self):
        np.testing.assert_allclose(kron_stack(ZERO, ONE), [0, 1, 0, 0])

    def test_plus_plus_uniform(self):
        np.testing.assert_allclose(kron_stack(PLUS_AMP, PLUS_AMP), [0.25**0.5] * 4)

    def test_duplicate_label_named(self):
        with pytest.raises(ValueError, match="q0"):
            Q0.signature.concat(signature(("q0", 2)))

    def test_inner_basics(self):
        assert np.vdot(ZERO, ZERO) == pytest.approx(1.0)
        assert np.vdot(ZERO, ONE) == pytest.approx(0.0)

    def test_inner_conjugate_linear_first(self):
        a = np.array([1j / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.vdot(a, ZERO) == pytest.approx(-1j / math.sqrt(2))

    def test_inner_signature_mismatch(self):
        with pytest.raises(ValueError, match="size 3"):
            np.vdot(ZERO, np.ones(3))

    def test_bloch_overlap(self):
        theta = 0.83
        got = np.vdot(basis_amplitudes(theta, 0.0)[0], ZERO)
        assert got == pytest.approx(math.cos(theta / 2.0), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_inner_factorizes_over_tensor(self, seed):
        rng = np.random.default_rng(seed)
        a, c = (random_amplitudes(3, rng) for _ in range(2))
        b, d = (random_amplitudes(4, rng) for _ in range(2))
        lhs = np.vdot(kron_stack(a, b), kron_stack(c, d))
        assert lhs == pytest.approx(np.vdot(a, c) * np.vdot(b, d), abs=1e-12)

    def test_tensor_norm_multiplicative(self, rng):
        a = 2.0 * random_amplitudes(3, rng)
        b = 0.5 * random_amplitudes(5, rng)
        got = np.linalg.norm(kron_stack(a, b))
        assert got == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), abs=1e-12)


class TestDensity:
    """Rank-1 projectors of amplitude vectors against the density-matrix
    guard :func:`~qclonelab.core.require_density_matrices`."""

    def test_projector_of_zero(self):
        np.testing.assert_allclose(projector(ZERO), np.diag([1, 0]))
        require_density_matrices(projector(ZERO), "projector")

    def test_projector_of_plus(self):
        np.testing.assert_allclose(projector(PLUS_AMP), np.full((2, 2), 0.5), atol=1e-15)
        require_density_matrices(projector(PLUS_AMP), "projector")

    def test_zero_ket_rejected(self):
        with pytest.raises(ValueError, match="trace deviates from 1 by 1"):
            require_density_matrices(projector([0, 0]), "projector")

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="trace deviates from 1 by 1"):
            require_density_matrices(projector([1, 1]), "projector")

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(signature(("q", 2)), np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(signature(("q", 2)), np.eye(2))


class TestPartialTrace:
    def test_product_state_marginal(self):
        state = Ket(signature(("q0", 2), ("q1", 2)), kron_stack(ZERO, ONE))
        np.testing.assert_allclose(partial_trace(state, ("q0",)).entries, np.diag([1, 0]))

    def test_singlet_marginal_maximally_mixed(self):
        s = Ket(signature(("u", 2), ("v", 2)), _singlets(basis_amplitudes(0.7, 1.1)))
        for keep in ("u", "v"):
            np.testing.assert_allclose(
                partial_trace(s, (keep,)).entries, np.eye(2) / 2, atol=1e-14
            )

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(Ket(signature(("q0", 2), ("q1", 2)), kron_stack(ZERO, ONE)), ())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_and_hermiticity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        sig = signature(("x", 2), ("y", 3), ("z", 2))
        state = random_ket(sig, rng)
        for keep in (("x",), ("y",), ("x", "z"), ("x", "y", "z")):
            red = partial_trace(state, keep).entries
            assert abs(np.trace(red) - 1.0) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) < 1e-12

    def test_matches_loop_oracle(self, rng):
        sig = signature(("x", 2), ("y", 3), ("z", 2))
        state = random_ket(sig, rng)
        got = partial_trace(state, ("x", "z")).entries
        want = partial_trace_loop(projector(state.amplitudes), (2, 3, 2), keep=[0, 2])
        np.testing.assert_allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize(
        "dims, keep",
        [
            ((2, 3, 2), (0,)), ((2, 3, 2), (1,)), ((2, 3, 2), (0, 2)), ((2, 3, 2), (1, 2)),
            ((3, 4), (0,)), ((4, 4), (0,)), ((2, 2), (1,)), ((2, 2, 2, 2, 4), (1, 3)),
            ((2, 2, 2, 2, 5), (1, 3)), ((2, 2, 2, 8), (0,)), ((2, 2, 2, 16), (0,)),
            ((3, 2, 4), (0,)), ((3, 4, 3), (0,)),
        ],
    )
    def test_stack_is_the_dense_einsum_bit_for_bit(self, rng, dims, keep):
        # The contraction sums the traced multi-index in the einsum's order,
        # and a stack gives each state the bits of a stack of one.
        shape = (30, math.prod(dims))
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kets = z / np.linalg.norm(z, axis=1, keepdims=True)
        stacked = reduced_states(kets, dims, keep)
        for k, amp in enumerate(kets):
            want = partial_trace_einsum(np.outer(amp, amp.conj()), dims, keep)
            assert stacked[k].tobytes() == want.tobytes()
            assert reduced_states(kets[k:k + 1], dims, keep).tobytes() == stacked[k:k + 1].tobytes()


def _signed_zeros(x: np.ndarray) -> bool:
    return bool(np.any((x.real == 0.0) & np.signbit(x.real))
                or np.any((x.imag == 0.0) & np.signbit(x.imag)))


@st.composite
def _stacked_kets(draw):
    """(kets, dims, keep): Gaussian amplitudes over up to four factors and
    up to two batch axes, with exact zeros of either sign drawn in."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    keep = tuple(draw(st.sets(st.integers(0, len(dims) - 1), min_size=1)))
    batch = tuple(draw(st.lists(st.integers(1, 5), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (*batch, math.prod(dims))
    kets = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    zeros = rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    signs = rng.integers(0, 4, shape)
    kets[zeros] = 0.0
    kets.real[zeros & (signs & 1 == 1)] = -0.0
    kets.imag[zeros & (signs & 2 == 2)] = -0.0
    return kets, dims, keep


class TestReducedStatesSlabs:
    """The slab kernel adds the rank-1 terms in the order of the per-term
    loop it replaced (``oracles.reduced_states_loop``), whatever the slab
    length; ``np.add.reduce`` would sum a one-entry block pairwise."""

    @staticmethod
    def _assert_matches_loop(kets, dims, keep):
        got = reduced_states(kets, dims, keep)
        want = reduced_states_loop(kets, dims, keep)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not _signed_zeros(got)

    @settings(max_examples=150, deadline=None)
    @given(case=_stacked_kets(), chunk=st.sampled_from([1, 8, 64, core.CHUNK_ENTRIES]))
    def test_matches_the_term_loop_bit_for_bit(self, case, chunk):
        # A small CHUNK_ENTRIES cuts the traced index into many short slabs.
        with mock.patch.object(core, "CHUNK_ENTRIES", chunk):
            self._assert_matches_loop(*case)

    @pytest.mark.parametrize(
        "batch, dims, keep",
        [
            ((1,), (1, 200), (0,)),  # one entry per slab row: reduce would pair
            ((), (1, 7), (0,)),
            ((64,), (2, 32), (0,)),  # a conservation chunk: several slabs
            ((1331,), (2, 32), (0,)),  # a block above CHUNK_ENTRIES: one term a slab
            ((3, 5), (2, 2, 2, 2, 4), (1, 3)),
        ],
    )
    def test_slab_shapes(self, rng, batch, dims, keep):
        shape = (*batch, math.prod(dims))
        kets = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kets[..., ::3] = 0.0
        kets.real[..., 1::3] = -0.0
        self._assert_matches_loop(kets, dims, keep)

    def test_negative_zero_terms_sum_to_positive_zero(self):
        kets = np.full((2, 6), complex(-0.0, -0.0))
        kets[0, 4] = complex(-0.0, 1e-300)
        got = reduced_states(kets, (2, 3), (0,))
        assert not _signed_zeros(got)
        assert got.tobytes() == reduced_states_loop(kets, (2, 3), (0,)).tobytes()


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
        # A 1x1 stack takes LAPACK's path too: its eigenvalue is the entry
        # and its eigenvector [1].
        for dim in (16, 1):
            z = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
            stack = 0.5 * (z + np.swapaxes(z, -1, -2).conj())
            vals, vecs = eig_hermitian_batch(stack)
            for k, h in enumerate(stack):
                spec = eig_hermitian(h)
                assert vals[k].tobytes() == spec.eigenvalues.tobytes()
                assert vecs[k].tobytes() == spec.eigenvectors.tobytes()
        assert vals.tobytes() == stack[..., 0].real.tobytes()
        assert vecs.tobytes() == np.ones((5, 1, 1), dtype=complex).tobytes()

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

    @pytest.mark.parametrize(
        "h", [[[1e-300, 1e-310], [1e-310, 0.0]], [[3e-160, 1e-160], [1e-160, 1e-160]]]
    )
    def test_2x2_eigenvalues_where_squares_underflow(self, h):
        # (a - d)^2 + 4|b|^2 is subnormal or zero here; the reference is the
        # same matrix scaled into the normal range.
        h = np.array(h)
        reference = np.linalg.eigvalsh(h * 1e150)[::-1]
        scaled = eig_hermitian(h).eigenvalues * 1e150
        np.testing.assert_allclose(scaled, reference, rtol=1e-14, atol=1e-14 * reference[0])

    def test_nan_residual_raises(self, monkeypatch):
        # A NaN input fails the Hermiticity guard before any eigensolver runs.
        with pytest.raises(ValueError, match="not Hermitian .*deviation nan"):
            eig_hermitian(np.array([[np.nan, 0.1], [0.1, 0.5]]))
        # A NaN coming out of the eigensolver fails the residual guard.
        eigh = np.linalg.eigh

        def nan_eigh(mat):
            vals, vecs = eigh(mat)
            return np.full_like(vals, np.nan), vecs

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with pytest.raises(ArithmeticError, match="residual nan"):
            eig_hermitian(np.diag([0.5, 0.3, 0.2]))


class TestTraceDistance:
    def test_self_distance_zero(self):
        rho = DensityMatrix(PLUS.signature, projector(PLUS_AMP))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_states(self):
        sig = signature(("q0", 2))
        rho, sigma = (DensityMatrix(sig, projector(v)) for v in (ZERO, ONE))
        assert trace_distance(rho, sigma) == pytest.approx(1.0)

    def test_bitwise_symmetric(self, rng):
        a = partial_trace(random_ket(signature(("x", 4), ("y", 4)), rng), ("x",))
        b = partial_trace(random_ket(signature(("x", 4), ("y", 4)), rng), ("x",))
        assert trace_distance(a, b) == trace_distance(b, a)

    def test_triangle_inequality(self, rng):
        sig = signature(("x", 4), ("y", 4))
        mats = [partial_trace(random_ket(sig, rng), ("x",)) for _ in range(3)]
        a, b, c = mats
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_matches_eigsum_oracle(self, rng):
        sig = signature(("x", 4), ("y", 4))
        a = partial_trace(random_ket(sig, rng), ("x",))
        b = partial_trace(random_ket(sig, rng), ("x",))
        assert trace_distance(a, b) == pytest.approx(
            trace_distance_eigsum(a.entries, b.entries), abs=1e-13
        )

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_stack_equals_batches_of_one_and_is_symmetric(self, rng, dim):
        kets = rng.standard_normal((40, dim * dim)) + 1j * rng.standard_normal((40, dim * dim))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        r, s = reduced_states(kets, (dim, dim), (0,)).reshape(20, 2, dim, dim).swapaxes(0, 1)
        stacked = trace_distances(r, s)
        assert stacked.tobytes() == trace_distances(s, r).tobytes()
        ones = [trace_distances(r[k:k + 1], s[k:k + 1]) for k in range(20)]
        assert np.concatenate(ones).tobytes() == stacked.tobytes()
        sig = signature(("x", dim))
        for k in range(20):
            assert stacked[k] == trace_distance(DensityMatrix(sig, r[k]), DensityMatrix(sig, s[k]))

    def test_signature_mismatch(self):
        rho = DensityMatrix(Q0.signature, projector(ZERO))
        sigma = DensityMatrix(Q1.signature, projector(ONE))
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(rho, sigma)


class TestEntropy:
    """Von Neumann entropies through :func:`~qclonelab.core.entropy_bits`."""

    def test_pure_state_zero(self, rng):
        for _ in range(5):
            assert abs(entropy(projector(random_amplitudes(5, rng)))) < 1e-12

    def test_maximally_mixed_one_bit(self):
        assert entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-14)

    def test_product_marginal_zero(self):
        rho = reduced_states(kron_stack(ZERO, PLUS_AMP), (2, 2), (0,))
        assert abs(entropy(rho)) < 1e-12

    def test_mixed_two_level(self):
        want = -(0.65 * math.log2(0.65) + 0.35 * math.log2(0.35))
        assert entropy(np.diag([0.65, 0.35])) == pytest.approx(want, abs=1e-13)


class TestChunks:
    """Every chunked stage steps through its stack by :func:`core.chunks`."""

    @staticmethod
    def _covered(n, entries):
        return [i for part in core.chunks(n, entries) for i in range(n)[part]]

    @pytest.mark.parametrize("n", [0, 1, core.CHUNK_ENTRIES // 16 + 1])
    def test_exact_cover_in_as_few_slices_as_fit(self, n):
        parts = core.chunks(n, 16)
        assert self._covered(n, 16) == list(range(n))
        assert all(16 * len(range(n)[part]) <= core.CHUNK_ENTRIES for part in parts)
        assert len(parts) == -(-n // (core.CHUNK_ENTRIES // 16))

    def test_one_item_a_slice_above_the_bound(self):
        parts = core.chunks(3, core.CHUNK_ENTRIES + 1)
        assert [(part.start, part.stop) for part in parts] == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_items_that_hold_no_entries(self, n):
        assert self._covered(n, 0) == list(range(n))


# Key values with equal numbers of different bits (-0.0 and 0.0).
_KEY_POOLS = {
    "float": [0.0, -0.0, 0.5, 1.0, math.nan],
    "complex": [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 0.5 + 1j, 1j],
    "int": [0, 1, -1, 2**40],
}


@st.composite
def _key_columns(draw):
    kind = draw(st.sampled_from(sorted(_KEY_POOLS)))
    n = draw(st.integers(0, 24))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        values = draw(st.lists(st.sampled_from(_KEY_POOLS[kind]), min_size=n, max_size=n))
        if values and draw(st.booleans()):
            values = values[:1] * n  # the column of a key no axis sweeps
        columns.append(np.array(values, dtype=kind))
    return columns


class TestDistinctRows:
    @given(columns=_key_columns())
    @settings(deadline=None)
    def test_matches_a_dict_by_bits(self, columns):
        first_of = {}
        rows = [row.tobytes() for row in np.stack(columns, -1)]
        for k, row in enumerate(rows):
            first_of.setdefault(row, k)
        first = list(first_of.values())
        found_first, inverse = core.distinct_rows(*columns)
        assert found_first.tolist() == first
        assert inverse.tolist() == [first.index(first_of[row]) for row in rows]

    def test_signed_zeros_differ(self):
        first, inverse = core.distinct_rows(np.array([0.0, -0.0, 0.0]))
        assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]

    def test_constant_columns_are_one_row(self):
        first, inverse = core.distinct_rows(np.full(7, 0.3), np.full(7, 2 + 1j))
        assert first.tolist() == [0] and inverse.tolist() == [0] * 7
