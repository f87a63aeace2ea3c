"""The batch guard rule: a deviation passes when it is <= its tolerance, a
NaN fails, and the error names the first failing entry along axis 0.  One
NaN case per guard family."""

import numpy as np
import pytest

import qclonelab.conservation as cons
import qclonelab.core as core
import qclonelab.nosignal as nosig
from conftest import signature
from oracles import trace_distance_eigsum
from qclonelab.core import CHUNK_ENTRIES, DensityMatrix, eig_hermitian_batch
from qclonelab.machines import gram_deviations, haar_isometries, require_isometries
from qclonelab.states import basis_amplitudes, random_kets

Q = signature(("q", 2))


class TestRequireWithin:
    def test_returns_the_deviations(self):
        dev = np.array([0.0, 0.5, 1.0])
        assert core.require_within(dev, 1.0, ValueError, "unused") is dev

    def test_nan_fails(self):
        with pytest.raises(ArithmeticError, match=r"^dev nan above 0\.1$"):
            core.require_within(float("nan"), 0.1, ArithmeticError, "dev {dev:g} above {tol:g}")

    def test_names_first_failing_entry_along_axis_0(self):
        dev = np.zeros((3, 2))
        dev[1, 1] = 0.5
        dev[2, 0] = 0.7
        with pytest.raises(ValueError, match=r"^dev 0\.5 at batch index 1$"):
            core.require_within(dev, 0.1, ValueError, "dev {dev:g}")

    def test_batch_of_one_names_no_index(self):
        with pytest.raises(ValueError, match=r"^dev 0\.5$"):
            core.require_within(np.array([[0.0, 0.5]]), 0.1, ValueError, "dev {dev:g}")

    def test_density_matrix_deviations(self):
        rho = np.stack([np.eye(2) / 2, np.array([[0.5, 0.25], [0.0, 0.5]])])
        with pytest.raises(ValueError, match=r"^rho is not Hermitian .* at batch index 1$"):
            core.require_density_matrices(rho, "rho")
        herm, trace = core.require_density_matrices(np.eye(2)[None] / 2, "rho")
        assert herm.tolist() == [0.0] and trace.tolist() == [0.0]


class TestNanFailsEveryGuardFamily:
    def test_require_isometries(self):
        with pytest.raises(ValueError, match="not an isometry .*nan"):
            require_isometries(np.full((2, 2), np.nan, dtype=complex))

    def test_linear_machine(self):
        # The hidden isometry of a round trip, made from a NaN Gaussian draw
        # (whose QR phases NumPy warns about on the way): its first normal
        # follows the family's 8.
        normals = cons.roundtrip_normals(2, 2, 2, np.random.default_rng(5))
        normals[8] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not an isometry"):
            cons.roundtrips(2, 2, 2, [normals])

    def test_density_matrix(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(Q, np.full((2, 2), np.nan))

    def test_ket_require_normalized(self):
        # A NaN rule ket puts a NaN on its Gram matrix's diagonal.
        nan_gram = np.full((1, 2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="^declared rule input is not normalized$"):
            gram_deviations(nan_gram, np.eye(2, dtype=complex)[None])

    def test_nosignal_isometry_named(self):
        bases = np.array([[[basis_amplitudes(0.1)] * 2] * 2] * 3)
        rng = np.random.default_rng(5)
        machines = haar_isometries(rng.standard_normal((3, 2 * 16 * 16)), 16, 16)
        machines[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not an isometry .* at batch index 1$"):
            nosig.evaluate_batch(bases, machines)


def test_eigensolver_names_the_leading_index():
    stack = np.tile(np.eye(2, dtype=complex) / 2, (3, 2, 1, 1))
    stack[1, 1, 0, 1] = 0.1
    with pytest.raises(ValueError, match="not Hermitian .* at batch index 1$"):
        eig_hermitian_batch(stack)


class TestDifferenceOutsideItsBasis:
    """``trace_distances`` on a basis checks that the squared eigenvalues of
    the projected difference sum to the difference's squared Frobenius norm;
    a basis that misses part of a difference fails at that pair."""

    @staticmethod
    def _pairs(rng, n: int = 4):
        # Each pair sums four rank-1 terms per side: its difference lies in
        # the span of eight states in dimension 16.
        states = 0.5 * random_kets(16, rng, 8 * n).reshape(n, 8, 16)
        terms = states[..., :, None] * states.conj()[..., None, :]
        return terms[:, :4].sum(axis=1), terms[:, 4:].sum(axis=1), states

    @staticmethod
    def _basis(states):
        return np.linalg.qr(np.swapaxes(states, -1, -2))[0]

    def test_projected_distance_is_the_dense_one(self):
        first, second, states = self._pairs(np.random.default_rng(1))
        got = core.trace_distances(first, second, self._basis(states))
        brute = [trace_distance_eigsum(f, s) for f, s in zip(first, second)]
        np.testing.assert_allclose(got, brute, rtol=0.0, atol=1e-13)

    def test_a_state_dropped_from_the_basis_is_named(self):
        first, second, states = self._pairs(np.random.default_rng(2))
        states[2, 5] = 0.0
        with pytest.raises(ArithmeticError, match=r"Frobenius norm by .* at batch index 2$"):
            core.trace_distances(first, second, self._basis(states))

    def test_a_span_missing_a_conditioned_state_is_named(self, monkeypatch):
        # The wishful cloner's basis 2 first cloned-branch state (outcome
        # psi alpha) dropped from the span of one point of the second chunk.
        span, calls = nosig._span, []

        def dropping(states):
            calls.append(len(states))
            if len(calls) == 2:
                states = states.copy()
                states[2, 4] = 0.0
            return span(states)

        monkeypatch.setattr(nosig, "_span", dropping)
        step = CHUNK_ENTRIES // 16**2  # points per chunk at ancilla_dim 4
        computational, tilted = basis_amplitudes(0.0), basis_amplitudes(0.7)
        bases = np.array([[[computational] * 2, [tilted] * 2]] * (step + 4))
        with pytest.raises(ArithmeticError, match=f"at batch index {step + 2}$"):
            nosig.evaluate_batch(bases, nosig.wishful_machine_rules(bases))
        assert calls == [step, 4]
