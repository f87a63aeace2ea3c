"""The batch guard rule: a deviation passes when it is <= its tolerance, a
NaN fails, and the error names the first failing entry along axis 0.  One
NaN case per guard family."""

import numpy as np
import pytest

import qclonelab.conservation as cons
import qclonelab.core as core
import qclonelab.nosignal as nosig
from conftest import signature
from qclonelab.core import DensityMatrix, Ket, eig_hermitian_batch
from qclonelab.machines import haar_isometries, require_isometries
from qclonelab.states import basis_amplitudes

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
        # (whose QR phases NumPy warns about on the way).
        families, draws = cons.roundtrip_draws(2, 2, 2, np.random.default_rng(5))
        draws[0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not an isometry"):
            cons.roundtrips(families[None], draws[None])

    def test_density_matrix(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(Q, np.full((2, 2), np.nan))

    def test_ket_require_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            Ket(Q, np.array([np.nan, 0.0])).require_normalized()

    def test_nosignal_isometry_named(self):
        bases = np.array([[[basis_amplitudes(0.1)] * 2] * 2] * 3)
        rng = np.random.default_rng(5)
        draws = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
        machines = haar_isometries(draws)
        machines[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not an isometry .* at batch index 1$"):
            nosig.evaluate_batch(bases, isometries=machines)


def test_eigensolver_names_the_leading_index():
    stack = np.tile(np.eye(2, dtype=complex) / 2, (3, 2, 1, 1))
    stack[1, 1, 0, 1] = 0.1
    with pytest.raises(ValueError, match="not Hermitian .* at batch index 1$"):
        eig_hermitian_batch(stack)
