import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import qclonelab.nosignal as nosig
import qclonelab.scenarios as scenarios
from conftest import random_basis_angles, random_isometry, wishful_cloner
from oracles import (
    trace_distance_eigsum,
    wishful_after_state,
    wishful_bob_mixture,
)
from qclonelab.config import grid_points, parse_config_text
from qclonelab.core import eig_hermitian_batch, reduced_states, trace_distances
from qclonelab.machines import ConflictingRules, apply_isometries, termwise_batch
from qclonelab.states import basis_amplitudes

# The joint state's factors: Alice's (pa, aa) and Bob's (pb, ab, env), interleaved.
JOINT = (2, 2, 2, 2, 4)


def scenario_with_angles(theta1, theta2, phi=0.0):
    """Basis amplitudes of one scenario, both of basis 1's pairs at
    (theta1, phi) and both of basis 2's at (theta2, phi)."""
    b1, b2 = basis_amplitudes(theta1, phi), basis_amplitudes(theta2, phi)
    return np.array([[[b1, b1], [b2, b2]]])


def random_scenario(rng):
    return np.array(
        [[[basis_amplitudes(*random_basis_angles(rng)) for _ in range(2)] for _ in range(2)]]
    )


def random_bob_machine(rng, d_env=4, d_out=None):
    """Random isometry from Bob's (src 2, reg 2, env d_env) to (src 2, copy 2,
    env d_out)."""
    return random_isometry(4 * d_env, 4 * (d_out or d_env), rng)


def joint_ket(bases) -> np.ndarray:
    return nosig.premachine(bases).joint[0]


def bob_block(joint: np.ndarray) -> np.ndarray:
    """The joint state as a (1, 4, 16) block: Alice's (pa, aa) on axis 1,
    Bob's (pb, ab, env) on axis 2."""
    return joint.reshape(2, 2, 2, 2, 4).transpose(0, 2, 1, 3, 4).reshape(1, 4, 16)


def signalling_magnitude(bases, lm=None) -> float:
    machine = {} if lm is None else {"isometries": lm[None]}
    return float(nosig.evaluate_batch(bases, **machine).signalling_magnitude[0])


def wishful_after(bases, index) -> np.ndarray:
    """The termwise image of the joint state under the two-basis wishful
    cloner, expanded in the product basis of Alice's choice ``index``, over
    Alice's (pa, aa) then Bob's (src, copy, env)."""
    psi, alpha = bases[0, index - 1]
    inputs, outputs = wishful_cloner(*bases[0])
    expansion = np.stack(nosig._products(psi, alpha), axis=1)[None]  # elements as columns
    return termwise_batch(bob_block(joint_ket(bases)), expansion, inputs, outputs).reshape(-1)


class TestScenario:
    def test_bob_premachine_marginal_random_bases(self, rng):
        for _ in range(50):
            marginal = nosig.premachine(random_scenario(rng)).marginal[0]
            dev = np.max(np.abs(marginal - np.eye(4) / 4))
            assert dev < 1e-12

    def test_degenerate_equal_bases_allowed(self):
        joint = nosig.premachine(scenario_with_angles(0.9, 0.9)).joint[0]
        assert np.linalg.norm(joint) == pytest.approx(1.0, abs=1e-12)

    def test_cross_basis_overlap(self):
        theta = 1.1
        bases = scenario_with_angles(0.0, theta)
        got = abs(np.vdot(bases[0, 0, 0, 0], bases[0, 1, 0, 0]))
        assert got == pytest.approx(math.cos(theta / 2), abs=1e-12)


class TestBobMarginalAfter:
    def test_matches_bruteforce_mixture(self):
        for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            marginals = nosig.evaluate_batch(scenario_with_angles(0.0, theta)).marginal_after
            for index in (1, 2):
                got = marginals[0, index - 1]
                want = wishful_bob_mixture(0.0, theta, index)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_after_state_matches_branch_expansion(self):
        # The termwise image of the shared state is the four-branch vector
        # with the expansion signs kept.
        theta = math.pi / 4
        bases = scenario_with_angles(0.0, theta)
        for index in (1, 2):
            after = wishful_after(bases, index)
            want = wishful_after_state(0.0, theta, index)
            assert np.max(np.abs(after - want)) < 1e-12

    def test_outcome_probabilities_quarter_each(self):
        theta = math.pi / 8
        bases = scenario_with_angles(0.0, theta)
        block = wishful_after(bases, 1).reshape(4, -1)
        for outcome in nosig._products(*bases[0, 0]):
            p = np.linalg.norm(outcome.conj() @ block) ** 2
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_sign_faithful_and_all_plus_mixtures_agree(self):
        for theta in (math.pi / 8, 3 * math.pi / 8):
            for index in (1, 2):
                faithful = wishful_bob_mixture(0.0, theta, index, sign_faithful=True)
                allplus = wishful_bob_mixture(0.0, theta, index, sign_faithful=False)
                assert np.max(np.abs(faithful - allplus)) < 1e-12

    def test_isometric_machine_index_independent(self, rng):
        bases = random_scenario(rng)
        lm = random_bob_machine(rng)
        m = nosig.evaluate_batch(bases, isometries=lm[None]).marginal_after
        assert trace_distances(m[0, 0], m[0, 1]) < 1e-12

    def test_marginals_are_density_matrices(self):
        marginals = nosig.evaluate_batch(scenario_with_angles(0.0, math.pi / 4)).marginal_after
        for index in (1, 2):
            marg = marginals[0, index - 1]
            assert abs(complex(np.trace(marg)) - 1.0) < 1e-12
            assert eig_hermitian_batch(marg)[0].min() > -1e-12


class TestSignallingMagnitude:
    def test_zero_for_isometries(self, rng):
        worst = 0.0
        for _ in range(30):
            bases = random_scenario(rng)
            lm = random_bob_machine(rng)
            worst = max(worst, signalling_magnitude(bases, lm))
        assert worst < 1e-12

    def test_zero_for_identical_bases(self, rng):
        theta, phi = random_basis_angles(rng)
        assert signalling_magnitude(scenario_with_angles(theta, theta, phi)) < 1e-12

    def test_positive_on_theta_grid(self):
        for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            mag = signalling_magnitude(scenario_with_angles(0.0, theta))
            assert mag > 1e-5

    def test_matches_bruteforce_and_closed_form(self):
        # Closed form for these defaults: half the trace norm of the
        # difference collapses to sqrt(1 - cos(theta/2)^4) / 2.
        for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            mag = signalling_magnitude(scenario_with_angles(0.0, theta))
            brute = trace_distance_eigsum(
                wishful_bob_mixture(0.0, theta, 1), wishful_bob_mixture(0.0, theta, 2)
            )
            assert mag == pytest.approx(brute, abs=1e-10)
            assert mag == pytest.approx(
                0.5 * math.sqrt(1.0 - math.cos(theta / 2) ** 4), abs=1e-12
            )

    def test_alice_marginal_unchanged_by_isometry(self, rng):
        joint = joint_ket(random_scenario(rng))
        lm = random_bob_machine(rng, d_out=8)
        before = reduced_states(joint, JOINT, (0, 2))
        moved = apply_isometries(lm[None], bob_block(joint))
        after = reduced_states(moved.reshape(-1), (4, 32), (0,))
        assert np.max(np.abs(before - after)) < 1e-12


class TestWishfulMagnitudeOracles:
    """The paper's central claim, checked point by point: the wishful
    cloner's signalling magnitude is the closed form where one exists and
    the brute-force Bob mixtures of ``oracles`` everywhere.  A kernel that
    is wrong in the same way at every point passes "a batch equals its
    batches of one" but not these."""

    @staticmethod
    def _closed_form_gap(thetas, magnitudes) -> float:
        # basis1.theta = 0: sqrt(1 - cos(theta/2)^4) / 2 at basis 2's theta.
        closed = 0.5 * np.sqrt(1.0 - np.cos(np.asarray(thetas) / 2.0) ** 4)
        return float(np.max(np.abs(np.asarray(magnitudes) - closed)))

    @staticmethod
    def _theta_grid():
        """Basis 2's theta and the kernel's magnitude on the 311 points of
        ``sweep --grid basis2.theta=0:3.1:0.01`` at basis1.theta = 0."""
        cfg = parse_config_text("kind = nosignal\nbasis1.theta = 0.0\n")
        grid = grid_points(cfg, ["basis2.theta=0:3.1:0.01"])
        thetas = grid.basis_angles("basis2")[0]
        return thetas, nosig.evaluate_batch(scenarios._bases(grid)).signalling_magnitude

    @staticmethod
    def _oracle_gap(theta1, theta2, phi, magnitude) -> float:
        brute = trace_distance_eigsum(
            wishful_bob_mixture(theta1, theta2, 1, phi=phi),
            wishful_bob_mixture(theta1, theta2, 2, phi=phi),
        )
        return abs(magnitude - brute)

    def test_closed_form_on_the_theta_grid(self):
        thetas, magnitudes = self._theta_grid()
        assert len(magnitudes) == 311
        assert self._closed_form_gap(thetas, magnitudes) < 1e-12

    def test_closed_form_sees_a_relative_perturbation(self):
        thetas, magnitudes = self._theta_grid()
        assert self._closed_form_gap(thetas, magnitudes * (1.0 + 1e-9)) > 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        theta1=st.floats(0.0, math.pi),
        theta2=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi - 1e-9),
    )
    def test_brute_force_mixtures_at_any_angles(self, theta1, theta2, phi):
        try:
            magnitude = signalling_magnitude(scenario_with_angles(theta1, theta2, phi))
        except ConflictingRules:
            reject()  # the two bases share an element, up to phase, that they clone differently
        assert self._oracle_gap(theta1, theta2, phi, magnitude) < 1e-10

    def test_brute_force_sees_a_relative_perturbation(self):
        theta1, theta2, phi = 0.4, 2.3, 1.7
        magnitude = signalling_magnitude(scenario_with_angles(theta1, theta2, phi))
        assert self._oracle_gap(theta1, theta2, phi, magnitude) < 1e-10
        assert self._oracle_gap(theta1, theta2, phi, magnitude * (1.0 + 1e-9)) > 1e-10
