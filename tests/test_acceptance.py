"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as frozen were computed with the brute-force
constructions in ``oracles.py`` before the package paths existed.
"""

import math

import numpy as np
import pytest

import qclonelab.nosignal as nosig
from conftest import consistent, deleter, gram_deviation, random_isometry, strong_cloner
from oracles import trace_distance_eigsum, wishful_bob_mixture
from qclonelab.cli import main
from qclonelab.conservation import evaluate_batch, lambda_after, lambda_before
from qclonelab.core import eig_hermitian_batch, reduced_states
from qclonelab.machines import (
    InconsistentGram,
    apply_isometries,
    extend_to_isometries,
    termwise_batch,
)
from qclonelab.states import basis_amplitudes, overlap_pair_amplitudes

SEED = 20250810

# Brute-force oracle values for criterion 4, frozen before the build;
# theta -> trace distance between the two conditioned Bob mixtures.
FROZEN_SIGNALLING = {
    math.pi / 8: 0.13663078541825616,
    math.pi / 4: 0.26050269163999357,
    3 * math.pi / 8: 0.3612639725553094,
}

GRID = np.round(np.arange(0.0, 1.0 + 1e-12, 0.1), 10)


def _upper(name, deviation, tolerance):
    status = "PASS" if deviation < tolerance else "FAIL"
    print(f"{status} {name} deviation={deviation:.3e} tolerance={tolerance:.1e}")
    assert deviation < tolerance, f"{name}: deviation {deviation} >= {tolerance}"


def _lower(name, value, floor):
    status = "PASS" if value > floor else "FAIL"
    print(f"{status} {name} value={value:.6e} required>{floor:.1e}")
    assert value > floor, f"{name}: value {value} <= {floor}"


def _random_pair(rng):
    return basis_amplitudes(
        float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * math.pi - 1e-9))
    )


def _random_scenario(rng):
    """Basis amplitudes of one scenario: basis 1's pairs, then basis 2's."""
    return np.array([[[_random_pair(rng), _random_pair(rng)] for _ in range(2)]])


def test_criterion_1_singlet_invariance():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        s1 = nosig._singlets(_random_pair(rng))
        s2 = nosig._singlets(_random_pair(rng))
        worst = max(worst, abs(1.0 - abs(np.vdot(s1, s2))))
    _upper("criterion-1 singlet-invariance", worst, 1e-10)


def test_criterion_2_maximally_mixed_precondition():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(50):
        marginal = nosig.premachine(_random_scenario(rng)).marginal[0]
        worst = max(worst, float(np.max(np.abs(marginal - np.eye(4) / 4))))
    _upper("criterion-2 premachine-bob-marginal", worst, 1e-12)


def test_criterion_3_no_signalling_of_physical_maps():
    rng = np.random.default_rng(SEED + 3)
    # The joint state's factors: (pa 2, pb 2, aa 2, ab 2, env 4); Bob's
    # machine takes (pb, ab, env) = (src, reg, env) to (src, copy, env d_out).
    joint_dims = (2, 2, 2, 2, 4)
    worst_mag = 0.0
    worst_alice = 0.0
    for trial in range(100):
        bases = _random_scenario(rng)
        d_out = 4 if trial % 2 == 0 else 8
        lm = random_isometry(16, 4 * d_out, rng)
        batch = nosig.evaluate_batch(bases, lm[None])
        worst_mag = max(worst_mag, float(batch.signalling_magnitude[0]))
        joint = batch.joint[0]
        before = reduced_states(joint, joint_dims, (0, 2))
        block = joint.reshape(joint_dims).transpose(0, 2, 1, 3, 4).reshape(1, 4, 16)
        moved = apply_isometries(lm[None], block).reshape(-1)
        after = reduced_states(moved, (4, 4 * d_out), (0,))
        worst_alice = max(worst_alice, float(np.max(np.abs(before - after))))
    _upper("criterion-3 isometric-signalling-magnitude", worst_mag, 1e-12)
    _upper("criterion-3 isometric-alice-marginal-change", worst_alice, 1e-12)


def test_criterion_4_signalling_from_negation():
    worst_oracle_gap = 0.0
    worst_frozen_gap = 0.0
    smallest = math.inf
    for theta, frozen in FROZEN_SIGNALLING.items():
        computational, tilted = basis_amplitudes(0.0, 0.0), basis_amplitudes(theta, 0.0)
        bases = np.array([[[computational, computational], [tilted, tilted]]])
        batch = nosig.evaluate_batch(bases, nosig.wishful_machine_rules(bases))
        magnitude = float(batch.signalling_magnitude[0])
        brute = trace_distance_eigsum(
            wishful_bob_mixture(0.0, theta, 1), wishful_bob_mixture(0.0, theta, 2)
        )
        smallest = min(smallest, magnitude)
        worst_oracle_gap = max(worst_oracle_gap, abs(magnitude - brute))
        worst_frozen_gap = max(worst_frozen_gap, abs(magnitude - frozen))
    _lower("criterion-4 wishful-signalling-positive", smallest, 1e-6)
    _upper("criterion-4 matches-bruteforce-oracle", worst_oracle_gap, 1e-10)
    _upper("criterion-4 matches-frozen-oracle-values", worst_frozen_gap, 1e-10)


def _grid_batch(a, b, c):
    return evaluate_batch(a, b, c, np.full(len(a), 0.5))


def test_criterion_5_closed_form_eigenvalues():
    worst = 0.0
    count = 0
    a, b, c = (x.ravel() for x in np.meshgrid(GRID, GRID, GRID, indexing="ij"))
    batch = _grid_batch(a, b, c)
    for k in range(len(a)):
        before, after = batch.marginal_before[k], batch.marginal_after[k]
        worst = max(
            worst,
            abs(eig_hermitian_batch(before)[0][0] - lambda_before(a[k], b[k])),
            abs(eig_hermitian_batch(after)[0][0] - lambda_after(a[k], c[k])),
            # independent eigensolver route
            abs(float(np.linalg.eigvalsh(before)[-1]) - lambda_before(a[k], b[k])),
            abs(float(np.linalg.eigvalsh(after)[-1]) - lambda_after(a[k], c[k])),
        )
        count += 1
    assert count == 1331
    _upper("criterion-5 closed-form-eigenvalues-1331-grid", worst, 1e-12)


def test_criterion_6_conservation_boundary():
    a, c = (x.ravel() for x in np.meshgrid(GRID, GRID, indexing="ij"))
    batch = _grid_batch(a, a * c, c)
    worst_surface = max(
        float(np.max(np.abs(batch.eigenvalues_after[:, 0] - batch.eigenvalues_before[:, 0]))),
        float(np.max(np.abs(batch.entropy_after - batch.entropy_before))),
    )
    a, b, c = (x.ravel() for x in np.meshgrid(GRID, GRID, GRID, indexing="ij"))
    batch = _grid_batch(a, b, c)
    delta_lambda = batch.eigenvalues_after[:, 0] - batch.eigenvalues_before[:, 0]
    worst_form = float(np.max(np.abs(delta_lambda - (a * a * c - a * b) / 2)))
    verdict_errors = 0
    for ak, bk, ck, consistent_k in zip(a, b, c, consistent(strong_cloner(a, b, c))):
        if ak == 0.0:
            # Orthogonal source pair: clonable for every b, c, so the
            # checker stays consistent off the |b| = |a||c| surface.
            verdict_errors += 0 if consistent_k else 1
        elif consistent_k != (abs(bk - ak * ck) < 1e-9):
            verdict_errors += 1
    _upper("criterion-6 delta-zero-on-surface", worst_surface, 1e-12)
    _upper("criterion-6 delta-closed-form-off-surface", worst_form, 1e-12)
    _upper("criterion-6 checker-flips-on-surface", float(verdict_errors), 1.0)


def test_criterion_7_consistency_conditions():
    rng = np.random.default_rng(SEED + 7)
    errors = 0
    worst_consistent_dev = 0.0
    for trial in range(200):
        a = float(rng.uniform(0.05, 1.0))
        c = float(rng.uniform(0.0, 1.0))
        if trial % 2 == 0:
            b = a * c  # on the consistency surface
            expect = True
        else:
            b = float(rng.uniform(0.0, 1.0))
            if abs(b - a * c) < 0.05:
                b = min(1.0, a * c + 0.1) if a * c < 0.5 else max(0.0, a * c - 0.1)
            expect = False
        rules = strong_cloner(a, b, c)
        if consistent(rules)[0] != expect:
            errors += 1
        if expect:
            worst_consistent_dev = max(worst_consistent_dev, float(gram_deviation(rules)[0]))
    for trial in range(200):
        a = float(rng.uniform(0.1, 1.0))
        if trial % 2 == 0:
            g = a
            expect = True
        else:
            g = float(rng.uniform(0.0, 1.0))
            if abs(g - a) < 0.05:
                g = min(1.0, a + 0.1) if a < 0.5 else max(0.0, a - 0.1)
            expect = False
        if consistent(deleter(a, g))[0] != expect:
            errors += 1
    _upper("criterion-7 consistency-boundaries-400-samples", float(errors), 1.0)
    _upper("criterion-7 on-surface-gram-deviation", worst_consistent_dev, 1e-10)


def test_criterion_8_gram_equivalence_construction():
    rng = np.random.default_rng(SEED + 8)
    worst_member = 0.0
    worst_iso = 0.0
    for trial in range(100):
        dim = 2 + trial % 7  # 2..8
        size = 1 + trial % 4
        members = []
        for _ in range(size):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            members.append(z / np.linalg.norm(z))
        hide = random_isometry(dim, dim, rng)
        moved = [hide @ k for k in members]
        u = extend_to_isometries(np.array([members]), np.array([moved])).isometries[0]
        for x, y in zip(members, moved):
            worst_member = max(worst_member, float(np.max(np.abs(u @ x - y))))
        worst_iso = max(worst_iso, float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))))
    _upper("criterion-8 member-reconstruction", worst_member, 1e-8)
    _upper("criterion-8 isometry-residual", worst_iso, 1e-10)
    with pytest.raises(InconsistentGram):
        extend_to_isometries(overlap_pair_amplitudes([0.30], 2), overlap_pair_amplitudes([0.18], 2))
    print("PASS criterion-8 gram-mismatch-raises")


def test_criterion_9_termwise_linear_agreement():
    # Machines declared on an orthonormal expansion of (p 2, q 2) times a
    # fixed qutrit ancilla e, mapped into (r 2, s 2, f 3) by a random
    # isometry; probes over a qutrit spectator w, (p, q) and the ancilla.
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    checked = 0
    for _ in range(10):
        expansion = random_isometry(4, 4, rng)  # elements as columns
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        anc = z / np.linalg.norm(z)
        out_iso = random_isometry(12, 12, rng)
        inputs = np.array([np.kron(u, anc) for u in expansion.T])
        outputs = np.array([out_iso @ x for x in inputs])
        lm = extend_to_isometries(inputs[None], outputs[None]).isometries
        for _ in range(10):
            zz = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            block = np.kron(zz / np.linalg.norm(zz), anc).reshape(1, 3, 12)
            via_term = termwise_batch(block, expansion.T[None], inputs[None], outputs[None])
            via_lin = apply_isometries(lm, block)
            worst = max(worst, float(np.max(np.abs(via_term - via_lin))))
            checked += 1
    assert checked == 100
    _upper("criterion-9 termwise-equals-linear-100-states", worst, 1e-10)


def test_criterion_10_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    code1 = main(["verify", "--seed", "7", "--out", str(out1)])
    code2 = main(["verify", "--seed", "7", "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    identical = out1.read_bytes() == out2.read_bytes()
    status = "PASS" if identical else "FAIL"
    print(f"{status} criterion-10 verify-byte-identical")
    assert identical
