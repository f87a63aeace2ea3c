"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as frozen were computed with the brute-force
constructions in ``oracles.py`` before the package paths existed.
"""

import math

import numpy as np
import pytest

import qclonelab.nosignal as nosig
from conftest import deleter, strong_cloner
from oracles import trace_distance_eigsum, wishful_bob_mixture
from qclonelab.cli import main
from qclonelab.conservation import (
    equivalence_unitary,
    evaluate_batch,
    lambda_after,
    lambda_before,
)
from qclonelab.core import Ket, eig_hermitian, partial_trace, signature
from qclonelab.machines import (
    InconsistentGram,
    MachineSpec,
    apply_linear,
    apply_termwise,
    check_consistency,
    extend_to_isometry,
    random_isometry,
)
from qclonelab.states import StateFamily, basis_amplitudes, kets_with_overlap

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
    sig_in = signature(("src", 2), ("reg", 2), ("env", 4))
    joint_sig = signature(("pa", 2), ("pb", 2), ("aa", 2), ("ab", 2), ("env", 4))
    worst_mag = 0.0
    worst_alice = 0.0
    for trial in range(100):
        bases = _random_scenario(rng)
        d_out = 4 if trial % 2 == 0 else 8
        lm = random_isometry(
            sig_in, signature(("src", 2), ("copy", 2), ("env", d_out)), rng
        )
        batch = nosig.evaluate_batch(bases, isometries=lm.matrix[None])
        worst_mag = max(worst_mag, float(batch.signalling_magnitude[0]))
        joint = Ket(joint_sig, batch.joint[0])
        before = partial_trace(joint, ("pa", "aa")).entries
        moved = apply_linear(lm, joint, ("pb", "ab", "env"))
        after = partial_trace(moved, ("pa", "aa")).entries
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
        magnitude = float(nosig.evaluate_batch(bases).signalling_magnitude[0])
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
            abs(eig_hermitian(before).largest - lambda_before(a[k], b[k])),
            abs(eig_hermitian(after).largest - lambda_after(a[k], c[k])),
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
    for ak, bk, ck in zip(a, b, c):
        consistent = check_consistency(strong_cloner(ak, bk, ck)).consistent
        if ak == 0.0:
            # Orthogonal source pair: clonable for every b, c, so the
            # checker stays consistent off the |b| = |a||c| surface.
            verdict_errors += 0 if consistent else 1
        elif consistent != (abs(bk - ak * ck) < 1e-9):
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
        report = check_consistency(strong_cloner(a, b, c))
        if report.consistent != expect:
            errors += 1
        if expect:
            worst_consistent_dev = max(worst_consistent_dev, report.max_deviation)
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
        if check_consistency(deleter(a, g)).consistent != expect:
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
        sig_f, sig_g = signature(("x", dim)), signature(("y", dim))
        members = []
        for _ in range(size):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            members.append(Ket(sig_f, z / np.linalg.norm(z)))
        fam = StateFamily(tuple(members))
        hide = random_isometry(sig_f, sig_g, rng)
        moved = StateFamily(tuple(Ket(sig_g, hide.matrix @ k.amplitudes) for k in members))
        u = equivalence_unitary(fam, moved)
        for x, y in zip(fam.members, moved.members):
            worst_member = max(
                worst_member, float(np.max(np.abs(u.matrix @ x.amplitudes - y.amplitudes)))
            )
        worst_iso = max(
            worst_iso,
            float(np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim)))),
        )
    _upper("criterion-8 member-reconstruction", worst_member, 1e-8)
    _upper("criterion-8 isometry-residual", worst_iso, 1e-10)
    with pytest.raises(InconsistentGram):
        equivalence_unitary(
            StateFamily(tuple(kets_with_overlap(0.30, 2))),
            StateFamily(tuple(kets_with_overlap(0.18, 2))),
        )
    print("PASS criterion-8 gram-mismatch-raises")


def test_criterion_9_termwise_linear_agreement():
    rng = np.random.default_rng(SEED + 9)
    sig_exp = signature(("p", 2), ("q", 2))
    sig_anc = signature(("e", 3))
    sig_in = sig_exp.concat(sig_anc)
    sig_out = signature(("r", 2), ("s", 2), ("f", 3))
    worst = 0.0
    checked = 0
    for _ in range(10):
        basis_iso = random_isometry(sig_exp, signature(("t", 4)), rng)
        expansion = StateFamily(
            tuple(Ket(sig_exp, basis_iso.matrix[:, k]) for k in range(4))
        )
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        anc = Ket(sig_anc, z / np.linalg.norm(z))
        out_iso = random_isometry(sig_in, sig_out, rng)
        pairs = tuple(
            (
                Ket(sig_in, np.kron(u.amplitudes, anc.amplitudes)),
                Ket(sig_out, out_iso.matrix @ np.kron(u.amplitudes, anc.amplitudes)),
            )
            for u in expansion.members
        )
        spec = MachineSpec(sig_in, sig_out, pairs)
        lm = extend_to_isometry(spec)
        for _ in range(10):
            zz = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            spectated = Ket(
                signature(("w", 3), ("p", 2), ("q", 2)), zz / np.linalg.norm(zz)
            )
            probe = Ket(
                signature(("w", 3), ("p", 2), ("q", 2), ("e", 3)),
                np.kron(spectated.amplitudes, anc.amplitudes),
            )
            via_term = apply_termwise(spec, probe, ("p", "q", "e"), expansion)
            via_lin = apply_linear(lm, probe, ("p", "q", "e"))
            worst = max(worst, float(np.max(np.abs(via_term.amplitudes - via_lin.amplitudes))))
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
