"""Named invariant checks behind the ``verify`` command.

Every check is deterministic given the base seed (each derives its own
stream), reports its worst measured deviation, and passes when that
deviation is below the effective tolerance.  A global tolerance override
replaces each check's default threshold.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import conservation as cons
from . import nosignal as nosig
from .config import DEFAULT_SEED
from .core import (
    eig_hermitian_batch,
    entropy_bits,
    failures_named,
    kron_stack,
    reduced_states,
    trace_distances,
)
from .machines import (
    InconsistentGram,
    apply_isometries,
    deleter_rules,
    extend_to_isometries,
    gram_comparison,
    haar_draw,
    haar_isometries,
    images,
    isometry_matrix_from_pairs,
    require_isometries,
    strong_cloner_rules,
    termwise_batch,
)
from .report import Verdict
from .states import basis_amplitudes, gram_stack, overlap_pair_amplitudes, random_amplitudes
from .tolerances import ASSERT_TOL, RESIDUAL_TOL


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(seed * 1000 + salt)


def _random_kets(dim: int, rng, n: int) -> np.ndarray:
    """Amplitudes of n random kets, drawn one after another, shape (n, dim)."""
    return np.array([random_amplitudes(dim, rng) for _ in range(n)])


def _random_densities(rng, n: int, dim: int = 4) -> np.ndarray:
    # Reduced states of random pure states on a doubled space: generic mixed.
    purified = _random_kets(dim * dim, rng, n)
    return reduced_states(purified, (dim, dim), (0,))


def _random_basis_angles(rng) -> tuple[float, float]:
    theta = float(rng.uniform(0.0, math.pi))
    phi = float(rng.uniform(0.0, 2.0 * math.pi - 1e-9))
    return theta, phi


def _random_singlets(rng, n: int) -> np.ndarray:
    """Singlets of n random basis pairs, each drawn as (theta, phi)."""
    angles = np.array([_random_basis_angles(rng) for _ in range(n)])
    return nosig._singlets(basis_amplitudes(*angles.T))


# The factors the partial-trace checks trace down to their kept axes.
_XYZ = (2, 3, 2)


def _check_partial_trace_preserves_trace(seed):
    kets = _random_kets(math.prod(_XYZ), _rng(seed, 1), 20)
    dev = 0.0
    for keep in ((0,), (1,), (0, 2)):
        for r in reduced_states(kets, _XYZ, keep):
            dev = max(dev, abs(complex(np.trace(r)) - 1.0))
    return dev, RESIDUAL_TOL


def _check_partial_trace_hermiticity(seed):
    kets = _random_kets(math.prod(_XYZ), _rng(seed, 2), 20)
    dev = 0.0
    for keep in ((0,), (1, 2)):
        for r in reduced_states(kets, _XYZ, keep):
            dev = max(dev, float(np.max(np.abs(r - r.conj().T))))
    return dev, RESIDUAL_TOL


def _check_partial_trace_product_marginal(seed):
    rng = _rng(seed, 3)
    pairs = [(random_amplitudes(3, rng), random_amplitudes(4, rng)) for _ in range(10)]
    a, b = (np.array(kets) for kets in zip(*pairs))
    reduced = reduced_states(kron_stack(a, b), (3, 4), (0,))
    dev = np.max(np.abs(reduced - a[:, :, None] * a.conj()[:, None, :]))
    return float(dev), RESIDUAL_TOL


def _check_trace_distance_symmetry(seed):
    r, s = _random_densities(_rng(seed, 4), 20).reshape(10, 2, 4, 4).swapaxes(0, 1)
    return float(np.max(np.abs(trace_distances(r, s) - trace_distances(s, r)))), RESIDUAL_TOL


def _check_trace_distance_triangle(seed):
    a, b, c = _random_densities(_rng(seed, 5), 60).reshape(20, 3, 4, 4).swapaxes(0, 1)
    excess = trace_distances(a, c) - trace_distances(a, b) - trace_distances(b, c)
    return max(float(np.max(excess)), 0.0), RESIDUAL_TOL


def _check_eig_reconstruction(seed):
    rng = _rng(seed, 6)
    dev = 0.0
    for n in (2, 8, 16):
        z = np.array([
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(5)
        ])
        h = 0.5 * (z + np.swapaxes(z, -1, -2).conj())
        vals, vecs = eig_hermitian_batch(h)
        adjoint = np.swapaxes(vecs, -1, -2).conj()
        recon = (vecs * vals[:, None, :]) @ adjoint
        dev = max(dev, float(np.max(np.abs(h - recon))))
        dev = max(dev, float(np.max(np.abs(adjoint @ vecs - np.eye(n)))))
    return dev, RESIDUAL_TOL


def _check_density_eigenvalue_range(seed):
    vals, _ = eig_hermitian_batch(_random_densities(_rng(seed, 7), 20))
    return max(0.0, -float(vals.min()), float(vals.max()) - 1.0), RESIDUAL_TOL


def _check_inner_factorizes(seed):
    rng = _rng(seed, 8)
    dev = 0.0
    for _ in range(20):
        a, c = random_amplitudes(3, rng), random_amplitudes(3, rng)
        b, d = random_amplitudes(4, rng), random_amplitudes(4, rng)
        joint = complex(np.vdot(np.kron(a, b), np.kron(c, d)))
        dev = max(dev, abs(joint - complex(np.vdot(a, c)) * complex(np.vdot(b, d))))
    return dev, RESIDUAL_TOL


def _check_entropy_pure_zero(seed):
    kets = _random_kets(5, _rng(seed, 9), 20)
    projectors = kets[:, :, None] * kets.conj()[:, None, :]
    return float(np.max(np.abs(entropy_bits(eig_hermitian_batch(projectors)[0])))), RESIDUAL_TOL


def _check_singlet_invariance(seed):
    singlets = _random_singlets(_rng(seed, 10), 100)
    dev = max(abs(1.0 - abs(np.vdot(s1, s2))) for s1, s2 in zip(singlets[::2], singlets[1::2]))
    return dev, ASSERT_TOL


def _check_singlet_marginal(seed):
    singlets = _random_singlets(_rng(seed, 11), 20)
    dev = 0.0
    for keep in ((0,), (1,)):
        reduced = reduced_states(singlets, (2, 2), keep)
        dev = max(dev, float(np.max(np.abs(reduced - np.eye(2) / 2.0))))
    return dev, RESIDUAL_TOL


def _check_gram_psd(seed):
    rng = _rng(seed, 12)
    families = np.array([_random_kets(4, rng, 3) for _ in range(20)])
    vals, _ = eig_hermitian_batch(gram_stack(families))
    return max(0.0, -float(vals.min())), ASSERT_TOL


def _random_isometries(draws) -> np.ndarray:
    """Guarded Haar isometries of stacked Gaussian draws."""
    isometries = haar_isometries(np.array(draws))
    require_isometries(isometries)
    return isometries


def _check_gram_unitary_invariance(seed):
    rng = _rng(seed, 13)
    families, draws = [], []
    for _ in range(10):
        families.append(_random_kets(5, rng, 4))
        draws.append(haar_draw(5, 5, rng))
    families = np.array(families)
    # Each of the 40 kets is a state of its own, moved as one.
    u = np.repeat(_random_isometries(draws), 4, axis=0)
    moved = apply_isometries(u, families.reshape(40, 1, 5)).reshape(10, 4, 5)
    return float(np.max(np.abs(gram_stack(families) - gram_stack(moved)))), RESIDUAL_TOL


def _check_overlap_roundtrip(seed):
    dev = 0.0
    for modulus in np.arange(0.0, 1.0 + 1e-12, 0.1):
        for phase in (0.0, math.pi / 3.0, math.pi):
            target = modulus * complex(math.cos(phase), math.sin(phase))
            a, b = overlap_pair_amplitudes([target], 4)[0]
            dev = max(dev, abs(complex(np.vdot(a, b)) - target))
    return dev, RESIDUAL_TOL


def _check_isometry_extension(seed):
    # Four random kets in dimension 8 per trial, declared to map to their
    # images under a hidden random isometry into dimension 12.
    rng = _rng(seed, 14)
    draws, inputs = [], []
    for _ in range(20):
        draws.append(haar_draw(8, 12, rng))
        inputs.append(_random_kets(8, rng, 4))
    inputs = np.array(inputs)
    outputs = images(_random_isometries(draws), inputs)
    found = extend_to_isometries(inputs, outputs)
    return float(max(np.max(found.member_residual), np.max(found.isometry_residual))), ASSERT_TOL


def _strong_cloner_deviation(a, b, c) -> np.ndarray:
    """Gram deviations of strong cloners realizing the overlap triples."""
    pairs = (overlap_pair_amplitudes(z, dim) for z, dim in ((a, 2), (b, 2), (c, 8)))
    return gram_comparison(*strong_cloner_rules(*pairs, 4))[2]


def _check_strong_cloner_boundary(seed):
    rng = _rng(seed, 15)
    a, c = np.array([rng.uniform(0.05, 1.0, size=2) for _ in range(100)]).T
    dev = float(np.max(_strong_cloner_deviation(a, a * c, c)))
    off_surface = []
    for _ in range(100):
        a = rng.uniform(0.1, 1.0)
        c = rng.uniform(0.0, 1.0)
        b = rng.uniform(0.0, 1.0)
        if abs(b - a * c) < 0.05:
            b = a * c + 0.1 if a * c + 0.1 <= 1.0 else a * c - 0.1
        off_surface.append((a, b, c))
    if np.any(_strong_cloner_deviation(*np.array(off_surface).T) < ASSERT_TOL):
        dev = max(dev, 1.0)
    return dev, ASSERT_TOL


def _deleter_deviation(a, g) -> np.ndarray:
    """Gram deviations of deleters with source overlaps a and record overlaps g."""
    rules = deleter_rules(overlap_pair_amplitudes(a, 2), overlap_pair_amplitudes(g, 4), 4)
    return gram_comparison(*rules)[2]


def _check_deleter_boundary(seed):
    rng = _rng(seed, 16)
    a = np.array([rng.uniform(0.05, 1.0) for _ in range(100)])
    dev = float(np.max(_deleter_deviation(a, a)))
    off_surface = []
    for _ in range(100):
        a = rng.uniform(0.1, 1.0)
        g = rng.uniform(0.0, 1.0)
        if abs(g - a) < 0.05:
            g = a + 0.1 if a + 0.1 <= 1.0 else a - 0.1
        off_surface.append((a, g))
    if np.any(_deleter_deviation(*np.array(off_surface).T) < ASSERT_TOL):
        dev = max(dev, 1.0)
    return dev, ASSERT_TOL


def _check_termwise_matches_linear(seed):
    # Ten machines, each declared on an orthonormal expansion basis of two
    # qubits times a fixed qutrit ancilla state and mapping it with a random
    # isometry; ten probes (a qutrit spectator, two qubits, the ancilla
    # state) per machine.
    rng = _rng(seed, 17)
    basis_draws, ancillas, out_draws, probes = [], [], [], []
    for _ in range(10):
        basis_draws.append(haar_draw(4, 4, rng))
        ancillas.append(random_amplitudes(3, rng))
        out_draws.append(haar_draw(12, 12, rng))
        for _ in range(10):
            spectator = random_amplitudes(3, rng)
            probes.append(kron_stack(spectator, random_amplitudes(4, rng)))
    # Expansion element k is row k of the basis isometry's adjoint.
    elements = np.swapaxes(_random_isometries(basis_draws), -1, -2).conj()
    ancillas = np.array(ancillas)
    inputs = kron_stack(elements, ancillas[:, None])
    outputs = images(_random_isometries(out_draws), inputs)
    linear = extend_to_isometries(inputs, outputs).isometries

    def per_probe(stack):
        return np.repeat(stack, 10, axis=0)

    blocks = kron_stack(np.array(probes), per_probe(ancillas)).reshape(100, 3, 12)
    basis = per_probe(np.swapaxes(elements, -1, -2))  # elements as columns
    via_term = termwise_batch(blocks, basis, per_probe(inputs), per_probe(outputs))
    via_lin = apply_isometries(per_probe(linear), blocks)
    return float(np.max(np.abs(via_term - via_lin))), ASSERT_TOL


def _check_linear_no_signalling(seed):
    # Random states over (al 3, b1 2, b2 4); a random isometry takes Bob's
    # (b1, b2) to (n1 4, n2 3).
    rng = _rng(seed, 18)
    states, draws = [], []
    for _ in range(20):
        states.append(random_amplitudes(24, rng))
        draws.append(haar_draw(8, 12, rng))
    states = np.array(states)
    moved = apply_isometries(_random_isometries(draws), states.reshape(20, 3, 8))
    before = reduced_states(states, (3, 2, 4), (0,))
    after = reduced_states(moved.reshape(20, 36), (3, 4, 3), (0,))
    return float(np.max(np.abs(before - after))), RESIDUAL_TOL


def _random_scenario_angles(rng) -> list[tuple[float, float]]:
    """Angles of a random scenario's four basis pairs, each drawn as (theta, phi)."""
    return [_random_basis_angles(rng) for _ in range(4)]


def _scenario_bases(angles) -> np.ndarray:
    """Basis amplitudes (n, 2, 2, 2, 2) of n scenarios' angles (n, 4, 2)."""
    angles = np.asarray(angles, dtype=float)
    return basis_amplitudes(*angles.reshape(-1, 2).T).reshape(len(angles), 2, 2, 2, 2)


def _computational_against(thetas) -> np.ndarray:
    """Scenarios with the computational basis against each Bloch angle theta."""
    computational = basis_amplitudes(0.0, 0.0)
    return np.array([
        [[computational, computational], [tilted] * 2] for tilted in basis_amplitudes(thetas)
    ])


def _check_premachine_bob_marginal(seed):
    rng = _rng(seed, 19)
    bases = _scenario_bases([_random_scenario_angles(rng) for _ in range(50)])
    return float(np.max(nosig.premachine(bases).deviation)), RESIDUAL_TOL


def _random_isometric_scenarios(rng, n: int):
    """Bases of n random scenarios, each drawn before its random isometry on
    Bob's side, and the isometries."""
    angles = []
    # Bob's (src 2, reg 2, env 4) in and (src 2, copy 2, env 4) out.
    draws = np.empty((n, 16, 16), dtype=complex)
    for t in range(n):
        angles.append(_random_scenario_angles(rng))
        draws[t] = haar_draw(16, 16, rng)
    return _scenario_bases(angles), haar_isometries(draws)


def _check_isometric_zero_signalling(seed):
    bases, isometries = _random_isometric_scenarios(_rng(seed, 20), 100)
    batch = nosig.evaluate_batch(bases, isometries=isometries)
    return float(np.max(batch.signalling_magnitude)), RESIDUAL_TOL


def _check_wishful_signalling_positive(seed):
    floor = 1e-6
    bases = _computational_against((math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0))
    worst = float(np.min(nosig.evaluate_batch(bases).signalling_magnitude))
    return max(0.0, floor - worst), ASSERT_TOL


def _check_sign_reading_invariance(seed):
    # The conditioned mixture must not depend on the +/- signs carried by the
    # singlet product expansion: rebuild it with all-positive coefficients.
    dev = 0.0
    bases = _computational_against((math.pi / 8.0, 3.0 * math.pi / 8.0))
    marginals = nosig.evaluate_batch(bases).marginal_after
    env = np.zeros(4, dtype=complex)
    env[0] = 1.0
    for point, (inputs, outputs) in enumerate(zip(*nosig.wishful_machine_rules(bases))):
        rules = {x.tobytes(): y for x, y in zip(inputs, outputs)}
        for index in (1, 2):
            psi, alpha = bases[point, index - 1]
            mix = np.zeros((16, 16), dtype=complex)
            for u in nosig._products(psi, alpha):
                out = rules[np.kron(u, env).tobytes()]
                mix += 0.25 * np.outer(out, out.conj())
            dev = max(dev, float(np.max(np.abs(marginals[point, index - 1] - mix))))
    return dev, RESIDUAL_TOL


_GRID = np.round(np.arange(0.0, 1.0 + 1e-12, 0.1), 10)


@lru_cache(maxsize=1)
def _conservation_grid_devs():
    """One batch over the (a, b, c) grid; each named check reads one field."""
    a, b, c = (x.ravel() for x in np.meshgrid(_GRID, _GRID, _GRID, indexing="ij"))
    batch = cons.evaluate_batch(a, b, c, np.full(a.size, 0.5))
    lam_b = batch.eigenvalues_before[:, 0]
    lam_a = batch.eigenvalues_after[:, 0]
    lam_dev = max(
        np.max(np.abs(lam_b - cons.lambda_before(a, b))),
        np.max(np.abs(lam_a - cons.lambda_after(a, c))),
    )
    delta_form_dev = np.max(np.abs((lam_a - lam_b) - (a * a * c - a * b) / 2.0))
    consistent = batch.gram_deviation < ASSERT_TOL
    # Orthogonal source states are clonable for any b, c, so the verdict flip
    # is asserted on the a > 0 part only.
    expected = (a == 0.0) | (np.abs(b - a * c) < 1e-9)
    flip_dev = 1.0 if np.any(consistent != expected) else 0.0
    return lam_dev, delta_form_dev, flip_dev


def _check_lambda_closed_forms(seed):
    return _conservation_grid_devs()[0], RESIDUAL_TOL


def _check_delta_zero_on_surface(seed):
    a, c = (x.ravel() for x in np.meshgrid(_GRID, _GRID, indexing="ij"))
    batch = cons.evaluate_batch(a, a * c, c, np.full(a.size, 0.5))
    delta_lambda = batch.eigenvalues_after[:, 0] - batch.eigenvalues_before[:, 0]
    delta_entropy = batch.entropy_after - batch.entropy_before
    return max(np.max(np.abs(delta_lambda)), np.max(np.abs(delta_entropy))), RESIDUAL_TOL


def _check_delta_closed_form(seed):
    return _conservation_grid_devs()[1], RESIDUAL_TOL


def _check_checker_flips_on_surface(seed):
    return _conservation_grid_devs()[2], ASSERT_TOL


def _check_isometric_preserves_alice(seed):
    rng = _rng(seed, 24)
    a, c = np.array([rng.uniform(0.0, 1.0, size=2) for _ in range(50)]).T
    psis, alphas, records = (overlap_pair_amplitudes(z, d) for z, d in ((a, 2), (a * c, 2), (c, 8)))
    inputs, outputs = strong_cloner_rules(psis, alphas, records, 4)
    # Shared states over (A, src, reg), then a blank slot and the environment
    # input appended and moved into the cloner's (src, blank, reg, env) order.
    shared = cons._shared(np.full(len(a), 0.5), psis, alphas).reshape(len(a), 8)
    blank, env = np.eye(2, dtype=complex)[0], np.eye(4, dtype=complex)[0]
    full = kron_stack(kron_stack(shared, blank), env)
    blocks = full.reshape(-1, 2, 2, 2, 2, 4).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 2, 32)
    moved = apply_isometries(isometry_matrix_from_pairs(inputs, outputs)[0], blocks)
    before = reduced_states(shared, (2, 4), (0,))
    after = reduced_states(moved.reshape(len(a), -1), (2, 32), (0,))
    return float(np.max(np.abs(before - after))), RESIDUAL_TOL


@lru_cache(maxsize=4)
def _check_equivalence_roundtrip(seed):
    rng = _rng(seed, 25)
    # Square families of dimensions 2..8 and sizes 1..4, drawn trial by
    # trial and recovered as one stack per (dimension, size).
    trials_of_shape: dict[tuple[int, int], list[int]] = {}
    draws = []
    for t in range(100):
        dim, size = 2 + t % 7, 1 + t % 4
        trials_of_shape.setdefault((dim, size), []).append(t)
        draws.append(cons.roundtrip_draws(dim, dim, size, rng))
    member = isometry = 0.0
    for trials in trials_of_shape.values():
        families = np.array([draws[t][0] for t in trials])
        hidden = np.array([draws[t][1] for t in trials])
        with failures_named("trial", trials):
            _, found = cons.roundtrips(families, hidden)
        member = max(member, float(np.max(found.member_residual)))
        isometry = max(isometry, float(np.max(found.isometry_residual)))
    return member, isometry


def _check_equivalence_member_residual(seed):
    member_dev, _ = _check_equivalence_roundtrip(seed)
    return member_dev, 1e-8


def _check_equivalence_isometry_residual(seed):
    _, iso_dev = _check_equivalence_roundtrip(seed)
    return iso_dev, 1e-10


def _check_gram_mismatch_raises(seed):
    family, moved = (overlap_pair_amplitudes([z], 2) for z in (0.30, 0.18))
    try:
        extend_to_isometries(family, moved)
    except InconsistentGram:
        return 0.0, ASSERT_TOL
    return 1.0, ASSERT_TOL


_CHECKS = (
    ("tensor_core.partial_trace_preserves_trace", _check_partial_trace_preserves_trace),
    ("tensor_core.partial_trace_hermiticity", _check_partial_trace_hermiticity),
    ("tensor_core.partial_trace_product_marginal", _check_partial_trace_product_marginal),
    ("tensor_core.trace_distance_symmetry", _check_trace_distance_symmetry),
    ("tensor_core.trace_distance_triangle", _check_trace_distance_triangle),
    ("tensor_core.eig_reconstruction", _check_eig_reconstruction),
    ("tensor_core.density_eigenvalue_range", _check_density_eigenvalue_range),
    ("tensor_core.inner_factorizes_over_tensor", _check_inner_factorizes),
    ("tensor_core.entropy_pure_state_zero", _check_entropy_pure_zero),
    ("states.singlet_basis_invariance", _check_singlet_invariance),
    ("states.singlet_marginal_maximally_mixed", _check_singlet_marginal),
    ("states.gram_positive_semidefinite", _check_gram_psd),
    ("states.gram_unitary_invariance", _check_gram_unitary_invariance),
    ("states.overlap_construction_roundtrip", _check_overlap_roundtrip),
    ("machines.isometry_extension_reproduces_pairs", _check_isometry_extension),
    ("machines.strong_cloner_consistency_boundary", _check_strong_cloner_boundary),
    ("machines.deleter_consistency_boundary", _check_deleter_boundary),
    ("machines.termwise_matches_linear_extension", _check_termwise_matches_linear),
    ("machines.linear_machine_no_signalling", _check_linear_no_signalling),
    ("nosignal.premachine_bob_marginal", _check_premachine_bob_marginal),
    ("nosignal.isometric_machine_zero_signalling", _check_isometric_zero_signalling),
    ("nosignal.wishful_cloner_signalling_positive", _check_wishful_signalling_positive),
    ("nosignal.sign_reading_invariance", _check_sign_reading_invariance),
    ("conservation.lambda_closed_forms_grid", _check_lambda_closed_forms),
    ("conservation.delta_zero_on_consistency_surface", _check_delta_zero_on_surface),
    ("conservation.delta_matches_closed_form", _check_delta_closed_form),
    ("conservation.checker_flips_on_surface", _check_checker_flips_on_surface),
    ("conservation.isometric_machine_preserves_alice_marginal", _check_isometric_preserves_alice),
    ("conservation.equivalence_unitary_member_residual", _check_equivalence_member_residual),
    ("conservation.equivalence_unitary_isometry_residual", _check_equivalence_isometry_residual),
    ("conservation.equivalence_unitary_gram_mismatch_raises", _check_gram_mismatch_raises),
)


def run_all_checks(
    seed: int = DEFAULT_SEED, tolerance: float | None = None
) -> list[Verdict]:
    results = []
    for name, fn in _CHECKS:
        deviation, default_tol = fn(seed)
        results.append(
            Verdict(name, float(deviation), default_tol if tolerance is None else tolerance)
        )
    return results
