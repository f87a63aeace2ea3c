"""Named invariant checks behind the ``verify`` command.

Every check is deterministic given the base seed (each derives its own
stream), reports its worst measured deviation, and passes when that
deviation is below the effective tolerance.  A global tolerance override
replaces each check's default threshold.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from . import conservation as cons
from . import nosignal as nosig
from .config import DEFAULT_SEED
from .core import (
    cmul,
    eig_hermitian_batch,
    entropy_bits,
    failures_named,
    kron_stack,
    modulus,
    reduced_states,
    trace_distances,
)
from .machines import (
    InconsistentGram,
    apply_isometries,
    deleter_rules,
    extend_to_isometries,
    gram_comparison,
    haar_isometries,
    images,
    isometry_matrix_from_pairs,
    product_outcomes,
    require_isometries,
    strong_cloner_inputs,
    strong_cloner_outputs,
    termwise_batch,
)
from .report import Verdict
from .states import basis_amplitudes, gram_stack, overlap_pair_amplitudes, random_kets, unit_kets
from .tolerances import ASSERT_TOL, RESIDUAL_TOL


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(seed * 1000 + salt)


def _random_densities(rng, n: int, dim: int = 4) -> np.ndarray:
    # Reduced states of random pure states on a doubled space: generic mixed.
    purified = random_kets(dim * dim, rng, n)
    return reduced_states(purified, (dim, dim), (0,))


# The ranges [0, high) of a basis pair's (theta, phi).
_ANGLE_HIGH = np.array([math.pi, 2.0 * math.pi - 1e-9])


def _random_basis_angles(rng, n: int) -> np.ndarray:
    """Angles (n, 2) of n random basis pairs, drawn in turn as (theta, phi):
    ``rng.uniform(0.0, _ANGLE_HIGH, (n, 2))`` bit for bit (0 + high u is
    high u), without its broadcasting, which costs more than the draws."""
    return rng.random((n, 2)) * _ANGLE_HIGH


def _random_singlets(rng, n: int) -> np.ndarray:
    """Singlets of n random basis pairs, each drawn as (theta, phi)."""
    return nosig._singlets(basis_amplitudes(*_random_basis_angles(rng, n).T))


# The factors the partial-trace checks trace down to their kept axes.
_XYZ = (2, 3, 2)


def _check_partial_trace_preserves_trace(seed):
    kets = random_kets(math.prod(_XYZ), _rng(seed, 1), 20)
    traces = [
        np.trace(reduced_states(kets, _XYZ, keep), axis1=-2, axis2=-1)
        for keep in ((0,), (1,), (0, 2))
    ]
    return float(np.max(modulus(np.array(traces) - 1.0))), RESIDUAL_TOL


def _check_partial_trace_hermiticity(seed):
    kets = random_kets(math.prod(_XYZ), _rng(seed, 2), 20)
    reduced = (reduced_states(kets, _XYZ, keep) for keep in ((0,), (1, 2)))
    dev = max(float(np.max(np.abs(r - np.swapaxes(r, -1, -2).conj()))) for r in reduced)
    return dev, RESIDUAL_TOL


def _check_partial_trace_product_marginal(seed):
    # Ten trials, each a qutrit ket then a ququart ket.
    draws = _rng(seed, 3).standard_normal((10, 14))
    a, b = unit_kets(draws[:, :6], 3), unit_kets(draws[:, 6:], 4)
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
        draws = rng.standard_normal((5, 2, n, n))
        z = draws[:, 0] + 1j * draws[:, 1]
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
    # Twenty trials, each two qutrit kets a, c then two ququart kets b, d.
    draws = _rng(seed, 8).standard_normal((20, 28))
    qutrits = unit_kets(draws[:, :12].reshape(20, 2, 6), 3)
    ququarts = unit_kets(draws[:, 12:].reshape(20, 2, 8), 4)
    (a, c), (b, d) = np.moveaxis(qutrits, 1, 0), np.moveaxis(ququarts, 1, 0)
    joint = np.vecdot(kron_stack(a, b), kron_stack(c, d))
    return float(np.max(modulus(joint - cmul(np.vecdot(a, c), np.vecdot(b, d))))), RESIDUAL_TOL


def _check_entropy_pure_zero(seed):
    kets = random_kets(5, _rng(seed, 9), 20)
    projectors = kets[:, :, None] * kets.conj()[:, None, :]
    return float(np.max(np.abs(entropy_bits(eig_hermitian_batch(projectors)[0])))), RESIDUAL_TOL


def _check_singlet_invariance(seed):
    singlets = _random_singlets(_rng(seed, 10), 100)
    overlaps = np.vecdot(singlets[::2], singlets[1::2])
    return float(np.max(np.abs(1.0 - modulus(overlaps)))), ASSERT_TOL


def _check_singlet_marginal(seed):
    singlets = _random_singlets(_rng(seed, 11), 20)
    dev = 0.0
    for keep in ((0,), (1,)):
        reduced = reduced_states(singlets, (2, 2), keep)
        dev = max(dev, float(np.max(np.abs(reduced - np.eye(2) / 2.0))))
    return dev, RESIDUAL_TOL


def _check_gram_psd(seed):
    rng = _rng(seed, 12)
    families = random_kets(4, rng, 60).reshape(20, 3, 4)
    vals, _ = eig_hermitian_batch(gram_stack(families))
    return max(0.0, -float(vals.min())), ASSERT_TOL


def _random_isometries(normals, n_out: int, n_in: int) -> np.ndarray:
    """Guarded Haar isometries (n, n_out, n_in) of stacked standard normals."""
    isometries = haar_isometries(normals, n_out, n_in)
    require_isometries(isometries)
    return isometries


def _check_gram_unitary_invariance(seed):
    # Each trial draws four kets (40 normals), then its isometry (50).
    draws = _rng(seed, 13).standard_normal((10, 90))
    families = unit_kets(draws[:, :40].reshape(10, 4, 10), 5)
    # Each of the 40 kets is a state of its own, moved as one.
    u = np.repeat(_random_isometries(draws[:, 40:], 5, 5), 4, axis=0)
    moved = apply_isometries(u, families.reshape(40, 1, 5)).reshape(10, 4, 5)
    return float(np.max(np.abs(gram_stack(families) - gram_stack(moved)))), RESIDUAL_TOL


def _check_overlap_roundtrip(seed):
    units = [complex(math.cos(phase), math.sin(phase)) for phase in (0.0, math.pi / 3.0, math.pi)]
    targets = np.multiply.outer(np.arange(0.0, 1.0 + 1e-12, 0.1), units).ravel()
    pairs = overlap_pair_amplitudes(targets, 4)
    return float(np.max(modulus(np.vecdot(pairs[:, 0], pairs[:, 1]) - targets))), RESIDUAL_TOL


def _check_isometry_extension(seed):
    # Four random kets in dimension 8 per trial, declared to map to their
    # images under a hidden random isometry into dimension 12.  Each trial
    # draws the isometry (192 normals), then the kets (64).
    draws = _rng(seed, 14).standard_normal((20, 256))
    inputs = unit_kets(draws[:, 192:].reshape(20, 4, 16), 8)
    outputs = images(_random_isometries(draws[:, :192], 12, 8), inputs)
    found = extend_to_isometries(inputs, outputs)
    return float(max(np.max(found.member_residual), np.max(found.isometry_residual))), ASSERT_TOL


def _moved_off(x: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """Overlaps ``x``, but 0.1 above the surface's where within 0.05 of it,
    or 0.1 below where that passes 1."""
    moved = np.where(surface + 0.1 <= 1.0, surface + 0.1, surface - 0.1)
    return np.where(np.abs(x - surface) < 0.05, moved, x)


def _boundary(on_surface: np.ndarray, off_surface: np.ndarray) -> float:
    """The largest Gram deviation on the consistency surface, or 1.0 if a
    draw off it passes the Gram check."""
    dev = float(np.max(on_surface))
    return max(dev, 1.0) if np.any(off_surface < ASSERT_TOL) else dev


def _strong_cloner_deviation(a, b, c) -> np.ndarray:
    """Gram deviations of strong cloners realizing the overlap triples."""
    psis, alphas, records = (overlap_pair_amplitudes(z, d) for z, d in ((a, 2), (b, 2), (c, 8)))
    inputs = strong_cloner_inputs(psis, alphas, 4)
    return gram_comparison(inputs, strong_cloner_outputs(psis, records))[2]


def _check_strong_cloner_boundary(seed):
    rng = _rng(seed, 15)
    a, c = rng.uniform(0.05, 1.0, size=(100, 2)).T
    on_surface = _strong_cloner_deviation(a, a * c, c)
    # A hundred trials, each drawn as (a, c, b); b is moved off the surface.
    a, c, b = rng.uniform([0.1, 0.0, 0.0], 1.0, size=(100, 3)).T
    return _boundary(on_surface, _strong_cloner_deviation(a, _moved_off(b, a * c), c)), ASSERT_TOL


def _deleter_deviation(a, g) -> np.ndarray:
    """Gram deviations of deleters with source overlaps a and record overlaps g."""
    rules = deleter_rules(overlap_pair_amplitudes(a, 2), overlap_pair_amplitudes(g, 4), 4)
    return gram_comparison(*rules)[2]


def _check_deleter_boundary(seed):
    rng = _rng(seed, 16)
    a = rng.uniform(0.05, 1.0, size=100)
    on_surface = _deleter_deviation(a, a)
    # A hundred trials, each drawn as (a, g); g is moved off the surface.
    a, g = rng.uniform([0.1, 0.0], 1.0, size=(100, 2)).T
    return _boundary(on_surface, _deleter_deviation(a, _moved_off(g, a))), ASSERT_TOL


def _check_termwise_matches_linear(seed):
    # Ten machines, each declared on an orthonormal expansion basis of two
    # qubits times a fixed qutrit ancilla state and mapping it with a random
    # isometry; ten probes (a qutrit spectator, two qubits, the ancilla
    # state) per machine.
    # A machine draws its basis (32 normals), ancilla (6) and outputs (288),
    # then its probes' qutrit (6) and qubits (8) one probe after another.
    draws = _rng(seed, 17).standard_normal((10, 466))
    ancillas = unit_kets(draws[:, 32:38], 3)
    probes = draws[:, 326:].reshape(100, 14)
    probes = kron_stack(unit_kets(probes[:, :6], 3), unit_kets(probes[:, 6:], 4))
    # Expansion element k is row k of the basis isometry's adjoint.
    elements = np.swapaxes(_random_isometries(draws[:, :32], 4, 4), -1, -2).conj()
    inputs = kron_stack(elements, ancillas[:, None])
    outputs = images(_random_isometries(draws[:, 38:326], 12, 12), inputs)
    linear = extend_to_isometries(inputs, outputs).isometries

    def per_probe(stack):
        return np.repeat(stack, 10, axis=0)

    blocks = kron_stack(probes, per_probe(ancillas)).reshape(100, 3, 12)
    via_term = termwise_batch(blocks, per_probe(elements), per_probe(inputs), per_probe(outputs))
    via_lin = apply_isometries(per_probe(linear), blocks)
    return float(np.max(np.abs(via_term - via_lin))), ASSERT_TOL


def _check_linear_no_signalling(seed):
    # Random states over (al 3, b1 2, b2 4); a random isometry takes Bob's
    # (b1, b2) to (n1 4, n2 3).
    # Each trial draws its state (48 normals), then its isometry (192).
    draws = _rng(seed, 18).standard_normal((20, 240))
    states = unit_kets(draws[:, :48], 24)
    moved = apply_isometries(_random_isometries(draws[:, 48:], 12, 8), states.reshape(20, 3, 8))
    before = reduced_states(states, (3, 2, 4), (0,))
    after = reduced_states(moved.reshape(20, 36), (3, 4, 3), (0,))
    return float(np.max(np.abs(before - after))), RESIDUAL_TOL


def _check_premachine_bob_marginal(seed):
    rng = _rng(seed, 19)
    bases = nosig.scenario_bases(_random_basis_angles(rng, 200).reshape(50, 2, 2, 2))
    return float(np.max(nosig.premachine(bases).deviation)), RESIDUAL_TOL


def _random_isometric_scenarios(rng, n: int):
    """Bases of n random scenarios, each drawn before its random isometry on
    Bob's side, and the isometries."""
    angles = np.empty((n, 4, 2))
    # Bob's (src 2, reg 2, env 4) in and (src 2, copy 2, env 4) out.
    normals = np.empty((n, 2 * 16 * 16))
    for t in range(n):
        angles[t] = _random_basis_angles(rng, 4)
        rng.standard_normal(out=normals[t])
    return nosig.scenario_bases(angles.reshape(n, 2, 2, 2)), haar_isometries(normals, 16, 16)


def _check_isometric_zero_signalling(seed):
    bases, isometries = _random_isometric_scenarios(_rng(seed, 20), 100)
    batch = nosig.evaluate_batch(bases, isometries)
    return float(np.max(batch.signalling_magnitude)), RESIDUAL_TOL


@lru_cache(maxsize=4)
def _wishful_batch(seed):
    """One wishful batch of the computational basis against pi/8, pi/4 and
    3 pi/8, whatever the seed: the shortfall of its smallest signalling
    magnitude from 1e-6, and the sign-reading deviation at pi/8 and 3 pi/8."""
    angles = np.zeros((3, 2, 2, 2))  # every angle 0 but basis 2's theta
    angles[:, 1, :, 0] = np.array([math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0])[:, None]
    bases = nosig.scenario_bases(angles)
    machine = nosig.wishful_machine_rules(bases)
    batch = nosig.evaluate_batch(bases, machine)
    # The conditioned mixture must not depend on the +/- signs carried by the
    # singlet product expansion: rebuild it with all-positive coefficients.
    sign_dev = 0.0
    bases, marginals = bases[::2], batch.marginal_after[::2]
    env = np.eye(4, dtype=complex)[0]
    for point, (inputs, outputs) in enumerate(zip(*(x[::2] for x in machine))):
        rules = {x.tobytes(): y for x, y in zip(inputs, outputs)}
        for index in (1, 2):
            psi, alpha = bases[point, index - 1]
            mix = np.zeros((16, 16), dtype=complex)
            for u in product_outcomes(psi, alpha):
                out = rules[np.kron(u, env).tobytes()]
                mix += 0.25 * np.outer(out, out.conj())
            sign_dev = max(sign_dev, float(np.max(np.abs(marginals[point, index - 1] - mix))))
    shortfall = max(0.0, 1e-6 - float(np.min(batch.signalling_magnitude)))
    return (shortfall, ASSERT_TOL), (sign_dev, RESIDUAL_TOL)


_GRID = np.round(np.arange(0.0, 1.0 + 1e-12, 0.1), 10)


@lru_cache(maxsize=4)
def _conservation_batch(seed):
    """One batch over the (a, b, c) grid, then the consistency surface (a, a
    c, c) of its (a, c) grid, whatever the seed: the closed forms', the
    surface shift's, the shift's closed form's and the verdict flip's deviations."""
    a, b, c = (x.ravel() for x in np.meshgrid(_GRID, _GRID, _GRID, indexing="ij"))
    on_a, on_c = (x.ravel() for x in np.meshgrid(_GRID, _GRID, indexing="ij"))
    cube, surface = slice(0, a.size), slice(a.size, None)
    batch = cons.evaluate_batch(
        *(np.concatenate(x) for x in ((a, on_a), (b, on_a * on_c), (c, on_c))),
        np.full(a.size + on_a.size, 0.5),
    )
    vals_b, vals_a = batch.eigenvalues_before[:, 0], batch.eigenvalues_after[:, 0]
    delta_lambda = (vals_a - vals_b)[surface]
    delta_entropy = (batch.entropy_after - batch.entropy_before)[surface]
    surface_dev = max(np.max(np.abs(delta_lambda)), np.max(np.abs(delta_entropy)))
    lam_b, lam_a = vals_b[cube], vals_a[cube]
    lam_dev = max(
        np.max(np.abs(lam_b - cons.lambda_before(a, b))),
        np.max(np.abs(lam_a - cons.lambda_after(a, c))),
    )
    delta_form_dev = np.max(np.abs((lam_a - lam_b) - (a * a * c - a * b) / 2.0))
    consistent = batch.gram_deviation[cube] < ASSERT_TOL
    # Orthogonal source states are clonable for any b, c, so the verdict flip
    # is asserted on the a > 0 part only.
    expected = (a == 0.0) | (np.abs(b - a * c) < 1e-9)
    flip_dev = 1.0 if np.any(consistent != expected) else 0.0
    return ((lam_dev, RESIDUAL_TOL), (surface_dev, RESIDUAL_TOL), (delta_form_dev, RESIDUAL_TOL),
            (flip_dev, ASSERT_TOL))


def _check_isometric_preserves_alice(seed):
    rng = _rng(seed, 24)
    a, c = rng.uniform(0.0, 1.0, size=(50, 2)).T
    psis, alphas, records = (overlap_pair_amplitudes(z, d) for z, d in ((a, 2), (a * c, 2), (c, 8)))
    inputs, outputs = strong_cloner_inputs(psis, alphas, 4), strong_cloner_outputs(psis, records)
    # Shared states over (A, src, blank, reg, env): the declared inputs superposed.
    shared = cons._superpose(np.full(50, 0.5), inputs[:, 0], inputs[:, 1])
    moved = apply_isometries(isometry_matrix_from_pairs(inputs, outputs)[0], shared)
    before, after = (reduced_states(x.reshape(50, -1), (2, 32), (0,)) for x in (shared, moved))
    return float(np.max(np.abs(before - after))), RESIDUAL_TOL


@lru_cache(maxsize=4)
def _roundtrip_batch(seed):
    """The largest member and isometry residuals of 100 round trips."""
    rng = _rng(seed, 25)
    # Square families of dimensions 2..8 and sizes 1..4, drawn trial by
    # trial and recovered as one stack per (dimension, size).
    trials_of_shape: dict[tuple[int, int], list[int]] = {}
    normals = []
    for t in range(100):
        dim, size = 2 + t % 7, 1 + t % 4
        trials_of_shape.setdefault((dim, size), []).append(t)
        normals.append(cons.roundtrip_normals(dim, dim, size, rng))
    member = isometry = 0.0
    for (dim, size), trials in trials_of_shape.items():
        with failures_named("trial", trials, len(normals)):
            found = cons.roundtrips(dim, dim, size, [normals[t] for t in trials])[2]
        member = max(member, float(np.max(found.member_residual)))
        isometry = max(isometry, float(np.max(found.isometry_residual)))
    return (member, 1e-8), (isometry, 1e-10)


_ANSWERS = {
    _wishful_batch: ("nosignal.wishful_cloner_signalling_positive",
                     "nosignal.sign_reading_invariance"),
    _conservation_batch: ("conservation.lambda_closed_forms_grid",
                          "conservation.delta_zero_on_consistency_surface",
                          "conservation.delta_matches_closed_form",
                          "conservation.checker_flips_on_surface"),
    _roundtrip_batch: ("conservation.equivalence_unitary_member_residual",
                       "conservation.equivalence_unitary_isometry_residual"),
}


def _answer(batch, name: str, seed):
    """The (deviation, tolerance) pair of check ``name`` from the cached run of
    ``batch``, which gives the pairs of the checks ``_ANSWERS`` names in turn."""
    return dict(zip(_ANSWERS[batch], batch(seed), strict=True))[name]


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
    *((name, partial(_answer, _wishful_batch, name)) for name in _ANSWERS[_wishful_batch]),
    *((name, partial(_answer, _conservation_batch, name))
      for name in _ANSWERS[_conservation_batch]),
    ("conservation.isometric_machine_preserves_alice_marginal", _check_isometric_preserves_alice),
    *((name, partial(_answer, _roundtrip_batch, name)) for name in _ANSWERS[_roundtrip_batch]),
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
