"""Two-singlet signalling scenario.

Alice and Bob share two singlets (source qubit pair and register qubit
pair); Bob attaches an environment register and runs a machine on his half.
Alice measures her two qubits in one of two product bases; the outcome-
averaged state on Bob's side must not depend on her choice for any physical
machine.  The wishful termwise cloner, whose expansion basis is tied to
Alice's basis index, breaks exactly this.

:func:`evaluate_batch` evaluates a batch of scenarios as stacked arrays;
``run`` is a batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Record,
    chunks,
    eig_hermitian_batch,
    failures_named,
    kron_stack,
    reduced_states,
    require_density_matrices,
    require_within,
    trace_distances,
)
from .machines import (
    apply_isometries, product_outcomes, require_isometries, termwise_batch, wishful_rules
)
from .states import basis_amplitudes, gram_stack
from .tolerances import ASSERT_TOL, RESIDUAL_TOL


class Premachine(Record):
    """Joint kets (n, 16 ancilla_dim), Bob's pre-machine marginals (n, 4, 4)
    and their largest entrywise deviations from I/4 (n,)."""

    joint: np.ndarray
    marginal: np.ndarray
    deviation: np.ndarray


class NosignalBatch(Record):
    """Results of :func:`evaluate_batch`, stacked over the batch (axis 0).

    Bob's marginals after the machine, conditioned on Alice's basis 1 and 2,
    have shape (n, 2, D, D) and their spectra (n, 2, D), descending: the
    Gram spectra of the states conditioned on Alice's four outcomes, padded
    with exact zeros.  The validity deviation is the worst of both
    marginals' Hermiticity, trace and eigenvalue-range deviations.
    """

    joint: np.ndarray
    marginal_before: np.ndarray
    premachine_deviation: np.ndarray
    marginal_after: np.ndarray
    eigenvalues_after: np.ndarray
    validity_deviation: np.ndarray
    signalling_magnitude: np.ndarray


def scenario_bases(angles) -> np.ndarray:
    """Basis amplitudes (n, 2, 2, 2, 2) of n scenarios' Bloch angles
    (n, 2, 2, 2): per point, Alice's basis choice, then psi/alpha, then
    (theta, phi); one :func:`~qclonelab.states.basis_amplitudes` call."""
    angles = np.asarray(angles, dtype=float)
    return basis_amplitudes(*angles.reshape(-1, 2).T).reshape(*angles.shape[:-1], 2, 2)


def wishful_machine_rules(
    bases: np.ndarray, ancilla_dim: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Declared inputs and outputs (n, 8, 4 ancilla_dim) of the wishful
    cloner of both basis choices, basis 1's rules first."""
    inputs, outputs = wishful_rules(bases[:, :, 0], bases[:, :, 1], ancilla_dim)
    return inputs.reshape(len(bases), 8, -1), outputs.reshape(len(bases), 8, -1)


def _singlets(pairs: np.ndarray) -> np.ndarray:
    """Singlets (|p q> - |q p>)/sqrt(2) of stacked basis pairs (..., 2, 2)."""
    p, q = pairs[..., 0, :], pairs[..., 1, :]
    return (kron_stack(p, q) - kron_stack(q, p)) / math.sqrt(2.0)


def premachine(bases, ancilla_dim: int = 4) -> Premachine:
    """The shared states of a batch of scenarios and Bob's marginals before
    any machine acts; the first stage of :func:`evaluate_batch`.

    Guards, each naming the first failing point: every basis pair is
    orthonormal, every joint ket is normalized, and every marginal is I/4
    within the residual tolerance (which also bounds its Hermiticity and
    trace).
    """
    bases = np.asarray(bases, dtype=complex)
    if ancilla_dim < 2:
        raise ValueError("environment register needs dimension >= 2")
    overlap = np.vecdot(bases[..., 0, :], bases[..., 1, :])
    require_within(np.abs(overlap), RESIDUAL_TOL, ValueError, "basis pair is not orthogonal")
    env = np.zeros(ancilla_dim, dtype=complex)
    env[0] = 1.0
    joint = kron_stack(kron_stack(_singlets(bases[:, 0, 0]), _singlets(bases[:, 0, 1])), env)
    norm = np.linalg.norm(joint, axis=-1)
    require_within(np.abs(norm - 1.0), ASSERT_TOL, ValueError, "joint ket is not normalized")

    # Factors (pa, pb, aa, ab, env); Bob holds pb and ab.
    marginal = reduced_states(joint, (2, 2, 2, 2, ancilla_dim), (1, 3))
    deviation = np.max(np.abs(marginal - np.eye(4) / 4.0), axis=(1, 2))
    message = "pre-machine Bob marginal deviates from I/4 by {dev:g}"
    require_within(deviation, RESIDUAL_TOL, ArithmeticError, message)
    return Premachine(joint, marginal, deviation)


def _span(states: np.ndarray) -> np.ndarray:
    """Orthonormal columns (n, D, m) spanning stacked states (n, m, D)."""
    return np.linalg.qr(np.swapaxes(states, -1, -2))[0]


def evaluate_batch(bases, machine) -> NosignalBatch:
    """Bob's marginals before and after a machine, for Alice's two basis
    choices, their spectra and validity deviations, and the signalling
    magnitude (half the trace norm of their difference), for a batch of
    scenarios.

    ``bases`` has shape (n, 2, 2, 2, 2): per point, Alice's basis choice,
    then psi/alpha, then primary/complement amplitudes.  ``machine`` is one
    per point, over (pb, ab, env): an isometry stack (n, D, 4 ancilla_dim)
    applied as linear maps, or a termwise rule pair, inputs (n, R, 4
    ancilla_dim) and outputs (n, R, D), applied in the product basis of
    Alice's choice (the wishful cloner is :func:`wishful_machine_rules`).
    The ancilla dimension is read from the machine's input dimension, which
    must be a multiple of 4, with one machine per point and as many rule
    outputs as inputs.

    Each result is bit-for-bit what a batch of one gives for that point.
    Every guard names the first failing point by its index in the batch:
    orthonormal bases, normalized joint kets, pre-machine marginals at I/4,
    isometric machines, usable and non-conflicting termwise rules,
    Hermitian unit-trace Bob marginals and the eigendecomposition residuals.
    """
    bases = np.asarray(bases, dtype=complex)
    linear = isinstance(machine, np.ndarray)
    n, shapes = bases.shape[0], [np.shape(m) for m in ([machine] if linear else machine)]
    if {s[0] for s in shapes} != {n} or shapes[0][-1] % 4 or shapes[0][1] != shapes[-1][1]:
        raise ValueError(f"a machine of shape {' and '.join(map(str, shapes))} does not fit "
                         f"a batch of {n}: one per point, its input dimension a multiple of 4, "
                         "as many rule outputs as inputs")
    before = premachine(bases, shapes[0][-1] // 4)
    if linear:
        require_isometries(machine)
    dim = machine.shape[-2] if linear else machine[1].shape[-1]

    after = np.empty((n, 2, dim, dim), dtype=complex)
    vals = np.empty((n, 2, dim))
    validity, distance = np.empty(n), np.empty(n)
    # A point holds about D * D entries in every stacked Bob marginal,
    # difference and isometry of the machine stage.
    for part in chunks(n, dim * dim):
        piece = machine[part] if linear else (machine[0][part], machine[1][part])
        # The guards name indices within the chunk; renamed, they name the batch's.
        with failures_named("batch index", range(n)[part], n):
            conditioned = _machine_stage(before.joint[part], bases[part], piece)
            results = _spectra_and_distance(conditioned)
            after[part], vals[part], validity[part], distance[part] = results
    return NosignalBatch(
        before.joint, before.marginal, before.deviation, after, vals, validity, distance
    )


def _machine_stage(joint, bases, machine) -> np.ndarray:
    """Bob's unnormalized states (n, 2, 4, D) conditioned on each outcome of
    Alice's two basis choices, after an isometry stack or termwise rule
    stacks (inputs, outputs)."""
    # Spectators (pa, aa) lead, then the acted (pb, ab, env).
    blocks = joint.reshape(len(joint), 2, 2, 2, 2, -1)
    blocks = blocks.transpose(0, 1, 3, 2, 4, 5).reshape(len(joint), 4, -1)
    outcomes = product_outcomes(bases[:, :, 0], bases[:, :, 1])  # (n, 2, 4, 4)
    if isinstance(machine, np.ndarray):
        states = apply_isometries(machine, blocks)[:, None]  # one image for both choices
    else:
        # One call per choice: stacked, one point's two choices would name batch indices.
        states = np.stack([termwise_batch(blocks, outcomes[:, k], *machine) for k in (0, 1)], 1)
    return outcomes.conj() @ states


def _spectra_and_distance(conditioned: np.ndarray):
    """Stacked pairs of Bob marginals (n, 2, D, D), each the sum of c c^dagger
    over its conditioned states (n, 2, 4, D) in outcome order, and their
    spectra, validity deviations and trace distances, after checking that
    every marginal is a Hermitian unit-trace matrix.  A marginal's nonzero
    eigenvalues are its states' Gram eigenvalues, and a pair's difference
    lies in the span of the pair's eight states."""
    n, _, m, dim = conditioned.shape
    rho = np.zeros((n, 2, dim, dim), dtype=complex)
    for c in np.moveaxis(conditioned, 2, 0):
        rho += c[..., :, None] * c.conj()[..., None, :]
    herm, trace = require_density_matrices(rho, "Bob marginal")
    vals = np.zeros((n, 2, dim))
    vals[..., :m] = eig_hermitian_batch(gram_stack(conditioned))[0]
    # Sorted after padding, so that a Gram eigenvalue of -1e-17 follows the zeros.
    vals = np.sort(vals, axis=-1)[..., ::-1]
    validity = np.max(
        np.stack([herm, trace, -vals.min(axis=-1), vals.max(axis=-1) - 1.0]), axis=(0, 2)
    )
    span = _span(conditioned.reshape(n, 2 * m, dim))
    return rho, vals, validity, trace_distances(rho[:, 0], rho[:, 1], span)
