"""Entanglement bookkeeping for the strong cloner acting on one share.

Alice holds one qubit of an entangled state whose Bob-side branches carry a
source state and a supplementary register with prescribed overlaps (a, b).
Bob runs the strong cloner branch by branch (its declared rules tag the two
branches exactly).  Alice's reduced state before and after has closed-form
leading eigenvalues 1/2 + |a||b|/2 and 1/2 + |a|^2|c|/2; any physical
(isometric) machine would leave her state untouched, so a change in these
monotones certifies that no isometry realizes the declared rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CHUNK_ENTRIES,
    cmul,
    eig_hermitian_batch,
    entropy_bits,
    first_failure,
    kron_stack,
    modulus,
    reduced_states,
    require_density_matrices,
    require_within,
)
from .machines import (
    extend_to_isometries,
    gram_deviations,
    haar_draw,
    haar_isometries,
    images,
    require_isometries,
    strong_cloner_rules,
)
from .states import gram_stack, overlap_pair_amplitudes, random_amplitudes
from .tolerances import RESIDUAL_TOL


@dataclass(frozen=True, eq=False)
class ConservationBatch:
    """Results of :func:`evaluate_batch`, stacked over the batch (axis 0).

    Marginals, their closed forms and the cloner's Gram matrices have shape
    (n, 2, 2), the Gram matrices' largest entrywise deviation (n,),
    eigenvalues (n, 2) in descending order, entropies (n,) in bits.
    """

    marginal_before: np.ndarray
    marginal_after: np.ndarray
    closed_before: np.ndarray
    closed_after: np.ndarray
    input_gram: np.ndarray
    output_gram: np.ndarray
    gram_deviation: np.ndarray
    eigenvalues_before: np.ndarray
    eigenvalues_after: np.ndarray
    entropy_before: np.ndarray
    entropy_after: np.ndarray


def _superpose(weight: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """sqrt(w)|0>first + sqrt(1-w)|1>second for stacked branch amplitudes,
    shape (n, 2, m) with Alice's qubit on axis 1."""
    out = np.empty((len(first), 2, first.shape[-1]), dtype=complex)
    np.multiply(np.sqrt(weight)[:, None], first, out=out[:, 0])
    np.multiply(np.sqrt(1.0 - weight)[:, None], second, out=out[:, 1])
    return out


def _branches(a, b, c, weight, ancilla_dim: int):
    """Validated overlap pairs (psis, alphas, records) for a batch of overlap
    triples and branch weights."""
    if ancilla_dim < 2:
        raise ValueError("environment register needs dimension >= 2")
    if not len(a) == len(b) == len(c) == len(weight):
        raise ValueError("overlap and weight batches differ in length")
    w = np.asarray(weight, dtype=float)
    outside = ~((w >= 0.0) & (w <= 1.0))
    if np.any(outside):
        k, where = first_failure(outside)
        raise ValueError(f"branch weight must lie in [0, 1], got {float(w[k])!r}{where}")
    return (
        overlap_pair_amplitudes(a, 2),
        overlap_pair_amplitudes(b, 2),
        overlap_pair_amplitudes(c, 2 * ancilla_dim),
    )


def _shared(weight: np.ndarray, psis: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Stacked shared states, shape (n, 2, 4)."""
    branches = [kron_stack(psis[:, k], alphas[:, k]) for k in (0, 1)]
    return _superpose(weight, *branches)


def _marginals(a, b, c, weight, ancilla_dim: int):
    """Guarded stacked marginals (before, after), their closed forms
    (before, after), rule Gram matrices (input, output) and the Gram
    matrices' deviations; the first stage of :func:`evaluate_batch`."""
    a, b, c = (np.array(z, dtype=complex) for z in (a, b, c))
    w = np.broadcast_to(np.asarray(weight, dtype=float), (len(a),))
    psis, alphas, records = _branches(a, b, c, w, ancilla_dim)
    # A point holds 16 * ancilla_dim entries in the stacked rule amplitudes.
    step = max(1, CHUNK_ENTRIES // (16 * ancilla_dim))
    before, after, input_gram, output_gram = [], [], [], []
    for start in range(0, len(a), step):
        part = slice(start, start + step)
        inputs, outputs = strong_cloner_rules(psis[part], alphas[part], records[part], ancilla_dim)
        input_gram.append(gram_stack(inputs))
        output_gram.append(gram_stack(outputs))
        shared = _shared(w[part], psis[part], alphas[part])
        moved = _superpose(w[part], outputs[:, 0], outputs[:, 1])
        # Alice's qubit leads; Bob's factors are traced as one index.
        for out, amp in ((before, shared), (after, moved)):
            out.append(reduced_states(amp.reshape(len(amp), -1), amp.shape[1:], (0,)))
    before, after, input_gram, output_gram = (
        np.concatenate(x) for x in (before, after, input_gram, output_gram)
    )
    # Guarded on the whole batch, so that a failure names its batch index.
    gram_deviation = gram_deviations(input_gram, output_gram)

    # Closed forms [[w, pq conj(z)], [pq z, 1 - w]], pq = sqrt(w(1 - w)), with
    # z = ab before and a^2 c after.  The reported deviations from them are
    # pinned to this rounding: (pq a) b and ((pq a) a) c below the diagonal,
    # pq conj(ab) and pq conj((a a) c) above it.
    pq = np.sqrt(w * (1.0 - w))
    closed = []
    for label, rho, lower, upper in (
        ("before", before, cmul(pq * a, b), cmul(a, b)),
        ("after", after, cmul(cmul(pq * a, a), c), cmul(cmul(a, a), c)),
    ):
        require_density_matrices(rho, f"marginal {label}")
        upper = pq * upper.conj()
        closed.append(np.stack([np.stack([w, upper], -1), np.stack([lower, 1.0 - w], -1)], -2))
        dev = np.max(np.abs(rho - closed[-1]), axis=(1, 2))
        message = f"marginal {label} deviates from its closed form"
        require_within(dev, RESIDUAL_TOL, ArithmeticError, message)

    return before, after, *closed, input_gram, output_gram, gram_deviation


def evaluate_batch(a, b, c, weight, ancilla_dim: int = 4) -> ConservationBatch:
    """Alice's marginals before and after the branchwise strong cloner, their
    spectra and entropies, and the cloner's Gram matrices and their
    deviations, for a batch of overlap triples (a, b, c) and branch weights
    at one ancilla dimension.

    The batch is evaluated as stacked arrays; each result is bit-for-bit what
    a batch of one gives for that point.  Every guard runs once per batch with
    the default tolerances and names the first failing point: overlap moduli
    and weights in range, realized overlaps, normalized rule kets, Hermitian
    unit-trace marginals (the trace is the joint ket's squared norm),
    marginals matching their closed forms [[w, pq conj(z)], [pq z, 1 - w]]
    (z = ab before, a^2 c after, pq = sqrt(w(1 - w))), and the
    eigendecomposition residuals.
    """
    marginals = _marginals(a, b, c, weight, ancilla_dim)
    vals_before, _ = eig_hermitian_batch(marginals[0])
    vals_after, _ = eig_hermitian_batch(marginals[1])
    return ConservationBatch(
        *marginals, vals_before, vals_after, entropy_bits(vals_before), entropy_bits(vals_after)
    )


def _lambda_max(offdiag_modulus, branch_weight):
    """1/2 + sqrt((w - 1/2)^2 + w(1 - w)m^2); ``float_power`` squares as a
    float's ``x ** 2`` does, an array's ``** 2`` may not."""
    w = branch_weight
    squares = np.float_power(w - 0.5, 2) + w * (1.0 - w) * np.float_power(offdiag_modulus, 2)
    return 0.5 + np.sqrt(squares)


def lambda_before(a, b, branch_weight=0.5):
    """Closed-form largest eigenvalue of Alice's pre-machine marginal, elementwise.

    Equal branch weights give 1/2 + |a||b|/2.
    """
    return _lambda_max(modulus(a) * modulus(b), branch_weight)


def lambda_after(a, c, branch_weight=0.5):
    """Closed-form largest eigenvalue after the cloner: 1/2 + |a|^2|c|/2 at equal weights."""
    return _lambda_max(np.float_power(modulus(a), 2) * modulus(c), branch_weight)


def roundtrip_draws(dim: int, target_dim: int, size: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one round trip, in order: ``size`` random kets in
    dimension ``dim`` (size, dim), then the Gaussian draw (target_dim, dim)
    of the hidden isometry into ``target_dim``."""
    family = np.array([random_amplitudes(dim, rng) for _ in range(size)])
    return family, haar_draw(dim, target_dim, rng)


def roundtrips(families: np.ndarray, draws: np.ndarray):
    """Stacked round trips of one shape: each family (n, K, d) moved by the
    Haar isometry of its draw (n, d', d), and isometries recovered from the
    two families alone.  Returns the moved families and the recovery, an
    :class:`~qclonelab.machines.IsometryExtension`."""
    hidden = haar_isometries(draws)
    require_isometries(hidden)
    moved = images(hidden, families)
    return moved, extend_to_isometries(families, moved)
