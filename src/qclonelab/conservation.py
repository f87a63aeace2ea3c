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

from functools import partial

import numpy as np

from .core import (
    Record,
    chunks,
    cmul,
    distinct_rows,
    eig_hermitian_batch,
    entropy_bits,
    failures_named,
    first_failure,
    modulus,
    reduced_states,
    require_density_matrices,
    require_within,
)
from .machines import (
    extend_to_isometries,
    gram_deviations,
    haar_isometries,
    images,
    require_isometries,
    strong_cloner_inputs,
    strong_cloner_outputs,
)
from .states import gram_stack, overlap_pair_amplitudes, unit_kets
from .tolerances import RESIDUAL_TOL


class ConservationBatch(Record):
    """Results of :func:`evaluate_batch`, stacked over the batch (axis 0).

    Marginals and the cloner's Gram matrices have shape (n, 2, 2), the
    marginals' largest entrywise deviations from their closed forms and the
    Gram matrices' from each other (n,), eigenvalues (n, 2) in descending
    order, entropies (n,) in bits.
    """

    marginal_before: np.ndarray
    marginal_after: np.ndarray
    closed_deviation_before: np.ndarray
    closed_deviation_after: np.ndarray
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


def _check_batch(a, b, c, weight, ancilla_dim: int) -> None:
    """Refuse a batch of overlap triples and branch weights whose ancilla
    dimension, lengths or weights are out of range."""
    if ancilla_dim < 2:
        raise ValueError("environment register needs dimension >= 2")
    if not len(a) == len(b) == len(c) == len(weight):
        raise ValueError("overlap and weight batches differ in length")
    w = np.asarray(weight, dtype=float)
    outside = ~((w >= 0.0) & (w <= 1.0))
    if np.any(outside):
        k, where = first_failure(outside)
        raise ValueError(f"branch weight must lie in [0, 1], got {float(w[k])!r}{where}")


def _half(weight: np.ndarray, rules: np.ndarray):
    """Alice's marginals (n, 2, 2) of sqrt(w)|0>r_0 + sqrt(1-w)|1>r_1 over
    stacked pairs of the cloner's rule kets (n, 2, m), and those kets' Gram
    matrices: the half before reads its inputs, the half after its outputs."""
    joint = _superpose(weight, rules[:, 0], rules[:, 1]).reshape(len(rules), -1)
    return reduced_states(joint, (2, rules.shape[-1]), (0,)), gram_stack(rules)


def evaluate_batch(a, b, c, weight, ancilla_dim: int = 4) -> ConservationBatch:
    """Alice's marginals before and after the branchwise strong cloner, their
    deviations from the closed forms, spectra and entropies, and the cloner's
    Gram matrices and their deviations, for a batch of overlap triples (a, b,
    c) and branch weights at one ancilla dimension.

    The batch is evaluated as stacked arrays.  Alice's state before depends
    on (a, b, weight) only, after on (a, c, weight): each half, one
    :func:`_half` of the cloner's declared inputs or outputs, is built,
    guarded and diagonalized once per distinct key, by bits, and gathered to
    the points; only the Gram deviations, which mix the halves, run per
    point.  Each result is bit-for-bit what a batch of one gives for that
    point.  Every guard runs once per batch, or once per half on its
    distinct rows, with the default tolerances and names the first failing
    point: weights in range, then per half the overlap moduli in range,
    realized overlaps, Hermitian unit-trace marginals (the trace is the
    joint ket's squared norm), marginals matching their closed forms [[w, pq
    conj(z)], [pq z, 1 - w]] (z = ab before, a^2 c after, pq = sqrt(w(1 -
    w))), the eigendecomposition residuals and normalized rule kets.
    """
    a, b, c = (np.array(z, dtype=complex) for z in (a, b, c))
    w = np.broadcast_to(np.asarray(weight, dtype=float), (len(a),))
    _check_batch(a, b, c, w, ancilla_dim)
    halves = []
    # A half is keyed on (a, the last factor of z, w), and its overlap pairs
    # are those of a and of that factor.  The reported closed-form
    # deviations are pinned to this rounding: (pq a) b and ((pq a) a) c
    # below the diagonal, pq conj(ab) and pq conj((a a) c) above it.
    for label, rules, z, dim in (
        ("before", partial(strong_cloner_inputs, ancilla_dim=ancilla_dim), (a, b), 2),
        ("after", strong_cloner_outputs, (a, a, c), 2 * ancilla_dim),
    ):
        first, inverse = distinct_rows(a, z[-1], w)
        v, head, *tail = (x[first] for x in (w, *z))
        pq = np.sqrt(v * (1.0 - v))
        lower, upper = pq * head, head
        for x in tail:
            lower, upper = cmul(lower, x), cmul(upper, x)
        upper = pq * upper.conj()
        closed = np.stack([np.stack([v, upper], -1), np.stack([lower, 1.0 - v], -1)], -2)
        # Rows follow their first points: the first failing one names the first point.
        with failures_named("batch index", first, len(a)):
            psis = overlap_pair_amplitudes(head, 2)
            factors = overlap_pair_amplitudes(tail[-1], dim)
            parts = chunks(len(first), 16 * ancilla_dim)  # a point's rule amplitudes
            results = [_half(v[k], rules(psis[k], factors[k])) for k in parts]
            rho, gram = map(np.concatenate, zip(*results))
            require_density_matrices(rho, f"marginal {label}")
            dev = np.max(np.abs(rho - closed), axis=(1, 2))
            message = f"marginal {label} deviates from its closed form"
            require_within(dev, RESIDUAL_TOL, ArithmeticError, message)
            spectrum = eig_hermitian_batch(rho)[0]
        halves.append([x[inverse] for x in (rho, gram, dev, spectrum, entropy_bits(spectrum))])
    (before, g_in, dev_b, vals_b, s_b), (after, g_out, dev_a, vals_a, s_a) = halves
    return ConservationBatch(
        before, after, dev_b, dev_a, g_in, g_out, gram_deviations(g_in, g_out),
        vals_b, vals_a, s_b, s_a,
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


def roundtrip_normals(dim: int, target_dim: int, size: int, rng) -> np.ndarray:
    """The standard normals of one round trip, in draw order: those of
    ``size`` random kets in dimension ``dim``, then those of the hidden Haar
    isometry into ``target_dim``.  :func:`roundtrips` reads a stack of them."""
    return rng.standard_normal(2 * dim * (size + target_dim))


def roundtrips(dim: int, target_dim: int, size: int, normals):
    """Stacked round trips of one shape, from stacked :func:`roundtrip_normals`
    (n, 2 dim (size + target_dim)): each family (n, size, dim) moved by its
    hidden Haar isometry into ``target_dim``, and isometries recovered from
    the two families alone, each as its round trip alone would give it.
    Returns the families, the moved families and the recovery, an
    :class:`~qclonelab.machines.IsometryExtension`."""
    kets, draws = np.split(np.asarray(normals, dtype=float), [2 * dim * size], axis=-1)
    families = unit_kets(kets.reshape(-1, size, 2 * dim), dim)
    hidden = haar_isometries(draws, target_dim, dim)
    require_isometries(hidden)
    moved = images(hidden, families)
    return families, moved, extend_to_isometries(families, moved)
