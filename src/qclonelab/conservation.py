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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHUNK_ENTRIES,
    Ket,
    eig_hermitian_batch,
    entropy_bits,
    first_failure,
    kron_stack,
    reduced_states,
    signature,
)
from .machines import (
    LinearMachine,
    isometry_matrix_from_pairs,
    random_isometry,
    strong_cloner_rules,
)
from .states import StateFamily, gram, gram_stack, overlap_pair_amplitudes, random_ket
from .tolerances import ASSERT_TOL, RESIDUAL_TOL


class GramMismatch(ValueError):
    """The two families' Gram matrices differ; no unitary can relate them."""

    def __init__(self, max_deviation: float):
        super().__init__(f"Gram matrices differ by {max_deviation:g}")
        self.max_deviation = max_deviation


@dataclass(frozen=True)
class EquivalenceRoundtrip:
    """A random family, its image under a hidden random isometry, and how
    well :func:`equivalence_unitary` recovers the map from Gram data."""

    family: StateFamily
    moved: StateFamily
    family_gram: np.ndarray
    gram_deviation: float
    member_residual: float
    isometry_residual: float


@dataclass(frozen=True)
class ConservationBatch:
    """Results of :func:`evaluate_batch`, stacked over the batch (axis 0).

    Marginals, their closed forms and Gram matrices have shape (n, 2, 2),
    eigenvalues (n, 2) in descending order, entropies (n,) in bits.
    """

    marginal_before: np.ndarray
    marginal_after: np.ndarray
    closed_before: np.ndarray
    closed_after: np.ndarray
    input_gram: np.ndarray
    output_gram: np.ndarray
    eigenvalues_before: np.ndarray
    eigenvalues_after: np.ndarray
    entropy_before: np.ndarray
    entropy_after: np.ndarray


def _superpose(weight: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """sqrt(w)|0>first + sqrt(1-w)|1>second for stacked branch amplitudes,
    shape (n, 2, m) with Alice's qubit on axis 1."""
    p = np.sqrt(weight)[:, None]
    q = np.sqrt(1.0 - weight)[:, None]
    return np.stack([p * first, q * second], axis=1)


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


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for complex arrays, written out in real arithmetic so that it
    rounds as Python's complex ``*`` does; NumPy's complex multiply can
    differ in the last bit."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _marginals(a, b, c, weight, ancilla_dim: int):
    """Guarded stacked marginals (before, after), their closed forms
    (before, after) and rule Gram matrices (input, output); the first stage
    of :func:`evaluate_batch`."""
    a, b, c = (np.array(z, dtype=complex) for z in (a, b, c))
    w = np.broadcast_to(np.asarray(weight, dtype=float), (len(a),))

    def fail(error, message: str, bad: np.ndarray):
        if np.any(bad):
            k, _ = first_failure(bad.reshape(len(a), -1).any(axis=1))
            raise error(
                f"{message} at point {k} (a={complex(a[k])!r}, b={complex(b[k])!r}, "
                f"c={complex(c[k])!r}, weight={float(w[k])!r})"
            )

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
    for name, g in (("declared rule input", input_gram), ("declared rule output", output_gram)):
        norm = np.sqrt(np.diagonal(g, axis1=1, axis2=2).real)
        fail(ValueError, f"{name} is not normalized", np.abs(norm - 1.0) > ASSERT_TOL)

    # Closed forms [[w, pq conj(z)], [pq z, 1 - w]], pq = sqrt(w(1 - w)), with
    # z = ab before and a^2 c after.  The reported deviations from them are
    # pinned to this rounding: (pq a) b and ((pq a) a) c below the diagonal,
    # pq conj(ab) and pq conj((a a) c) above it.
    pq = np.sqrt(w * (1.0 - w))
    closed = []
    for label, rho, lower, upper in (
        ("before", before, _cmul(pq * a, b), _cmul(a, b)),
        ("after", after, _cmul(_cmul(pq * a, a), c), _cmul(_cmul(a, a), c)),
    ):
        herm = np.max(np.abs(rho - np.swapaxes(rho, 1, 2).conj()), axis=(1, 2))
        fail(ValueError, f"marginal {label} is not Hermitian", herm > ASSERT_TOL)
        trace = np.abs(rho[:, 0, 0] + rho[:, 1, 1] - 1.0)
        fail(ValueError, f"marginal {label} trace deviates from 1", trace > ASSERT_TOL)
        upper = pq * upper.conj()
        closed.append(np.stack([np.stack([w, upper], -1), np.stack([lower, 1.0 - w], -1)], -2))
        dev = np.max(np.abs(rho - closed[-1]), axis=(1, 2))
        fail(ArithmeticError, f"marginal {label} deviates from its closed form", dev > RESIDUAL_TOL)

    return before, after, *closed, input_gram, output_gram


def evaluate_batch(a, b, c, weight, ancilla_dim: int = 4) -> ConservationBatch:
    """Alice's marginals before and after the branchwise strong cloner, their
    spectra and entropies, and the cloner's Gram matrices, for a batch of
    overlap triples (a, b, c) and branch weights at one ancilla dimension.

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


def _lambda_max(offdiag_modulus: float, branch_weight: float) -> float:
    w = branch_weight
    return 0.5 + math.sqrt((w - 0.5) ** 2 + w * (1.0 - w) * offdiag_modulus**2)


def lambda_before(a: complex, b: complex, branch_weight: float = 0.5) -> float:
    """Closed-form largest eigenvalue of Alice's pre-machine marginal.

    Equal branch weights give 1/2 + |a||b|/2.
    """
    return _lambda_max(abs(complex(a)) * abs(complex(b)), branch_weight)


def lambda_after(a: complex, c: complex, branch_weight: float = 0.5) -> float:
    """Closed-form largest eigenvalue after the cloner: 1/2 + |a|^2|c|/2 at equal weights."""
    return _lambda_max(abs(complex(a)) ** 2 * abs(complex(c)), branch_weight)


def equivalence_unitary(
    f: StateFamily,
    g: StateFamily,
    tol: float = ASSERT_TOL,
    residual_tol: float = 1e-8,
) -> LinearMachine:
    """Constructive isometry U with U f_k = g_k for Gram-equal families."""
    return _equivalence(f, g, tol, residual_tol)[0]


def _equivalence(
    f: StateFamily, g: StateFamily, tol: float = ASSERT_TOL, residual_tol: float = 1e-8
):
    """The isometry of :func:`equivalence_unitary`, with what its guards
    measure: the Gram matrix of ``f``, the largest entrywise deviation of
    ``g``'s from it, and the largest member residual |U f_k - g_k|."""
    if len(f) != len(g):
        raise ValueError(f"family sizes differ: {len(f)} vs {len(g)}")
    if g.signature.dim < f.signature.dim:
        raise ValueError(
            f"target dimension {g.signature.dim} is smaller than source {f.signature.dim}"
        )
    family_gram = gram(f)
    dev = float(np.max(np.abs(family_gram - gram(g))))
    if dev > tol:
        raise GramMismatch(dev)
    mat = isometry_matrix_from_pairs(
        [k.amplitudes for k in f.members],
        [k.amplitudes for k in g.members],
        f.signature.dim,
        g.signature.dim,
        tol,
    )
    lm = LinearMachine(mat, f.signature, g.signature)  # guards the isometry
    worst = max(
        float(np.max(np.abs(mat @ x.amplitudes - y.amplitudes)))
        for x, y in zip(f.members, g.members)
    )
    if worst > residual_tol:
        raise ArithmeticError(f"member reconstruction residual {worst:g} exceeds {residual_tol:g}")
    return lm, family_gram, dev, worst


def equivalence_roundtrip(dim: int, target_dim: int, size: int, rng) -> EquivalenceRoundtrip:
    """Draw ``size`` random kets in dimension ``dim``, move them with a random
    isometry into ``target_dim``, and recover an isometry from the two
    families alone.  Records the Gram deviation and member residual that
    :func:`equivalence_unitary` measures for its guards, and the deviation
    of U^dag U from the identity that the isometry guard measures."""
    sig_f = signature(("x", dim))
    sig_g = signature(("y", target_dim))
    family = StateFamily(tuple(random_ket(sig_f, rng) for _ in range(size)))
    hide = random_isometry(sig_f, sig_g, rng)
    moved = StateFamily(tuple(Ket(sig_g, hide.matrix @ k.amplitudes) for k in family.members))
    lm, family_gram, gram_deviation, member_residual = _equivalence(family, moved)
    return EquivalenceRoundtrip(
        family, moved, family_gram, gram_deviation, member_residual, lm.isometry_residual
    )
