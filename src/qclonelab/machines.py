"""Machines: maps declared on finite sets of input kets, stacked.

Each rule set is a stack of declared input kets (n, K, d_in) and output kets
(n, K, d_out).  The rules have two readings:

* :func:`extend_to_isometries` extends them to genuine isometries (possible
  exactly when the input and output Gram matrices agree), which are then
  physical, unitarizable processes.
* :func:`termwise_batch` applies them term by term in a caller-chosen
  orthonormal expansion basis of the acted factors.  This is generally not a
  linear map on the whole space, which is precisely what makes the "wishful"
  cloning machines unphysical.

Both readings are kept separate on purpose; nothing here ever merges them.
:func:`extend_to_isometry` and :func:`apply_termwise` are their batches of
one, reached by no command: they remain only because the benchmark harness
in ``perfbench/`` indexes them by name.
"""

from __future__ import annotations

import numpy as np

from .core import Record, chunks, first_failure, kron_stack, require_within
from .states import complex_normals, gram_stack
from .tolerances import ASSERT_TOL


class InconsistentGram(ValueError):
    """Declared pairs do not preserve the Gram matrix; carries the failing
    slice's two Gram matrices and their largest entrywise deviation."""

    def __init__(self, input_gram, output_gram, max_deviation: float, where: str = ""):
        super().__init__(
            f"input/output Gram matrices differ by {max_deviation:g}; "
            f"no isometry can realize these pairs{where}"
        )
        self.input_gram = input_gram
        self.output_gram = output_gram
        self.max_deviation = max_deviation


class DependentInputsConflict(ValueError):
    """Linearly dependent declared inputs map to incompatibly composed outputs,
    so no isometry reproduces every declared pair."""


class ConflictingRules(ValueError):
    """Two declared rules take one expansion element, up to global phase, to
    different outputs, so a termwise application has no single reading."""


class IsometryExtension(Record):
    """Results of :func:`extend_to_isometries`, stacked over the slices
    (axis 0): the isometries (n, d_out, d_in), the Gram matrices of the
    declared inputs (n, K, K), and the guards' measures (n,): the largest
    entrywise deviation of the outputs' Gram matrices, the member residuals
    max_k |M x_k - y_k| and the deviations of M^dag M from the identity."""

    isometries: np.ndarray
    family_gram: np.ndarray
    gram_deviation: np.ndarray
    member_residual: np.ndarray
    isometry_residual: np.ndarray


def require_isometries(mats: np.ndarray) -> np.ndarray:
    """Check that every matrix of a stack (..., out, in), or a single matrix,
    has orthonormal columns within ``ASSERT_TOL``, naming the first that
    does not.  Returns the largest entrywise deviations of M^dag M from the identity,
    measured one of :func:`~qclonelab.core.chunks` at a time."""
    stack = mats.reshape(-1, *mats.shape[-2:])
    dev = np.empty(len(stack))
    for part in chunks(len(stack), stack.shape[1] * stack.shape[2]):
        gram_dev = np.swapaxes(stack[part], -1, -2).conj() @ stack[part] - np.eye(stack.shape[2])
        dev[part] = np.abs(gram_dev).max(axis=(-2, -1))
    message = "matrix is not an isometry (M^dag M deviates by {dev:g})"
    return require_within(dev.reshape(mats.shape[:-2]), ASSERT_TOL, ValueError, message)


def gram_deviations(g_in: np.ndarray, g_out: np.ndarray) -> np.ndarray:
    """Largest entrywise deviations |G_in - G_out| (n,) of the stacked Gram
    matrices of declared rule inputs and outputs (n, K, K), after checking
    that every rule ket is normalized within ``ASSERT_TOL``."""
    for name, g in (("input", g_in), ("output", g_out)):
        norm = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1).real)
        message = f"declared rule {name} is not normalized"
        require_within(np.abs(norm - 1.0), ASSERT_TOL, ValueError, message)
    return np.max(np.abs(g_in - g_out), axis=(-2, -1))


def gram_comparison(inputs: np.ndarray, outputs: np.ndarray):
    """Gram matrices of stacked declared inputs (n, K, d_in) and outputs
    (n, K, d_out), and their :func:`gram_deviations`."""
    g_in, g_out = gram_stack(inputs), gram_stack(outputs)
    return g_in, g_out, gram_deviations(g_in, g_out)


def images(mats: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Images M_n k_nj of stacked kets (n, K, d_in) under stacked matrices
    (n, d_out, d_in), shape (n, K, d_out).  Each image is one matrix-vector
    product, with the bits of ``M @ k``; a matrix product ``k @ M.T`` would
    round differently."""
    return (mats[:, None] @ kets[..., None])[..., 0]


def apply_isometries(mats: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Stacked states (n, s, d_in), spectators on axis 1 and the acted
    factors on axis 2, under stacked isometries (n, d_out, d_in): one
    matrix product per state, shape (n, s, d_out)."""
    return blocks @ np.swapaxes(mats, -1, -2)


def isometry_matrix_from_pairs(inputs, outputs):
    """Isometries M with M x_k = y_k for stacked declared pairs, assuming
    each slice's two Gram matrices agree.

    ``inputs`` (n, K, d_in) and ``outputs`` (n, K, d_out) hold each
    slice's declared kets.  With a slice's pairs as columns of X and Y and
    the SVD X = A S B^H, equal Gram matrices make Y B S^-1 = W A_r for the
    sought isometry W on the range of X (rank r, counted as in
    ``np.linalg.matrix_rank``).  A QR factorization orthonormalizes
    Y B S^-1 and completes it to a basis of the output space; M maps the
    columns of A onto that basis.  Rounding in column j of Y B S^-1 is of
    order eps / s_j but reaches M X only through s_j, and QR, largest
    singular value first, keeps it out of the earlier columns, so the
    residual stays at rounding level however close the inputs are to
    dependent.

    One SVD factors each of the stack's :func:`~qclonelab.core.chunks` (a
    slice holds d_out^2 entries in each working array), and each group of
    a chunk's slices of equal rank takes one complete QR; every slice gets
    the bits it gets in a stack of one.  Returns the isometries (n, d_out,
    d_in), the residuals max|M X - Y| (n,) with the images formed by
    :func:`images`, and the deviations of M^dag M from the identity (n,).
    Pairs that no isometry maps (dependent inputs whose outputs are not the
    induced combination) leave a residual above ``ASSERT_TOL`` and raise
    :class:`DependentInputsConflict`; it and the isometry guard name the
    first failing slice.
    """
    xs = np.asarray(inputs, dtype=complex)
    ys = np.asarray(outputs, dtype=complex)
    n, _, d_in = xs.shape
    d_out = ys.shape[-1]
    if d_out < d_in:
        raise ValueError(
            f"output dimension must be at least the input dimension ({d_out} < {d_in})"
        )
    mats = np.empty((n, d_out, d_in), dtype=complex)
    for part in chunks(n, d_out * d_out):
        start, x = part.start, np.swapaxes(xs[part], -1, -2)
        a, s, bh = np.linalg.svd(x)
        rank = np.sum(s > s[:, :1] * max(d_in, x.shape[-1]) * np.finfo(float).eps, axis=-1)
        for r in sorted(set(rank.tolist())):  # np.unique would import numpy.ma
            group = np.nonzero(rank == r)[0]
            y = np.swapaxes(ys[start + group], -1, -2)
            sought = (y @ np.swapaxes(bh[group, :r].conj(), -1, -2)) / s[group, None, :r]
            q, upper = np.linalg.qr(sought, mode="complete")
            # Undo the phases QR puts on the diagonal of R, so q's columns match Y B S^-1.
            phases = np.exp(1j * np.angle(np.diagonal(upper, axis1=-2, axis2=-1)[:, :r]))
            q[..., :r] *= phases[:, None, :]
            mats[start + group] = q[..., :d_in] @ np.swapaxes(a[group].conj(), -1, -2)
    residual = np.max(np.abs(images(mats, xs) - ys), axis=(-2, -1))
    message = "declared outputs are not an isometric image of the declared inputs "
    require_within(residual, ASSERT_TOL, DependentInputsConflict, message + "(residual {dev:g})")
    return mats, residual, require_isometries(mats)


def extend_to_isometries(inputs: np.ndarray, outputs: np.ndarray) -> IsometryExtension:
    """Isometries M with M x_k = y_k for stacked declared pairs, inputs
    (n, K, d_in) and outputs (n, K, d_out), extended to the whole input
    space: the one path that checks Gram agreement and then extends.

    Guards: as many outputs as inputs and d_out >= d_in, then, each naming
    the first failing slice, normalized rule kets, agreeing Gram matrices
    (:class:`InconsistentGram`) and those of :func:`isometry_matrix_from_pairs`.
    """
    if inputs.shape[-2] != outputs.shape[-2]:
        raise ValueError(f"family sizes differ: {inputs.shape[-2]} vs {outputs.shape[-2]}")
    if outputs.shape[-1] < inputs.shape[-1]:
        raise ValueError(
            f"target dimension {outputs.shape[-1]} is smaller than source {inputs.shape[-1]}"
        )
    g_in, g_out, dev = gram_comparison(inputs, outputs)
    bad = ~(dev < ASSERT_TOL)
    if np.any(bad):
        k, where = first_failure(bad)
        raise InconsistentGram(g_in[k], g_out[k], float(dev[k]), where)
    mats, residual, isometry_residual = isometry_matrix_from_pairs(inputs, outputs)
    return IsometryExtension(mats, g_in, dev, residual, isometry_residual)


def extend_to_isometry(inputs: np.ndarray, outputs: np.ndarray) -> IsometryExtension:
    """:func:`extend_to_isometries` on one rule set, inputs (K, d_in) and
    outputs (K, d_out).  No command calls it: it exists only because the
    benchmark harness's ``MICRO`` table in ``perfbench/child.py`` indexes it
    by name."""
    return extend_to_isometries(inputs[None], outputs[None])


def _termwise_table(basis, inputs, outputs):
    """Rule table of termwise machines over stacked expansion bases.

    ``basis`` (n, e, e) holds each point's expansion elements as rows,
    ``inputs`` (n, R, e * a) and ``outputs`` (n, R, d_out) its declared
    rules.  A rule is usable when its input factors as (expansion element)
    x (ancilla state); the ancilla state of a point is that of its first
    usable rule, and a later rule carrying it up to a global phase has the
    phase folded into its output.  The best-matching usable rule for an
    element owns it (the first of ties); another mapping it elsewhere raises
    :class:`ConflictingRules`.  Returns the table (n, e, d_out), which
    elements are covered (n, e) and the ancilla states (n, a).
    """
    n, n_rules = inputs.shape[:2]
    d_exp = basis.shape[-1]
    coeffs = basis.conj()[:, None] @ inputs.reshape(n, n_rules, d_exp, -1)
    element = np.argmax(np.linalg.norm(coeffs, axis=-1), axis=-1)  # (n, R)
    row = np.take_along_axis(basis[:, None], element[..., None, None], axis=-2)[..., 0, :]
    factor = np.take_along_axis(coeffs, element[..., None, None], axis=-2)[..., 0, :]
    residual = np.max(np.abs(kron_stack(row, factor) - inputs), axis=-1)
    usable = ~(residual > ASSERT_TOL)

    points = np.arange(n)
    ancilla = factor[points, np.argmax(usable, axis=1)]
    outputs = np.array(outputs, dtype=complex)
    stray = np.zeros((n, n_rules), dtype=bool)
    rephased = usable & (np.max(np.abs(ancilla[:, None] - factor), axis=-1) > ASSERT_TOL)
    for p, i in zip(*np.nonzero(rephased)):
        overlap = complex(np.vdot(ancilla[p], factor[p, i]))
        phase = overlap / abs(overlap) if abs(overlap) > ASSERT_TOL else 0.0
        stray[p, i] = float(np.max(np.abs(phase * ancilla[p] - factor[p, i]))) > ASSERT_TOL
        outputs[p, i] = outputs[p, i] * phase.conjugate()

    # owner[p, i]: point p's usable rule best matching rule i's element, the first of ties.
    same = usable[:, :, None] & usable[:, None, :] & (element[:, :, None] == element[:, None, :])
    owner = np.argmin(np.where(same, residual[:, None, :], np.inf), axis=2)
    gap = np.max(np.abs(np.take_along_axis(outputs, owner[..., None], axis=1) - outputs), axis=-1)
    conflict = usable & (gap > ASSERT_TOL)
    failed = stray | conflict
    if np.any(failed):
        p, where = first_failure(failed.any(axis=1))
        i = int(np.argmax(failed[p]))
        if stray[p, i]:
            raise ValueError(f"declared inputs do not share one fixed ancilla state{where}")
        raise ConflictingRules(
            f"declared rules {owner[p, i]} and {i} map expansion element {element[p, i]} "
            f"(up to global phase) to outputs that differ by {gap[p, i]:g}{where}"
        )

    owns = usable & (owner == np.arange(n_rules))
    table = np.zeros((n, d_exp, outputs.shape[-1]), dtype=complex)
    covered = np.zeros((n, d_exp), dtype=bool)
    p, i = np.nonzero(owns)
    table[p, element[p, i]] = outputs[p, i]
    covered[p, element[p, i]] = True
    return table, covered, ancilla


def termwise_batch(blocks, basis, inputs, outputs) -> np.ndarray:
    """Termwise images of stacked states under stacked rule sets.

    ``blocks`` (n, s, e * a) holds each point's state with the spectators
    on axis 1 and the acted factors (expansion x ancilla) on axis 2;
    ``basis``, ``inputs`` and ``outputs`` are as in the rule table.  Each
    state is expanded over its basis, and every term carrying weight is
    replaced by its declared output with the coefficient (including sign)
    kept.  Returns (n, s, d_out); every guard, within ``ASSERT_TOL``, names
    the first failing point, starting with the orthonormality of each basis.
    """
    n, s, _ = blocks.shape
    d_exp = basis.shape[-1]
    gram_dev = np.abs(basis @ np.swapaxes(basis, -1, -2).conj() - np.eye(d_exp))
    message = "non-orthonormal expansion"
    require_within(np.max(gram_dev, axis=(-2, -1)), ASSERT_TOL, ValueError, message)
    table, covered, ancilla = _termwise_table(basis, inputs, outputs)
    psi = blocks.reshape(n, s, d_exp, -1)
    branch = np.einsum("nke,nsea->nksa", basis.conj(), psi)
    weight = np.linalg.norm(branch, axis=(-2, -1)) > ASSERT_TOL
    coeff = (branch @ ancilla.conj()[:, None, :, None])[..., 0]  # (n, e, s)
    residue = branch - coeff[..., None] * ancilla[:, None, None, :]
    outside = np.max(np.abs(residue), axis=(-2, -1)) > ASSERT_TOL
    uncovered = weight & ~covered
    failed = uncovered | (weight & outside)
    if np.any(failed):
        p, where = first_failure(failed.any(axis=1))
        k = int(np.argmax(failed[p]))
        if uncovered[p, k]:
            raise ValueError(
                f"expansion element {k} carries weight but is not covered by the "
                f"declared pairs{where}"
            )
        raise ValueError(
            "state support leaves the declared domain: ancilla factor differs "
            f"from the machine's fixed ancilla state{where}"
        )
    result = np.zeros((n, s, table.shape[-1]), dtype=complex)
    for k in range(d_exp):
        term = coeff[:, k, :, None] * table[:, k, None, :]
        result += np.where(weight[:, k, None, None], term, 0.0)
    return result


def apply_termwise(block, basis, inputs, outputs) -> np.ndarray:
    """:func:`termwise_batch` on one state (s, e * a), basis (e, e) and rule
    set, inputs (R, e * a) and outputs (R, d_out), giving (s, d_out).  No
    command calls it: it exists only because the benchmark harness's
    ``MICRO`` table in ``perfbench/child.py`` indexes it by name."""
    return termwise_batch(block[None], basis[None], inputs[None], outputs[None])[0]


def _kron_all(*vecs: np.ndarray) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = kron_stack(out, v)
    return out


def product_outcomes(psi_bases: np.ndarray, alpha_bases: np.ndarray) -> np.ndarray:
    """Product kets (..., 4, 4) of stacked source and register basis pairs
    (..., 2, 2) [primary, complement], in the outcome order psi alpha,
    psibar alphabar, psi alphabar, psibar alpha: Alice's product basis of
    one basis choice, and the (src, reg) factors of the wishful rules."""
    psi, psibar = psi_bases[..., 0, :], psi_bases[..., 1, :]
    alpha, alphabar = alpha_bases[..., 0, :], alpha_bases[..., 1, :]
    sources = np.stack([psi, psibar, psi, psibar], axis=-2)
    registers = np.stack([alpha, alphabar, alphabar, alpha], axis=-2)
    return kron_stack(sources, registers)


def wishful_rules(
    psi_bases: np.ndarray, alpha_bases: np.ndarray, ancilla_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Declared inputs and outputs of the wishful cloner, stacked: a
    termwise cloner whose copy of the source is steered by the register.

    Rules, in this order (|C> is the fixed environment input):
      |psi>|alpha>|C>       -> |psi>|psi>|C1>
      |psibar>|alphabar>|C> -> |psibar>|psibar>|C2>
      |psi>|alphabar>|C>    -> |psi>|alphabar>|C>   (passed through)
      |psibar>|alpha>|C>    -> |psibar>|alpha>|C>   (passed through)

    The environment records C1 = |C> and C2 are orthogonal basis states.
    Within one basis the four rules map an orthonormal set to an orthonormal
    set, so each single-basis rule set is isometric on its own; the records
    only matter once the two bases' rule sets are compared (with C1 = C2 =
    |C>, the two conditioned mixtures would coincide and the signalling
    magnitude would degenerate to zero).

    ``psi_bases`` and ``alpha_bases`` hold the amplitudes [primary,
    complement] of the source and register bases, shape (..., 2, 2).  Both
    results have shape (..., 4, 4 * ancilla_dim): the inputs over the factors
    (src 2, reg 2, env ancilla_dim), the outputs over (src 2, copy 2, env
    ancilla_dim).  A machine that replaces the cloner on Bob's side of the
    two-singlet scenario maps the same two spaces.
    """
    if ancilla_dim < 2:
        raise ValueError("environment register needs dimension >= 2")
    env_in, c2 = np.eye(2, ancilla_dim, dtype=complex)  # C1 is the input state |C>
    outcomes = product_outcomes(psi_bases, alpha_bases)
    # (src, copy): psi psi and psibar psibar cloned, the other two passed through.
    copied = np.concatenate(
        [product_outcomes(psi_bases, psi_bases)[..., :2, :], outcomes[..., 2:, :]], axis=-2
    )
    records = np.stack([env_in, c2, env_in, env_in])
    return kron_stack(outcomes, env_in), kron_stack(copied, records)


def strong_cloner_inputs(psis: np.ndarray, alphas: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """Declared inputs |psi_k>|0>|alpha_k>|C> of the strong cloner, stacked: a
    cloner fed a blank slot and a supplementary register.  ``psis`` and
    ``alphas`` hold the two source and register qubit kets, shape (..., 2,
    2); the result has shape (..., 2, 8 * ancilla_dim)."""
    blank = np.array([1.0, 0.0], dtype=complex)
    env_in = np.zeros(ancilla_dim, dtype=complex)
    env_in[0] = 1.0
    return _kron_all(psis, blank, alphas, env_in)


def strong_cloner_outputs(psis: np.ndarray, env_outs: np.ndarray) -> np.ndarray:
    """Declared outputs |psi_k>|psi_k>|C_k> of the strong cloner, stacked, for
    the two output records ``env_outs`` (..., 2, 2 * ancilla_dim): the total
    output dimension matches the input's, so an isometric extension exists
    whenever the Gram matrices agree."""
    return _kron_all(psis, psis, env_outs)


def deleter_rules(
    psis: np.ndarray, records: np.ndarray, ancilla_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Declared inputs |psi_k>|psi_k>|A> and outputs |psi_k>|0>|A_k> of the
    deleter, which returns one copy to the blank state, stacked.

    ``psis`` holds the two source qubit kets, shape (..., 2, 2), and
    ``records`` the two output records, shape (..., 2, ancilla_dim).  Both
    results have shape (..., 2, 4 * ancilla_dim).
    """
    blank = np.array([1.0, 0.0], dtype=complex)
    env_in = np.zeros(ancilla_dim, dtype=complex)
    env_in[0] = 1.0
    return _kron_all(psis, psis, env_in), _kron_all(psis, blank, records)


def haar_isometries(normals: np.ndarray, n_out: int, n_in: int) -> np.ndarray:
    """Haar-random isometries (n, n_out, n_in) of stacked standard normals
    (n, 2 n_out n_in) in draw order: the Q factor of each complex Gaussian
    matrix's QR decomposition, with R's diagonal phases moved into Q so the
    result is Haar distributed.  Each matrix gets the bits it gets in a
    stack of one."""
    if n_out < n_in:
        raise ValueError("output dimension must be at least the input dimension")
    out = np.empty((len(normals), n_out, n_in), dtype=complex)
    for part in chunks(len(normals), n_out * n_in):
        # Paired a chunk at a time: the whole stack at once raised verify's peak RSS.
        q, r = np.linalg.qr(complex_normals(normals[part], n_out, n_in))
        d = np.diagonal(r, axis1=1, axis2=2)
        out[part] = q * (d.conj() / np.abs(d))[:, None, :]
    return out
