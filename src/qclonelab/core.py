"""Dense complex linear algebra on stacked states and matrices.

States are amplitude vectors indexed row-major over an ordered list of
tensor factors, so the first factor's index is the slow axis.  The stacked
kernels (:func:`reduced_states`, :func:`trace_distances`,
:func:`eig_hermitian_batch`) take leading batch axes and carry all the
arithmetic.  Records holding arrays compare by identity, since arrays have
no single truth value for ``==``.  The labeled records
(:class:`SubsystemSignature`, :class:`Ket`, :class:`DensityMatrix`,
:class:`Spectrum`) and the batches of one :func:`partial_trace`,
:func:`eig_hermitian` and :func:`trace_distance` are reached by no command:
they remain only because the benchmark harness in ``perfbench/`` binds them,
its tracer wrapping the records' ``__post_init__`` and its micro-timings
indexing the three functions by name.

Every guard compares a deviation with its tolerance through
:func:`require_within`: a deviation passes when it is <= its tolerance, a
NaN fails, and the error names the first failing entry along axis 0.

Each batch policy is one function: the step of a stack (:func:`chunks`),
rows told apart by bits (:func:`distinct_rows`) and the point a guard error
names (:func:`failures_named`).
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .tolerances import ASSERT_TOL, RESIDUAL_TOL

# Entries per stacked working array of a stage's chunks(): 2**12 complex
# entries (64 KiB) keep a stage's working set, and the process's peak memory,
# flat in the batch size.  At 2**13 a cold verify's peak RSS rose by 1 MB.
CHUNK_ENTRIES = 1 << 12


def _frozen(array: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubsystemSignature:
    """Ordered list of (label, dimension) factors of a tensor-product space."""

    entries: tuple[tuple[str, int], ...]
    # Derived once, at construction; equality and hashing use entries only.
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple((str(lab), int(dim)) for lab, dim in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("signature needs at least one subsystem")
        seen = set()
        for label, dim in entries:
            if label in seen:
                raise ValueError(f"duplicate subsystem label {label!r}")
            seen.add(label)
            if dim < 1:
                raise ValueError(f"subsystem {label!r} has non-positive dimension {dim}")
        dims = tuple(dim for _, dim in entries)
        object.__setattr__(self, "labels", tuple(lab for lab, _ in entries))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))

    def axis_of(self, label: str) -> int:
        for k, (lab, _) in enumerate(self.entries):
            if lab == label:
                return k
        raise ValueError(f"unknown subsystem label {label!r}")

    def keep(self, labels) -> "SubsystemSignature":
        """Sub-signature of the given labels, in this signature's order."""
        wanted = set(labels)
        unknown = wanted - set(self.labels)
        if unknown:
            raise ValueError(f"unknown subsystem label {sorted(unknown)[0]!r}")
        kept = tuple(e for e in self.entries if e[0] in wanted)
        if not kept:
            raise ValueError("must keep at least one subsystem")
        return SubsystemSignature(kept)


@dataclass(frozen=True, eq=False)
class Ket:
    """State vector over a signature; row-major amplitude order.

    Physical states are unit norm; intermediates produced inside operations
    may be unnormalized, and operations that require normalization check it.
    """

    signature: SubsystemSignature
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != self.signature.dim:
            raise ValueError(
                f"amplitude length {amp.shape[0]} does not match signature dimension {self.signature.dim}"
            )
        object.__setattr__(self, "amplitudes", _frozen(amp))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace operator over a signature.

    Construction checks Hermiticity and trace; positivity is a mathematical
    consequence for everything built here and is verified by the test suite
    rather than re-diagonalizing on every construction.
    """

    signature: SubsystemSignature
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        d = self.signature.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match signature dimension {d}")
        require_density_matrices(mat, "matrix")
        object.__setattr__(self, "entries", _frozen(mat))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", _frozen(self.eigenvectors))


def chunks(n: int, entries_per_item: int) -> list[slice]:
    """Slices of ``range(n)``, in order, each of as many items as hold at
    most ``CHUNK_ENTRIES`` entries in all, or of one item that holds more."""
    step = max(1, CHUNK_ENTRIES // max(entries_per_item, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def distinct_rows(*columns) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of stacked columns, by bits (-0.0 and 0.0 differ): each
    row's first index, in order of first occurrence, and each index's row.

    A row's key is its bits read as unsigned words, 64-bit where the row's
    item size allows, else bytes, less the words that no row changes (the
    columns of unswept keys, the zero imaginary parts of real overlaps).  A
    stable ``np.lexsort`` over the key words puts equal rows next to each
    other in index order, so each run of equal keys starts at its row's
    first index.  ``np.unique`` is not used: on numbers it may import
    ``numpy.ma``, and on a void view it compares whole rows as byte strings."""
    keys = np.ascontiguousarray(np.stack(columns, -1))
    words = keys.view(np.uint8 if keys.itemsize % 8 else np.uint64).T
    words = [word for word in words if (word != word[:1]).any()]
    if not words:  # no row differs from the first, or no rows
        return np.zeros(min(len(keys), 1), dtype=np.intp), np.zeros(len(keys), dtype=np.intp)
    order = np.lexsort(words)
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for word in words:
        word = word[order]
        starts[1:] |= word[1:] != word[:-1]
    first = order[starts]
    rank = np.argsort(first)  # runs in order of first occurrence
    row_of_run = np.empty_like(rank)
    row_of_run[rank] = np.arange(len(rank))
    inverse = np.empty_like(order)
    inverse[order] = row_of_run[np.cumsum(starts) - 1]
    return first[rank], inverse


def kron_stack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Kronecker product over the last axis of stacked vectors; leading axes
    broadcast.  Entrywise the same products as ``np.kron`` on each pair."""
    out = u[..., :, None] * v[..., None, :]
    return out.reshape(*out.shape[:-2], -1)


def reduced_states(kets, dims, keep) -> np.ndarray:
    """Reduced density matrices of stacked pure states.

    ``kets`` (..., prod(dims)) holds amplitudes row-major over factors of
    dimensions ``dims``; ``keep`` lists the kept factor axes.  Returns
    (..., d, d) over the kept factors in their original order.  The traced
    multi-index is summed in ascending order, one rank-1 term after another,
    into a zero start, without forming the projectors.  A slab of traced
    indices forms its terms in one multiply into rows 1.. of a buffer whose
    row 0 holds the running sum, and ``np.add.accumulate`` adds the rows
    strictly in turn (``np.add.reduce`` may sum pairwise).  The slabs are
    :func:`chunks`, so the buffer may hold one row over ``CHUNK_ENTRIES``.

    A traced index whose amplitudes are zero in every batch entry is
    skipped: its terms are signed zeros, and adding one leaves a sum that
    started at +0 unchanged, so the bits are those of the full sum.
    """
    kets = np.asarray(kets, dtype=complex)
    batch, m = kets.shape[:-1], math.prod(kets.shape[:-1])
    kept = sorted(keep)
    traced = [axis for axis in range(len(dims)) if axis not in kept]
    d_kept = math.prod(dims[axis] for axis in kept)
    # terms[t, i, k]: kept index i of batch entry k at traced index t, so
    # the batch runs innermost in every term.
    amp = kets.reshape(m, *dims).transpose(*(1 + axis for axis in traced + kept), 0)
    terms = amp.reshape(-1, d_kept, m)
    live = np.flatnonzero(np.any(terms, axis=(1, 2)))
    slabs = chunks(len(live), m * d_kept * d_kept)
    buf = np.zeros((slabs[0].stop + 1 if slabs else 1, d_kept, d_kept, m), dtype=complex)
    for slab in slabs:
        v = terms[live[slab]]
        sums = buf[: len(v) + 1]
        np.multiply(v[:, :, None], v.conj()[:, None], out=sums[1:])
        if len(v) == 1:
            # One term: a plain add; accumulate calls its inner loop once per
            # entry of a row, which costs more than the add on a wide row.
            np.add(sums[0], sums[1], out=sums[0])
        else:
            np.add.accumulate(sums, axis=0, out=sums)
            sums[0] = sums[-1]
    return np.ascontiguousarray(np.moveaxis(buf[0], -1, 0)).reshape(*batch, d_kept, d_kept)


def partial_trace(state: Ket, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept labels, original
    order preserved.  A batch of one of :func:`reduced_states`."""
    sig = state.signature
    kept_sig = sig.keep(keep)
    axes = [sig.axis_of(label) for label in kept_sig.labels]
    return DensityMatrix(kept_sig, reduced_states(state.amplitudes[None], sig.dims, axes)[0])


def first_failure(bad) -> tuple[int, str]:
    """Flat index of the first True entry of a batch guard mask, and an error
    message suffix naming it (empty for a batch of one)."""
    bad = np.asarray(bad)
    k = int(np.argmax(bad.reshape(-1)))
    return k, ("" if bad.size == 1 else f" at batch index {k}")


def require_within(dev, tol, error, message: str):
    """The deviations ``dev``, after checking each is <= ``tol`` (a NaN
    fails).  Else raise ``error``: ``message`` with ``{dev}`` and ``{tol}``
    filled in by the first failing deviation and the tolerance, then the
    suffix of :func:`first_failure` naming the failing entry along axis 0."""
    bad = ~(np.asarray(dev) <= tol)
    if bad.any():
        rows = bad.reshape(len(bad) if bad.ndim else 1, -1)
        k, where = first_failure(rows.any(axis=1))
        worst = np.asarray(dev).reshape(rows.shape)[k, np.argmax(rows[k])]
        raise error(message.format(dev=float(worst), tol=tol) + where)
    return dev


def require_density_matrices(rho, what: str):
    """Largest entrywise deviations of stacked matrices (..., n, n) from
    Hermiticity and of their traces from 1, after checking both within
    ``ASSERT_TOL``; ``what`` names the matrices in the error."""
    herm = np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), axis=(-2, -1))
    require_within(herm, ASSERT_TOL, ValueError, what + " is not Hermitian (max deviation {dev:g})")
    trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    require_within(trace, ASSERT_TOL, ValueError, what + " trace deviates from 1 by {dev:g}")
    return herm, trace


# The suffix of first_failure.
_NAMED_INDEX = re.compile(r" at batch index (\d+)")


@contextmanager
def failures_named(label: str, rows, size: int):
    """Rename the error of a batch guard raised in the block to say where
    the failing entry came from: ``rows[k]`` names entry k, and the message
    says ``at {label} {rows[k]}`` where it named batch index k.  A batch of
    one names no index, so its entry is taken to be the first.  An error
    passes as it is if it names no entry of a larger batch, or if the
    enclosing batch, of ``size`` entries, has one."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        found = _NAMED_INDEX.search(str(exc))
        if size == 1 or (found is None and len(rows) > 1):
            raise
        k = 0 if found is None else int(found[1])
        named = f" at {label} {rows[k]}"
        message = str(exc) + named if found is None else _NAMED_INDEX.sub(named, str(exc), 1)
        # A copy without __init__, which may take other arguments than the message.
        renamed = type(exc).__new__(type(exc))
        renamed.__dict__.update(vars(exc))
        renamed.args = (message,)
        raise renamed from exc


def _require_hermitian(mat: np.ndarray, tol: float) -> np.ndarray:
    """Hermitian part of a stack of square matrices (..., n, n), after
    checking every matrix is Hermitian within ``tol``."""
    adjoint = np.swapaxes(mat, -1, -2).conj()
    dev = np.max(np.abs(mat - adjoint), axis=(-2, -1))
    message = "matrix is not Hermitian within {tol:g} (deviation {dev:g})"
    require_within(dev, tol, ValueError, message)
    return 0.5 * (mat + adjoint)


def modulus(z):
    """|z| elementwise as Python's ``abs(complex)`` rounds it; ``np.abs`` may not."""
    return np.hypot(np.real(z), np.imag(z))


def cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for complex arrays, written out in real arithmetic so that it
    rounds as Python's complex ``*`` does; NumPy's complex multiply can
    differ in the last bit."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _eig_2x2(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of a stack of Hermitian 2x2 matrices.

    The arithmetic is pinned so that reported eigenvalues stay byte-stable:
    ``float_power`` is libm ``pow``, as ``x ** 2`` on a float scalar (an
    array ``** 2`` squares and can differ in the last bit); ``hypot`` is
    ``abs`` of a complex scalar.  Only where the squares underflow is the
    discriminant taken as ``hypot(a - d, 2|b|)`` instead.
    """
    a = mat[..., 0, 0].real
    d = mat[..., 1, 1].real
    b = mat[..., 0, 1]
    mod_b = modulus(b)
    tr = a + d
    squares = np.float_power(a - d, 2) + 4.0 * np.float_power(mod_b, 2)
    # Below the normal range the squares lose their precision or vanish;
    # hypot does not square.
    disc = np.where(
        squares < np.finfo(float).tiny,
        np.hypot(a - d, 2.0 * mod_b),
        np.sqrt(np.maximum(squares, 0.0)),
    )
    hi = 0.5 * (tr + disc)
    lo = 0.5 * (tr - disc)
    swap = ~(a >= d)

    # Each eigenvalue has two unnormalized eigenvectors, (b, lambda - a) and
    # (lambda - d, conj b); take the better conditioned one.  With a >= d
    # that is (h, conj b) for hi and (b, -h) for lo, else (b, h) and
    # (-h, conj b), where h = hi - d = a - lo (or hi - a = d - lo) is formed
    # without cancellation.  The pair is then orthogonal in floating point
    # too, however nearly diagonal and degenerate the matrix is.
    h = 0.5 * (np.abs(a - d) + disc)
    scale = np.maximum(h, mod_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Real divisions: a complex one overflows on a subnormal divisor.
        hs, br, bi = h / scale, b.real / scale, b.imag / scale
        norm = np.sqrt(hs * hs + br * br + bi * bi)
        u = hs / norm
        v = br / norm + 1j * (bi / norm)
    vecs = np.where(
        swap[..., None, None],
        np.stack([np.stack([v, -u], -1), np.stack([u, v.conj()], -1)], -2),
        np.stack([np.stack([u, v], -1), np.stack([v.conj(), -u], -1)], -2),
    )
    vals = np.stack([hi, lo], -1)

    # An already diagonal matrix keeps its diagonal exactly, largest first.
    diagonal = mod_b == 0.0
    diag_vals = np.where(swap[..., None], np.stack([d, a], -1), np.stack([a, d], -1))
    eye = np.eye(2, dtype=complex)
    diag_vecs = np.where(swap[..., None, None], eye[:, ::-1], eye)
    vals = np.where(diagonal[..., None], diag_vals, vals)
    vecs = np.where(diagonal[..., None, None], diag_vecs, vecs)
    return vals, vecs


def eig_hermitian_batch(stack, tol: float = ASSERT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a stack of Hermitian matrices, shape (..., n, n).

    Returns eigenvalues (..., n), descending, and eigenvectors (..., n, n)
    as columns.  The 2x2 closed form runs on the whole stack at once; other
    sizes take one LAPACK ``eigh`` call on the whole stack.  The
    Hermiticity guard (within ``tol``) and the reconstruction-residual guard
    (within ``RESIDUAL_TOL``) name the first failing index along axis 0.
    """
    mat = np.asarray(stack, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {mat.shape}")
    mat = _require_hermitian(mat, tol)
    if mat.shape[-1] == 2:
        vals, vecs = _eig_2x2(mat)
    else:
        vals, vecs = np.linalg.eigh(mat)
        vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    # Deterministic column phases: largest-magnitude entry made real positive.
    pivot_row = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, pivot_row, axis=-2)
    mod = np.hypot(pivot.real, pivot.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        vecs = np.where(mod > 0.0, vecs * (pivot.conj() / mod), vecs)
    recon = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2).conj()
    residual = np.max(np.abs(mat - recon), axis=(-2, -1))
    message = "eigendecomposition residual {dev:g} exceeds {tol:g}"
    require_within(residual, RESIDUAL_TOL, ArithmeticError, message)
    return vals, vecs


def eig_hermitian(h) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (or density matrix).  A
    batch of one of :func:`eig_hermitian_batch`."""
    if isinstance(h, DensityMatrix):
        h = h.entries
    mat = np.asarray(h, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    vals, vecs = eig_hermitian_batch(mat[None])
    return Spectrum(vals[0], vecs[0])


def trace_distances(first, second, basis=None) -> np.ndarray:
    """Half the trace norms of ``first - second`` for stacked pairs of
    Hermitian matrices (..., n, n).

    Each pair's difference is formed in a canonical order of its two
    matrices (by their bytes), so every distance is bitwise symmetric.  Given
    orthonormal columns ``basis`` (..., n, m) spanning each difference, the
    eigenvalues are those of the m x m projected differences.  The guards
    name the first failing pair: the eigensolver's, and that the squared
    eigenvalues sum to the difference's squared Frobenius norm (a difference
    outside its basis fails it) within ``RESIDUAL_TOL``.
    """
    first, second = np.broadcast_arrays(
        np.asarray(first, dtype=complex), np.asarray(second, dtype=complex)
    )
    n = first.shape[-1]
    pairs = zip(first.reshape(-1, n, n), second.reshape(-1, n, n))
    swap = np.array([s.tobytes() < f.tobytes() for f, s in pairs], dtype=bool)
    swap = swap.reshape(first.shape[:-2])[..., None, None]
    diff = np.where(swap, second, first) - np.where(swap, first, second)
    projected = diff if basis is None else np.swapaxes(basis, -1, -2).conj() @ diff @ basis
    vals, _ = eig_hermitian_batch(projected, tol=10 * ASSERT_TOL)
    missed = np.abs(np.sum(np.abs(diff) ** 2, axis=(-2, -1)) - np.sum(vals**2, axis=-1))
    message = "difference's squared eigenvalues miss its squared Frobenius norm by {dev:g}"
    require_within(missed, RESIDUAL_TOL, ArithmeticError, message)
    return 0.5 * np.sum(np.abs(vals), axis=-1)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma, bitwise symmetric.  A batch of one
    of :func:`trace_distances`."""
    if rho.signature != sigma.signature:
        raise ValueError(
            f"signature mismatch: {rho.signature.entries} vs {sigma.signature.entries}"
        )
    return float(trace_distances(rho.entries[None], sigma.entries[None])[0])


def entropy_bits(eigenvalues) -> np.ndarray:
    """Von Neumann entropy in bits of stacked spectra (..., n), with 0*log(0)
    taken as 0.  Non-positive eigenvalues contribute nothing."""
    vals = np.clip(eigenvalues, 0.0, None)
    positive = vals > 0.0
    terms = np.where(positive, vals * np.log2(np.where(positive, vals, 1.0)), 0.0)
    return -np.sum(terms, axis=-1)

