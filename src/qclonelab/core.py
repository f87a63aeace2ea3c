"""Dense complex linear algebra over labeled tensor-product spaces.

States are amplitude vectors indexed row-major over an ordered list of
labeled subsystems, so ``|q0 q1>`` puts the q0 index on the slow axis.
Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import ASSERT_TOL, RESIDUAL_TOL


def _frozen(array: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubsystemSignature:
    """Ordered list of (label, dimension) factors of a tensor-product space."""

    entries: tuple[tuple[str, int], ...]

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

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.entries)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.entries)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axis_of(self, label: str) -> int:
        for k, (lab, _) in enumerate(self.entries):
            if lab == label:
                return k
        raise ValueError(f"unknown subsystem label {label!r}")

    def concat(self, other: "SubsystemSignature") -> "SubsystemSignature":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise ValueError(f"duplicate subsystem label {sorted(clash)[0]!r}")
        return SubsystemSignature(self.entries + other.entries)

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


def signature(*entries: tuple[str, int]) -> SubsystemSignature:
    return SubsystemSignature(tuple(entries))


@dataclass(frozen=True)
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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def require_normalized(self, tol: float = ASSERT_TOL) -> "Ket":
        if abs(self.norm - 1.0) > tol:
            raise ValueError(f"ket is not normalized (norm={self.norm!r})")
        return self

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.signature.dims)


def basis_ket(sig: SubsystemSignature, index: int) -> Ket:
    amp = np.zeros(sig.dim, dtype=complex)
    amp[index] = 1.0
    return Ket(sig, amp)


@dataclass(frozen=True)
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
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > ASSERT_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:g})")
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if trace_dev > ASSERT_TOL:
            raise ValueError(f"matrix trace deviates from 1 by {trace_dev:g}")
        object.__setattr__(self, "entries", _frozen(mat))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", _frozen(self.eigenvectors))

    @property
    def largest(self) -> float:
        return float(self.eigenvalues[0])


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product; signatures must have disjoint labels."""
    sig = a.signature.concat(b.signature)
    return Ket(sig, np.kron(a.amplitudes, b.amplitudes))


def kron_stack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Kronecker product over the last axis of stacked vectors; leading axes
    broadcast.  Entrywise the same products as ``np.kron`` on each pair."""
    batch = np.broadcast_shapes(u.shape[:-1], v.shape[:-1])
    return (u[..., :, None] * v[..., None, :]).reshape(*batch, -1)


def tensor_all(*kets: Ket) -> Ket:
    out = kets[0]
    for k in kets[1:]:
        out = tensor(out, k)
    return out


def inner(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.signature != b.signature:
        raise ValueError(
            f"signature mismatch: {a.signature.entries} vs {b.signature.entries}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def density_of(k: Ket, tol: float = ASSERT_TOL) -> DensityMatrix:
    """Rank-1 projector |k><k| of a normalized ket."""
    n = k.norm
    if n == 0.0:
        raise ValueError("cannot form a density matrix from a zero ket")
    if abs(n - 1.0) > tol:
        raise ValueError(f"ket is not normalized (norm={n!r})")
    amp = k.amplitudes
    return DensityMatrix(k.signature, np.outer(amp, amp.conj()))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the kept labels, original order preserved."""
    kept_sig = rho.signature.keep(keep)
    kept = set(kept_sig.labels)
    dims = rho.signature.dims
    n = len(dims)
    tensorized = rho.entries.reshape(dims + dims)

    # Row axes get fresh letters; traced column axes reuse the row letter.
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = letters[:n]
    col = []
    next_free = n
    keep_axes = []
    for axis, (label, _) in enumerate(rho.signature.entries):
        if label in kept:
            col.append(letters[next_free])
            next_free += 1
            keep_axes.append(axis)
        else:
            col.append(row[axis])
    out_sub = "".join(row[a] for a in keep_axes) + "".join(col[a] for a in keep_axes)
    reduced = np.einsum(f"{row}{''.join(col)}->{out_sub}", tensorized)
    d = kept_sig.dim
    return DensityMatrix(kept_sig, reduced.reshape(d, d))


def first_failure(bad) -> tuple[int, str]:
    """Flat index of the first True entry of a batch guard mask, and an error
    message suffix naming it (empty for a batch of one)."""
    bad = np.asarray(bad)
    k = int(np.argmax(bad.reshape(-1)))
    return k, ("" if bad.size == 1 else f" at batch index {k}")


def _require_hermitian(mat: np.ndarray, tol: float) -> np.ndarray:
    """Hermitian part of a stack of square matrices (..., n, n), after
    checking every matrix is Hermitian within ``tol``."""
    adjoint = np.swapaxes(mat, -1, -2).conj()
    dev = np.max(np.abs(mat - adjoint), axis=(-2, -1))
    bad = dev > tol
    if np.any(bad):
        k, where = first_failure(bad)
        raise ValueError(
            f"matrix is not Hermitian within {tol:g} "
            f"(deviation {float(dev.reshape(-1)[k]):g}){where}"
        )
    return 0.5 * (mat + adjoint)


def _eig_2x2(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of a stack of Hermitian 2x2 matrices.

    The arithmetic is pinned so that reported eigenvalues stay byte-stable:
    ``float_power`` is libm ``pow``, as ``x ** 2`` on a float scalar (an
    array ``** 2`` squares and can differ in the last bit); ``hypot`` is
    ``abs`` of a complex scalar.
    """
    a = mat[..., 0, 0].real
    d = mat[..., 1, 1].real
    b = mat[..., 0, 1]
    mod_b = np.hypot(b.real, b.imag)
    tr = a + d
    disc = np.sqrt(
        np.maximum(np.float_power(a - d, 2) + 4.0 * np.float_power(mod_b, 2), 0.0)
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


def _eigenpairs(stack: np.ndarray, tol: float, residual_tol: float):
    mat = _require_hermitian(stack, tol)
    n = mat.shape[-1]
    if n == 1:
        vals = mat[..., 0].real
        vecs = np.ones(mat.shape, dtype=complex)
    elif n == 2:
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
    bad = ~(residual <= residual_tol)  # a NaN residual fails too
    if np.any(bad):
        k, where = first_failure(bad)
        raise ArithmeticError(
            f"eigendecomposition residual {float(residual.reshape(-1)[k]):g} "
            f"exceeds {residual_tol:g}{where}"
        )
    return vals, vecs


def eig_hermitian_batch(
    stack,
    tol: float = ASSERT_TOL,
    residual_tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a stack of Hermitian matrices, shape (..., n, n).

    Returns eigenvalues (..., n), descending, and eigenvectors (..., n, n)
    as columns.  The 2x2 closed form runs on the whole stack at once; larger
    matrices take one LAPACK ``eigh`` call on the whole stack.  The
    Hermiticity and reconstruction-residual guards name the first failing
    batch index.
    """
    mat = np.asarray(stack, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {mat.shape}")
    return _eigenpairs(mat, tol, residual_tol)


def eig_hermitian(
    h,
    tol: float = ASSERT_TOL,
    residual_tol: float = RESIDUAL_TOL,
) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (or density matrix).

    Uses the closed form for 2x2 inputs and LAPACK ``eigh`` otherwise;
    raises if the reconstruction residual exceeds ``residual_tol``.
    """
    if isinstance(h, DensityMatrix):
        h = h.entries
    mat = np.asarray(h, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    vals, vecs = _eigenpairs(mat[None], tol, residual_tol)
    return Spectrum(vals[0], vecs[0])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma.

    The difference is formed in a canonical argument order so the result is
    bitwise symmetric.
    """
    if rho.signature != sigma.signature:
        raise ValueError(
            f"signature mismatch: {rho.signature.entries} vs {sigma.signature.entries}"
        )
    if sigma.entries.tobytes() < rho.entries.tobytes():
        rho, sigma = sigma, rho
    diff = rho.entries - sigma.entries
    spec = eig_hermitian(diff, tol=10 * ASSERT_TOL)
    return 0.5 * float(np.sum(np.abs(spec.eigenvalues)))


def entropy_bits(eigenvalues) -> np.ndarray:
    """Von Neumann entropy in bits of stacked spectra (..., n), with 0*log(0)
    taken as 0.  Non-positive eigenvalues contribute nothing."""
    vals = np.clip(eigenvalues, 0.0, None)
    positive = vals > 0.0
    terms = np.where(positive, vals * np.log2(np.where(positive, vals, 1.0)), 0.0)
    return -np.sum(terms, axis=-1)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits, with 0*log(0) taken as 0."""
    return float(entropy_bits(eig_hermitian(rho).eigenvalues))
