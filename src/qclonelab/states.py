"""Constructors for stacked amplitudes: qubit basis pairs, random kets,
overlap-prescribed ket pairs, and Gram matrices.  The trigonometry of a
column of angles runs once per distinct angle, as
:func:`~qclonelab.core.distinct_rows` tells them apart.

:class:`StateFamily`, a labeled list of kets, is reached by no command: it
remains only because the benchmark harness in ``perfbench/`` binds
:func:`~qclonelab.machines.apply_termwise`, which takes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Ket, SubsystemSignature, cmul, distinct_rows, first_failure, modulus, require_within
)
from .tolerances import RESIDUAL_TOL


def unit_phases(phi) -> np.ndarray:
    """e^{i phi} of each angle, rounded as ``complex(cos phi, sin phi)``
    with Python's ``math``; cos and sin are taken once per distinct angle."""
    phi = np.asarray(phi, dtype=float).reshape(-1)
    first, inverse = distinct_rows(phi)
    units = [complex(math.cos(p), math.sin(p)) for p in phi[first].tolist()]
    return np.array(units, dtype=complex)[inverse]


def basis_amplitudes(theta, phi=0.0) -> np.ndarray:
    """Amplitudes [primary, complement] of the orthonormal qubit basis pair
    at Bloch angles (theta, phi), shape (2, 2), or (n, 2, 2) for columns of
    n angles:

    primary    = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>
    complement = -e^{-i phi} sin(theta/2)|0> + cos(theta/2)|1>

    The complement phase is fixed so that every pair builds the same
    singlet (|psi psibar> - |psibar psi>)/sqrt(2).  State equality elsewhere
    is always up to global phase (compare |inner| = 1, never amplitudes).

    Each entry rounds as the scalar recipe ``w * s`` and ``-conj(w) * s`` in
    Python complex arithmetic, with ``c, s = cos(theta/2), sin(theta/2)`` and
    ``w = complex(cos phi, sin phi)`` taken once per distinct angle.  A range
    error names the first failing index.
    """
    scalar = np.ndim(theta) == 0 and np.ndim(phi) == 0
    theta, phi = np.broadcast_arrays(np.atleast_1d(theta), np.atleast_1d(phi))
    for name, values, inside, bounds in (
        ("theta", theta, (theta >= 0.0) & (theta <= math.pi), "[0, pi]"),
        ("phi", phi, (phi >= 0.0) & (phi < 2.0 * math.pi), "[0, 2*pi)"),
    ):
        if not inside.all():
            k, where = first_failure(~inside)
            raise ValueError(f"{name} must lie in {bounds}, got {float(values[k])!r}{where}")
    first, inverse = distinct_rows(theta)
    halves = [(math.cos(t / 2.0), math.sin(t / 2.0)) for t in theta[first].tolist()]
    c, s = np.array(halves).reshape(-1, 2)[inverse].T
    w = unit_phases(phi)
    out = np.empty((len(theta), 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = cmul(w, s)
    out[:, 1, 0] = cmul(-w.conj(), s)
    return out[0] if scalar else out


def complex_normals(normals: np.ndarray, *shape: int) -> np.ndarray:
    """Complex standard normals (..., *shape) of real ones (..., 2 *
    prod(shape)) in draw order: the real block, then the imaginary block."""
    z = np.moveaxis(normals.reshape(*normals.shape[:-1], 2, *shape), -1 - len(shape), 0)
    return z[0] + 1j * z[1]


def unit_kets(normals: np.ndarray, dim: int) -> np.ndarray:
    """Normalized kets (..., dim) of standard normals (..., 2 * dim), paired
    by :func:`complex_normals`.  Each norm rounds as ``np.linalg.norm`` of its
    ket does: the strided dot products of its real and imaginary parts."""
    z = complex_normals(normals, dim)
    return z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[..., None]


def random_kets(dim: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n normalized standard complex Gaussian kets of dimension ``dim``,
    shape (n, dim), drawn one after another as :func:`unit_kets` reads them."""
    return unit_kets(rng.standard_normal((n, 2 * dim)), dim)


@dataclass(frozen=True, eq=False)
class StateFamily:
    """Ordered list of normalized kets over one shared signature."""

    members: tuple[Ket, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("state family must not be empty")
        sig = members[0].signature
        for k in members:
            if k.signature != sig:
                raise ValueError("all family members must share one signature")
            k.require_normalized()

    @property
    def signature(self) -> SubsystemSignature:
        return self.members[0].signature

    def __len__(self) -> int:
        return len(self.members)


def gram_stack(stack: np.ndarray) -> np.ndarray:
    """Gram matrices G[..., i, j] = <v_i|v_j> of stacked vectors (..., m, d)."""
    return stack.conj() @ np.swapaxes(stack, -1, -2)


def overlap_pair_amplitudes(targets, dimension: int) -> np.ndarray:
    """Deterministic pairs of normalized kets of dimension ``dimension``
    with <first|second> = target, one pair per target, stacked: shape
    (len(targets), 2, dimension).  first = e0, second = target*e0 +
    sqrt(1-|target|^2)*e1.

    Raises on a modulus above 1 or a realized overlap that misses its target,
    naming the first failing index.
    """
    targets = np.asarray(targets, dtype=complex)
    if dimension < 2:
        raise ValueError("need dimension >= 2 to realize an arbitrary overlap")
    moduli = modulus(targets)
    require_within(moduli, 1.0 + 1e-12, ValueError, "overlap modulus {dev!r} exceeds 1")
    out = np.zeros((len(targets), 2, dimension), dtype=complex)
    out[:, 0, 0] = 1.0
    out[:, 1, 0] = targets
    # As math.sqrt(max(1 - m ** 2, 0)) of each modulus: float_power is pow.
    out[:, 1, 1] = np.sqrt(np.maximum(1.0 - np.float_power(moduli, 2), 0.0))
    realized = np.vecdot(out[:, 0], out[:, 1])
    miss = np.abs(realized - targets)
    message = "realized overlap misses its target by {dev:g}"
    require_within(miss, RESIDUAL_TOL, ArithmeticError, message)
    return out

