"""Constructors for stacked amplitudes: qubit basis pairs, random kets,
overlap-prescribed ket pairs, and Gram matrices.

:class:`StateFamily`, a labeled list of kets, is reached by no command: it
remains only because the benchmark harness in ``perfbench/`` binds
:func:`~qclonelab.machines.apply_termwise`, which takes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Ket, SubsystemSignature, cmul, first_failure, modulus, require_within
from .tolerances import RESIDUAL_TOL


def _per_distinct_angle(angles, fn) -> np.ndarray:
    """``fn`` of each angle, called once per distinct angle; angles are told
    apart by their bits, so -0.0 is not taken for 0.0."""
    angles = np.ascontiguousarray(angles, dtype=float).reshape(-1)
    bits = angles.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        # One angle, as in the column of a key no axis sweeps.
        return np.repeat(np.array([fn(float(angles[0]))]), bits.size, axis=0)
    bits = bits.tolist()
    values = {k: fn(a) for k, a in dict(zip(bits, angles.tolist())).items()}
    return np.array([values[k] for k in bits])


def unit_phases(phi) -> np.ndarray:
    """e^{i phi} of each angle, rounded as ``complex(cos phi, sin phi)``
    with Python's ``math``; cos and sin are taken once per distinct angle."""
    units = _per_distinct_angle(phi, lambda p: complex(math.cos(p), math.sin(p)))
    return units.astype(complex, copy=False)


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
    halves = _per_distinct_angle(theta, lambda t: (math.cos(t / 2.0), math.sin(t / 2.0)))
    c, s = halves.reshape(-1, 2).T
    w = unit_phases(phi)
    out = np.empty((len(theta), 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = cmul(w, s)
    out[:, 1, 0] = cmul(-w.conj(), s)
    return out[0] if scalar else out


def random_amplitudes(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized standard complex Gaussian amplitudes of dimension ``dim``."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


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

