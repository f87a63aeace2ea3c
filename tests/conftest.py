import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qclonelab.core import Ket, signature
from qclonelab.machines import (
    MachineSpec,
    deleter_rules,
    strong_cloner_rules,
    wishful_rules,
    wishful_signatures,
)
from qclonelab.states import overlap_pair_amplitudes


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def random_ket(sig, rng) -> Ket:
    z = rng.standard_normal(sig.dim) + 1j * rng.standard_normal(sig.dim)
    return Ket(sig, z / np.linalg.norm(z))


def random_basis_angles(rng):
    return float(rng.uniform(0.0, np.pi)), float(rng.uniform(0.0, 2.0 * np.pi - 1e-9))


def basis_ket(sig, index: int) -> Ket:
    return Ket(sig, np.eye(sig.dim)[index])


def spec_from_rules(in_sig, out_sig, inputs, outputs) -> MachineSpec:
    """Machine declaring stacked rule amplitudes (K, d_in) -> (K, d_out)."""
    pairs = tuple((Ket(in_sig, x), Ket(out_sig, y)) for x, y in zip(inputs, outputs))
    return MachineSpec(in_sig, out_sig, pairs)


def strong_cloner(a, b, c, dim=4) -> MachineSpec:
    """Strong cloner with source, register and record overlaps (a, b, c)."""
    pairs = (overlap_pair_amplitudes([z], d) for z, d in ((a, 2), (b, 2), (c, 2 * dim)))
    inputs, outputs = strong_cloner_rules(*pairs, dim)
    return spec_from_rules(
        signature(("src", 2), ("blank", 2), ("reg", 2), ("env", dim)),
        signature(("src", 2), ("copy", 2), ("env", 2 * dim)),
        inputs[0],
        outputs[0],
    )


def deleter(a, g, dim=4) -> MachineSpec:
    """Deleter with source overlap a and record overlap g."""
    inputs, outputs = deleter_rules(
        overlap_pair_amplitudes([a], 2), overlap_pair_amplitudes([g], dim), dim
    )
    return spec_from_rules(
        signature(("src", 2), ("copy", 2), ("env", dim)),
        signature(("src", 2), ("blank", 2), ("env", dim)),
        inputs[0],
        outputs[0],
    )


def wishful_cloner(*bases, ancilla_dim=4) -> MachineSpec:
    """Termwise wishful cloner of the (psi, alpha) basis amplitude pairs
    given, each pair's four rules in turn."""
    rules = [wishful_rules(psi, alpha, ancilla_dim) for psi, alpha in bases]
    return spec_from_rules(
        *wishful_signatures(ancilla_dim),
        np.concatenate([x for x, _ in rules]),
        np.concatenate([y for _, y in rules]),
    )
