import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qclonelab.core import Ket, SubsystemSignature
from qclonelab.machines import (
    deleter_rules,
    gram_comparison,
    haar_isometries,
    strong_cloner_inputs,
    strong_cloner_outputs,
    wishful_rules,
)
from qclonelab.report import ScenarioReport
from qclonelab.states import overlap_pair_amplitudes
from qclonelab.tolerances import ASSERT_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def signature(*entries: tuple[str, int]) -> SubsystemSignature:
    """Signature of the given (label, dimension) factors, in order."""
    return SubsystemSignature(tuple(entries))


def random_ket(sig, rng) -> Ket:
    z = rng.standard_normal(sig.dim) + 1j * rng.standard_normal(sig.dim)
    return Ket(sig, z / np.linalg.norm(z))


def load_perfbench(name: str):
    """The benchmark harness's module ``perfbench/<name>.py``, loaded from
    its file as it stands."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def random_basis_angles(rng):
    return float(rng.uniform(0.0, np.pi)), float(rng.uniform(0.0, 2.0 * np.pi - 1e-9))


def random_isometry(n_in: int, n_out: int, rng) -> np.ndarray:
    """Haar-random isometry (n_out, n_in), drawn from ``rng`` as the
    commands draw one."""
    return haar_isometries(rng.standard_normal((1, 2 * n_out * n_in)), n_out, n_in)[0]


def strong_cloner(a, b, c, dim=4):
    """Declared rules (inputs, outputs) of strong cloners with source,
    register and record overlaps (a, b, c), stacked over the overlaps (a
    scalar triple is a stack of one)."""
    pairs = (
        overlap_pair_amplitudes(np.atleast_1d(z), d) for z, d in ((a, 2), (b, 2), (c, 2 * dim))
    )
    psis, alphas, records = pairs
    return strong_cloner_inputs(psis, alphas, dim), strong_cloner_outputs(psis, records)


def deleter(a, g, dim=4):
    """Declared rules (inputs, outputs) of deleters with source overlap a and
    record overlap g, stacked over the overlaps."""
    psis, records = (overlap_pair_amplitudes(np.atleast_1d(z), d) for z, d in ((a, 2), (g, dim)))
    return deleter_rules(psis, records, dim)


def wishful_cloner(*bases, ancilla_dim=4):
    """Declared rules (inputs, outputs) of the termwise wishful cloner of the
    (psi, alpha) basis amplitude pairs given, each pair's four rules in turn,
    as a stack of one."""
    rules = [wishful_rules(psi, alpha, ancilla_dim) for psi, alpha in bases]
    return tuple(np.concatenate([r[k] for r in rules])[None] for k in (0, 1))


def gram_deviation(rules) -> np.ndarray:
    """Largest entrywise |G_in - G_out| of each rule set of a stack."""
    return gram_comparison(*rules)[2]


def consistent(rules) -> np.ndarray:
    """Whether each rule set of a stack preserves the Gram matrix within the
    assertion tolerance, so that an isometry can realize it."""
    return gram_deviation(rules) < ASSERT_TOL


def parse_report(text: str) -> ScenarioReport:
    """Parse the JSON rendering of a row back into a report of one row."""
    doc = json.loads(text)
    return ScenarioReport(
        kind=doc["kind"],
        config=dict(doc["config"]),
        scalars={k: np.array([float(v)]) for k, v in doc["scalars"].items()},
        matrices={
            name: np.array([[[complex(z) for z in row] for row in rows]], dtype=complex)
            for name, rows in doc["matrices"].items()
        },
        verdicts={
            v["name"]: (np.array([float(v["deviation"])]), np.array([float(v["tolerance"])]))
            for v in doc["verdicts"]
        },
    )
