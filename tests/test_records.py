"""Records that hold arrays compare by identity: ``==`` on two equal-valued
records would otherwise compare their arrays and raise on the ambiguous
truth value."""

import numpy as np
import pytest

import qclonelab.conservation as cons
import qclonelab.nosignal as nosig
from conftest import signature, strong_cloner
from qclonelab.core import DensityMatrix, Ket, eig_hermitian
from qclonelab.machines import InconsistentGram, MachineSpec, extend_to_isometries
from qclonelab.states import StateFamily, basis_amplitudes, overlap_pair_amplitudes

_SIG = signature(("x", 3))
_RULE_SIGS = (
    signature(("src", 2), ("blank", 2), ("reg", 2), ("env", 4)),
    signature(("src", 2), ("copy", 2), ("env", 8)),
)
_BASES = np.array([[[basis_amplitudes(0.0)] * 2, [basis_amplitudes(0.7)] * 2]])
_ROUNDTRIP = tuple(x[None] for x in cons.roundtrip_draws(3, 4, 2, np.random.default_rng(5)))
_ROUNDTRIPS = tuple(
    np.stack(x) for x in zip(*(cons.roundtrip_draws(3, 4, 2, np.random.default_rng(s)) for s in (6, 7)))
)


def _machine_spec() -> MachineSpec:
    inputs, outputs = (rules[0] for rules in strong_cloner(0.6, 0.3, 0.5))
    pairs = tuple(
        (Ket(_RULE_SIGS[0], x), Ket(_RULE_SIGS[1], y)) for x, y in zip(inputs, outputs)
    )
    return MachineSpec(*_RULE_SIGS, pairs)


def _inconsistent_gram() -> InconsistentGram:
    try:
        extend_to_isometries(*strong_cloner(0.6, 0.5, 0.5))
    except InconsistentGram as exc:
        return exc
    raise AssertionError("the off-surface cloner extended")


_PROJECTOR = np.outer([0.6, 0.8j, 0.0], np.conj([0.6, 0.8j, 0.0]))
_PAIR = overlap_pair_amplitudes([0.3], 2)[0]

RECORDS = {
    "Ket": lambda: Ket(_SIG, np.array([0.6, 0.8j, 0.0])),
    "DensityMatrix": lambda: DensityMatrix(_SIG, _PROJECTOR),
    "Spectrum": lambda: eig_hermitian(np.diag([0.25, 0.75])),
    "StateFamily": lambda: StateFamily(tuple(Ket(signature(("r", 2)), k) for k in _PAIR)),
    "LinearMachine": lambda: extend_to_isometries(_ROUNDTRIP[0], _ROUNDTRIP[0]),
    "MachineSpec": _machine_spec,
    "ConsistencyReport": _inconsistent_gram,
    "Premachine": lambda: nosig.premachine(_BASES),
    "NosignalBatch": lambda: nosig.evaluate_batch(_BASES),
    "ConservationBatch": lambda: cons.evaluate_batch([0.6], [0.5], [0.5], [0.5]),
    "IsometryExtension": lambda: extend_to_isometries(_ROUNDTRIP[0], _ROUNDTRIP[0]),
    "EquivalenceBatch": lambda: cons.roundtrips(*_ROUNDTRIPS)[1],
    "EquivalenceRoundtrip": lambda: cons.roundtrips(*_ROUNDTRIP)[1],
}
# These cases keep the names of the records they made before they were
# stacked: the round trips and the isometry of one machine now return an
# IsometryExtension, and a failed Gram comparison rides on InconsistentGram.
RECORD_TYPE = {
    "EquivalenceBatch": "IsometryExtension",
    "EquivalenceRoundtrip": "IsometryExtension",
    "LinearMachine": "IsometryExtension",
    "ConsistencyReport": "InconsistentGram",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_valued_records_compare_without_raising(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == RECORD_TYPE.get(name, name)
    assert first == first
    assert not first == second
    assert first != second
    assert first in [second, first]
    assert second not in [first]
