"""Records that hold arrays compare by identity: ``==`` on two equal-valued
records would otherwise compare their arrays and raise on the ambiguous
truth value.  They are plain classes on ``core.Record``, which compares by
identity unless a class defines its own equality."""

import numpy as np
import pytest

import qclonelab.conservation as cons
import qclonelab.nosignal as nosig
from conftest import signature, strong_cloner
from qclonelab.config import ScenarioGrid
from qclonelab.core import DensityMatrix, Ket, eig_hermitian
from qclonelab.machines import InconsistentGram, extend_to_isometries, extend_to_isometry
from qclonelab.report import Verdict
from qclonelab.states import basis_amplitudes

_SIG = signature(("x", 3))
_BASES = np.array([[[basis_amplitudes(0.0)] * 2, [basis_amplitudes(0.7)] * 2]])
# The arguments of cons.roundtrips: one round trip, and a stack of two.
_ROUNDTRIP, _ROUNDTRIPS = (
    (3, 4, 2, [cons.roundtrip_normals(3, 4, 2, rng) for rng in rngs])
    for rngs in (map(np.random.default_rng, seeds) for seeds in ((5,), (6, 7)))
)
_FAMILY = cons.roundtrips(*_ROUNDTRIP)[0]


def _inconsistent_gram() -> InconsistentGram:
    try:
        extend_to_isometries(*strong_cloner(0.6, 0.5, 0.5))
    except InconsistentGram as exc:
        return exc
    raise AssertionError("the off-surface cloner extended")


_PROJECTOR = np.outer([0.6, 0.8j, 0.0], np.conj([0.6, 0.8j, 0.0]))
_CLONER = tuple(rules[0] for rules in strong_cloner(0.6, 0.3, 0.5))

RECORDS = {
    "Ket": lambda: Ket(_SIG, np.array([0.6, 0.8j, 0.0])),
    "DensityMatrix": lambda: DensityMatrix(_SIG, _PROJECTOR),
    "Spectrum": lambda: eig_hermitian(np.diag([0.25, 0.75])),
    "StateFamily": lambda: nosig.premachine(_BASES),
    "LinearMachine": lambda: extend_to_isometries(_FAMILY, _FAMILY),
    "MachineSpec": lambda: extend_to_isometry(*_CLONER),
    "ConsistencyReport": _inconsistent_gram,
    "Premachine": lambda: nosig.premachine(_BASES),
    "NosignalBatch": lambda: nosig.evaluate_batch(_BASES, nosig.wishful_machine_rules(_BASES)),
    "ConservationBatch": lambda: cons.evaluate_batch([0.6], [0.5], [0.5], [0.5]),
    "IsometryExtension": lambda: extend_to_isometries(_FAMILY, _FAMILY),
    "EquivalenceBatch": lambda: cons.roundtrips(*_ROUNDTRIPS)[2],
    "EquivalenceRoundtrip": lambda: cons.roundtrips(*_ROUNDTRIP)[2],
}
# These cases keep the names of the records they made before they were
# stacked: the round trips and the isometry of one machine, declared or
# extended, now return an IsometryExtension; a failed Gram comparison rides
# on InconsistentGram; and a family of kets is a stack of amplitudes, held
# by records such as the Premachine's joint kets.
RECORD_TYPE = {
    "EquivalenceBatch": "IsometryExtension",
    "EquivalenceRoundtrip": "IsometryExtension",
    "LinearMachine": "IsometryExtension",
    "MachineSpec": "IsometryExtension",
    "ConsistencyReport": "InconsistentGram",
    "StateFamily": "Premachine",
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


@pytest.mark.parametrize("record, name", [
    (Verdict("v", 0.5, 1.0), "deviation"),
    (ScenarioGrid("conservation", {"overlap.a": 0.6}, {}, 1), "size"),
    (RECORDS["Ket"](), "amplitudes"),
], ids=["Verdict", "ScenarioGrid", "Ket"])
def test_assigning_to_a_field_raises(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    assert getattr(record, name) is before
