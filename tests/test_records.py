"""Records that hold arrays compare by identity: ``==`` on two equal-valued
records would otherwise compare their arrays and raise on the ambiguous
truth value."""

import numpy as np
import pytest

import qclonelab.conservation as cons
import qclonelab.nosignal as nosig
from conftest import strong_cloner
from qclonelab.core import Ket, density_of, eig_hermitian, signature
from qclonelab.machines import check_consistency, extend_to_isometries, random_isometry
from qclonelab.states import StateFamily, basis_amplitudes, kets_with_overlap

_SIG = signature(("x", 3))
_BASES = np.array([[[basis_amplitudes(0.0)] * 2, [basis_amplitudes(0.7)] * 2]])
_ROUNDTRIP = tuple(x[None] for x in cons.roundtrip_draws(3, 4, 2, np.random.default_rng(5)))
_ROUNDTRIPS = tuple(
    np.stack(x) for x in zip(*(cons.roundtrip_draws(3, 4, 2, np.random.default_rng(s)) for s in (6, 7)))
)

RECORDS = {
    "Ket": lambda: Ket(_SIG, np.array([0.6, 0.8j, 0.0])),
    "DensityMatrix": lambda: density_of(Ket(_SIG, np.array([0.6, 0.8j, 0.0]))),
    "Spectrum": lambda: eig_hermitian(np.diag([0.25, 0.75])),
    "StateFamily": lambda: StateFamily(kets_with_overlap(0.3, 2)),
    "LinearMachine": lambda: random_isometry(_SIG, _SIG, np.random.default_rng(5)),
    "MachineSpec": lambda: strong_cloner(0.6, 0.3, 0.5),
    "ConsistencyReport": lambda: check_consistency(strong_cloner(0.6, 0.3, 0.5)),
    "Premachine": lambda: nosig.premachine(_BASES),
    "NosignalBatch": lambda: nosig.evaluate_batch(_BASES),
    "ConservationBatch": lambda: cons.evaluate_batch([0.6], [0.5], [0.5], [0.5]),
    "IsometryExtension": lambda: extend_to_isometries(_ROUNDTRIP[0], _ROUNDTRIP[0]),
    "EquivalenceBatch": lambda: cons.roundtrips(*_ROUNDTRIPS)[1],
    "EquivalenceRoundtrip": lambda: cons.roundtrips(*_ROUNDTRIP)[1],
}
# The stacked and single round trips keep the names of the records they
# returned before both became an IsometryExtension.
RECORD_TYPE = {"EquivalenceBatch": "IsometryExtension", "EquivalenceRoundtrip": "IsometryExtension"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_valued_records_compare_without_raising(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == RECORD_TYPE.get(name, name)
    assert first == first
    assert not first == second
    assert first != second
    assert first in [second, first]
    assert second not in [first]
