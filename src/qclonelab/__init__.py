"""Numerical laboratory for cloning machines, no-signalling checks, and
entanglement bookkeeping on labeled qubit registers."""

from .core import (
    DensityMatrix,
    Ket,
    Spectrum,
    SubsystemSignature,
    basis_ket,
    density_of,
    eig_hermitian,
    eig_hermitian_batch,
    entropy,
    inner,
    partial_trace,
    signature,
    tensor,
    tensor_all,
    trace_distance,
)
from .states import (
    BasisPair,
    StateFamily,
    gram,
    has_orthogonal_pair,
    kets_with_overlap,
    qubit_basis,
    singlet,
)
from .machines import (
    MODE_LINEAR,
    MODE_TERMWISE,
    ConflictingRules,
    ConsistencyReport,
    DependentInputsConflict,
    InconsistentGram,
    LinearMachine,
    MachineSpec,
    apply_linear,
    apply_termwise,
    check_consistency,
    extend_to_isometry,
    merge_specs,
    preset_deleter,
    preset_strong_cloner,
    preset_wishful_cloner,
    random_isometry,
    wishful_signatures,
)
from .nosignal import (
    TwoSingletScenario,
    bob_marginal_after,
    bob_marginal_before,
    build_scenario,
    default_wishful_machine,
    expansion_family,
    signalling_magnitude,
)
from .conservation import (
    ConservationBatch,
    ConservationScenario,
    EntanglementDelta,
    EquivalenceRoundtrip,
    GramMismatch,
    alice_marginal_after,
    alice_marginal_before,
    build_conservation,
    entanglement_delta,
    equivalence_roundtrip,
    equivalence_unitary,
    evaluate_batch,
    lambda_after,
    lambda_before,
)

__version__ = "0.1.0"
