"""Numerical laboratory for cloning machines, no-signalling checks, and
entanglement bookkeeping on labeled qubit registers."""

from .core import (
    DensityMatrix,
    Ket,
    Spectrum,
    SubsystemSignature,
    density_of,
    eig_hermitian,
    eig_hermitian_batch,
    entropy,
    inner,
    partial_trace,
    reduced_states,
    signature,
    tensor,
    trace_distance,
    trace_distances,
)
from .states import StateFamily, gram, kets_with_overlap
from .machines import (
    ConflictingRules,
    ConsistencyReport,
    DependentInputsConflict,
    InconsistentGram,
    IsometryExtension,
    LinearMachine,
    MachineSpec,
    apply_linear,
    apply_termwise,
    check_consistency,
    extend_to_isometries,
    extend_to_isometry,
    random_isometry,
    wishful_signatures,
)
from .conservation import (
    ConservationBatch,
    equivalence_unitary,
    evaluate_batch,
    lambda_after,
    lambda_before,
)

__version__ = "0.1.0"
