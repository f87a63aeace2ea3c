"""Numerical laboratory for cloning machines, no-signalling checks, and
entanglement bookkeeping, computed as stacked arrays."""

from .core import eig_hermitian_batch, reduced_states, trace_distances
from .machines import (
    ConflictingRules,
    DependentInputsConflict,
    InconsistentGram,
    IsometryExtension,
    extend_to_isometries,
)
from .conservation import (
    ConservationBatch,
    evaluate_batch,
    lambda_after,
    lambda_before,
)

__version__ = "0.1.0"
