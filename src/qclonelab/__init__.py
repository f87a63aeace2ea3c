"""Numerical laboratory for cloning machines, no-signalling checks, and
entanglement bookkeeping, computed as stacked arrays."""
