"""Shared numerical tolerances.

Two tiers, both constants: ASSERT_TOL guards logical claims
(orthogonality, normalization, Gram equality, isometries, verdicts),
RESIDUAL_TOL guards linear-algebra residuals (eigendecomposition
reconstruction, a trace distance's Frobenius norm, closed forms, overlaps).  The LAPACK kernels (``eigh``,
``svd``, ``qr``) run without tolerances of their own and their results are
checked against these; the isometry extension counts rank as
``np.linalg.matrix_rank`` does.  Only the Hermiticity guard of
``core.eig_hermitian_batch`` takes its tolerance as a parameter, because a
caller varies it: ``core.trace_distances`` widens it for differences of two
density matrices.  A config's ``tolerance.assert`` and ``tolerance.residual``
judge its verdicts only.  Every guard passes a deviation <= its tolerance,
except the Gram guard of ``machines.extend_to_isometries``, which passes
only a deviation < ``ASSERT_TOL``, as ``report.Verdict.passed`` does.
"""

ASSERT_TOL = 1e-10
RESIDUAL_TOL = 1e-12
