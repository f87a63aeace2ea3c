"""Shared numerical tolerances.

Two tiers, both constants: ASSERT_TOL guards logical claims
(orthogonality, normalization, Gram equality, isometries, verdicts),
RESIDUAL_TOL guards linear-algebra residuals (eigendecomposition
reconstruction, a trace distance's Frobenius norm, closed forms, overlaps).  The LAPACK kernels (``eigh``,
``svd``, ``qr``) run without tolerances of their own and their results are
checked against these; the isometry extension counts rank as
``np.linalg.matrix_rank`` does.  Only two guards take their tolerance as a
parameter, because a caller varies it: the Hermiticity guard of
``core.eig_hermitian_batch`` (``core.trace_distances`` widens it for
differences of two density matrices), and the termwise-rule guards of
``nosignal.evaluate_batch`` and ``machines.termwise_batch`` (a nosignal
config's ``tolerance.assert``).  Every guard passes a deviation <= its
tolerance, except the Gram guard of ``machines.extend_to_isometries``, which
passes only a deviation < ``ASSERT_TOL``, as ``report.Verdict.passed`` does.
"""

ASSERT_TOL = 1e-10
RESIDUAL_TOL = 1e-12
