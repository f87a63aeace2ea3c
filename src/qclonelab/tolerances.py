"""Shared numerical tolerances.

Two tiers: ASSERT_TOL guards logical claims (orthogonality, Gram equality,
verdicts), RESIDUAL_TOL guards linear-algebra residuals (eigendecomposition
reconstruction, trace preservation). The LAPACK kernels (``eigh``,
``svd``, ``qr``) run without tolerances of their own and their results are
checked against these; the isometry extension counts rank as
``np.linalg.matrix_rank`` does. Every public operation that compares
against a tolerance takes it as a keyword argument defaulting to one of
these, so callers can tighten or relax per call.
"""

ASSERT_TOL = 1e-10
RESIDUAL_TOL = 1e-12
