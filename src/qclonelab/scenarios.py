"""Scenario runners: configs in, one byte-stable stacked report per batch out.

Each config kind has one runner that evaluates a batch of its points, read
from the columns of a :class:`~qclonelab.config.ScenarioGrid`, through the
physics modules and fills the columns of a stacked
:class:`~qclonelab.report.ScenarioReport`: scalars, matrices and named
verdicts, one row per point.  ``run`` is a grid of one; ``sweep`` passes a
whole grid (see :func:`run_configs`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import conservation as cons
from . import nosignal as nosig
from .config import ScenarioGrid, echo_columns
from .core import cmul, distinct_rows, failures_named
from .machines import haar_isometries
from .report import ScenarioReport
from .states import unit_phases


def _bases(grid: ScenarioGrid) -> np.ndarray:
    """Basis amplitudes of nosignal points, in the layout
    ``nosignal.evaluate_batch`` stacks: (point, basis, psi or alpha, 2, 2)."""
    angles = np.array([grid.basis_angles(which) for which in ("basis1", "basis2")])
    return nosig.scenario_bases(angles.reshape(2, 2, 2, -1).transpose(3, 0, 1, 2))


def _tolerances(grid: ScenarioGrid) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array(grid.column(f"tolerance.{t}")) for t in ("assert", "residual"))


def _run_nosignal(grid: ScenarioGrid) -> ScenarioReport:
    """The report of nosignal points sharing one machine mode and
    ``machine.ancilla_dim``, from a single batched evaluation."""
    ancilla_dim, bases = grid.column("machine.ancilla_dim")[0], _bases(grid)
    if grid.column("machine.mode")[0] == "isometry":
        # Bob's (src, reg, env) in and (src, copy, env) out, as the cloner's,
        # drawn once per distinct seed, keyed by its digits (it may pass 64 bits).
        dim, seeds = 4 * ancilla_dim, grid.column("seed")
        first, inverse = distinct_rows(np.array(seeds, dtype=str))
        normals = [np.random.default_rng(seeds[k]).standard_normal(2 * dim * dim) for k in first]
        machine = haar_isometries(np.stack(normals), dim, dim)[inverse]
        applied_as = "fixed isometry (physical)"
    else:
        machine = nosig.wishful_machine_rules(bases, ancilla_dim)
        applied_as = "termwise in the measured basis (unphysical step)"
    batch = nosig.evaluate_batch(bases, machine)

    tol_assert, tol_residual = _tolerances(grid)
    lam_max = batch.eigenvalues_after[:, :, 0]
    scalars = {
        "signalling_magnitude": batch.signalling_magnitude,
        "premachine_deviation_from_maximally_mixed": batch.premachine_deviation,
        "bob_marginal_basis1_lambda_max": lam_max[:, 0],
        "bob_marginal_basis2_lambda_max": lam_max[:, 1],
    }
    matrices = {
        "bob_marginal_basis1": batch.marginal_after[:, 0],
        "bob_marginal_basis2": batch.marginal_after[:, 1],
    }
    verdicts = {
        "premachine_bob_marginal_maximally_mixed": (batch.premachine_deviation, tol_residual),
        "bob_marginals_are_density_matrices": (batch.validity_deviation, tol_assert),
        "no_signalling": (batch.signalling_magnitude, tol_assert),
    }
    config = echo_columns(grid)
    config["machine.applied_as"] = applied_as
    return ScenarioReport("nosignal", config, scalars, matrices, verdicts)


def _overlaps(grid: ScenarioGrid, key: str) -> np.ndarray:
    """m e^{ip} at each point, rounded as ``m * complex(cos p, sin p)`` is;
    cos and sin are taken once per distinct phase."""
    units = unit_phases(grid.column(f"overlap.{key}_phase"))
    return cmul(np.array(grid.column(f"overlap.{key}"), dtype=complex), units)


def _max_abs(stack: np.ndarray) -> np.ndarray:
    return np.max(np.abs(stack), axis=(1, 2))


def _run_conservation(grid: ScenarioGrid) -> ScenarioReport:
    """The report of conservation points sharing one ``machine.ancilla_dim``,
    from a single batched evaluation."""
    a, b, c = (_overlaps(grid, key) for key in "abc")
    weights = np.array(grid.column("branch.weight"), dtype=float)
    batch = cons.evaluate_batch(a, b, c, weights, grid.column("machine.ancilla_dim")[0])
    lam_before = batch.eigenvalues_before[:, 0]
    lam_after = batch.eigenvalues_after[:, 0]
    closed_before = cons.lambda_before(a, b, weights)
    closed_after = cons.lambda_after(a, c, weights)
    delta_entropy = batch.entropy_after - batch.entropy_before
    gram_dev = batch.gram_deviation
    modulus_dev = _max_abs(np.abs(batch.input_gram) - np.abs(batch.output_gram))
    tol_assert, tol_residual = _tolerances(grid)

    scalars = {
        "lambda_before_numeric": lam_before,
        "lambda_before_closed": closed_before,
        "lambda_after_numeric": lam_after,
        "lambda_after_closed": closed_after,
        "delta_lambda": lam_after - lam_before,
        "delta_entropy": delta_entropy,
        "gram_deviation_phase_sensitive": gram_dev,
        "gram_deviation_modulus_only": modulus_dev,
    }
    matrices = {
        "alice_marginal_before": batch.marginal_before,
        "alice_marginal_after": batch.marginal_after,
        "machine_input_gram": batch.input_gram,
        "machine_output_gram": batch.output_gram,
    }
    conserved = np.maximum(np.abs(lam_after - lam_before), np.abs(delta_entropy))
    verdicts = {
        "alice_marginal_before_matches_closed_form": (batch.closed_deviation_before, tol_residual),
        "alice_marginal_after_matches_closed_form": (batch.closed_deviation_after, tol_residual),
        "lambda_before_matches_numeric": (np.abs(lam_before - closed_before), tol_residual),
        "lambda_after_matches_numeric": (np.abs(lam_after - closed_after), tol_residual),
        "machine_gram_consistency": (gram_dev, tol_assert),
        "entanglement_conserved": (conserved, tol_residual),
    }
    return ScenarioReport("conservation", echo_columns(grid), scalars, matrices, verdicts)


def _run_gram_equivalence(grid: ScenarioGrid) -> ScenarioReport:
    """The report of gram-equivalence points sharing one family shape, from
    one stack of round trips."""
    dim, size = grid.column("family.dimension")[0], grid.column("family.size")[0]
    target_dim = grid.column("family.target_dimension")[0] or dim
    rngs = map(np.random.default_rng, grid.column("seed"))
    normals = [cons.roundtrip_normals(dim, target_dim, size, rng) for rng in rngs]
    found = cons.roundtrips(dim, target_dim, size, normals)[2]

    scalars = {
        "gram_deviation": found.gram_deviation,
        "member_reconstruction_residual": found.member_residual,
        "isometry_residual": found.isometry_residual,
    }
    matrices = {"family_gram": found.family_gram}
    verdicts = {
        "families_share_gram_matrix": (found.gram_deviation, _tolerances(grid)[0]),
        "member_reconstruction": (found.member_residual, np.full(len(grid), 1e-8)),
        "isometry_columns_orthonormal": (found.isometry_residual, np.full(len(grid), 1e-10)),
    }
    return ScenarioReport("gram-equivalence", echo_columns(grid), scalars, matrices, verdicts)


# Points with equal values of their kind's keys are evaluated as one batch.  A
# text key such as machine.mode cannot be swept, so it never splits a batch.
_BATCHES = {
    "conservation": (_run_conservation, ("machine.ancilla_dim",)),
    "nosignal": (_run_nosignal, ("machine.ancilla_dim",)),
    "gram-equivalence": (
        _run_gram_equivalence, ("family.dimension", "family.target_dimension", "family.size")
    ),
}


def run_configs(grid: ScenarioGrid) -> list[tuple[ScenarioReport, Sequence[int]]]:
    """Each batch's stacked report with the grid indices of its rows, in
    ascending order, one batch per value of the kind's ``_BATCHES`` keys (one
    batch when no axis sweeps them).  When there is more than one point, a
    guard error names the failing point's index on the grid rather than its
    index in the batch."""
    runner, keys = _BATCHES[grid.kind]
    swept = [grid.swept[key] for key in keys if key in grid.swept]
    batches: dict[object, list[int]] = {}
    for i, value in enumerate(zip(*swept)):
        batches.setdefault(value, []).append(i)
    groups = list(batches.values()) or [range(len(grid))]
    parts = []
    for members in groups:
        with failures_named("grid point", members, len(grid)):
            parts.append((runner(grid if len(groups) == 1 else grid.take(members)), members))
    return parts
