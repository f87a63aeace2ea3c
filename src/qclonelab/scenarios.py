"""Scenario runners: configs in, byte-stable reports out.

Each config kind has one runner that evaluates its scenario through the
physics modules and assembles a :class:`~qclonelab.report.ScenarioReport`:
scalars, matrices and named verdicts.  ``run`` is a batch of one; ``sweep``
passes a whole grid, whose conservation and nosignal points are evaluated
as stacked batches (see :func:`run_configs`).
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from . import conservation as cons
from . import nosignal as nosig
from .config import ScenarioConfig
from .core import failures_named
from .machines import haar_draw, haar_isometries, wishful_signatures
from .report import ScenarioReport, Verdict
from .states import basis_amplitudes


def _bases(cfg: ScenarioConfig) -> np.ndarray:
    """Basis amplitudes of a nosignal config, in the layout
    ``nosignal.evaluate_batch`` stacks."""
    out = []
    for which in ("basis1", "basis2"):
        th_psi, ph_psi, th_alpha, ph_alpha = cfg.basis_angles(which)
        out.append([basis_amplitudes(th_psi, ph_psi), basis_amplitudes(th_alpha, ph_alpha)])
    return np.array(out)


def _run_nosignal(cfgs: list[ScenarioConfig]) -> list[ScenarioReport]:
    """Reports for nosignal configs sharing one machine mode,
    ``machine.ancilla_dim`` and ``tolerance.assert``, from a single batched
    evaluation."""
    tol_assert = float(cfgs[0].get("tolerance.assert"))
    ancilla_dim = int(cfgs[0].get("machine.ancilla_dim"))
    bases = np.array([_bases(cfg) for cfg in cfgs])
    if cfgs[0].get("machine.mode") == "isometry":
        n_in, n_out = (sig.dim for sig in wishful_signatures(ancilla_dim))
        draws = [
            haar_draw(n_in, n_out, np.random.default_rng(int(cfg.get("seed")))) for cfg in cfgs
        ]
        isometries = haar_isometries(np.stack(draws))
        batch = nosig.evaluate_batch(bases, ancilla_dim, isometries=isometries, tol=tol_assert)
        applied_as = "fixed isometry (physical)"
    else:
        batch = nosig.evaluate_batch(bases, ancilla_dim, tol=tol_assert)
        applied_as = "termwise in the measured basis (unphysical step)"

    magnitude = batch.signalling_magnitude.tolist()
    pre_dev = batch.premachine_deviation.tolist()
    validity = batch.validity_deviation.tolist()
    lam_max = batch.eigenvalues_after[:, :, 0].tolist()
    reports = []
    for k, cfg in enumerate(cfgs):
        tol_residual = float(cfg.get("tolerance.residual"))
        scalars = {
            "signalling_magnitude": magnitude[k],
            "premachine_deviation_from_maximally_mixed": pre_dev[k],
            "bob_marginal_basis1_lambda_max": lam_max[k][0],
            "bob_marginal_basis2_lambda_max": lam_max[k][1],
        }
        matrices = {
            "bob_marginal_basis1": batch.marginal_after[k, 0],
            "bob_marginal_basis2": batch.marginal_after[k, 1],
        }
        verdicts = (
            Verdict("premachine_bob_marginal_maximally_mixed", pre_dev[k], tol_residual),
            Verdict("bob_marginals_are_density_matrices", validity[k], tol_assert),
            Verdict("no_signalling", magnitude[k], tol_assert),
        )
        echoed = cfg.echo()
        echoed["machine.applied_as"] = applied_as
        reports.append(ScenarioReport("nosignal", echoed, scalars, matrices, verdicts))
    return reports


def _overlap(cfg: ScenarioConfig, key: str) -> complex:
    modulus = float(cfg.get(f"overlap.{key}"))
    phase = float(cfg.get(f"overlap.{key}_phase"))
    return modulus * complex(math.cos(phase), math.sin(phase))


def _max_abs(stack: np.ndarray) -> list[float]:
    return np.max(np.abs(stack), axis=(1, 2)).tolist()


def _run_conservation(cfgs: list[ScenarioConfig]) -> list[ScenarioReport]:
    """Reports for conservation configs sharing one ``machine.ancilla_dim``,
    from a single batched evaluation."""
    a, b, c = ([_overlap(cfg, key) for cfg in cfgs] for key in "abc")
    weights = [float(cfg.get("branch.weight")) for cfg in cfgs]
    batch = cons.evaluate_batch(a, b, c, weights, int(cfgs[0].get("machine.ancilla_dim")))
    lam_before = batch.eigenvalues_before[:, 0]
    lam_after = batch.eigenvalues_after[:, 0]
    delta_lambda = (lam_after - lam_before).tolist()
    delta_entropy = batch.entropy_after - batch.entropy_before
    conserved = np.maximum(np.abs(lam_after - lam_before), np.abs(delta_entropy)).tolist()
    delta_entropy = delta_entropy.tolist()
    gram_dev = _max_abs(batch.input_gram - batch.output_gram)
    modulus_dev = _max_abs(np.abs(batch.input_gram) - np.abs(batch.output_gram))
    before_dev = _max_abs(batch.marginal_before - batch.closed_before)
    after_dev = _max_abs(batch.marginal_after - batch.closed_after)

    reports = []
    for k, cfg in enumerate(cfgs):
        tol_assert = float(cfg.get("tolerance.assert"))
        tol_residual = float(cfg.get("tolerance.residual"))
        lam_b, lam_a = float(lam_before[k]), float(lam_after[k])
        lam_b_closed = cons.lambda_before(a[k], b[k], weights[k])
        lam_a_closed = cons.lambda_after(a[k], c[k], weights[k])
        scalars = {
            "lambda_before_numeric": lam_b,
            "lambda_before_closed": lam_b_closed,
            "lambda_after_numeric": lam_a,
            "lambda_after_closed": lam_a_closed,
            "delta_lambda": delta_lambda[k],
            "delta_entropy": delta_entropy[k],
            "gram_deviation_phase_sensitive": gram_dev[k],
            "gram_deviation_modulus_only": modulus_dev[k],
        }
        matrices = {
            "alice_marginal_before": batch.marginal_before[k],
            "alice_marginal_after": batch.marginal_after[k],
            "machine_input_gram": batch.input_gram[k],
            "machine_output_gram": batch.output_gram[k],
        }
        verdicts = (
            Verdict("alice_marginal_before_matches_closed_form", before_dev[k], tol_residual),
            Verdict("alice_marginal_after_matches_closed_form", after_dev[k], tol_residual),
            Verdict("lambda_before_matches_numeric", abs(lam_b - lam_b_closed), tol_residual),
            Verdict("lambda_after_matches_numeric", abs(lam_a - lam_a_closed), tol_residual),
            Verdict("machine_gram_consistency", gram_dev[k], tol_assert),
            Verdict("entanglement_conserved", conserved[k], tol_residual),
        )
        reports.append(ScenarioReport("conservation", cfg.echo(), scalars, matrices, verdicts))
    return reports


def _run_gram_equivalence(cfg: ScenarioConfig) -> ScenarioReport:
    tol_assert = float(cfg.get("tolerance.assert"))
    dim, size = int(cfg.get("family.dimension")), int(cfg.get("family.size"))
    target_dim = int(cfg.get("family.target_dimension")) or dim
    rng = np.random.default_rng(int(cfg.get("seed")))
    family, draw = cons.roundtrip_draws(dim, target_dim, size, rng)
    _, found = cons.roundtrips(family[None], draw[None])
    gram_dev, member, isometry = (
        float(x[0]) for x in (found.gram_deviation, found.member_residual, found.isometry_residual)
    )

    scalars = {
        "gram_deviation": gram_dev,
        "member_reconstruction_residual": member,
        "isometry_residual": isometry,
    }
    matrices = {"family_gram": found.family_gram[0]}
    verdicts = (
        Verdict("families_share_gram_matrix", gram_dev, tol_assert),
        Verdict("member_reconstruction", member, 1e-8),
        Verdict("isometry_columns_orthonormal", isometry, 1e-10),
    )
    return ScenarioReport("gram-equivalence", cfg.echo(), scalars, matrices, verdicts)


def _batch_key(cfg: ScenarioConfig):
    """Configs with equal keys are evaluated as one batch."""
    if cfg.kind == "conservation":
        return cfg.kind, int(cfg.get("machine.ancilla_dim"))
    if cfg.kind == "nosignal":
        return (
            cfg.kind, str(cfg.get("machine.mode")), int(cfg.get("machine.ancilla_dim")),
            float(cfg.get("tolerance.assert")),
        )
    return None


_BATCH_RUNNERS = {"conservation": _run_conservation, "nosignal": _run_nosignal}


def run_configs(cfgs: list[ScenarioConfig]) -> list[ScenarioReport]:
    """Reports for the configs, in order.  Conservation configs are evaluated
    as one batch per ``machine.ancilla_dim``, nosignal configs as one batch
    per machine mode, ``machine.ancilla_dim`` and ``tolerance.assert``;
    gram-equivalence configs one at a time.  When there is more than one
    config, a guard error names the failing config's index in ``cfgs`` (its
    grid point) rather than its index within the batch."""
    reports: list[ScenarioReport | None] = [None] * len(cfgs)
    batches: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        key = _batch_key(cfg)
        if key is None:
            with _grid_points([i], len(cfgs)):
                reports[i] = _run_gram_equivalence(cfg)
        else:
            batches.setdefault(key, []).append(i)
    for key, members in batches.items():
        with _grid_points(members, len(cfgs)):
            group = _BATCH_RUNNERS[key[0]]([cfgs[i] for i in members])
        for i, report in zip(members, group):
            reports[i] = report
    return reports


def _grid_points(members: list[int], n_points: int):
    """Guard errors of a batch of the configs ``members`` name the failing
    grid point, unless the sweep has one point."""
    return failures_named("grid point", members) if n_points > 1 else nullcontext()


def run_config(cfg: ScenarioConfig) -> ScenarioReport:
    return run_configs([cfg])[0]
