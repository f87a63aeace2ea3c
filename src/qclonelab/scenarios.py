"""Scenario runners: configs in, byte-stable reports out.

Each config kind has one runner that evaluates its scenario through the
physics modules and assembles a :class:`~qclonelab.report.ScenarioReport`:
scalars, matrices and named verdicts.  ``run`` is a batch of one; ``sweep``
passes a whole grid, whose conservation points are evaluated as one batch
per ``machine.ancilla_dim``.
"""

from __future__ import annotations

import math

import numpy as np

from . import conservation as cons
from . import nosignal as nosig
from .config import ScenarioConfig
from .core import eig_hermitian, trace_distance
from .machines import random_isometry, wishful_signatures
from .report import ScenarioReport, Verdict
from .states import gram, qubit_basis


def _density_validity_deviation(rho, eigenvalues: np.ndarray) -> float:
    herm = float(np.max(np.abs(rho.entries - rho.entries.conj().T)))
    trace = abs(complex(np.trace(rho.entries)) - 1.0)
    return max(herm, trace, 0.0, -float(eigenvalues.min()), float(eigenvalues.max()) - 1.0)


def _bases(cfg: ScenarioConfig, which: str):
    th_psi, ph_psi, th_alpha, ph_alpha = cfg.basis_angles(which)
    return qubit_basis(th_psi, ph_psi), qubit_basis(th_alpha, ph_alpha)


def _run_nosignal(cfg: ScenarioConfig) -> ScenarioReport:
    tol_assert = float(cfg.get("tolerance.assert"))
    tol_residual = float(cfg.get("tolerance.residual"))
    ancilla_dim = int(cfg.get("machine.ancilla_dim"))
    scenario = nosig.build_scenario(_bases(cfg, "basis1"), _bases(cfg, "basis2"), ancilla_dim)
    if cfg.get("machine.mode") == "isometry":
        rng = np.random.default_rng(int(cfg.get("seed")))
        machine = random_isometry(*wishful_signatures(ancilla_dim), rng)
        applied_as = "fixed isometry (physical)"
    else:
        machine = nosig.default_wishful_machine(scenario)
        applied_as = "termwise in the measured basis (unphysical step)"

    marginals = [nosig.bob_marginal_after(scenario, machine, k, tol_assert) for k in (1, 2)]
    spectra = [eig_hermitian(m).eigenvalues for m in marginals]
    magnitude = trace_distance(*marginals)
    validity = max(_density_validity_deviation(m, v) for m, v in zip(marginals, spectra))
    pre_dev = scenario.premachine_deviation

    scalars = {
        "signalling_magnitude": magnitude,
        "premachine_deviation_from_maximally_mixed": pre_dev,
        "bob_marginal_basis1_lambda_max": float(spectra[0][0]),
        "bob_marginal_basis2_lambda_max": float(spectra[1][0]),
    }
    matrices = {
        "bob_marginal_basis1": marginals[0].entries,
        "bob_marginal_basis2": marginals[1].entries,
    }
    verdicts = (
        Verdict("premachine_bob_marginal_maximally_mixed", pre_dev, tol_residual),
        Verdict("bob_marginals_are_density_matrices", validity, tol_assert),
        Verdict("no_signalling", magnitude, tol_assert),
    )
    echoed = cfg.echo()
    echoed["machine.applied_as"] = applied_as
    return ScenarioReport("nosignal", echoed, scalars, matrices, verdicts)


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
    trip = cons.equivalence_roundtrip(dim, target_dim, size, rng)
    family_gram = gram(trip.family)
    gram_dev = float(np.max(np.abs(family_gram - gram(trip.moved))))

    scalars = {
        "gram_deviation": gram_dev,
        "member_reconstruction_residual": trip.member_residual,
        "isometry_residual": trip.isometry_residual,
    }
    matrices = {"family_gram": family_gram}
    verdicts = (
        Verdict("families_share_gram_matrix", gram_dev, tol_assert),
        Verdict("member_reconstruction", trip.member_residual, 1e-8),
        Verdict("isometry_columns_orthonormal", trip.isometry_residual, 1e-10),
    )
    return ScenarioReport("gram-equivalence", cfg.echo(), scalars, matrices, verdicts)


_RUNNERS = {
    "nosignal": _run_nosignal,
    "gram-equivalence": _run_gram_equivalence,
}


def run_configs(cfgs: list[ScenarioConfig]) -> list[ScenarioReport]:
    """Reports for the configs, in order.  Conservation configs are evaluated
    as one batch per ``machine.ancilla_dim``; other kinds one at a time."""
    reports: list[ScenarioReport | None] = [None] * len(cfgs)
    batches: dict[int, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        if cfg.kind == "conservation":
            batches.setdefault(int(cfg.get("machine.ancilla_dim")), []).append(i)
        else:
            reports[i] = _RUNNERS[cfg.kind](cfg)
    for members in batches.values():
        for i, report in zip(members, _run_conservation([cfgs[i] for i in members])):
            reports[i] = report
    return reports


def run_config(cfg: ScenarioConfig) -> ScenarioReport:
    return run_configs([cfg])[0]
