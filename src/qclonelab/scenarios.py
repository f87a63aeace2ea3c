"""Scenario runners: configs in, one byte-stable stacked report out.

Each config kind has one runner that evaluates a batch of its configs through
the physics modules and fills the columns of a stacked
:class:`~qclonelab.report.ScenarioReport`: scalars, matrices and named
verdicts, one row per config.  ``run`` is a batch of one; ``sweep`` passes a
whole grid (see :func:`run_configs`).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from operator import itemgetter

import numpy as np

from . import conservation as cons
from . import nosignal as nosig
from .config import ScenarioConfig, echo_columns
from .core import failures_named
from .machines import haar_draw, haar_isometries, wishful_signatures
from .report import ScenarioReport, concatenate_rows
from .states import basis_amplitudes


def _bases(cfg: ScenarioConfig) -> np.ndarray:
    """Basis amplitudes of a nosignal config, in the layout
    ``nosignal.evaluate_batch`` stacks."""
    out = []
    for which in ("basis1", "basis2"):
        th_psi, ph_psi, th_alpha, ph_alpha = cfg.basis_angles(which)
        out.append([basis_amplitudes(th_psi, ph_psi), basis_amplitudes(th_alpha, ph_alpha)])
    return np.array(out)


def _column(cfgs: list[ScenarioConfig], key: str) -> list:
    return [cfg.values[key] for cfg in cfgs]


def _tolerances(cfgs: list[ScenarioConfig]) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array(_column(cfgs, f"tolerance.{t}")) for t in ("assert", "residual"))


def _run_nosignal(cfgs: list[ScenarioConfig]) -> ScenarioReport:
    """The report of nosignal configs sharing one machine mode,
    ``machine.ancilla_dim`` and ``tolerance.assert``, from a single batched
    evaluation."""
    first = cfgs[0].values
    ancilla_dim, isometries = first["machine.ancilla_dim"], None
    applied_as = "termwise in the measured basis (unphysical step)"
    bases = np.array([_bases(cfg) for cfg in cfgs])
    if first["machine.mode"] == "isometry":
        n_in, n_out = (sig.dim for sig in wishful_signatures(ancilla_dim))
        draws = [haar_draw(n_in, n_out, np.random.default_rng(s)) for s in _column(cfgs, "seed")]
        isometries = haar_isometries(np.stack(draws))
        applied_as = "fixed isometry (physical)"
    batch = nosig.evaluate_batch(bases, ancilla_dim, isometries, first["tolerance.assert"])

    tol_assert, tol_residual = _tolerances(cfgs)
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
    config = echo_columns(cfgs)
    config["machine.applied_as"] = applied_as
    return ScenarioReport("nosignal", config, scalars, matrices, verdicts)


def _overlaps(cfgs: list[ScenarioConfig], key: str) -> list[complex]:
    moduli = _column(cfgs, f"overlap.{key}")
    phases = _column(cfgs, f"overlap.{key}_phase")
    return [m * complex(math.cos(p), math.sin(p)) for m, p in zip(moduli, phases)]


def _max_abs(stack: np.ndarray) -> np.ndarray:
    return np.max(np.abs(stack), axis=(1, 2))


def _run_conservation(cfgs: list[ScenarioConfig]) -> ScenarioReport:
    """The report of conservation configs sharing one ``machine.ancilla_dim``,
    from a single batched evaluation."""
    a, b, c = (_overlaps(cfgs, key) for key in "abc")
    weights = _column(cfgs, "branch.weight")
    batch = cons.evaluate_batch(a, b, c, weights, cfgs[0].values["machine.ancilla_dim"])
    lam_before = batch.eigenvalues_before[:, 0]
    lam_after = batch.eigenvalues_after[:, 0]
    closed_before = np.array([cons.lambda_before(*p) for p in zip(a, b, weights)])
    closed_after = np.array([cons.lambda_after(*p) for p in zip(a, c, weights)])
    delta_entropy = batch.entropy_after - batch.entropy_before
    gram_dev = _max_abs(batch.input_gram - batch.output_gram)
    modulus_dev = _max_abs(np.abs(batch.input_gram) - np.abs(batch.output_gram))
    before_dev = _max_abs(batch.marginal_before - batch.closed_before)
    after_dev = _max_abs(batch.marginal_after - batch.closed_after)
    tol_assert, tol_residual = _tolerances(cfgs)

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
        "alice_marginal_before_matches_closed_form": (before_dev, tol_residual),
        "alice_marginal_after_matches_closed_form": (after_dev, tol_residual),
        "lambda_before_matches_numeric": (np.abs(lam_before - closed_before), tol_residual),
        "lambda_after_matches_numeric": (np.abs(lam_after - closed_after), tol_residual),
        "machine_gram_consistency": (gram_dev, tol_assert),
        "entanglement_conserved": (conserved, tol_residual),
    }
    return ScenarioReport("conservation", echo_columns(cfgs), scalars, matrices, verdicts)


def _run_gram_equivalence(cfgs: list[ScenarioConfig]) -> ScenarioReport:
    """The report of gram-equivalence configs sharing one family shape, from
    one stack of round trips."""
    first = cfgs[0].values
    dim, size = first["family.dimension"], first["family.size"]
    target_dim = first["family.target_dimension"] or dim
    rngs = map(np.random.default_rng, _column(cfgs, "seed"))
    draws = [cons.roundtrip_draws(dim, target_dim, size, rng) for rng in rngs]
    families, hidden = (np.stack(x) for x in zip(*draws))
    _, found = cons.roundtrips(families, hidden)

    scalars = {
        "gram_deviation": found.gram_deviation,
        "member_reconstruction_residual": found.member_residual,
        "isometry_residual": found.isometry_residual,
    }
    matrices = {"family_gram": found.family_gram}
    verdicts = {
        "families_share_gram_matrix": (found.gram_deviation, _tolerances(cfgs)[0]),
        "member_reconstruction": (found.member_residual, np.full(len(cfgs), 1e-8)),
        "isometry_columns_orthonormal": (found.isometry_residual, np.full(len(cfgs), 1e-10)),
    }
    return ScenarioReport("gram-equivalence", echo_columns(cfgs), scalars, matrices, verdicts)


# Configs with equal values of their kind's keys are evaluated as one batch.
_BATCHES = {
    "conservation": (_run_conservation, ("machine.ancilla_dim",)),
    "nosignal": (_run_nosignal, ("machine.mode", "machine.ancilla_dim", "tolerance.assert")),
    "gram-equivalence": (
        _run_gram_equivalence, ("family.dimension", "family.target_dimension", "family.size")
    ),
}


def run_configs(cfgs: list[ScenarioConfig]) -> ScenarioReport:
    """The stacked report of configs of one kind, row k for ``cfgs[k]``,
    evaluated one batch per value of the kind's ``_BATCHES`` keys.  When
    there is more than one config, a guard error names the failing config's
    index in ``cfgs`` (its grid point) rather than its index in the batch."""
    runner, keys = _BATCHES[cfgs[0].kind]
    batch_key = itemgetter(*keys)
    batches: dict[object, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        batches.setdefault(batch_key(cfg.values), []).append(i)
    parts = []
    for members in batches.values():
        with failures_named("grid point", members) if len(cfgs) > 1 else nullcontext():
            parts.append(runner([cfgs[i] for i in members]))
    if len(parts) == 1:
        return parts[0]
    return concatenate_rows(parts, np.argsort(np.concatenate(list(batches.values()))))


def run_config(cfg: ScenarioConfig) -> ScenarioReport:
    """The report of one config: a batch of one, with a single row."""
    return run_configs([cfg])
