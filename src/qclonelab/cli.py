"""Command-line front end: run one scenario, sweep a grid, or verify invariants.

Exit codes: 0 all verdicts pass, 1 scientific verdict failure, 2
configuration error.  The QCLONELAB_TOL environment variable supplies the
default assertion tolerance; explicit config keys and flags win.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import conservation as cons
from . import nosignal as nosig
from .config import (
    DEFAULT_SEED,
    ConfigError,
    ScenarioConfig,
    grid_points,
    load_config,
)
from .core import eig_hermitian, signature, trace_distance
from .machines import random_isometry
from .report import ScenarioReport, Verdict, render_csv
from .states import qubit_basis
from .verification import run_all_checks

ENV_TOLERANCE = "QCLONELAB_TOL"


def _density_validity_deviation(rho) -> float:
    herm = float(np.max(np.abs(rho.entries - rho.entries.conj().T)))
    trace = abs(complex(np.trace(rho.entries)) - 1.0)
    vals = eig_hermitian(rho).eigenvalues
    return max(herm, trace, max(0.0, -float(vals.min())), max(0.0, float(vals.max()) - 1.0))


def _run_nosignal(cfg: ScenarioConfig) -> ScenarioReport:
    tol_assert = float(cfg.get("tolerance.assert"))
    tol_residual = float(cfg.get("tolerance.residual"))
    ancilla_dim = int(cfg.get("machine.ancilla_dim"))
    th_p1, ph_p1, th_a1, ph_a1 = cfg.basis_angles("basis1")
    th_p2, ph_p2, th_a2, ph_a2 = cfg.basis_angles("basis2")
    scenario = nosig.build_scenario(
        (qubit_basis(th_p1, ph_p1), qubit_basis(th_a1, ph_a1)),
        (qubit_basis(th_p2, ph_p2), qubit_basis(th_a2, ph_a2)),
        ancilla_dim,
    )
    if cfg.get("machine.mode") == "isometry":
        rng = np.random.default_rng(int(cfg.get("seed")))
        machine = random_isometry(
            signature(("src", 2), ("reg", 2), ("env", ancilla_dim)),
            signature(("src", 2), ("copy", 2), ("env", ancilla_dim)),
            rng,
        )
        applied_as = "fixed isometry (physical)"
    else:
        machine = nosig.default_wishful_machine(scenario)
        applied_as = "termwise in the measured basis (unphysical step)"

    pre = nosig.bob_marginal_before(scenario)
    pre_dev = float(np.max(np.abs(pre.entries - np.eye(4) / 4.0)))
    marg1 = nosig.bob_marginal_after(scenario, machine, 1, tol_assert)
    marg2 = nosig.bob_marginal_after(scenario, machine, 2, tol_assert)
    magnitude = trace_distance(marg1, marg2)
    validity = max(_density_validity_deviation(marg1), _density_validity_deviation(marg2))

    scalars = {
        "signalling_magnitude": magnitude,
        "premachine_deviation_from_maximally_mixed": pre_dev,
        "bob_marginal_basis1_lambda_max": eig_hermitian(marg1).largest,
        "bob_marginal_basis2_lambda_max": eig_hermitian(marg2).largest,
    }
    matrices = {
        "bob_marginal_basis1": marg1.entries,
        "bob_marginal_basis2": marg2.entries,
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
    a = [_overlap(cfg, "a") for cfg in cfgs]
    b = [_overlap(cfg, "b") for cfg in cfgs]
    c = [_overlap(cfg, "c") for cfg in cfgs]
    weights = [float(cfg.get("branch.weight")) for cfg in cfgs]
    batch = cons.evaluate_batch(a, b, c, weights, int(cfgs[0].get("machine.ancilla_dim")))
    lam_before = batch.eigenvalues_before[:, 0]
    lam_after = batch.eigenvalues_after[:, 0]
    delta_lambda = (lam_after - lam_before).tolist()
    delta_entropy = (batch.entropy_after - batch.entropy_before).tolist()
    gram_dev = _max_abs(batch.input_gram - batch.output_gram)
    modulus_dev = _max_abs(np.abs(batch.input_gram) - np.abs(batch.output_gram))

    # Closed forms per point in Python scalar arithmetic: the reported
    # deviations are pinned to its rounding, which array arithmetic can miss
    # in the last bit.
    before_closed, after_closed = [], []
    for ak, bk, ck, w in zip(a, b, c, weights):
        pq = math.sqrt(w * (1.0 - w))
        before_closed.append([[w, pq * np.conj(ak * bk)], [pq * ak * bk, 1.0 - w]])
        after_closed.append([[w, pq * np.conj(ak * ak * ck)], [pq * ak * ak * ck, 1.0 - w]])
    before_dev = _max_abs(batch.marginal_before - np.array(before_closed, dtype=complex))
    after_dev = _max_abs(batch.marginal_after - np.array(after_closed, dtype=complex))

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
            Verdict(
                "entanglement_conserved",
                max(abs(delta_lambda[k]), abs(delta_entropy[k])),
                tol_residual,
            ),
        )
        reports.append(ScenarioReport("conservation", cfg.echo(), scalars, matrices, verdicts))
    return reports


def _run_gram_equivalence(cfg: ScenarioConfig) -> ScenarioReport:
    from .core import Ket
    from .states import StateFamily, gram

    tol_assert = float(cfg.get("tolerance.assert"))
    dim = int(cfg.get("family.dimension"))
    target_dim = int(cfg.get("family.target_dimension")) or dim
    size = int(cfg.get("family.size"))
    rng = np.random.default_rng(int(cfg.get("seed")))
    sig_f = signature(("x", dim))
    sig_g = signature(("y", target_dim))
    members = []
    for _ in range(size):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        members.append(Ket(sig_f, z / np.linalg.norm(z)))
    family = StateFamily(tuple(members))
    hide = random_isometry(sig_f, sig_g, rng)
    moved = StateFamily(tuple(Ket(sig_g, hide.matrix @ k.amplitudes) for k in members))

    recovered = cons.equivalence_unitary(family, moved)
    member_res = max(
        float(np.max(np.abs(recovered.matrix @ x.amplitudes - y.amplitudes)))
        for x, y in zip(family.members, moved.members)
    )
    iso_res = float(
        np.max(np.abs(recovered.matrix.conj().T @ recovered.matrix - np.eye(dim)))
    )
    gram_dev = float(np.max(np.abs(gram(family) - gram(moved))))

    scalars = {
        "gram_deviation": gram_dev,
        "member_reconstruction_residual": member_res,
        "isometry_residual": iso_res,
    }
    matrices = {"family_gram": gram(family)}
    verdicts = (
        Verdict("families_share_gram_matrix", gram_dev, tol_assert),
        Verdict("member_reconstruction", member_res, 1e-8),
        Verdict("isometry_columns_orthonormal", iso_res, 1e-10),
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_tolerance_overrides() -> dict[str, object]:
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return {}
    try:
        return {"tolerance.assert": float(raw)}
    except ValueError as exc:
        raise ConfigError(f"{ENV_TOLERANCE}={raw!r} is not a number") from exc


def _cmd_run(args) -> int:
    cfg = load_config(args.config, _env_tolerance_overrides())
    report = run_config(cfg)
    fmt = args.format or str(cfg.get("format"))
    _emit(report.render(fmt), args.out)
    return 0 if report.all_pass else 1


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, _env_tolerance_overrides())
    points = grid_points(cfg, args.grid)
    if args.workers > 1:
        # Contiguous chunks, one per worker, keep each worker's batches large.
        size = -(-len(points) // args.workers)
        chunks = [points[i:i + size] for i in range(0, len(points), size)]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            reports = [r for chunk in pool.map(run_configs, chunks) for r in chunk]
    else:
        reports = run_configs(points)
    if args.format == "json":
        text = "[\n" + ",\n".join(r.render("json").rstrip("\n") for r in reports) + "\n]\n"
    else:
        text = render_csv(reports)
    _emit(text, args.out)
    return 0 if all(r.all_pass for r in reports) else 1


def _cmd_verify(args) -> int:
    tolerance = args.tolerance
    if tolerance is None:
        env = os.environ.get(ENV_TOLERANCE)
        tolerance = float(env) if env is not None else None
    results = run_all_checks(seed=args.seed, tolerance=tolerance)
    lines = [r.line() for r in results]
    failed = sum(0 if r.passed else 1 for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclonelab",
        description="Cloning machines, signalling magnitudes, and entanglement deltas "
        "on labeled qubit registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config file")
    p_run.add_argument("config")
    p_run.add_argument("--format", choices=("table", "csv", "json"), default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid over a config file")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--grid", nargs="+", required=True, metavar="KEY=LO:HI:STEP",
        help="one or more sweep axes",
    )
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run every invariant check")
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
