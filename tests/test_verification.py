"""What ``verify`` certifies: its checks run the kernels the reports are
computed with, and the benchmark finds the functions and checks it times."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qclonelab.conservation as cons
import qclonelab.core as core
import qclonelab.machines as machines
import qclonelab.nosignal as nosig
import qclonelab.verification as verification
from conftest import load_perfbench
from oracles import isometric_scenario_draws, roundtrip_trial

KERNELS = {
    "reduced_states": core.reduced_states,
    "trace_distances": core.trace_distances,
    "singlets": nosig._singlets,
    "isometry_matrix_from_pairs": machines.isometry_matrix_from_pairs,
}


def _rebind_counting(monkeypatch, name, fn, counts, current):
    """Point every package-level binding of ``fn`` at a wrapper that counts
    its calls per running check."""

    def counted(*args, **kwargs):
        counts[current[0], name] += 1
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("qclonelab"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, counted)


def _cold_caches():
    """Forget what every cached helper of the checks holds, so that the next
    run computes it again."""
    for value in vars(verification).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of each shared kernel made by each check of one ``verify`` run."""
    counts, current = Counter(), [None]
    for name, fn in KERNELS.items():
        _rebind_counting(monkeypatch, name, fn, counts, current)

    def labelled(check, fn):
        def run(seed):
            current[0] = check
            return fn(seed)
        return run

    checks = tuple((check, labelled(check, fn)) for check, fn in verification._CHECKS)
    monkeypatch.setattr(verification, "_CHECKS", checks)
    _cold_caches()  # a cold run: no check reads a batch an earlier test cached
    verification.run_all_checks(seed=7)
    return counts


def test_verify_reaches_the_kernels(kernel_calls):
    names = [name for name, _ in verification._CHECKS]
    reached = {
        "tensor_core.partial_trace_": "reduced_states",
        "tensor_core.trace_distance_": "trace_distances",
        "states.singlet_": "singlets",
    }
    for prefix, kernel in reached.items():
        checks = [name for name in names if name.startswith(prefix)]
        assert checks, prefix
        for check in checks:
            assert kernel_calls[check, kernel] > 0, (check, kernel)
    for check, kernel in (
        ("states.singlet_marginal_maximally_mixed", "reduced_states"),
        ("nosignal.premachine_bob_marginal", "reduced_states"),
        ("nosignal.isometric_machine_zero_signalling", "trace_distances"),
        ("conservation.isometric_machine_preserves_alice_marginal", "reduced_states"),
    ):
        assert kernel_calls[check, kernel] > 0, (check, kernel)


def test_verify_runs_each_shared_batch_once(monkeypatch):
    # The four conservation checks read one batch over the cube and the
    # consistency surface, and the wishful signalling and sign-reading checks
    # read one termwise batch, whose wishful rules are built once for the
    # batch and its sign-reading oracle; the isometric check runs its own.
    calls = Counter()
    real_cons, real_nosig = cons.evaluate_batch, nosig.evaluate_batch
    real_rules = nosig.wishful_machine_rules

    def cons_batch(*args, **kwargs):
        calls["conservation"] += 1
        return real_cons(*args, **kwargs)

    def nosig_batch(bases, machine):
        calls["isometric" if isinstance(machine, np.ndarray) else "termwise"] += 1
        return real_nosig(bases, machine)

    def rules(*args, **kwargs):
        calls["wishful rules"] += 1
        return real_rules(*args, **kwargs)

    monkeypatch.setattr(cons, "evaluate_batch", cons_batch)
    monkeypatch.setattr(nosig, "evaluate_batch", nosig_batch)
    monkeypatch.setattr(nosig, "wishful_machine_rules", rules)
    _cold_caches()
    verification.run_all_checks(seed=7)
    assert calls == {"conservation": 1, "termwise": 1, "isometric": 1, "wishful rules": 1}


@pytest.mark.parametrize("seed", [3, 7])
def test_verdicts_do_not_depend_on_the_check_order(monkeypatch, seed):
    # Whichever check of a shared batch runs first computes it.
    _cold_caches()
    forward = verification.run_all_checks(seed=seed)
    monkeypatch.setattr(verification, "_CHECKS", verification._CHECKS[::-1])
    _cold_caches()
    assert verification.run_all_checks(seed=seed)[::-1] == forward


@pytest.mark.parametrize("seed", [3, 7])
def test_stacked_draws_follow_the_per_trial_order(monkeypatch, seed):
    # The isometric scenarios: each trial's angles, then its Gaussian matrix.
    bases, isometries = verification._random_isometric_scenarios(verification._rng(seed, 20), 100)
    angles, draws = isometric_scenario_draws(verification._rng(seed, 20), 100)
    assert bases.tobytes() == nosig.scenario_bases(angles.reshape(100, 2, 2, 2)).tobytes()
    # Each isometry is the Q factor of its Gaussian matrix, with R's diagonal
    # phases moved into it.
    q, r = np.linalg.qr(draws)
    d = np.diagonal(r, axis1=1, axis2=2)
    assert isometries.tobytes() == (q * (d.conj() / np.abs(d))[:, None, :]).tobytes()
    # The round trips: trial t has dimension 2 + t % 7 and size 1 + t % 4,
    # so shape k of the 28, in order of first trial, holds trials k, k + 28, ...
    stacks, real = [], cons.roundtrips

    def recorded(dim, target_dim, size, normals):
        families, moved, found = real(dim, target_dim, size, normals)
        # The hidden matrix's normals follow the family's: real parts, then imaginary.
        z = np.asarray(normals)[:, 2 * dim * size:].reshape(-1, 2, target_dim, dim)
        stacks.append((families, z[:, 0] + 1j * z[:, 1]))
        return families, moved, found

    monkeypatch.setattr(cons, "roundtrips", recorded)
    verification._roundtrip_batch.__wrapped__(seed)
    rng = verification._rng(seed, 25)
    trials = [roundtrip_trial(2 + t % 7, 2 + t % 7, 1 + t % 4, rng) for t in range(100)]
    assert len(stacks) == 28
    for k, (families, hidden) in enumerate(stacks):
        expected = [trials[t] for t in range(k, 100, 28)]
        assert families.tobytes() == np.array([f for f, _ in expected]).tobytes()
        assert hidden.tobytes() == np.array([h for _, h in expected]).tobytes()


def test_benchmark_lookups_exist():
    # The tracer imports every layer by name and wraps the core objects'
    # __post_init__ and every check in place; the micro-timings look each
    # (layer, function) up by name among the layer's public functions.
    child = load_perfbench("child")
    for layer in child.LAYERS:
        importlib.import_module(f"qclonelab.{layer}")
    for name in child.CORE_OBJECTS:
        assert callable(getattr(getattr(core, name), "__post_init__", None)), name
    for _, layer, function, _, _ in child.MICRO:
        public = dict(child.public_functions(layer))
        assert function in public, (layer, function)
        assert inspect.isfunction(public[function])
    checks = verification._CHECKS
    assert isinstance(checks, tuple) and len(checks) == 31
    assert all(
        isinstance(c, tuple) and len(c) == 2 and isinstance(c[0], str) and callable(c[1])
        for c in checks
    )


def _run_child(*args) -> dict:
    """One benchmark child on this source tree, single-threaded as the
    harness runs it; its exit code must be 0 and its last line JSON."""
    root = Path(__file__).resolve().parents[1]
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {k: v for k, v in os.environ.items() if k != "QCLONELAB_TOL"}
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(root / "src"), *args],
        capture_output=True, text=True, timeout=300, env={**env, **threads}, cwd=root,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_child_runs(tmp_path):
    # The harness's two child modes on this tree: a traced verify pass, and
    # the micro-timings captured from runs of the three workload configs.
    found = _run_child(
        "pass", "--spans", str(tmp_path / "spans.npz"), "--",
        "verify", "--seed", "7", "--out", str(tmp_path / "verify.txt"),
    )
    assert found["rc"] == 0 and "error" not in found
    assert (tmp_path / "spans.npz").exists()
    workloads = load_perfbench("workloads")
    configs = []
    for name in ("conservation", "wishful", "isometry"):
        path = tmp_path / f"{name}.cfg"
        path.write_text(getattr(workloads, f"{name}_config")(7))
        configs.append(str(path))
    found = _run_child("micro", *configs, "7", str(tmp_path / "micro.txt"))
    assert isinstance(found["micro_us"], dict)


def test_isometry_checks_are_stacked(kernel_calls):
    # One stacked extension per check, and one per (dimension, size) shape
    # of the 100 Gram-equivalence round trips: 28 shapes.
    per_check = {
        check: n for (check, kernel), n in kernel_calls.items()
        if kernel == "isometry_matrix_from_pairs"
    }
    assert per_check == {
        "machines.isometry_extension_reproduces_pairs": 1,
        "machines.termwise_matches_linear_extension": 1,
        "conservation.isometric_machine_preserves_alice_marginal": 1,
        "conservation.equivalence_unitary_member_residual": 28,
    }
    assert sum(per_check.values()) <= 32


def test_no_per_object_machine_calls():
    # The checks run the stacked kernels on plain arrays; the labeled
    # records and their batches of one are left only for the benchmark.
    tree = ast.parse(Path(verification.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    per_object = {
        "extend_to_isometry", "apply_termwise", "partial_trace", "eig_hermitian",
        "trace_distance", "MachineSpec", "StateFamily", "Ket", "SubsystemSignature",
        "DensityMatrix", "Spectrum",
    }
    assert not names & per_object


def test_round_trip_guard_names_the_trial(monkeypatch):
    # Trials cycle through dimensions 2..8 and sizes 1..4, so trials 1, 29,
    # 57 and 85 share a shape; a failure in the second of them names trial 29.
    real = cons.extend_to_isometries

    def unnormalized_second(families, moved):
        if families.shape[1:] == (2, 3):
            families = families.copy()
            families[1, 0] *= 1.01
        return real(families, moved)

    monkeypatch.setattr(cons, "extend_to_isometries", unnormalized_second)
    with pytest.raises(ValueError, match="not normalized at trial 29$"):
        verification._roundtrip_batch.__wrapped__(7)


class TestFailuresNamed:
    def _raised(self, exc, label, rows, size=100):
        with pytest.raises(type(exc)) as caught:
            with core.failures_named(label, rows, size):
                raise exc
        return caught.value

    def _chunk_raised(self, exc, chunk, points):
        # A chunked kernel names the batch index of a chunk's entry, and a
        # sweep renames it to the grid point.
        with pytest.raises(type(exc)) as caught:
            with core.failures_named("grid point", points, len(points)):
                with core.failures_named("batch index", chunk, len(points)):
                    raise exc
        return caught.value

    def test_batch_index_and_chunk(self):
        exc = ValueError("bad at batch index 2")
        renamed = self._chunk_raised(exc, range(16, 20), list(range(100, 120)))
        assert type(renamed) is ValueError and renamed.__cause__.__cause__ is exc
        assert str(renamed) == "bad at grid point 118"

    def test_chunk_of_one_point(self):
        renamed = self._chunk_raised(ValueError("bad"), range(16, 17), list(range(20)))
        assert str(renamed) == "bad at grid point 16"

    def test_batch_of_one(self):
        exc = ArithmeticError("bad")
        assert str(self._raised(exc, "trial", [7])) == "bad at trial 7"

    def test_unnamed_entry_of_a_larger_batch(self):
        exc = ValueError("lengths differ")
        assert self._raised(exc, "trial", [1, 2]) is exc

    @pytest.mark.parametrize("message", ["bad", "bad at batch index 0"])
    def test_enclosing_batch_of_one_passes_the_error(self, message):
        # A run of one point has no point to name: its error stays as raised.
        exc = ValueError(message)
        assert self._raised(exc, "grid point", [0], size=1) is exc

    def test_keeps_the_error_type_and_fields(self):
        # InconsistentGram's __init__ takes the Gram matrices, not a message.
        g_in, g_out = np.eye(2), np.eye(2)
        exc = machines.InconsistentGram(g_in, g_out, 0.5, " at batch index 1")
        renamed = self._raised(exc, "trial", [3, 4])
        assert isinstance(renamed, machines.InconsistentGram)
        assert renamed.input_gram is g_in and renamed.output_gram is g_out
        assert renamed.max_deviation == 0.5
        assert str(renamed) == (
            "input/output Gram matrices differ by 0.5; "
            "no isometry can realize these pairs at trial 4"
        )
