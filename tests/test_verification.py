"""What ``verify`` certifies: its checks run the kernels the reports are
computed with, and the benchmark finds the functions and checks it times."""

import ast
import importlib
import importlib.util
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
    verification._check_equivalence_roundtrip.cache_clear()  # a cold run
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


def _load_perfbench(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_lookups_exist():
    # The tracer imports every layer by name and wraps the core objects'
    # __post_init__ and every check in place; the micro-timings look each
    # (layer, function) up by name among the layer's public functions.
    child = _load_perfbench("child")
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
    workloads = _load_perfbench("workloads")
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
    real = cons.roundtrips

    def unnormalized_second(families, draws):
        if families.shape[1:] == (2, 3):
            families = families.copy()
            families[1, 0] *= 1.01
        return real(families, draws)

    monkeypatch.setattr(cons, "roundtrips", unnormalized_second)
    with pytest.raises(ValueError, match="not normalized at trial 29$"):
        verification._check_equivalence_roundtrip.__wrapped__(7)


class TestFailuresNamed:
    def _raised(self, exc, label, indices):
        with pytest.raises(type(exc)) as caught:
            with core.failures_named(label, indices):
                raise exc
        return caught.value

    def _chunk_raised(self, exc, chunk, points):
        # A chunked kernel names the batch index of a chunk's entry, and a
        # sweep renames it to the grid point.
        with pytest.raises(type(exc)) as caught:
            with core.failures_named("grid point", points):
                with core.failures_named("batch index", chunk):
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
