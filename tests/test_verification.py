"""What ``verify`` certifies: its checks run the kernels the reports are
computed with, and the benchmark finds the functions and checks it times."""

import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

import qclonelab.core as core
import qclonelab.nosignal as nosig
import qclonelab.verification as verification

KERNELS = {
    "reduced_states": core.reduced_states,
    "trace_distances": core.trace_distances,
    "singlets": nosig._singlets,
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


def _load_child():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_benchmark_lookups_exist():
    # The micro-timings look each (layer, function) up by name among the
    # layer's public functions, and the tracer wraps every check in place.
    child = _load_child()
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
