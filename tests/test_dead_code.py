"""No dead code in ``src/``: every function and method is reached by some
command, or is bound by name by the benchmark harness.

The commands run in a fresh interpreter under ``sys.setprofile`` (see
``reachability.py``).  The allowed entries are exactly what
``perfbench/child.py`` binds (the tracer wraps the four core records'
``__post_init__``, and the micro-timings index five functions through
``MICRO``), the helpers and value methods that only those bindings reach
(``SubsystemSignature``'s equality, hash and repr among them), and the
assignment guard of ``core.Record``, which no command trips; none may be
reached by a command.  All but the guard go once the harness binds the
stacked kernels instead.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import load_perfbench
from qclonelab import core

_POST_INIT = "child.py Tracer.install wraps its class's __post_init__ (child.py:132-135)"
_MICRO = "child.py run_micro indexes it by name through MICRO (child.py:199-212 and 259-262)"

ALLOWED = {
    "core.SubsystemSignature.__post_init__": _POST_INIT,
    "core.Ket.__post_init__": _POST_INIT,
    "core.DensityMatrix.__post_init__": _POST_INIT,
    "core.Spectrum.__post_init__": _POST_INIT,
    "core.eig_hermitian": _MICRO,
    "core.partial_trace": _MICRO,
    "core.trace_distance": _MICRO,
    "machines.extend_to_isometry": _MICRO,
    "machines.apply_termwise": _MICRO,
    "core.SubsystemSignature.axis_of": "method of a kept class; partial_trace looks factors up "
                                       "with it",
    "core.SubsystemSignature.keep": "method of a kept class; partial_trace's kept factors",
    "core._frozen": "helper of Ket, DensityMatrix and Spectrum, which freeze their arrays with it",
    "core.SubsystemSignature.__eq__": "method of a kept class; trace_distance compares its "
                                      "operands' signatures with it",
    "core.SubsystemSignature.__hash__": "method of a kept class; TestSignatureFields pins it",
    "core.SubsystemSignature.__repr__": "method of a kept class; TestSignatureFields pins it",
    "core.Record.__setattr__": "the records' immutability guard; no command assigns to a field",
}


def test_allowed_entries_are_what_the_benchmark_binds():
    # Every (layer, function) of MICRO is one the harness finds among the
    # layer's public functions, every traced core record has its own
    # __post_init__, and those bindings are exactly the harness's entries
    # of ALLOWED: a deletion that would break a traced benchmark run fails here.
    child = load_perfbench("child")
    micro = {(layer, function) for _, layer, function, _, _ in child.MICRO}
    for layer, function in micro:
        assert function in dict(child.public_functions(layer)), (layer, function)
    for name in child.CORE_OBJECTS:
        assert "__post_init__" in vars(getattr(core, name)), name
    bound = {f"{layer}.{function}" for layer, function in micro}
    bound |= {f"core.{name}.__post_init__" for name in child.CORE_OBJECTS}
    assert {entry for entry, why in ALLOWED.items() if why in (_POST_INIT, _MICRO)} == bound


def test_every_function_is_reached_or_bound_by_the_benchmark(tmp_path):
    script = Path(__file__).with_name("reachability.py")
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    found = json.loads(done.stdout)
    codes = found["exit_codes"]
    assert set(codes["reporting"]) <= {0, 1} and set(codes["failing"]) == {2}
    unreached = set(found["functions"]) - set(found["reached"])
    assert sorted(unreached - set(ALLOWED)) == [], "functions no command reaches"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed entries that are reached or gone"
