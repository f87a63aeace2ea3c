"""No dead code in ``src/``: every function and method is reached by some
command, or is bound by name by the benchmark harness.

The commands run in a fresh interpreter under ``sys.setprofile`` (see
``reachability.py``).  The allowed entries are exactly what
``perfbench/child.py`` binds and the helpers those need; each goes with the
harness's own bindings, and none may be reached by a command.
"""

import json
import subprocess
import sys
from pathlib import Path

_POST_INIT = "child.py Tracer.install wraps its class's __post_init__ (child.py:133-135)"
_MICRO = "child.py run_micro indexes it by name through MICRO (child.py:199 and 261)"

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
    "core.SubsystemSignature.axis_of": "method of a kept class; partial_trace and "
                                       "_split_spectators look factors up with it",
    "core.SubsystemSignature.concat": "method of a kept class; _result_signature joins with it",
    "core.SubsystemSignature.keep": "method of a kept class; partial_trace's kept factors",
    "core.Ket.norm": "method of a kept class; require_normalized reads it",
    "core.Ket.require_normalized": "method of a kept class; MachineSpec and StateFamily check "
                                   "their kets with it",
    "core.Ket.as_tensor": "method of a kept class; _split_spectators reorders with it",
    "core._frozen": "helper of Ket and Spectrum, which freeze their arrays with it",
    "machines.MachineSpec.__post_init__": "helper: extend_to_isometry and apply_termwise take "
                                          "a MachineSpec",
    "machines._split_spectators": "helper of apply_termwise",
    "machines._result_signature": "helper of apply_termwise",
    "states.StateFamily.__post_init__": "helper: apply_termwise takes its expansion as a "
                                        "StateFamily",
    "states.StateFamily.signature": "method of a kept class; apply_termwise reads it",
    "states.StateFamily.__len__": "method of a kept class; apply_termwise reads it",
}


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
