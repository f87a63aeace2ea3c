"""Every parsable config ends in a report or in one line.

Configs of all three kinds are drawn with each key inside its checked range,
edges included, at small sizes, and run in process through ``cli.main``.  A
run exits 0 or 1 with a report and no stderr, or 2 or 3 with exactly one
stderr line and an empty stdout; never a traceback.  A one-point ``sweep``
over the config's own seed gives the bytes, stderr and exit code that
``run --format csv`` gives.  Swapped wishful bases are refused with
exit 2, whatever their angles.
"""

import contextlib
import functools
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qclonelab import cli
from qclonelab.config import DEFAULT_SEED

_PI = math.pi
# Edges of a range, and values a float barely tells from them.
_UNIT = st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 1e-16, 1e-20, 0.5]), st.floats(0.0, 1.0))
_THETA = st.one_of(st.sampled_from([0.0, _PI, 1e-20, _PI / 2]), st.floats(0.0, _PI))
_PHI = st.one_of(
    st.sampled_from([0.0, 1e-20, math.nextafter(2.0 * _PI, 0.0)]),
    st.floats(0.0, 2.0 * _PI, exclude_max=True),
)
_PHASE = st.one_of(st.sampled_from([0.0, 1e300, -1e300, _PI, -_PI]), st.floats(-10.0, 10.0))
_TOLERANCE = st.sampled_from([1e-300, 1e-13, 0.5, 1e300])
_SEED = st.one_of(st.sampled_from([0, 7, 2**32, 2**64]), st.integers(0, 2**16))


def _optional(keys: dict) -> st.SearchStrategy[dict]:
    """A subset of ``keys``, each drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=keys)


def _basis(which: str) -> st.SearchStrategy[dict]:
    """Some keys of one basis: of its shorthand, or of its psi/alpha parts."""
    shorthand = {f"{which}.theta": _THETA, f"{which}.phi": _PHI}
    parts = {f"{which}.{part}.{angle}": _THETA if angle == "theta" else _PHI
             for part in ("psi", "alpha") for angle in ("theta", "phi")}
    return st.one_of(_optional(shorthand), _optional(parts))


_COMMON = {
    "seed": _SEED,
    "tolerance.assert": _TOLERANCE,
    "tolerance.residual": _TOLERANCE,
    "format": st.sampled_from(["table", "csv", "json"]),
}

_KINDS = {
    "nosignal": st.tuples(
        _optional({**_COMMON, "machine.mode": st.sampled_from(["termwise", "isometry"]),
                   "machine.ancilla_dim": st.integers(2, 6)}),
        _basis("basis1"),
        _basis("basis2"),
    ),
    "conservation": st.tuples(
        st.fixed_dictionaries({f"overlap.{z}": _UNIT for z in "abc"}),
        _optional({**_COMMON, **{f"overlap.{z}_phase": _PHASE for z in "abc"},
                   "machine.ancilla_dim": st.integers(2, 6), "branch.weight": _UNIT}),
    ),
    "gram-equivalence": st.tuples(
        _optional({**_COMMON, "family.dimension": st.integers(2, 9),
                   "family.size": st.integers(1, 9),
                   "family.target_dimension": st.sampled_from([0, 2, 5, 9])}),
    ),
}


def _merged(kind: str, dicts: tuple) -> dict:
    return {"kind": kind, **{key: value for d in dicts for key, value in d.items()}}


_CONFIGS = st.one_of(*(parts.map(functools.partial(_merged, kind))
                       for kind, parts in _KINDS.items()))


def _text(config: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_report_or_one_line(code: int, out: str, err: str) -> None:
    assert "Traceback" not in err
    if code in (0, 1):
        assert out and err == ""
    else:
        assert code in (2, 3), (code, err)
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err


@settings(max_examples=80, deadline=None)
@given(config=_CONFIGS)
def test_every_parsable_config_ends_in_a_report_or_one_line(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text(_text(config))
        _assert_report_or_one_line(*_outcome(["run", str(path)]))
        run = _outcome(["run", str(path), "--format", "csv"])
        _assert_report_or_one_line(*run)
        seed = config.get("seed", DEFAULT_SEED)
        assert _outcome(["sweep", str(path), "--grid", f"seed={seed}:{seed}:1"]) == run


@settings(max_examples=30, deadline=None)
@given(theta=_THETA, phi=_PHI, ancilla_dim=st.integers(2, 6))
def test_swapped_wishful_bases_exit_2(theta, phi, ancilla_dim):
    # Basis 2 is basis 1 with psi and alpha swapped, (pi - theta, phi + pi):
    # the termwise cloner's rules take one product state, up to phase, to
    # different clones.  That is a correct refusal, not a defect.
    config = {"kind": "nosignal", "machine.ancilla_dim": ancilla_dim,
              "basis1.theta": theta, "basis1.phi": phi,
              "basis2.theta": _PI - theta, "basis2.phi": (phi + _PI) % (2.0 * _PI)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text(_text(config))
        code, out, err = _outcome(["run", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("rejected input: ConflictingRules:") and err.count("\n") == 1
