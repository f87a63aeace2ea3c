"""One benchmark pass in a fresh interpreter.

    python3 child.py SRC import
    python3 child.py SRC pass [--spans FILE] -- CLI-ARGS...
    python3 child.py SRC micro CONSERVATION.cfg WISHFUL.cfg ISOMETRY.cfg SEED OUT

``SRC`` is the source directory holding the ``qclonelab`` package.  Each mode
times ``import qclonelab.cli`` and prints one JSON object on stdout:

* ``import`` stops there;
* ``pass`` runs ``qclonelab.cli.main(CLI-ARGS)`` once and reports its wall
  time, exit code and ``ru_maxrss``; with ``--spans`` it first wraps every
  layer's public functions and writes the recorded spans to FILE;
* ``micro`` runs the CLI on small real inputs, captures the arguments of the
  core and machine operations it sees, and times each call on its own.

A fresh interpreter per pass matters: ``verify`` caches results in-process,
and every ``qclonelab`` command a user runs starts cold.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
import traceback

LAYERS = ("core", "states", "machines", "nosignal", "conservation", "config",
          "report", "verification", "cli")
CORE_OBJECTS = ("SubsystemSignature", "Ket", "DensityMatrix", "Spectrum")


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qclonelab" or n.startswith("qclonelab."))]


def rebind(original, replacement) -> None:
    """Point every package-level name bound to ``original`` at ``replacement``;
    ``from .core import f`` copies the binding at import time."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def public_functions(short: str):
    mod = importlib.import_module(f"qclonelab.{short}")
    for attr, fn in list(vars(mod).items()):
        if (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__):
            yield attr, fn


def _matrix_dim(h) -> int:
    entries = getattr(h, "entries", h)
    return int(getattr(entries, "shape", (0,))[0])


class Tracer:
    """In-memory spans: name, start and end (ns), parent span, item id, raised.

    An item span (one sweep point or one verify check) sets the item id of
    every span it encloses; spans outside any item get item -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.item = []
        self.raised = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._item = -1
        self._items = 0

    def wrap(self, name: str, fn, item: bool = False, count=None):
        """Traced ``fn``; ``item`` marks an item span, and ``count`` is a
        (counter, predicate on the call's arguments) pair."""
        idx = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        starts, ends, raised = self.start, self.end, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if item:
                self._item = self._items
                self._items += 1
            if count is not None and count[1](args):
                self.counters[count[0]] = self.counters.get(count[0], 0) + 1
            sid = len(starts)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self._item)
            raised.append(0)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
                if item:
                    self._item = -1

        return traced

    def install(self) -> None:
        import numpy as np

        for short in LAYERS:
            for attr, fn in public_functions(short):
                count = None
                if (short, attr) == ("core", "eig_hermitian"):  # n > 2 takes the Jacobi path
                    count = ("core.eig_hermitian.dense", lambda args: _matrix_dim(args[0]) > 2)
                item = (short, attr) == ("cli", "run_config")
                rebind(fn, self.wrap(f"{short}.{attr}", fn, item=item, count=count))
        core = sys.modules["qclonelab.core"]
        for cls_name in CORE_OBJECTS:
            cls = getattr(core, cls_name)
            cls.__post_init__ = self.wrap(f"core.{cls_name}.__post_init__", cls.__post_init__)
        verification = sys.modules["qclonelab.verification"]
        checks = getattr(verification, "_CHECKS", None)
        if isinstance(checks, tuple) and all(
            isinstance(c, tuple) and len(c) == 2 and callable(c[1]) for c in checks
        ):
            verification._CHECKS = tuple(
                (name, self.wrap("verification.check", fn, item=True)) for name, fn in checks
            )
        np.kron = self.wrap("numpy.kron", np.kron)

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            item=np.array(self.item, dtype=np.int32),
            raised=np.array(self.raised, dtype=np.int8),
            counters=np.array(json.dumps(self.counters)),
        )


def _import_cli(src: str):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qclonelab.cli as cli
    import_s = time.perf_counter() - t0
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qclonelab imported from {where}, not from {src}")
    return cli, import_s


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(cli, argv: list[str], spans: str | None) -> dict:
    tracer = None
    if spans:
        tracer = Tracer()
        tracer.install()
    result = {"rc": None}
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result["rc"] = cli.main(argv)
    except Exception:  # one failed pass is reported, not fatal to the run
        result["error"] = traceback.format_exc(limit=3)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["maxrss_mb"] = _maxrss_mb()
    if tracer is not None:
        tracer.dump(spans)
    return result


# Micro-timings: (metric, layer, function, CLI call it is captured from,
# predicate on the captured arguments).  The first matching call is kept.
MICRO = (
    ("micro.eig_hermitian_dense16.us_per_call", "core", "eig_hermitian", "isometry",
     lambda a, k: hasattr(a[0], "signature") and _matrix_dim(a[0]) == 16),
    ("micro.eig_hermitian_2x2.us_per_call", "core", "eig_hermitian", "conservation",
     lambda a, k: hasattr(a[0], "signature") and _matrix_dim(a[0]) == 2),
    ("micro.partial_trace_64x64.us_per_call", "core", "partial_trace", "isometry",
     lambda a, k: _matrix_dim(a[0]) == 64),
    ("micro.trace_distance_16x16.us_per_call", "core", "trace_distance", "isometry",
     lambda a, k: _matrix_dim(a[0]) == 16),
    ("micro.extend_to_isometry_32x32.us_per_call", "machines", "extend_to_isometry", "verify",
     lambda a, k: a[0].input_signature.dim == 32 and a[0].output_signature.dim == 32),
    ("micro.apply_termwise_wishful.us_per_call", "machines", "apply_termwise", "wishful",
     lambda a, k: True),
)


def _time_call(fn, args, kwargs, batches: int = 7, min_batch_s: float = 0.02) -> float:
    """Median over batches of the per-call time, in microseconds."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        if dt >= min_batch_s:
            break
        n *= 2
    samples = [dt / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args, **kwargs)
        samples.append((time.perf_counter() - t0) / n)
    samples.sort()
    return samples[len(samples) // 2] * 1e6


def _capturing(fn, wanted, captured: dict, phase: dict):
    """Wrap ``fn`` to keep the arguments of its first successful call that
    matches each wanted metric's source and predicate."""

    @functools.wraps(fn)
    def capture(*args, **kwargs):
        out = fn(*args, **kwargs)
        for metric, _, _, source, pred in wanted:
            if metric not in captured and phase["now"] == source and pred(args, kwargs):
                captured[metric] = (args, kwargs)
        return out

    return capture


def run_micro(cli, configs: dict[str, str], seed: int, out: str) -> dict:
    captured: dict[str, tuple] = {}
    phase = {"now": None}
    originals = {}
    for short in ("core", "machines"):
        for attr, fn in public_functions(short):
            originals[(short, attr)] = fn
    wrappers = {}
    for key in {(m[1], m[2]) for m in MICRO}:
        wanted = [m for m in MICRO if (m[1], m[2]) == key]
        wrappers[key] = _capturing(originals[key], wanted, captured, phase)
        rebind(originals[key], wrappers[key])
    calls = (
        ("conservation", ["run", configs["conservation"], "--out", out]),
        ("wishful", ["run", configs["wishful"], "--out", out]),
        ("isometry", ["run", configs["isometry"], "--out", out]),
        ("verify", ["verify", "--seed", str(seed), "--out", out]),
    )
    for source, argv in calls:
        phase["now"] = source
        cli.main(argv)
    for key, wrapper in wrappers.items():
        rebind(wrapper, originals[key])
    timings = {}
    for metric, short, attr, _, _ in MICRO:
        if metric in captured:
            args, kwargs = captured[metric]
            timings[metric] = _time_call(originals[(short, attr)], args, kwargs)
    return {"micro_us": timings}


def main(argv: list[str]) -> int:
    src, mode, rest = argv[0], argv[1], argv[2:]
    cli, import_s = _import_cli(src)
    result = {"import_s": import_s, "numpy": sys.modules["numpy"].__version__}
    if mode == "pass":
        spans = None
        if rest[0] == "--spans":
            spans, rest = rest[1], rest[2:]
        if rest[0] != "--":
            raise SystemExit("pass mode expects '--' before the CLI arguments")
        result.update(run_pass(cli, rest[1:], spans))
    elif mode == "micro":
        cons, wish, iso, seed, out = rest
        result.update(run_micro(
            cli, {"conservation": cons, "wishful": wish, "isometry": iso}, int(seed), out
        ))
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
