#!/usr/bin/env python3
"""qclonelab benchmark: whole ``sweep`` and ``verify`` commands, one fresh
interpreter per pass, run strictly one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths resolve from this file).
Workloads are listed in ``workloads.py``; the seed generates their config
files, which are written under ``.perfbench-work/`` and removed afterwards.

``--trace 0`` times untraced passes for S seconds (at least three passes)
and reports the end-to-end metrics ``setup_s`` and ``items_per_s`` (both of
the fastest sample) and ``peak_rss_mb``.  ``--trace 1`` runs untraced passes, one traced pass and
one micro-timing child, and reports the per-layer metrics of ``layers.py``.
Either way every pass's output goes through the workload's oracle; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, and the exit code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, conservation_config, isometry_config, wishful_config  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 10
# No pass starts after this many seconds of a run, and every child is
# killed at the run's deadline, so a run ends within three minutes even when
# a pass takes far longer than today.
HARD_LIMIT_S = 120.0
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("QCLONELAB_TOL", None)  # the workloads use the default tolerances
    return env


_deadline = time.perf_counter() + DEADLINE_S


def run_child(args: list[str]) -> tuple[dict, float]:
    """Run one child to completion; returns its JSON result and wall time."""
    t0 = time.perf_counter()
    timeout = max(_deadline - t0, 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), *args],
            capture_output=True, text=True, timeout=timeout, env=child_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {timeout:.0f} s") from exc
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), wall


def calibration_s() -> float:
    """Time of a fixed pure-Python loop; informational, never a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qclonelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


class Run:
    def __init__(self, workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.config = None
        if workload.config is not None:
            self.config = work / "workload.cfg"
            self.config.write_text(workload.config(seed))
        self.passes: list[dict] = []
        self.digests: set[str] = set()

    def one_pass(self, spans: Path | None = None) -> dict:
        """One child running the whole command; the output is checked here."""
        out = self.work / f"out-{len(self.passes)}.txt"
        argv = self.w.argv(str(self.config), str(out), self.seed)
        prefix = ["pass"] + (["--spans", str(spans)] if spans else []) + ["--"]
        record = {"traced": spans is not None}
        try:
            result, record["child_s"] = run_child(prefix + argv)
            record.update(result)
        except ChildFailed as exc:
            record.update(rc=None, error=str(exc))
        failed = self.w.items
        # Exit code 1 only says a scientific verdict failed, which is the
        # phenomenon on conservation-grid and nosignal-wishful; the oracle
        # judges the output either way.
        if record.get("rc") in (0, 1) and out.exists():
            data = out.read_bytes()
            self.digests.add(hashlib.sha256(data).hexdigest())
            failed = self.w.check(data.decode("utf-8", errors="replace"))
        out.unlink(missing_ok=True)
        record["failed"] = failed
        self.passes.append(record)
        if "error" in record:
            print(f"pass {len(self.passes)} failed: {record['error']}", file=sys.stderr)
        return record

    def timed_passes(self, deadline: float, hard_deadline: float, min_passes: int) -> None:
        """Untraced passes until the next one would overrun the deadline, or
        until one fails."""
        while not any(p.get("rc") is None for p in self.passes):
            took = [p["child_s"] for p in self.passes if "child_s" in p and not p["traced"]]
            estimate = statistics.median(took) if took else 0.0
            now = time.perf_counter()
            untraced = sum(1 for p in self.passes if not p["traced"])
            if now + estimate > hard_deadline:
                return
            if untraced >= min_passes and now + estimate > deadline:
                return
            self.one_pass()

    def untraced(self, key: str) -> list[float]:
        return [p[key] for p in self.passes if not p["traced"] and p.get("rc") is not None]


def end_to_end(run: Run, setup: list[float]) -> dict[str, tuple[float, str]]:
    walls = run.untraced("wall_s")
    if not walls:
        raise ChildFailed("no pass completed")
    # The fastest sample, not the median: this host alternates for tens of
    # seconds between a fast mode and one about 1.5x slower, so the median
    # of a run moves with the share of slow samples in it, while the fastest
    # sample is bounded below by the work itself.
    return {
        "setup_s": (min(setup), "s"),
        "items_per_s": (run.w.items / min(walls), "1/s"),
        "peak_rss_mb": (statistics.median(run.untraced("maxrss_mb")), "MB"),
    }


def per_layer(run: Run, spans: Path, traced: dict, micro: dict) -> dict[str, tuple[float, str]]:
    import layers

    values = dict(micro)
    walls = run.untraced("wall_s")
    if traced.get("rc") is not None and walls:
        values.update(layers.analyse(str(spans), run.w.items))
        values["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(walls)
    # -1 marks a figure this run could not take: a pass failed, or the micro
    # child saw no call matching that input.
    return {name: (float(values.get(name, -1.0)), unit) for name, unit in layers.metric_names()}


def measure(args, work: Path) -> tuple[Run, dict, dict]:
    w = WORKLOADS[args.workload]
    info = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "loadavg_start": loadavg(),
            **source_identity()}
    run = Run(w, args.seed, work)
    info["calibration_s"] = calibration_s()
    run_child(["import"])  # writes bytecode caches; not timed
    t_start = time.perf_counter()
    hard_deadline = t_start + HARD_LIMIT_S
    if not args.trace:
        setup = [run_child(["import"])[0]["import_s"] for _ in range(SETUP_SAMPLES)]
        run.timed_passes(t_start + args.seconds, hard_deadline, MIN_PASSES)
        setup += [p["import_s"] for p in run.passes if "import_s" in p]
        metrics = end_to_end(run, setup)
        info["setup_samples"] = len(setup)
    else:
        run.one_pass()
        spans = work / "spans.npz"
        traced = run.one_pass(spans)
        configs = []
        for name, make in (("conservation", conservation_config), ("wishful", wishful_config),
                           ("isometry", isometry_config)):
            path = work / f"micro-{name}.cfg"
            path.write_text(make(args.seed))
            configs.append(str(path))
        micro, _ = run_child(["micro", *configs, str(args.seed), str(work / "micro-out.txt")])
        run.timed_passes(t_start + args.seconds, hard_deadline, 1)
        metrics = per_layer(run, spans, traced, micro["micro_us"])
    info["loadavg_end"] = loadavg()
    info["calibration_end_s"] = calibration_s()
    info["numpy"] = run.passes[0].get("numpy") if run.passes else None
    return run, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qclonelab" / "cli.py").is_file():
        print(f"benchmark: no qclonelab sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run, metrics, info = measure(args, work)
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = run.w.items * len(run.passes)
    failed = sum(p["failed"] for p in run.passes)
    correct = failed == 0 and len(run.digests) == 1
    error_rate = failed / attempted
    per_s = [run.w.items / t for t in run.untraced("wall_s")]
    info.update(
        passes=len(run.passes), items_per_pass=run.w.items, error_rate=error_rate,
        output_sha256=sorted(run.digests),
        items_per_s_quartiles=statistics.quantiles(per_s, n=4) if len(per_s) > 1 else per_s,
        pass_records=run.passes,
    )
    print(json.dumps({"detail": info}, sort_keys=True))
    print(f"{run.w.name} seed={args.seed}: {len(run.passes)} passes of {run.w.items} items")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {error_rate:.6g} ratio ({failed} of {attempted} items failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
