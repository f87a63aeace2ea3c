"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the durations of its direct child
spans.  Layers are the ``qclonelab`` modules; ``numpy.kron`` is counted on
its own.  Every span also rolls up into one pipeline stage (build, machine,
marginals, spectra, render): its function's own stage if it has one, else
its caller's, and ``unstaged`` at the top level.
"""

from __future__ import annotations

import json

import numpy as np

from child import CORE_OBJECTS, LAYERS as MODULES, MICRO

_OBJECT_SPANS = tuple(f"core.{c}.__post_init__" for c in CORE_OBJECTS)
STAGES = ("build", "machine", "marginals", "spectra", "render")
UNSTAGED = "unstaged"

# Stage of every public function of a module, unless overridden below.
_MODULE_STAGE = {
    "config": "build",
    "states": "build",
    "machines": "machine",
    "report": "render",
}
_FUNCTION_STAGE = {
    "cli.build_parser": "build",
    "core.signature": "build",
    "core.basis_ket": "build",
    "core.tensor": "build",
    "core.tensor_all": "build",
    "core.inner": "build",
    "core.density_of": "marginals",
    "core.partial_trace": "marginals",
    "core.eig_hermitian": "spectra",
    "core.trace_distance": "spectra",
    "core.entropy": "spectra",
    "nosignal.build_scenario": "build",
    "nosignal.default_wishful_machine": "machine",
    "nosignal.expansion_family": "marginals",
    "nosignal.bob_marginal_before": "marginals",
    "nosignal.bob_marginal_after": "marginals",
    "nosignal.signalling_magnitude": "spectra",
    "conservation.build_conservation": "build",
    "conservation.after_state": "marginals",
    "conservation.alice_marginal_before": "marginals",
    "conservation.alice_marginal_after": "marginals",
    "conservation.lambda_before": "spectra",
    "conservation.lambda_after": "spectra",
    "conservation.entanglement_delta": "spectra",
    "conservation.equivalence_unitary": "machine",
}

# (metric, span names or tracer counters summed, what is summed): "calls",
# "self_ms" or "counter".
_FUNCTION_METRICS = (
    ("core.eig_hermitian.calls_per_item", ("core.eig_hermitian",), "calls"),
    ("core.eig_hermitian.dense_calls_per_item", ("core.eig_hermitian.dense",), "counter"),
    ("core.eig_hermitian.self_ms_per_item", ("core.eig_hermitian",), "self_ms"),
    ("core.trace_distance.self_ms_per_item", ("core.trace_distance",), "self_ms"),
    ("core.partial_trace.self_ms_per_item", ("core.partial_trace",), "self_ms"),
    ("core.objects_per_item", _OBJECT_SPANS, "calls"),
    ("core.validation_ms_per_item", _OBJECT_SPANS, "self_ms"),
    ("numpy.kron.calls_per_item", ("numpy.kron",), "calls"),
    ("conservation.alice_marginal.calls_per_item",
     ("conservation.alice_marginal_before", "conservation.alice_marginal_after"), "calls"),
    ("conservation.equivalence_unitary.self_ms_per_item",
     ("conservation.equivalence_unitary",), "self_ms"),
    ("machines.preset_wishful_cloner.calls_per_item",
     ("machines.preset_wishful_cloner",), "calls"),
    ("machines.preset_wishful_cloner.self_ms_per_item",
     ("machines.preset_wishful_cloner",), "self_ms"),
    ("machines.apply_termwise.self_ms_per_item", ("machines.apply_termwise",), "self_ms"),
    ("machines.apply_linear.self_ms_per_item", ("machines.apply_linear",), "self_ms"),
    ("machines.random_isometry.self_ms_per_item", ("machines.random_isometry",), "self_ms"),
    ("machines.extend_to_isometry.calls_per_item", ("machines.extend_to_isometry",), "calls"),
    ("machines.extend_to_isometry.self_ms_per_item",
     ("machines.extend_to_isometry",), "self_ms"),
    ("machines.isometry_matrix_from_pairs.self_ms_per_item",
     ("machines.isometry_matrix_from_pairs",), "self_ms"),
    ("machines.check_consistency.self_ms_per_item", ("machines.check_consistency",), "self_ms"),
    ("report.format_scalar.calls_per_item", ("report.format_scalar",), "calls"),
    ("report.render_csv.self_ms_per_item", ("report.render_csv",), "self_ms"),
    ("config.grid_points.self_ms_per_item", ("config.grid_points",), "self_ms"),
)

def _unit(metric: str) -> str:
    if metric.endswith(".raised") or "calls" in metric or "objects" in metric:
        return "count"
    if metric.endswith("us_per_call"):
        return "us"
    return "ms"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    names = []
    for mod in MODULES:
        names += [f"{mod}.self_ms_per_item", f"{mod}.calls_per_item", f"{mod}.raised"]
    names += [m for m, _, _ in _FUNCTION_METRICS]
    names += [f"stage.{s}.self_ms_per_item" for s in (*STAGES, UNSTAGED)]
    names += [m[0] for m in MICRO]
    out = [(n, _unit(n)) for n in names]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _stage_of(name: str) -> str | None:
    if name in _FUNCTION_STAGE:
        return _FUNCTION_STAGE[name]
    return _MODULE_STAGE.get(name.split(".", 1)[0])


def analyse(spans_path: str, items: int) -> dict[str, float]:
    """Per-item layer, function and stage figures of one traced pass."""
    with np.load(spans_path) as d:
        names = [str(n) for n in d["names"]]
        name, parent, raised = d["name"], d["parent"], d["raised"]
        dur_ms = (d["end"] - d["start"]) / 1e6
        counters = json.loads(str(d["counters"]))
    has_parent = parent >= 0
    child_ms = np.bincount(parent[has_parent], weights=dur_ms[has_parent],
                           minlength=len(name))
    self_ms = dur_ms - child_ms

    calls_by = np.bincount(name, minlength=len(names))
    self_by = np.bincount(name, weights=self_ms, minlength=len(names))
    raised_by = np.bincount(name, weights=raised, minlength=len(names))
    calls = {}
    self_total = {}
    raised_total = {}
    for k, n in enumerate(names):
        calls[n] = calls.get(n, 0) + int(calls_by[k])
        self_total[n] = self_total.get(n, 0.0) + float(self_by[k])
        raised_total[n] = raised_total.get(n, 0) + int(raised_by[k])

    out: dict[str, float] = {}
    for mod in MODULES:
        mine = [n for n in calls if n.split(".", 1)[0] == mod]
        out[f"{mod}.self_ms_per_item"] = sum(self_total[n] for n in mine) / items
        out[f"{mod}.calls_per_item"] = sum(calls[n] for n in mine) / items
        out[f"{mod}.raised"] = float(sum(raised_total[n] for n in mine))
    tables = {"calls": calls, "self_ms": self_total, "counter": counters}
    for metric, members, what in _FUNCTION_METRICS:
        out[metric] = sum(tables[what].get(n, 0) for n in members) / items

    own_stage = [_stage_of(n) for n in names]
    stage = [UNSTAGED] * len(name)
    stage_ms = dict.fromkeys((*STAGES, UNSTAGED), 0.0)
    for i in range(len(name)):  # a parent span always precedes its children
        s = own_stage[name[i]]
        if s is None:
            s = stage[parent[i]] if parent[i] >= 0 else UNSTAGED
        stage[i] = s
        stage_ms[s] += self_ms[i]
    for s, ms in stage_ms.items():
        out[f"stage.{s}.self_ms_per_item"] = ms / items
    return out
