"""Line-oriented scenario configuration files.

One scenario per file; ``key = value`` lines with dotted section keys, blank
lines and ``#`` comments ignored.  Unknown and repeated keys are
rejected.  Missing keys take documented defaults; ``kind`` and the overlap
values for conservation scenarios are required.  A config is a grid of one
point; each value, from a file or a grid axis, is checked once.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .tolerances import ASSERT_TOL, RESIDUAL_TOL

KINDS = ("nosignal", "conservation", "gram-equivalence")

DEFAULT_SEED = 7

# Most points a sweep grid, or any one of its axes, may expand to: 150 times
# the 1331-point (a, b, c) grid, far below what would exhaust memory.
MAX_GRID_POINTS = 200_000

# Most entries one point may hold in its largest stack: 2**30, 16 GiB of
# complex entries, which no machine running the lab holds.  A nosignal point
# holds Bob's 2 (4 ancilla_dim)^2 marginal entries.
MAX_POINT_ENTRIES = 1 << 30

# key -> (type, default); a default of None fills no value (an optional basis
# key, or a key that _REQUIRED lists as required).
_COMMON_SCHEMA: dict[str, tuple[type, object]] = {
    "tolerance.assert": (float, ASSERT_TOL),
    "tolerance.residual": (float, RESIDUAL_TOL),
    "format": (str, "table"),
    "seed": (int, DEFAULT_SEED),
}

_BASIS_KEYS: dict[str, tuple[type, object]] = {}
for _b in ("basis1", "basis2"):
    _BASIS_KEYS[f"{_b}.theta"] = (float, None)
    _BASIS_KEYS[f"{_b}.phi"] = (float, None)
    for _part in ("psi", "alpha"):
        _BASIS_KEYS[f"{_b}.{_part}.theta"] = (float, None)
        _BASIS_KEYS[f"{_b}.{_part}.phi"] = (float, None)

_SCHEMAS: dict[str, dict[str, tuple[type, object]]] = {
    "nosignal": {
        **_COMMON_SCHEMA,
        **_BASIS_KEYS,
        "machine.mode": (str, "termwise"),
        "machine.ancilla_dim": (int, 4),
    },
    "conservation": {
        **_COMMON_SCHEMA,
        "overlap.a": (float, None),
        "overlap.b": (float, None),
        "overlap.c": (float, None),
        "overlap.a_phase": (float, 0.0),
        "overlap.b_phase": (float, 0.0),
        "overlap.c_phase": (float, 0.0),
        "machine.ancilla_dim": (int, 4),
        "branch.weight": (float, 0.5),
    },
    "gram-equivalence": {
        **_COMMON_SCHEMA,
        "family.dimension": (int, 4),
        "family.size": (int, 3),
        "family.target_dimension": (int, 0),  # 0: same as family.dimension
    },
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "nosignal": (),
    "conservation": ("overlap.a", "overlap.b", "overlap.c"),
    "gram-equivalence": (),
}

_TYPES = {key: typ for schema in _SCHEMAS.values() for key, (typ, _) in schema.items()}

_CHOICES: dict[str, tuple[str, ...]] = {
    "format": ("table", "csv", "json"),
    "machine.mode": ("termwise", "isometry"),
}

_MINIMUM = {"machine.ancilla_dim": 2, "family.dimension": 2, "family.size": 1, "seed": 0}


class ConfigError(ValueError):
    pass


def checked_value(key: str, value, name: str | None = None):
    """``value`` as ``key``'s type, range-checked on its own.  Text, from a
    file or from the environment (whose variable ``name`` labels the
    errors), parses as the type does; a number, from a grid axis or a flag,
    must be integral for an integer key, and a text key takes none.  A
    tolerance must be finite and positive: a NaN, infinite or non-positive
    one would pass or fail every verdict regardless of the physics."""
    typ, label = _TYPES[key], name or f"key {key!r}"
    if isinstance(value, str):
        try:
            value = typ(value)
        except ValueError as exc:
            raise ConfigError(f"{name} is not a number" if name else
                              f"{label}: cannot parse {value!r} as {typ.__name__}") from exc
    elif typ is str:
        raise ConfigError(f"{label} is not numeric and cannot be swept")
    elif typ is int and not float(value).is_integer():
        raise ConfigError(f"{label}: {value!r} is not an integer")
    else:
        value = typ(value)
    if key in _CHOICES and value not in _CHOICES[key]:
        fault = f"{value!r} is not one of {_CHOICES[key]}"
    elif key.startswith("tolerance.") and not (math.isfinite(value) and value > 0.0):
        fault = f"tolerance {value!r} must be finite and positive"
    elif key in ("overlap.a", "overlap.b", "overlap.c") and not 0.0 <= value <= 1.0:
        fault = f"modulus {value!r} outside [0, 1]"
    elif key == "branch.weight" and not 0.0 <= value <= 1.0:
        fault = f"{value!r} outside [0, 1]"
    elif key.endswith(".theta") and not 0.0 <= value <= math.pi:
        fault = f"{value!r} outside [0, pi]"
    elif key.endswith(".phi") and not 0.0 <= value < 2.0 * math.pi:
        fault = f"{value!r} outside [0, 2*pi)"
    elif key in _MINIMUM and value < _MINIMUM[key]:
        fault = f"must be >= {_MINIMUM[key]}"
    elif isinstance(value, float) and not math.isfinite(value):
        fault = f"{value!r} is not finite"
    else:
        return value
    raise ConfigError(f"{label}: {fault}")


class ScenarioGrid(NamedTuple):
    """Points of one kind as columns, row k for point k: the value of each
    key no axis sweeps, once, and one list of values per swept key."""

    kind: str
    shared: dict[str, object]
    swept: dict[str, list]
    size: int

    def __len__(self) -> int:
        return self.size

    def column(self, key: str) -> list:
        """The value of ``key`` at every point."""
        return self.swept[key] if key in self.swept else [self.shared[key]] * self.size

    def take(self, rows: list[int]) -> "ScenarioGrid":
        """The points ``rows``, in that order."""
        swept = {key: [column[k] for k in rows] for key, column in self.swept.items()}
        return ScenarioGrid(self.kind, self.shared, swept, len(rows))

    def basis_angles(self, which: str) -> list[list[float]]:
        """The columns (psi_theta, psi_phi, alpha_theta, alpha_phi) of
        ``which`` basis, honoring the ``basisN.theta``/``basisN.phi``
        shorthand that sets both parts (:func:`grid_points` refuses a part
        beside its shorthand)."""
        out = []
        for part, angle in itertools.product(("psi", "alpha"), ("theta", "phi")):
            keys = [k for k in (f"{which}.{part}.{angle}", f"{which}.{angle}")
                    if k in self.shared or k in self.swept]
            out.append(self.column(keys[0]) if keys else [0.0] * self.size)
        return out


def echo_columns(grid: ScenarioGrid) -> dict[str, str | list[str]]:
    """Resolved key/value strings of a grid: one string per shared key, and
    one per point for a swept key, each distinct value formatted once."""
    out: dict[str, str | list[str]] = {"kind": grid.kind}
    for key, value in grid.shared.items():
        out[key] = repr(value) if isinstance(value, float) else str(value)
    for key, column in grid.swept.items():
        text = repr if isinstance(column[0], float) else str
        out[key] = list(map({value: text(value) for value in set(column)}.__getitem__, column))
    return out


def parse_config_text(
    text: str, default_overrides: dict[str, object] | None = None
) -> ScenarioGrid:
    """One scenario config, as a grid of one point, each value checked as it
    is read.  ``default_overrides`` (checked, from the environment) replaces
    schema defaults; explicit file keys win."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = map(str.strip, stripped.partition("="))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    kind = raw.pop("kind", None)
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    schema = _SCHEMAS[kind]

    values: dict[str, object] = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for kind {kind!r}")
        values[key] = checked_value(key, value)
    for key in _REQUIRED[kind]:
        if key not in values:
            raise ConfigError(f"missing required key {key!r} for kind {kind!r}")
    for key, (_typ, default) in schema.items():
        if key not in values and default is not None:
            values[key] = (default_overrides or {}).get(key, default)
    return ScenarioGrid(kind, values, {}, 1)


def load_config(
    path: str, default_overrides: dict[str, object] | None = None
) -> ScenarioGrid:
    try:
        # utf-8-sig: a byte-order mark is not part of the first key.
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_config_text(text, default_overrides)


def parse_grid_axis(spec: str) -> tuple[str, list[float]]:
    """Parse ``key=lo:hi:step`` into the axis key and its value list."""
    if "=" not in spec:
        raise ConfigError(f"grid axis {spec!r}: expected key=lo:hi:step")
    key, _, rng = spec.partition("=")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid axis {spec!r}: expected lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid axis {spec!r}: non-numeric bound") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ConfigError(f"grid axis {spec!r}: bounds and step must be finite")
    if step <= 0:
        raise ConfigError(f"grid axis {spec!r}: step must be positive")
    if hi < lo:
        raise ConfigError(f"grid axis {spec!r}: hi must be >= lo")
    steps = (hi - lo) / step + 1e-9  # hi may fall short of a step by 1e-9 of it
    if not steps < MAX_GRID_POINTS:
        raise ConfigError(f"grid axis {spec!r}: more than {MAX_GRID_POINTS} points")
    # 12 decimals, or 12 significant digits on an axis below 0.1.
    digits = max(12, 11 - math.floor(math.log10(max(abs(lo), abs(hi)) or 1.0)))
    values = [round(lo + k * step, digits) for k in range(int(steps) + 1)]
    if len(set(values)) < len(values):
        raise ConfigError(f"grid axis {spec!r}: values collide at {digits} decimals")
    return key.strip(), values


def grid_points(grid: ScenarioGrid, axis_specs=()) -> ScenarioGrid:
    """A grid of one, as :func:`parse_config_text` gives, over the axes:
    their Cartesian product, lexicographic in the given axis order, of at
    most ``MAX_GRID_POINTS`` points.  Each axis value is checked once, by
    :func:`checked_value`; then the rules between keys hold on the columns
    (a target dimension against the dimension, a basis part beside its
    shorthand), so a broken one stops the grid before any batch runs."""
    axes = [parse_grid_axis(spec) for spec in axis_specs]
    keys = [key for key, _ in axes]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"grid axis key {max(keys, key=keys.count)!r} repeats")
    size = math.prod(len(values) for _, values in axes)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"grid of {size} points exceeds {MAX_GRID_POINTS}")
    options = {key: [value] for key, value in grid.shared.items()}
    for key, values in axes:
        if key not in _SCHEMAS[grid.kind]:
            raise ConfigError(f"unknown key {key!r} for kind {grid.kind!r}")
        options[key] = [checked_value(key, v) for v in values]
    dim = max(options.get("machine.ancilla_dim", [0]))
    if grid.kind == "nosignal" and 2 * (4 * dim) ** 2 > MAX_POINT_ENTRIES:
        raise ConfigError(f"key 'machine.ancilla_dim': {dim} needs 2 x {4 * dim}^2 entries "
                          f"for Bob's marginals at a point, more than {MAX_POINT_ENTRIES}")
    targets, dims = options.get("family.target_dimension", ()), options.get("family.dimension", ())
    for target, dim in itertools.product(targets, dims):
        if target != 0 and target < dim:
            raise ConfigError(
                f"key 'family.target_dimension': {target} is smaller than "
                f"family.dimension {dim} (0 means the same)"
            )
    parts = itertools.product(("basis1", "basis2"), ("psi", "alpha"), ("theta", "phi"))
    for which, part, angle in parts:
        if f"{which}.{part}.{angle}" in options and f"{which}.{angle}" in options:
            raise ConfigError(f"{which}.{part}.{angle} conflicts with shorthand {which}.{angle}")
    # Each value repeats over the later axes' points, tiled over the earlier's.
    swept, outer = {}, 1
    for key in keys:
        values = options[key]
        swept[key] = [v for v in values for _ in range(size // outer // len(values))] * outer
        outer *= len(values)
    shared = {key: value for key, value in grid.shared.items() if key not in swept}
    return ScenarioGrid(grid.kind, shared, swept, size)
