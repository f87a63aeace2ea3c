"""Line-oriented scenario configuration files.

One scenario per file; ``key = value`` lines with dotted section keys, blank
lines and ``#`` comments ignored.  Unknown keys are rejected with the line
number.  Missing keys take documented defaults; ``kind`` and the overlap
values for conservation scenarios are required.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .tolerances import ASSERT_TOL, RESIDUAL_TOL

KINDS = ("nosignal", "conservation", "gram-equivalence")

DEFAULT_SEED = 7

# Most points a sweep grid, or any one of its axes, may expand to: 150 times
# the 1331-point (a, b, c) grid, far below what would exhaust memory.
MAX_GRID_POINTS = 200_000

# key -> (type, default); default None means required.
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

_CHOICES: dict[str, tuple[str, ...]] = {
    "format": ("table", "csv", "json"),
    "machine.mode": ("termwise", "isometry"),
}


class ConfigError(ValueError):
    pass


def require_tolerance(name: str, value: float) -> float:
    """A tolerance must be a finite positive number: a NaN, infinite or
    non-positive one would pass or fail every verdict regardless of the
    physics."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name}: tolerance {value!r} must be finite and positive")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    values: dict[str, object]

    def get(self, key: str):
        return self.values[key]

    def with_overrides(self, overrides: dict[str, float]) -> "ScenarioConfig":
        """A copy with ``overrides`` set, each value range-checked on its own."""
        schema = _SCHEMAS[self.kind]
        vals = dict(self.values)
        for key, value in overrides.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} for kind {self.kind!r}")
            typ = schema[key][0]
            if typ not in (float, int):
                raise ConfigError(f"key {key!r} is not numeric and cannot be swept")
            if typ is int and not float(value).is_integer():
                raise ConfigError(f"key {key!r}: {value!r} is not an integer")
            vals[key] = typ(value)
        _validate_ranges(self.kind, vals)
        return ScenarioConfig(self.kind, vals)

    def basis_angles(self, which: str) -> tuple[float, float, float, float]:
        """(psi_theta, psi_phi, alpha_theta, alpha_phi), honoring the
        ``basisN.theta``/``basisN.phi`` shorthand that sets both parts."""
        return tuple(column[0] for column in grid_points(self).basis_angles(which))


@dataclass(frozen=True)
class ScenarioGrid:
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
        """The columns of :meth:`ScenarioConfig.basis_angles`."""
        out = []
        for part, angle in itertools.product(("psi", "alpha"), ("theta", "phi")):
            keys = [k for k in (f"{which}.{part}.{angle}", f"{which}.{angle}")
                    if k in self.shared or k in self.swept]
            if len(keys) == 2:
                raise ConfigError(f"{keys[0]} conflicts with shorthand {keys[1]}")
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
) -> ScenarioConfig:
    """Parse one scenario config.  ``default_overrides`` replaces schema
    defaults (for environment-supplied tolerances); explicit file keys win."""
    raw: dict[str, str] = {}
    kind = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key == "kind":
            kind = value
            continue
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    if kind is None:
        raise ConfigError("missing required key 'kind'")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    schema = _SCHEMAS[kind]

    values: dict[str, object] = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for kind {kind!r}")
        typ = schema[key][0]
        try:
            values[key] = typ(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} as {typ.__name__}") from exc
        if key in _CHOICES and values[key] not in _CHOICES[key]:
            raise ConfigError(
                f"key {key!r}: {value!r} is not one of {_CHOICES[key]}"
            )

    for key in _REQUIRED[kind]:
        if key not in values:
            raise ConfigError(f"missing required key {key!r} for kind {kind!r}")

    overrides = default_overrides or {}
    for key, value in overrides.items():
        if key in schema and key not in values:
            values[key] = schema[key][0](value)
    for key, (_typ, default) in schema.items():
        if key not in values and default is not None:
            values[key] = default

    _validate_ranges(kind, values)
    return ScenarioConfig(kind, values)


def _validate_ranges(kind: str, values: dict[str, object]) -> None:
    for key in ("tolerance.assert", "tolerance.residual"):
        require_tolerance(f"key {key!r}", float(values[key]))
    if kind == "conservation":
        for key in ("overlap.a", "overlap.b", "overlap.c"):
            v = float(values[key])
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"key {key!r}: modulus {v!r} outside [0, 1]")
        w = float(values["branch.weight"])
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"key 'branch.weight': {w!r} outside [0, 1]")
    if kind == "nosignal":
        for key, value in values.items():
            if key.endswith(".theta") and not 0.0 <= float(value) <= math.pi:
                raise ConfigError(f"key {key!r}: {value!r} outside [0, pi]")
            if key.endswith(".phi") and not 0.0 <= float(value) < 2.0 * math.pi:
                raise ConfigError(f"key {key!r}: {value!r} outside [0, 2*pi)")
    for key, minimum in (
        ("machine.ancilla_dim", 2), ("family.dimension", 2), ("family.size", 1), ("seed", 0)
    ):
        if key in values and int(values[key]) < minimum:
            raise ConfigError(f"key {key!r}: must be >= {minimum}")
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key {key!r}: {value!r} is not finite")


def load_config(
    path: str, default_overrides: dict[str, object] | None = None
) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), default_overrides)


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
    values = [round(lo + k * step, 12) for k in range(int(steps) + 1)]
    if len(set(values)) < len(values):
        raise ConfigError(f"grid axis {spec!r}: values collide at 12 decimals")
    return key.strip(), values


def grid_points(config: ScenarioConfig, axis_specs=()) -> ScenarioGrid:
    """The grid of ``config`` over the axes: their Cartesian product,
    lexicographic in the given axis order, of at most ``MAX_GRID_POINTS``
    points; no axes give the grid of ``config`` alone.  Each axis value is
    range-checked once, by :meth:`ScenarioConfig.with_overrides`, and the
    rules between keys on the columns (the basis shorthand conflict where
    :meth:`ScenarioGrid.basis_angles` resolves it)."""
    axes = [parse_grid_axis(spec) for spec in axis_specs]
    keys = [key for key, _ in axes]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"grid axis key {max(keys, key=keys.count)!r} repeats")
    size = math.prod(len(values) for _, values in axes)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"grid of {size} points exceeds {MAX_GRID_POINTS}")
    options = {key: [value] for key, value in config.values.items()}
    for key, values in axes:
        options[key] = [config.with_overrides({key: v}).values[key] for v in values]
    targets, dims = options.get("family.target_dimension", ()), options.get("family.dimension", ())
    for target, dim in itertools.product(targets, dims):
        if target != 0 and target < dim:
            raise ConfigError(
                f"key 'family.target_dimension': {target} is smaller than "
                f"family.dimension {dim} (0 means the same)"
            )
    columns = zip(*itertools.product(*(options[key] for key in keys)))
    swept = {key: list(column) for key, column in zip(keys, columns)}
    shared = {key: value for key, value in config.values.items() if key not in swept}
    return ScenarioGrid(config.kind, shared, swept, size)
