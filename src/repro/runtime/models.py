"""Typed sections of a runtime config file.

A config file is a tree of tables (TOML) or objects (JSON); every table
maps onto one frozen dataclass here, and that dataclass's fields *are*
its schema.  One field-driven parser (:meth:`_Section.from_dict`) reads
off them the accepted keys, the required keys (fields without a
default), the defaults and the value types — ``Optional[...]``,
``tuple[X, ...]`` arrays, nested sections, and tables kept as ordered
``(name, value)`` pairs.  A section adds only a small ``_check`` for
what its types cannot express: ranges, registry names, cross-field
rules.

Parsing is strict on *names* — an unknown key or section raises through
:func:`~repro.compat.reject_unknown_kwargs`, so the error lists every
misspelling at once *and* the known fields — and strict on *types*
(TOML already distinguishes ints, floats, booleans and strings; JSON
configs are held to the same rules).  Every number must be finite: a
``nan`` or ``inf`` (which TOML spells and :func:`json.loads` accepts)
fails here, naming its ``<where>.<field>``, rather than hanging or
crashing a run later.

Component names are validated against the construction registries
(:data:`~repro.scheduler.registries.POLICY_REGISTRY`,
:data:`~repro.scheduler.registries.WORKLOAD_REGISTRY`,
:data:`~repro.scheduler.registries.SEARCHER_REGISTRY`), so a policy or
searcher registered by third-party code is immediately addressable from
a config file, and a typo'd name fails naming everything registered.

``to_dict`` is the inverse: the *canonical* plain-data form, with
``None``-valued knobs and empty collections omitted (TOML has no null)
and default-equal optional sections dropped.  ``from_dict ∘ to_dict``
is the identity on parsed configs — the fixed point
``tests/test_runtime.py`` pins for the whole file and for every section.
"""

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from ..compat import reject_unknown_kwargs
from ..scheduler.campaign import QOS_METRICS, Scenario
from ..scheduler.registries import (
    POLICY_REGISTRY,
    SEARCHER_REGISTRY,
    WORKLOAD_REGISTRY,
)
from ..scheduler.simulate import NodeOutage, resolve_core

__all__ = [
    "KINDS",
    "ConfigError",
    "RuntimeSection",
    "MachineSection",
    "WorkloadSection",
    "PolicySection",
    "CapSection",
    "OutageSpec",
    "ObservabilitySection",
    "LiveSection",
    "CellSpec",
    "CampaignSection",
    "KnobSpec",
    "ObjectiveSpec",
    "ExplorationSection",
    "RuntimeConfig",
]

#: What a config file may ask ``build()`` for.
KINDS = ("live", "campaign", "exploration")

#: Knob domain spellings understood by ``[exploration.space.<name>]``.
KNOB_TYPES = ("continuous", "integer", "categorical")


class ConfigError(ValueError):
    """A config file failed validation (bad value, type, or shape)."""


# --------------------------------------------------------------------------
# value converters: (where, name, value) -> parsed value
# --------------------------------------------------------------------------

def _require_table(where: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"[{where}] must be a table, got {type(value).__name__}"
        )
    return value


def _check_keys(where: str, data: Mapping[str, Any], known: tuple) -> None:
    """Unknown keys raise through the shared kwargs error path."""
    unknown = {k: data[k] for k in data if k not in known}
    reject_unknown_kwargs(where, unknown, known=known)


def _bad(where: str, name: str, want: str, value: Any) -> ConfigError:
    return ConfigError(f"{where}.{name} must be {want}, got {value!r}")


def _as_str(where: str, name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise _bad(where, name, "a string", value)
    return value


def _as_bool(where: str, name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise _bad(where, name, "a boolean", value)
    return value


def _as_int(where: str, name: str, value: Any) -> int:
    # bool is an int subclass; a config saying ``n_nodes = true`` is a bug.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(where, name, "an integer", value)
    return int(value)


def _as_float(where: str, name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(where, name, "a number", value)
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise _bad(where, name, "a finite number", value)
    return number


def _as_number(where: str, name: str, value: Any) -> Union[int, float]:
    """A finite number that keeps its spelling (``1`` stays an int)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return _as_float(where, name, value)


def _as_scalar(where: str, name: str, value: Any) -> Any:
    if isinstance(value, float):
        return _as_float(where, name, value)
    if isinstance(value, (str, int)):  # bool included
        return value
    raise _bad(where, name, "a scalar (string, number or boolean)", value)


_SCALARS: dict[Any, Callable[[str, str, Any], Any]] = {
    str: _as_str, bool: _as_bool, int: _as_int, float: _as_float,
    Any: _as_scalar,
}


def _converter(tp: Any) -> Callable[[str, str, Any], Any]:
    """The parser for one field annotation, built once per class."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if isinstance(tp, type) and issubclass(tp, _Section):
        return lambda where, name, value: tp.from_dict(value, f"{where}.{name}")
    args = typing.get_args(tp)
    if typing.get_origin(tp) is Union:  # Optional[X]; Optional[int | float]
        inner = [a for a in args if a is not type(None)]
        convert = _as_number if len(inner) > 1 else _converter(inner[0])
        return lambda where, name, value: (
            None if value is None else convert(where, name, value))
    item = args[0]  # tuple[X, ...]
    if typing.get_origin(item) is tuple:
        # tuple[tuple[str, X], ...]: a table, kept as ordered pairs so
        # its declaration order survives the dump.
        convert = _converter(typing.get_args(item)[1])

        def pairs(where: str, name: str, value: Any) -> tuple:
            path = f"{where}.{name}"
            return tuple((key, convert(path, key, v))
                         for key, v in _require_table(path, value).items())
        return pairs
    convert = _converter(item)

    def array(where: str, name: str, value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise _bad(where, name, "an array", value)
        return tuple(convert(where, f"{name}[{i}]", v)
                     for i, v in enumerate(value))
    return array


@functools.cache
def _schema(cls: type) -> dict[str, tuple[Callable, bool]]:
    """``{field: (converter, required)}`` in field order.

    The annotations are live objects (this module does not postpone
    them), so a load inspects no type string.
    """
    return {f.name: (_converter(f.type), f.default is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def _table(items: Iterable[tuple[str, Any]]) -> dict[str, Any]:
    """Canonical table: ``None``, ``""`` and empty collections omitted.

    TOML cannot spell null, so unset knobs are simply left out and
    ``from_dict`` restores them as their defaults.  Empty tables inside
    arrays are kept — an all-defaults campaign cell is still a grid
    cell.
    """
    out = {}
    for key, value in items:
        value = _plain(value)
        if value is None or (isinstance(value, (str, list, dict))
                             and not value):
            continue
        out[key] = value
    return out


def _plain(value: Any) -> Any:
    if isinstance(value, _Section):
        return value.to_dict()
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # a table's pairs
            return _table(value)
        return [_plain(v) for v in value]
    return value


def _check_policy_name(where: str, name: str) -> None:
    if name not in POLICY_REGISTRY:
        raise ConfigError(
            f"{where}: unknown policy {name!r}; "
            f"registered: {POLICY_REGISTRY.names()}"
        )


def _with_core(section: Any, where: str) -> Any:
    """``section`` with its ``core`` stored resolved (``None`` stays)."""
    if section.core is None:
        return None
    try:
        core = resolve_core(section.core)
    except ValueError as exc:
        raise ConfigError(f"{where}.core: {exc}") from None
    return dataclasses.replace(section, core=core)


def _nonempty(where: str, name: str, value: tuple) -> None:
    if not value:
        raise _bad(where, name, "a non-empty array", list(value))


def _positive(where: str, section: Any, *names: str) -> None:
    """Each named field, when set, must be > 0."""
    for name in names:
        value = getattr(section, name)
        if value is not None and value <= 0.0:
            raise _bad(where, name, "positive", value)


def _non_negative(where: str, section: Any, *names: str) -> None:
    """Each named field must be >= 0."""
    for name in names:
        value = getattr(section, name)
        if value < 0.0:
            raise _bad(where, name, "non-negative", value)


# --------------------------------------------------------------------------
# sections
# --------------------------------------------------------------------------

class _Section:
    """Base of every config table: the dataclass fields are the schema."""

    @classmethod
    def from_dict(cls, data: Any, where: Optional[str] = None) -> Any:
        """Parse one table; ``where`` (default: the table the class is
        named after) prefixes every error."""
        if where is None:
            where = cls.__name__.removesuffix("Section").removesuffix(
                "Spec").lower()
        data = _require_table(where, data)
        schema = _schema(cls)
        _check_keys(where, data, tuple(schema))
        values = {}
        for name, (convert, required) in schema.items():
            if name in data:
                values[name] = convert(where, name, data[name])
            elif required:
                raise ConfigError(f"[{where}] needs a {name!r} key")
        section = cls(**values)
        return section._check(where) or section

    def _check(self, where: str) -> Any:
        """Validate what the field types cannot express; may return a
        normalized copy to store instead."""

    def to_dict(self) -> dict[str, Any]:
        return _table((f.name, getattr(self, f.name))
                      for f in dataclasses.fields(self))


@dataclass(frozen=True)
class RuntimeSection(_Section):
    """``[runtime]`` — what this file describes."""

    kind: str
    name: str = ""
    description: str = ""

    def _check(self, where: str) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"{where}.kind must be one of {KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class MachineSection(_Section):
    """``[machine]`` — the cluster shape and its power model knobs."""

    n_nodes: int
    idle_node_power_w: float = 300.0
    speed_exponent: float = 0.75
    min_speed: float = 0.3

    def _check(self, where: str) -> None:
        if self.n_nodes < 1:
            raise ConfigError(f"{where}.n_nodes must be positive")
        if not 0.0 < self.min_speed <= 1.0:
            raise ConfigError(f"{where}.min_speed must lie in (0, 1]")
        _non_negative(where, self, "idle_node_power_w")


@dataclass(frozen=True)
class WorkloadSection(_Section):
    """``[workload]`` — the job stream: generator name, size, seed."""

    generator: str = "davide"
    n_jobs: int = 100
    load_factor: float = 0.85
    seed: int = 0

    def _check(self, where: str) -> None:
        if self.generator not in WORKLOAD_REGISTRY:
            raise ConfigError(
                f"{where}.generator: unknown workload {self.generator!r}; "
                f"registered: {WORKLOAD_REGISTRY.names()}"
            )
        if self.n_jobs < 1:
            raise ConfigError(f"{where}.n_jobs must be positive")
        if self.load_factor <= 0.0:
            raise ConfigError(f"{where}.load_factor must be positive")


@dataclass(frozen=True)
class PolicySection(_Section):
    """``[policy]`` — scheduling defaults every campaign cell inherits."""

    name: str = "fifo"
    predictor: str = "oracle"
    train_fraction: float = 0.0
    backfill_depth: Optional[int] = None
    dvfs_floor: Optional[float] = None
    fairshare_decay: Optional[float] = None

    def _check(self, where: str) -> None:
        _check_policy_name(f"{where}.name", self.name)


@dataclass(frozen=True)
class CapSection(_Section):
    """``[cap]`` — the power envelope.

    ``cap_w``/``budget_w`` are the reactive/proactive ceilings campaign
    cells inherit; ``hysteresis_w``/``actuation_delay_s`` shape the
    per-node capping agents of a live cluster.
    """

    cap_w: Optional[float] = None
    budget_w: Optional[float] = None
    hysteresis_w: float = 25.0
    actuation_delay_s: float = 0.01

    def _check(self, where: str) -> None:
        _positive(where, self, "cap_w", "budget_w")
        _non_negative(where, self, "hysteresis_w", "actuation_delay_s")


@dataclass(frozen=True)
class OutageSpec(_Section):
    """One ``[[outage]]`` entry: a node failure + repair window."""

    at_s: float
    node_id: int
    duration_s: float

    def _check(self, where: str) -> None:
        try:
            self.to_outage()
        except ValueError as exc:
            raise ConfigError(f"[{where}]: {exc}") from None

    def to_outage(self) -> NodeOutage:
        return NodeOutage(at_s=self.at_s, node_id=self.node_id,
                          duration_s=self.duration_s)


@dataclass(frozen=True)
class ObservabilitySection(_Section):
    """``[observability]`` — metrics + tracing for the built artifact."""

    enabled: bool = False
    max_spans: int = 65536

    def _check(self, where: str) -> None:
        if self.max_spans < 1:
            raise ConfigError(f"{where}.max_spans must be positive")


@dataclass(frozen=True)
class LiveSection(_Section):
    """``[live]`` — kernel run length and telemetry plane knobs."""

    until_s: float = 10.0
    period_s: float = 0.1
    sensor_noise_w: float = 2.0
    batched: bool = False
    seed: int = 0

    def _check(self, where: str) -> None:
        if self.until_s <= 0.0 or self.period_s <= 0.0:
            raise ConfigError(f"{where}: until_s and period_s must be positive")
        _non_negative(where, self, "sensor_noise_w")


@dataclass(frozen=True)
class CellSpec(_Section):
    """One ``[[campaign.cells]]`` entry — a partial scenario.

    Unset knobs (``None``) inherit from ``[policy]`` / ``[cap]`` /
    ``[[outage]]`` / ``campaign.core`` at build time; there is no
    per-cell spelling for "force the inherited knob back off", so leave
    the section default unset when some cells need the knob off.
    """

    label: str = ""
    policy: Optional[str] = None
    cap_w: Optional[float] = None
    budget_w: Optional[float] = None
    predictor: Optional[str] = None
    train_fraction: Optional[float] = None
    backfill_depth: Optional[int] = None
    dvfs_floor: Optional[float] = None
    fairshare_decay: Optional[float] = None
    core: Optional[str] = None
    outages: tuple[OutageSpec, ...] = ()

    def _check(self, where: str) -> Any:
        if self.policy is not None:
            _check_policy_name(f"{where}.policy", self.policy)
        _positive(where, self, "cap_w", "budget_w")
        return _with_core(self, where)


#: The scenario fields ``[exploration].base`` may fix, each parsed with
#: the converter of the campaign-cell field it fills (the explorer
#: writes every compiled cell's label itself).
_BASE_FIELDS: dict[str, Callable[[str, str, Any], Any]] = {
    "seed_index": _as_int,
    **{name: convert for name, (convert, _) in _schema(CellSpec).items()
       if name in {f.name for f in dataclasses.fields(Scenario)}
       and name != "label"},
}


@dataclass(frozen=True)
class CampaignSection(_Section):
    """``[campaign]`` — the seed list and the cell grid.

    ``build()`` enumerates the grid seed-outer / cell-inner (every cell
    at seed 0, then every cell at seed 1, ...) — the same order the
    bench ``campaign_grid()`` helpers use, so zoo configs digest
    identically to their hand-wired twins.
    """

    cells: tuple[CellSpec, ...]
    seeds: tuple[int, ...] = (0,)
    core: Optional[str] = None

    def _check(self, where: str) -> Any:
        _nonempty(where, "cells", self.cells)
        _nonempty(where, "seeds", self.seeds)
        return _with_core(self, where)

    def to_dict(self) -> dict[str, Any]:
        # Dumps keep the grid knobs ahead of the cells.
        data = super().to_dict()
        return {k: data[k] for k in ("seeds", "core", "cells") if k in data}


@dataclass(frozen=True)
class KnobSpec(_Section):
    """One ``[exploration.space.<name>]`` knob domain.

    ``categorical`` knobs take ``choices``; ``integer`` and
    ``continuous`` ones take ``lo``/``hi`` (integers, resp. numbers
    stored as floats).
    """

    type: str
    lo: Optional[Union[int, float]] = None
    hi: Optional[Union[int, float]] = None
    choices: tuple[Any, ...] = ()

    def _check(self, where: str) -> Any:
        kind = self.type
        if kind not in KNOB_TYPES:
            raise ConfigError(
                f"{where}.type must be one of {KNOB_TYPES}, got {kind!r}"
            )
        if kind == "categorical":
            if self.lo is not None or self.hi is not None:
                raise ConfigError(
                    f"{where}: categorical knobs take 'choices', not lo/hi"
                )
            _nonempty(where, "choices", self.choices)
            return None
        if self.choices:
            raise ConfigError(
                f"{where}: {kind} knobs take lo/hi, not 'choices'"
            )
        for name in ("lo", "hi"):
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"[{where}] needs a {name!r} key")
            if kind == "integer" and not isinstance(value, int):
                raise _bad(where, name, "an integer", value)
        knob = self
        if kind == "continuous":
            knob = dataclasses.replace(self, lo=float(self.lo),
                                       hi=float(self.hi))
        if not (knob.lo < knob.hi if kind == "continuous"
                else knob.lo <= knob.hi):
            raise ConfigError(
                f"{where}: empty range [lo={knob.lo}, hi={knob.hi}]")
        return knob


@dataclass(frozen=True)
class ObjectiveSpec(_Section):
    """``[exploration.objective]`` — QoS metrics, weights, and sense."""

    metrics: tuple[str, ...]
    weights: tuple[float, ...] = ()
    sense: str = "min"
    name: str = ""

    def _check(self, where: str) -> None:
        _nonempty(where, "metrics", self.metrics)
        unknown = [m for m in self.metrics if m not in QOS_METRICS]
        if unknown:
            raise ConfigError(
                f"{where}.metrics: unknown metric(s) {unknown}; "
                f"known: {QOS_METRICS}"
            )
        if self.weights and len(self.weights) != len(self.metrics):
            raise ConfigError(
                f"{where}: need one weight per metric (or none at all)"
            )
        if self.sense not in ("min", "max"):
            raise ConfigError(f"{where}.sense must be 'min' or 'max'")


@dataclass(frozen=True)
class ExplorationSection(_Section):
    """``[exploration]`` — searcher, budget, knob space, objective, base."""

    space: tuple[tuple[str, KnobSpec], ...]
    objective: ObjectiveSpec
    searcher: str = "random"
    budget: int = 16
    seed: int = 0
    #: Fixed scenario fields merged under every evaluated point,
    #: kept as ordered pairs (tables stay order-stable through dump).
    base: tuple[tuple[str, Any], ...] = ()

    def _check(self, where: str) -> Any:
        import repro.explore  # noqa: F401  (populates SEARCHER_REGISTRY)
        if self.searcher not in SEARCHER_REGISTRY:
            raise ConfigError(
                f"{where}.searcher: unknown searcher {self.searcher!r}; "
                f"registered: {SEARCHER_REGISTRY.names()}"
            )
        if self.budget < 1:
            raise ConfigError(f"{where}.budget must be positive")
        if not self.space:
            raise ConfigError(f"[{where}.space] needs at least one knob")
        base = dict(self.base)
        unknown = {k: v for k, v in base.items() if k not in _BASE_FIELDS}
        reject_unknown_kwargs(f"{where}.base", unknown,
                              known=tuple(_BASE_FIELDS))
        knob_names = {name for name, _ in self.space}
        overlap = knob_names & set(base)
        if overlap:
            raise ConfigError(
                f"{where}: {sorted(overlap)} appear in both the space and "
                f"the base; pick one"
            )
        if "policy" not in knob_names and "policy" not in base:
            raise ConfigError(
                f"{where}: scenarios need a policy — add a 'policy' knob to "
                f"the space or set base.policy"
            )
        # Typed like the cell fields they fill; the cell's own check then
        # applies its ranges and registry names.
        path = f"{where}.base"
        typed = tuple((key, _BASE_FIELDS[key](path, key, value))
                      for key, value in self.base)
        CellSpec(**{k: v for k, v in typed if k != "seed_index"})._check(path)
        return dataclasses.replace(self, base=typed)

    def to_dict(self) -> dict[str, Any]:
        # Dumps keep the search knobs ahead of the space and objective.
        data = super().to_dict()
        return {k: data[k] for k in ("searcher", "budget", "seed", "space",
                                     "objective", "base") if k in data}


# --------------------------------------------------------------------------
# the whole file
# --------------------------------------------------------------------------

# Build every section's converter table at import: a load then only
# parses, and an annotation the parser cannot read fails here.
for _cls in _Section.__subclasses__():
    _schema(_cls)

#: The section each runtime kind adds to the shared ones.
_KIND_SECTIONS = {
    "live": LiveSection,
    "campaign": CampaignSection,
    "exploration": ExplorationSection,
}


def _file_key(field: str) -> str:
    """The table name a field is spelled as in a file."""
    return "outage" if field == "outages" else field


@dataclass(frozen=True)
class RuntimeConfig:
    """A fully parsed config file — plain validated data, no wiring.

    ``build()`` (:mod:`repro.runtime.build`) compiles it into the
    artifact its ``runtime.kind`` names; ``dump()`` writes it back out
    in canonical form.
    """

    runtime: RuntimeSection
    machine: MachineSection
    workload: WorkloadSection = WorkloadSection()
    policy: PolicySection = PolicySection()
    cap: CapSection = CapSection()
    outages: tuple[OutageSpec, ...] = ()
    observability: ObservabilitySection = ObservabilitySection()
    campaign: Optional[CampaignSection] = None
    exploration: Optional[ExplorationSection] = None
    live: Optional[LiveSection] = None

    @classmethod
    def from_dict(cls, data: Any) -> "RuntimeConfig":
        data = _require_table("config", data)
        _check_keys("config", data,
                    tuple(_file_key(f.name) for f in dataclasses.fields(cls)))
        if "runtime" not in data:
            raise ConfigError(
                f"config needs a [runtime] section declaring its kind "
                f"({', '.join(KINDS)})"
            )
        runtime = RuntimeSection.from_dict(data["runtime"])
        if "machine" not in data:
            raise ConfigError("config needs a [machine] section")

        kind = runtime.kind
        for other in KINDS:
            if other != kind and other in data:
                raise ConfigError(
                    f"[{other}] is only valid for kind = {other!r} "
                    f"(this config is {kind!r})"
                )
        if kind != "live" and kind not in data:
            article = "an" if kind == "exploration" else "a"
            raise ConfigError(f"kind = {kind!r} needs {article} [{kind}] section")
        raw_outages = data.get("outage", [])
        if not isinstance(raw_outages, (list, tuple)):
            raise ConfigError(
                "[[outage]] must be an array of tables, got "
                f"{type(raw_outages).__name__}"
            )
        return cls(
            runtime=runtime,
            machine=MachineSection.from_dict(data["machine"]),
            workload=WorkloadSection.from_dict(data.get("workload", {})),
            policy=PolicySection.from_dict(data.get("policy", {})),
            cap=CapSection.from_dict(data.get("cap", {})),
            outages=tuple(OutageSpec.from_dict(o, f"outage[{i}]")
                          for i, o in enumerate(raw_outages)),
            observability=ObservabilitySection.from_dict(
                data.get("observability", {})),
            **{kind: _KIND_SECTIONS[kind].from_dict(data.get(kind, {}))},
        )

    def to_dict(self) -> dict[str, Any]:
        """The canonical plain-data form (``from_dict``'s fixed point).

        Sections equal to their defaults are omitted, as are ``None``
        knobs and empty collections — TOML has no null, and
        ``from_dict`` restores every omission as its default.
        """
        items = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            items.append((_file_key(f.name),
                          None if value == f.default else value))
        return _table(items)
