"""Run configuration: one schema table, validation, canonical hashing.

The config file is YAML: top-level keys plus three one-level sections.
``_SCHEMA`` is the only place a key is named.  Each row gives the key's YAML
path, the :class:`RunConfig` field it fills, a converter, its default (a
value, or a function of the fields read before it), its invariant as text
and predicate, and whether it enters the canonical hash.  ``from_dict``
walks the rows in order, so a row's default and invariant may read the rows
above it.  Unknown keys are rejected; every violation names the offending
field path.

The canonical hash covers the hashed rows only.  The two unhashed rows (the
worker count and the output directory) affect where and how fast outputs are
produced, never their bytes, so they stay outside the hash and outside the
echoed metadata.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple

import yaml

from .equation import CoefficientSpec
from .exprdsl import ExpressionError, parse
from .spectral import _next_power_of_two, default_grid_size

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        prefix = f'config error at "{field}": ' if field else "config error: "
        super().__init__(prefix + message)


# A converter takes (raw YAML value, field path, fields read so far).


def _int(value: Any, path: str, fields: dict) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field=path)
    return value


def _float(value: Any, path: str, fields: dict) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=path)
    return float(value)


def _bool(value: Any, path: str, fields: dict) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true/false, got {value!r}", field=path)
    return value


def _text(value: Any, path: str, fields: dict) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError("expected a nonempty string", field=path)
    return value


def _optional(convert: Callable) -> Callable:
    """``convert``, with an explicit null read as None."""
    return lambda value, path, fields: None if value is None else convert(value, path, fields)


def _floats(value: Any, path: str, fields: dict) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError("expected a nonempty list", field=path)
    return tuple(_float(e, f"{path}[{i}]", fields) for i, e in enumerate(value))


def _expressions(var: str) -> Callable:
    """Converter of a list of m expression strings in ``var``."""

    def convert(value: Any, path: str, fields: dict) -> tuple[str, ...]:
        if not isinstance(value, (list, tuple)):
            raise ConfigError("expected a list of expression strings", field=path)
        count = fields["order"]
        if len(value) != count:
            raise ConfigError(
                f"expected exactly {count} expression entries, got {len(value)}", field=path
            )
        out = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, (str, int, float)):
                raise ConfigError(
                    f"expected an expression string, got {item!r}", field=f"{path}[{i}]"
                )
            source = str(item)
            try:
                parse(source, allowed_vars=(var,))
            except ExpressionError as exc:
                raise ConfigError(str(exc), field=f"{path}[{i}]") from exc
            out.append(source)
        return tuple(out)

    return convert


_REQUIRED = object()  # the default of a key every config must give


class _Key(NamedTuple):
    """One config key: where it sits, what it fills, how it is read and checked."""

    path: str  # YAML path; "section.name" for a key inside a section
    field: str  # the RunConfig field it fills
    convert: Callable[[Any, str, dict], Any]
    default: Any = _REQUIRED  # a value, or a function of the fields read so far
    rule: str = ""  # invariant text; {v} is the value, {name} a field read so far
    holds: Callable[[Any, dict], bool] | None = None  # (value, fields) -> invariant holds
    hashed: bool = True

    @property
    def section(self) -> str:
        return self.path.rpartition(".")[0]

    @property
    def name(self) -> str:
        return self.path.rpartition(".")[2]

    def take(self, scope: Mapping[str, Any], fields: dict) -> Any:
        """The checked value of this key in ``scope``, or its default when absent."""
        if self.name in scope:
            value = self.convert(scope[self.name], self.path, fields)
        else:
            value = self.default(fields) if callable(self.default) else self.default
        if value is not None and self.holds is not None and not self.holds(value, fields):
            rule = self.rule.format(v=value, **fields)
            raise ConfigError(f"invariant violation: {rule}", field=self.path)
        return value


_SCHEMA = (
    _Key("m", "order", _int, _REQUIRED, "order m >= 2 (got {v})", lambda v, f: v >= 2),
    _Key("T", "horizon", _float, _REQUIRED, "horizon T > 0", lambda v, f: v > 0),
    _Key("coefficients", "coefficients", _expressions("t")),
    _Key("initial", "initial", _expressions("x")),
    _Key("nu", "nonlinearity", _int, 0, "nu >= 0", lambda v, f: v >= 0),
    _Key("K", "modes", _int, 64, "modes K >= 8 (got {v})", lambda v, f: v >= 8),
    _Key(
        "G", "grid", _int, lambda f: default_grid_size(f["modes"]),
        "G must be a power of two with G >= 4K, K = {modes} (got {v})",
        lambda v, f: v >= 4 * f["modes"] and v == _next_power_of_two(v),
    ),
    _Key("dt", "dt", _float, 1e-3, "0 < dt < T", lambda v, f: 0 < v < f["horizon"]),
    _Key(
        "snapshot_interval", "snapshot_interval", _float, lambda f: f["horizon"] / 100.0,
        "0 < snapshot_interval <= T", lambda v, f: 0 < v <= f["horizon"],
    ),
    _Key("diagnostics.energies", "energies", _bool, True),
    _Key("diagnostics.radius", "radius", _bool, True),
    _Key("diagnostics.symmetrizer_certificate", "symmetrizer_certificate", _bool, False),
    _Key("constants.C0", "c0_override", _optional(_float), None, "C0 >= 1", lambda v, f: v >= 1),
    _Key("constants.N", "n_override", _optional(_int), None, "N >= 0", lambda v, f: v >= 0),
    _Key("constants.C", "c_override", _optional(_float), None, "C > 0", lambda v, f: v > 0),
    _Key("constants.c", "disc_threshold", _float, 0.01, "c >= 0", lambda v, f: v >= 0),
    _Key("constants.r0", "r0", _float, 0.25, "r0 > 0", lambda v, f: v > 0),
    _Key("constants.J_max", "j_max", _int, 24, "J_max >= 1", lambda v, f: v >= 1),
    _Key("constants.eta", "eta", _float, 1.0, "0 < eta <= 1", lambda v, f: 0 < v <= 1),
    _Key("constants.s", "s", _float, 1.0, "s > 0", lambda v, f: v > 0),
    _Key(
        "constants.k_gevrey", "k_gevrey", _optional(_int), None,
        "k_gevrey >= 1", lambda v, f: v >= 1,
    ),
    _Key("constants.lambda_k", "lambda_k", _float, 1.0, "lambda_k > 0", lambda v, f: v > 0),
    _Key(
        "certificate.eps_set", "eps_set", _floats, (1.0, 0.1, 0.01),
        "every eps in (0, 1]", lambda v, f: all(0 < e <= 1 for e in v),
    ),
    _Key("certificate.samples", "samples", _int, 10_000, "samples >= 1", lambda v, f: v >= 1),
    _Key("certificate.nd_floor", "nd_floor", _float, 1e-3, "nd_floor >= 0", lambda v, f: v >= 0),
    _Key("certificate.times", "cert_times", _int, 17, "times >= 1", lambda v, f: v >= 1),
    _Key("seed", "seed", _int, 0),
    _Key("threads", "threads", _int, 1, "threads >= 1", lambda v, f: v >= 1, hashed=False),
    _Key("output_dir", "output_dir", _text, "out", hashed=False),
    _Key(
        "blowup_ceiling", "blowup_ceiling", _float, 1e9,
        "blowup_ceiling > 0", lambda v, f: v > 0,
    ),
    _Key("check_grid", "check_grid", _int, 201, "check_grid >= 3", lambda v, f: v >= 3),
)

# the allowed names of each section; "" is the top level, which also holds the sections
_NAMES: dict[str, set[str]] = {"": set()}
for _key in _SCHEMA:
    _NAMES.setdefault(_key.section, set()).add(_key.name)
    _NAMES[""].add(_key.path.partition(".")[0])


def _scope(data: Any, section: str) -> Mapping[str, Any]:
    """``data`` checked as the mapping of ``section`` ("" the top level)."""
    if not isinstance(data, Mapping):
        if not section:
            raise ConfigError("top level must be a key-value mapping")
        raise ConfigError("expected a mapping", field=section)
    unknown = sorted(map(str, set(data) - _NAMES[section]))
    if unknown:
        raise ConfigError("unknown key", field=f"{section}.{unknown[0]}" if section else unknown[0])
    return data


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; the hashed fields are echoed in run metadata."""

    order: int
    horizon: float
    coefficients: tuple[str, ...]
    initial: tuple[str, ...]
    nonlinearity: int
    modes: int
    grid: int
    dt: float
    snapshot_interval: float
    energies: bool
    radius: bool
    symmetrizer_certificate: bool
    c0_override: float | None
    n_override: int | None
    c_override: float | None
    disc_threshold: float
    r0: float
    j_max: int
    eta: float
    s: float
    k_gevrey: int | None
    lambda_k: float
    eps_set: tuple[float, ...]
    samples: int
    nd_floor: float
    cert_times: int
    seed: int
    threads: int
    output_dir: str
    blowup_ceiling: float
    check_grid: int

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        scopes = {"": _scope(data, "")}
        for key in _SCHEMA:
            if key.default is _REQUIRED and key.path not in data:
                raise ConfigError("missing required field", field=key.path)
        fields: dict[str, Any] = {}
        for key in _SCHEMA:
            if key.section not in scopes:
                scopes[key.section] = _scope(data.get(key.section, {}), key.section)
            fields[key.field] = key.take(scopes[key.section], fields)
        return cls(**fields)

    def problem(self) -> CoefficientSpec:
        return CoefficientSpec.from_strings(
            self.order, self.horizon, self.coefficients, self.nonlinearity, self.initial
        )

    def with_overrides(
        self,
        seed: int | None = None,
        threads: int | None = None,
        output_dir: str | None = None,
    ) -> "RunConfig":
        """A copy with each given (not None) field read and checked by its schema row."""
        given = {"seed": seed, "threads": threads, "output_dir": output_dir}
        changes = {
            key.field: key.take({key.name: given[key.field]}, vars(self))
            for key in _SCHEMA
            if given.get(key.field) is not None
        }
        return replace(self, **changes)

    def semantic_dict(self) -> dict:
        """Every hashed field under its YAML path: all that shapes output bytes."""
        out: dict[str, Any] = {}
        for key in _SCHEMA:
            if key.hashed:
                value = getattr(self, key.field)
                scope = out.setdefault(key.section, {}) if key.section else out
                scope[key.name] = list(value) if isinstance(value, tuple) else value
        return out

    def sha256(self) -> str:
        canonical = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_meta(self) -> dict:
        meta = self.semantic_dict()
        meta["config_sha256"] = self.sha256()
        return meta


def load_config(path: str) -> RunConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not parseable as YAML: {exc}") from exc
    if raw is None:
        raise ConfigError("empty config file")
    return RunConfig.from_dict(raw)
