"""Run-configuration parsing: a single strict JSON document per experiment.

The CLI only selects the subcommand and a few overrides; everything that
defines the experiment lives in the config so runs are reproducible
artifacts.  Parsing is strict: unknown keys anywhere are rejected with the
offending field path.
"""

from __future__ import annotations

import json
import math
from typing import Any, NamedTuple

from .core import (
    ConeGeometry,
    Kepler,
    LogPotential,
    Oscillator,
    Params,
    PhasePoint,
    PotentialSpec,
    PowerLaw,
)
from .errors import ConeDynError, ConfigError


class IntegratorConfig(NamedTuple):
    dt: float
    n_steps: int
    sample_every: int


class ClosureConfig(NamedTuple):
    enabled: bool
    tol: float = 1e-6


class QuadratureConfig(NamedTuple):
    tolerance: float = 1e-10
    max_refinements: int = 6


class ScanConfig(NamedTuple):
    exponents: tuple[float, ...]
    e_fractions: tuple[float, ...]
    lambdas: tuple[float, ...]
    include_log_check: bool = False


class AlgebraConfig(NamedTuple):
    n_points: int = 100
    h: float = 1e-5


class OutputConfig(NamedTuple):
    path: str
    format: str = "csv"


class RunConfig(NamedTuple):
    """Validated experiment definition; a section the document leaves out
    keeps its default here, None where a command needs it given."""

    params: Params
    initial_point: PhasePoint | None = None
    initial_level: tuple[float, float] | None = None
    integrator: IntegratorConfig | None = None
    closure: ClosureConfig | None = None
    quadrature: QuadratureConfig = QuadratureConfig()
    scan: ScanConfig | None = None
    levels: tuple[tuple[float, float], ...] | None = None
    algebra: AlgebraConfig = AlgebraConfig()
    output: OutputConfig | None = None


def _check_keys(d: dict, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    unknown = set(d) - required - set(optional)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}", "missing required key")


# --- field parsers: (JSON value, dotted path) -> validated value ---

def _number(v: Any, path: str) -> float:
    try:
        # through float(): an integer beyond the float range raises OverflowError
        if not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(x := float(v)):
            return x
    except OverflowError:
        pass
    raise ConfigError(path, f"expected a finite number, got {v!r}")


def _integer(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return v


def _boolean(v: Any, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(path, "expected a boolean")
    return v


def _string(v: Any, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, "expected a string")
    return v


def _format(v: Any, path: str) -> str:
    if v not in ("csv", "jsonl"):
        raise ConfigError(path, f"expected 'csv' or 'jsonl', got {v!r}")
    return v


def _number_list(v: Any, path: str) -> tuple[float, ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a non-empty array of numbers")
    return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(v))


def _level(d: Any, path: str) -> tuple[float, float]:
    _check_keys(d, path, {"E", "J"})
    return _number(d["E"], f"{path}.E"), _number(d["J"], f"{path}.J")


def _checked(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a value type's own check as a config error at path."""
    try:
        return build(*args, **kwargs)
    except ConeDynError as exc:
        raise ConfigError(path, str(exc)) from exc


def _section(d: Any, path: str, record, *parsers):
    """``record`` read from the object ``d``, with one parser per field in
    field order.  The fields without a default on the record are required;
    an optional key left out keeps the record's default."""
    defaults = record._field_defaults
    _check_keys(d, path, set(record._fields) - set(defaults), defaults)
    return record(**{key: parse(d[key], f"{path}.{key}")
                     for key, parse in zip(record._fields, parsers) if key in d})


def _parse_geometry(d: dict, path: str) -> ConeGeometry:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    if "k" in d or "n" in d:
        _check_keys(d, path, {"k", "n"})
        return _checked(path, ConeGeometry.from_rational, _integer(d["k"], f"{path}.k"),
                        _integer(d["n"], f"{path}.n"))
    _check_keys(d, path, {"s"})
    return _checked(path, ConeGeometry, s=_number(d["s"], f"{path}.s"))


# each potential kind: its class and its parameters, in constructor order
_POTENTIALS = {
    "kepler": (Kepler, "kappa"),
    "oscillator": (Oscillator, "omega"),
    "power_law": (PowerLaw, "amplitude", "exponent"),
    "log": (LogPotential, "strength", "r0"),
}


def _parse_potential(d: dict, path: str) -> PotentialSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(path, "expected an object with a 'kind' key")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        raise ConfigError(f"{path}.kind", f"unknown potential kind {kind!r}")
    cls, *keys = _POTENTIALS[kind]
    _check_keys(d, path, {"kind", *keys})
    return _checked(path, cls, *(_number(d[key], f"{path}.{key}") for key in keys))


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Raises :class:`ConfigError` with a dotted field path on the first
    offending entry.
    """
    _check_keys(doc, "config", {"params"},
                {"initial", "integrator", "closure", "quadrature",
                 "scan", "levels", "algebra", "output"})

    p = doc["params"]
    _check_keys(p, "params", {"m", "geometry", "potential"})
    cfg = {"params": _checked("params.m", Params,
                              m=_number(p["m"], "params.m"),
                              geometry=_parse_geometry(p["geometry"], "params.geometry"),
                              potential=_parse_potential(p["potential"], "params.potential"))}

    if "initial" in doc:
        ini = doc["initial"]
        if not isinstance(ini, dict) or ("point" in ini) == ("level" in ini):
            raise ConfigError("initial", "give exactly one of 'point' or 'level'")
        if "point" in ini:
            _check_keys(ini, "initial", {"point"})
            pd = ini["point"]
            _check_keys(pd, "initial.point", {"r", "phi", "p_r", "J"})
            cfg["initial_point"] = _checked("initial.point", PhasePoint, **{
                key: _number(pd[key], f"initial.point.{key}") for key in ("r", "phi", "p_r", "J")})
        else:
            _check_keys(ini, "initial", {"level"})
            cfg["initial_level"] = _level(ini["level"], "initial.level")

    if "integrator" in doc:
        it = cfg["integrator"] = _section(doc["integrator"], "integrator", IntegratorConfig,
                                          _number, _integer, _integer)
        if it.dt == 0.0:
            raise ConfigError("integrator.dt", "must be nonzero")
        if it.n_steps < 1 or it.sample_every < 1:
            raise ConfigError("integrator.n_steps", "n_steps and sample_every must be >= 1")
        if it.n_steps % it.sample_every != 0:
            raise ConfigError("integrator.n_steps", "must be a multiple of sample_every")

    if "closure" in doc:
        cl = cfg["closure"] = _section(doc["closure"], "closure", ClosureConfig, _boolean, _number)
        if cl.tol <= 0.0:
            raise ConfigError("closure.tol", "must be positive")

    if "quadrature" in doc:
        q = cfg["quadrature"] = _section(doc["quadrature"], "quadrature", QuadratureConfig,
                                         _number, _integer)
        if q.tolerance <= 0.0:
            raise ConfigError("quadrature.tolerance", "must be positive")
        if q.max_refinements < 0:
            raise ConfigError("quadrature.max_refinements", "must be >= 0")

    if "scan" in doc:
        sc = cfg["scan"] = _section(doc["scan"], "scan", ScanConfig,
                                    _number_list, _number_list, _number_list, _boolean)
        for i, alpha in enumerate(sc.exponents):
            if alpha <= -2.0:
                raise ConfigError(f"scan.exponents[{i}]", f"exponents must be > -2, got {alpha}")
            if alpha in sc.exponents[:i]:
                raise ConfigError(f"scan.exponents[{i}]", f"exponent {alpha} is repeated")
        for i, f in enumerate(sc.e_fractions):
            if not (0.0 < f < 1.0):
                raise ConfigError(f"scan.e_fractions[{i}]", "fractions must lie in (0, 1)")
        for i, lam in enumerate(sc.lambdas):
            if lam == 0.0:  # J = 0: no well to scan
                raise ConfigError(f"scan.lambdas[{i}]", "must be nonzero")

    if "levels" in doc:
        lv = doc["levels"]
        if not isinstance(lv, list) or not lv:
            raise ConfigError("levels", "expected a non-empty array")
        cfg["levels"] = tuple(_level(item, f"levels[{i}]") for i, item in enumerate(lv))

    if "algebra" in doc:
        al = cfg["algebra"] = _section(doc["algebra"], "algebra", AlgebraConfig, _integer, _number)
        if al.n_points < 1:
            raise ConfigError("algebra.n_points", "must be >= 1")
        if al.h <= 0.0:
            raise ConfigError("algebra.h", f"finite-difference step must be positive, got {al.h}")

    if "output" in doc:
        cfg["output"] = _section(doc["output"], "output", OutputConfig, _string, _format)

    return RunConfig(**cfg)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, which would keep a repeated key's last value."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is repeated")
        doc[key] = value
    return doc


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, a repeated key, past a limit
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return parse_config(doc)
