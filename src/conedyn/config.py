"""Run-configuration parsing: a single strict JSON document per experiment.

The CLI only selects the subcommand and a few overrides; everything that
defines the experiment lives in the config so runs are reproducible
artifacts.  Parsing is strict: unknown keys anywhere are rejected with the
offending field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

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


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    n_steps: int
    sample_every: int


@dataclass(frozen=True)
class ClosureConfig:
    enabled: bool
    tol: float


@dataclass(frozen=True)
class QuadratureConfig:
    tolerance: float
    max_refinements: int


@dataclass(frozen=True)
class ScanConfig:
    exponents: tuple[float, ...]
    e_fractions: tuple[float, ...]
    lambdas: tuple[float, ...]
    include_log_check: bool


@dataclass(frozen=True)
class AlgebraConfig:
    n_points: int
    h: float


@dataclass(frozen=True)
class OutputConfig:
    path: str
    format: str


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment definition; fields irrelevant to a command are None."""

    params: Params
    initial_point: PhasePoint | None
    initial_level: tuple[float, float] | None
    integrator: IntegratorConfig | None
    closure: ClosureConfig | None
    quadrature: QuadratureConfig
    scan: ScanConfig | None
    levels: tuple[tuple[float, float], ...] | None
    algebra: AlgebraConfig
    output: OutputConfig | None


def _check_keys(d: dict, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    unknown = set(d) - required - set(optional)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}", "missing required key")


def _number(d: dict, path: str, key: str) -> float:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


def _integer(d: dict, path: str, key: str) -> int:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _parse_geometry(d: dict, path: str) -> ConeGeometry:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    if "k" in d or "n" in d:
        _check_keys(d, path, {"k", "n"})
        return ConeGeometry.from_rational(_integer(d, path, "k"), _integer(d, path, "n"))
    _check_keys(d, path, {"s"})
    return ConeGeometry(s=_number(d, path, "s"))


def _parse_potential(d: dict, path: str) -> PotentialSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(path, "expected an object with a 'kind' key")
    kind = d["kind"]
    if kind == "kepler":
        _check_keys(d, path, {"kind", "kappa"})
        return Kepler(kappa=_number(d, path, "kappa"))
    if kind == "oscillator":
        _check_keys(d, path, {"kind", "omega"})
        return Oscillator(omega=_number(d, path, "omega"))
    if kind == "power_law":
        _check_keys(d, path, {"kind", "amplitude", "exponent"})
        return PowerLaw(amplitude=_number(d, path, "amplitude"),
                        exponent=_number(d, path, "exponent"))
    if kind == "log":
        _check_keys(d, path, {"kind", "strength", "r0"})
        return LogPotential(strength=_number(d, path, "strength"), r0=_number(d, path, "r0"))
    raise ConfigError(f"{path}.kind", f"unknown potential kind {kind!r}")


def _number_list(v: Any, path: str) -> tuple[float, ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a non-empty array of numbers")
    out = []
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise ConfigError(f"{path}[{i}]", f"expected a finite number, got {x!r}")
        out.append(float(x))
    return tuple(out)


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
    try:
        params = Params(
            m=_number(p, "params", "m"),
            geometry=_parse_geometry(p["geometry"], "params.geometry"),
            potential=_parse_potential(p["potential"], "params.potential"),
        )
    except ConfigError:
        raise
    except ConeDynError as exc:
        raise ConfigError("params", str(exc)) from exc

    initial_point = None
    initial_level = None
    if "initial" in doc:
        ini = doc["initial"]
        if not isinstance(ini, dict) or ("point" in ini) == ("level" in ini):
            raise ConfigError("initial", "give exactly one of 'point' or 'level'")
        if "point" in ini:
            _check_keys(ini, "initial", {"point"})
            pd = ini["point"]
            _check_keys(pd, "initial.point", {"r", "phi", "p_r", "J"})
            try:
                initial_point = PhasePoint(
                    r=_number(pd, "initial.point", "r"),
                    phi=_number(pd, "initial.point", "phi"),
                    p_r=_number(pd, "initial.point", "p_r"),
                    J=_number(pd, "initial.point", "J"),
                )
            except ConeDynError as exc:
                raise ConfigError("initial.point", str(exc)) from exc
        else:
            _check_keys(ini, "initial", {"level"})
            ld = ini["level"]
            _check_keys(ld, "initial.level", {"E", "J"})
            initial_level = (_number(ld, "initial.level", "E"),
                             _number(ld, "initial.level", "J"))

    integrator = None
    if "integrator" in doc:
        it = doc["integrator"]
        _check_keys(it, "integrator", {"dt", "n_steps", "sample_every"})
        integrator = IntegratorConfig(
            dt=_number(it, "integrator", "dt"),
            n_steps=_integer(it, "integrator", "n_steps"),
            sample_every=_integer(it, "integrator", "sample_every"),
        )
        if integrator.dt == 0.0:
            raise ConfigError("integrator.dt", "must be nonzero")
        if integrator.n_steps < 1 or integrator.sample_every < 1:
            raise ConfigError("integrator.n_steps", "n_steps and sample_every must be >= 1")
        if integrator.n_steps % integrator.sample_every != 0:
            raise ConfigError("integrator.n_steps", "must be a multiple of sample_every")

    closure = None
    if "closure" in doc:
        cl = doc["closure"]
        _check_keys(cl, "closure", {"enabled"}, {"tol"})
        if not isinstance(cl["enabled"], bool):
            raise ConfigError("closure.enabled", "expected a boolean")
        closure = ClosureConfig(
            enabled=cl["enabled"],
            tol=_number(cl, "closure", "tol") if "tol" in cl else 1e-6,
        )

    if "quadrature" in doc:
        q = doc["quadrature"]
        _check_keys(q, "quadrature", set(), {"tolerance", "max_refinements"})
        quadrature = QuadratureConfig(
            tolerance=_number(q, "quadrature", "tolerance") if "tolerance" in q else 1e-10,
            max_refinements=_integer(q, "quadrature", "max_refinements") if "max_refinements" in q else 6,
        )
        if quadrature.tolerance <= 0.0:
            raise ConfigError("quadrature.tolerance", "must be positive")
        if quadrature.max_refinements < 0:
            raise ConfigError("quadrature.max_refinements", "must be >= 0")
    else:
        quadrature = QuadratureConfig(tolerance=1e-10, max_refinements=6)

    scan = None
    if "scan" in doc:
        sc = doc["scan"]
        _check_keys(sc, "scan", {"exponents", "e_fractions", "lambdas"}, {"include_log_check"})
        include_log = sc.get("include_log_check", False)
        if not isinstance(include_log, bool):
            raise ConfigError("scan.include_log_check", "expected a boolean")
        scan = ScanConfig(
            exponents=_number_list(sc["exponents"], "scan.exponents"),
            e_fractions=_number_list(sc["e_fractions"], "scan.e_fractions"),
            lambdas=_number_list(sc["lambdas"], "scan.lambdas"),
            include_log_check=include_log,
        )
        for i, f in enumerate(scan.e_fractions):
            if not (0.0 < f < 1.0):
                raise ConfigError(f"scan.e_fractions[{i}]", "fractions must lie in (0, 1)")

    levels = None
    if "levels" in doc:
        lv = doc["levels"]
        if not isinstance(lv, list) or not lv:
            raise ConfigError("levels", "expected a non-empty array")
        out = []
        for i, item in enumerate(lv):
            _check_keys(item, f"levels[{i}]", {"E", "J"})
            out.append((_number(item, f"levels[{i}]", "E"), _number(item, f"levels[{i}]", "J")))
        levels = tuple(out)

    if "algebra" in doc:
        al = doc["algebra"]
        _check_keys(al, "algebra", set(), {"n_points", "h"})
        algebra = AlgebraConfig(
            n_points=_integer(al, "algebra", "n_points") if "n_points" in al else 100,
            h=_number(al, "algebra", "h") if "h" in al else 1e-5,
        )
        if algebra.n_points < 1:
            raise ConfigError("algebra.n_points", "must be >= 1")
        if algebra.h <= 0.0:
            raise ConfigError("algebra.h", f"finite-difference step must be positive, got {algebra.h}")
    else:
        algebra = AlgebraConfig(n_points=100, h=1e-5)

    output = None
    if "output" in doc:
        ou = doc["output"]
        _check_keys(ou, "output", {"path"}, {"format"})
        if not isinstance(ou["path"], str):
            raise ConfigError("output.path", "expected a string")
        fmt = ou.get("format", "csv")
        if fmt not in ("csv", "jsonl"):
            raise ConfigError("output.format", f"expected 'csv' or 'jsonl', got {fmt!r}")
        output = OutputConfig(path=ou["path"], format=fmt)

    return RunConfig(
        params=params,
        initial_point=initial_point,
        initial_level=initial_level,
        integrator=integrator,
        closure=closure,
        quadrature=quadrature,
        scan=scan,
        levels=levels,
        algebra=algebra,
        output=output,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return parse_config(doc)

