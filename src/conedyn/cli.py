"""Command-line front end: simulate | bertrand | actions | verify-algebra.

Each subcommand reads one JSON config (see :mod:`conedyn.config`), runs the
experiment, writes result files (CSV with floats as ``'%.17g'``, or JSONL
with floats as their shortest ``repr``, both round-tripping exactly), and
prints a JSON run summary to stdout.  Both formats go through
:mod:`conedyn.writer`: byte matrices of whole lines, and one exact,
vectorized float-text kernel with a layout per format.  A subcommand
imports it once it has its output path, so ``import conedyn.cli`` does
not compile it.  Diagnostics go to stderr, controlled by the CONE_LOG
environment variable (error | warn | info | debug).

Exit codes: 0 ok, 2 config error, 3 dynamics error, 4 scan/levels all
infeasible, 5 irrational scale factor where a rational one is required.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from . import __version__
from .actions import frequencies, hamiltonian_from_actions
from .bertrand import bertrand_scan, width_law_check
from .config import RunConfig, load_config
from .core import Kepler, LogPotential, Oscillator, Params, PhasePoint
from .dynamics import detect_closure, integrate, turning_points
from .errors import (
    ConeDynError,
    ConfigError,
    IrrationalScaleError,
    TipCollisionError,
)
from .sampling import UniformSource, draw_bound_points
from .symmetry import CHECK_ROWS, W_ALGEBRA_ROWS, _steps, phase_invariants, w_algebra_table

log = logging.getLogger("conedyn")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DYNAMICS = 3
EXIT_INFEASIBLE = 4
EXIT_IRRATIONAL = 5

_ALGEBRA_BLOCK = 4096  # points per W-algebra table: bounds its memory


@dataclass
class RunSummary:
    """What the run did, printed as JSON on stdout (never into result files)."""

    command: str
    wall_time_s: float
    seed: int
    results: dict
    exit_status: int


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("CONE_LOG", "warn").lower()
    if name not in levels:
        name = "warn"
    logging.basicConfig(stream=sys.stderr, level=levels[name],
                        format="conedyn %(levelname)s: %(message)s", force=True)


def _supports_global_invariant(params: Params) -> bool:
    return (
        isinstance(params.potential, (Kepler, Oscillator))
        and params.geometry.rational is not None
    )


def _initial_point(cfg: RunConfig) -> PhasePoint:
    if cfg.initial_point is not None:
        return cfg.initial_point
    if cfg.initial_level is None:
        raise ConfigError("initial", "simulate needs an 'initial' section")
    E, J = cfg.initial_level
    tp = turning_points(cfg.params, E, J)
    # Start at perigee with phi = 0; p_r vanishes there by definition.
    return PhasePoint(r=tp.r_min, phi=0.0, p_r=0.0, J=J)


class _Fixed(NamedTuple):
    """A cell with one value on every row of a file."""

    value: object


def _write_rows(path: str, fmt: str, header: list[str], lines: Sequence[Sequence],
                blocks: Iterable[Sequence]) -> None:
    """Write records of rows as CSV, or as JSONL objects keyed by ``header``.

    A record is one row per entry of ``lines``, and each entry lists a row's
    cells: an int picks that column of the block, a :class:`_Fixed` holds
    the cell's value for the whole file.  ``blocks`` yields lists of columns
    of equal length, one record per index.  CSV renders floats as
    ``'%.17g'``, which round-trips exactly, and other cells with str(),
    quoted as csv.writer quotes them.  A JSONL line equals
    ``json.dumps(dict(zip(header, row)), separators=(",", ":"))``.

    Each value is rendered once, with the bytes of its own rendering: a
    fixed cell and each distinct string once per call, a float64 column
    that holds one value over a block once per block, and a float64 column
    equal bit for bit to an earlier one over a block once per record; see
    :func:`conedyn.writer.write`.  A path that cannot be opened for writing
    raises :class:`ConfigError`.
    """
    from . import writer

    try:
        f = open(path, "wb")
    except OSError as exc:
        raise ConfigError("output.path", f"cannot write {path}: {exc.strerror or exc}") from exc
    with f:
        writer.write(f, fmt, header, lines, blocks)


def _resolve_output(cfg: RunConfig, args) -> tuple[str, str]:
    path = args.output or (cfg.output.path if cfg.output else None)
    if path is None:
        raise ConfigError("output.path", "no output path given (config or --output)")
    fmt = args.format or (cfg.output.format if cfg.output else "csv")
    # the writer is imported here, before the run allocates its arrays, so
    # the memory its import takes is reused by the run and not added to it
    from . import writer  # noqa: F401
    return path, fmt


def cmd_simulate(cfg: RunConfig, args) -> RunSummary:
    t0 = time.perf_counter()
    if cfg.integrator is None:
        raise ConfigError("integrator", "simulate needs an 'integrator' section")
    path, fmt = _resolve_output(cfg, args)
    params = cfg.params
    pt0 = _initial_point(cfg)
    it = cfg.integrator

    try:
        traj = integrate(params, pt0, it.dt, it.n_steps, it.sample_every)
    except TipCollisionError as exc:
        log.error("dynamics failed: %s", exc)
        return RunSummary("simulate", time.perf_counter() - t0, args.seed,
                          {"error": str(exc), "step_index": exc.step_index},
                          EXIT_DYNAMICS)

    with_z = _supports_global_invariant(params)
    header = ["t", "r", "phi", "p_r", "J", "H"] + (["Z_re", "Z_im"] if with_z else [])
    columns = [traj.times, traj.r, traj.phi, traj.p_r, traj.series_J, traj.series_H]
    if with_z:
        inv = phase_invariants(params, traj.r, traj.phi, traj.p_r, traj.series_J)
        columns += [inv.z_re, inv.z_im]
    _write_rows(path, fmt, header, [range(len(header))], [columns])

    h0 = float(traj.series_H[0])
    h_drift = float(np.abs(traj.series_H - h0).max()) / max(abs(h0), 1e-300)
    j_drift = float(np.abs(traj.series_J - traj.series_J[0]).max())
    results: dict = {
        "output": path,
        "samples": len(traj),
        "h_drift_rel": h_drift,
        "j_drift_abs": j_drift,
    }
    if with_z:
        zs = inv.z_re + 1j * inv.z_im
        results["z_drift_rel"] = float(np.abs(zs - zs[0]).max()) / max(abs(zs[0]), 1e-12)
    if cfg.closure is not None and cfg.closure.enabled:
        info = detect_closure(traj, tol=cfg.closure.tol)
        if info is None:
            results["closure"] = {"closed": False}
            log.info("no closure detected within the trajectory")
        else:
            results["closure"] = {"closed": True,
                                  "radial_periods": info.radial_periods,
                                  "time": info.closure_time}
            log.info("closed after %d radial periods", info.radial_periods)
    return RunSummary("simulate", time.perf_counter() - t0, args.seed, results, EXIT_OK)


def cmd_bertrand(cfg: RunConfig, args) -> RunSummary:
    t0 = time.perf_counter()
    if cfg.scan is None:
        raise ConfigError("scan", "bertrand needs a 'scan' section")
    path, fmt = _resolve_output(cfg, args)
    report = bertrand_scan(
        cfg.params, cfg.scan.exponents, cfg.scan.e_fractions, cfg.scan.lambdas,
        tolerance=cfg.quadrature.tolerance,
        max_refinements=cfg.quadrature.max_refinements,
    )
    header = ["family_param", "E", "lambda", "s_delta_phi", "status"]
    family, E, lam, value, status = zip(*report.cells)
    numbers = np.array([family, E, lam, [math.nan if v is None else v for v in value]])
    _write_rows(path, fmt, header, [range(5)], [[*numbers, list(status)]])

    n_ok = status.count("ok")
    results: dict = {
        "output": path,
        "passing": report.passing(),
        "verdicts": {str(v.family_param): v.verdict for v in report.verdicts},
        "flatness": {str(v.family_param): v.flatness for v in report.verdicts},
        "constants": {str(v.family_param): v.constant for v in report.verdicts},
        "cells_ok": n_ok,
        "cells_infeasible": len(report.cells) - n_ok,
    }
    if cfg.scan.include_log_check:
        from dataclasses import replace

        log_params = replace(cfg.params, potential=LogPotential(strength=1.0, r0=1.0))
        J = cfg.scan.lambdas[0] * cfg.params.geometry.s
        wl = width_law_check(log_params, J)
        results["width_law_log_residual"] = wl.max_residual
        log.info("log-potential width-law residual: %.3e", wl.max_residual)
    if n_ok == 0:
        results["error"] = "all scan cells infeasible"
        return RunSummary("bertrand", time.perf_counter() - t0, args.seed,
                          results, EXIT_INFEASIBLE)
    return RunSummary("bertrand", time.perf_counter() - t0, args.seed, results, EXIT_OK)


def cmd_actions(cfg: RunConfig, args) -> RunSummary:
    t0 = time.perf_counter()
    if cfg.levels is None:
        raise ConfigError("levels", "actions needs a 'levels' section")
    path, fmt = _resolve_output(cfg, args)
    header = ["E", "J", "i1", "i2", "omega1", "omega2", "ratio",
              "rational_p", "rational_q", "rational_error",
              "h_of_i", "roundtrip_rel_err", "status"]
    rows = []
    n_ok = 0
    ratios = []
    closed_form = isinstance(cfg.params.potential, (Kepler, Oscillator))
    for E, J in cfg.levels:
        try:
            data = frequencies(cfg.params, E, J,
                               tolerance=cfg.quadrature.tolerance,
                               max_refinements=cfg.quadrature.max_refinements)
        except ConeDynError as exc:
            rows.append([E, J] + [math.nan] * 10 + [f"error: {exc}"])
            log.warning("level (E=%g, J=%g) failed: %s", E, J, exc)
            continue
        if closed_form:
            h_of_i = hamiltonian_from_actions(cfg.params, data.i1, data.i2)
            rt_err = abs(h_of_i - E) / max(abs(E), 1e-300)
        else:
            h_of_i, rt_err = math.nan, math.nan
        ra = data.rational_approx
        rows.append([
            E, J, data.i1, data.i2, data.omega1, data.omega2, data.ratio,
            ra.p if ra else "", ra.q if ra else "",
            ra.error if ra else math.nan,
            h_of_i, rt_err, "ok",
        ])
        ratios.append(data.ratio)
        n_ok += 1
        log.info("level (E=%g, J=%g): ratio=%.12g rational=%s", E, J, data.ratio,
                 (ra.p, ra.q) if ra else None)
    # all but p, q and status are floats, which render by column
    columns = [c if name in ("rational_p", "rational_q", "status") else np.array(c, np.float64)
               for name, c in zip(header, zip(*rows))]
    _write_rows(path, fmt, header, [range(len(header))], [columns])
    results = {
        "output": path,
        "records_ok": n_ok,
        "records_failed": len(rows) - n_ok,
        "ratios": ratios,
    }
    status = EXIT_OK if n_ok > 0 else EXIT_INFEASIBLE
    return RunSummary("actions", time.perf_counter() - t0, args.seed, results, status)


def cmd_verify_algebra(cfg: RunConfig, args) -> RunSummary:
    t0 = time.perf_counter()
    params = cfg.params
    if not isinstance(params.potential, (Kepler, Oscillator)):
        raise ConfigError("params.potential",
                          "verify-algebra needs the Kepler or oscillator potential")
    if params.geometry.rational is None:
        print(
            "verify-algebra: the scale factor carries no exact rational form; "
            "only the locally defined (multivalued) invariant exists and no "
            "globally defined integral can be verified.",
            file=sys.stderr,
        )
        return RunSummary("verify-algebra", time.perf_counter() - t0, args.seed,
                          {"error": "irrational scale factor"}, EXIT_IRRATIONAL)
    path, fmt = _resolve_output(cfg, args)
    n_points, h = cfg.algebra.n_points, cfg.algebra.h
    coords = draw_bound_points(UniformSource(args.seed), params, n_points)
    _steps(coords, h)  # a point too near the tip fails here, before any row is written
    header = ["point_index", "bracket", "value_re", "value_im",
              "expected_re", "expected_im", "abs_err", "rel_err", "h", "role", "note"]
    # a block's columns are the point index, then each table field's eight rows
    lines = [[0, _Fixed(name), *(1 + 8 * field + k for field in range(6)),
              _Fixed(h), _Fixed(role), _Fixed(note)]
             for k, (name, role, note) in enumerate(W_ALGEBRA_ROWS)]
    worst = np.zeros(len(CHECK_ROWS))
    match_counts: Counter[str] = Counter()

    def blocks():
        # blocks of points bound the table's memory
        for start in range(0, n_points, _ALGEBRA_BLOCK):
            table = w_algebra_table(params, *coords[:, start:start + _ALGEBRA_BLOCK], h)
            count = table.zzbar_match.size
            np.maximum(worst, table.rel_err[list(CHECK_ROWS)].max(axis=1), out=worst)
            match_counts.update(table.zzbar_match.tolist())
            yield [np.arange(start, start + count), *(row for field in table[:6] for row in field)]

    _write_rows(path, fmt, header, lines, blocks())
    worst_by_name = {W_ALGEBRA_ROWS[i][0]: err for i, err in zip(CHECK_ROWS, worst.tolist())}
    results = {
        "output": path,
        "n_points": n_points,
        "worst_rel_err": worst_by_name,
        "zzbar_match": dict(match_counts),
    }
    for name, err in sorted(worst_by_name.items()):
        log.info("worst relative error %-10s %.3e", name, err)
    return RunSummary("verify-algebra", time.perf_counter() - t0, args.seed,
                      results, EXIT_OK)


_COMMANDS = {
    "simulate": cmd_simulate,
    "bertrand": cmd_bertrand,
    "actions": cmd_actions,
    "verify-algebra": cmd_verify_algebra,
}


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1  # rejected below, with the message of a negative seed
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conedyn",
        description="Central-force dynamics on a cone: simulation, closed-orbit "
                    "scans, action-angle analysis, bracket-algebra verification.",
    )
    parser.add_argument("--version", action="version", version=f"conedyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--output", help="override the config output path")
        p.add_argument("--seed", type=_seed_arg, default=0, help="seed for random sampling")
        p.add_argument("--format", choices=["csv", "jsonl"],
                       help="override the config output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        summary = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IrrationalScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IRRATIONAL
    except ConeDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    print(json.dumps(asdict(summary), indent=2, default=str))
    return summary.exit_status


if __name__ == "__main__":
    sys.exit(main())
