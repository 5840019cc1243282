"""Command-line front end: simulate | bertrand | actions | verify-algebra.

Each subcommand reads one JSON config (see :mod:`conedyn.config`), runs the
experiment, writes result files (CSV with floats as ``'%.17g'``, or JSONL
with floats as their shortest ``repr``, both round-tripping exactly), and
prints a JSON run summary to stdout.  Diagnostics go to stderr, controlled
by the CONE_LOG environment variable (error | warn | info | debug).

Exit codes: 0 ok, 2 config error, 3 dynamics error, 4 scan/levels all
infeasible, 5 irrational scale factor where a rational one is required.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain
from dataclasses import dataclass, asdict
from typing import NamedTuple
from json.encoder import encode_basestring_ascii

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
from .sampling import draw_bound_points
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


_JSON_COMPACT = json.JSONEncoder(separators=(",", ":"))
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CHUNK_LINES = 512  # JSONL lines per %: bounds the text and lists held at once
_CSV_ROWS = 1024  # CSV lines per byte matrix: bounds the matrices held at once

_POW5 = 5 ** np.arange(28, dtype=np.uint64)  # 5**27 < 2**63
_E4, _E8, _E16, _E17 = (np.uint64(10**p) for p in (4, 8, 16, 17))
_U1, _U32, _U64, _HALF = np.uint64(1), np.uint64(32), np.uint64(64), np.uint64(1 << 63)
_LOW32 = np.uint64(0xFFFFFFFF)
# a _g17 lane: sign, "0.000", 17 digits each followed by ".", exponent, 4 unused
_LANE = 48
_GAP = b"\xff"  # a byte the CSV writer drops; UTF-8 text never holds it


class _Fixed(NamedTuple):
    """A cell with one value on every row of a file."""

    value: object


def _csv_cell(value) -> str:
    """A cell as csv.writer renders it (QUOTE_MINIMAL), but with floats,
    numpy's included, to 17 significant digits."""
    text = "%.17g" % value if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_cell(value) -> str:
    """A value as json.dumps renders it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return _JSON_COMPACT.encode(value)


def _kind(column) -> str:
    """How :func:`_write_rows` renders a column: "f" float64 and "i" integer
    arrays as numbers, "O" anything else cell by cell."""
    dtype = getattr(column, "dtype", None)
    if dtype == np.float64:
        return "f"
    return "i" if dtype is not None and dtype.kind in "iu" else "O"


def _padded(data: list[bytes], width: int = 0) -> np.ndarray:
    """Each bytes at the start of one row of a uint8 matrix, the rest of
    the row _GAP bytes."""
    width = max(width, 1, *map(len, data))
    return np.frombuffer(b"".join(d.ljust(width, _GAP) for d in data),
                         np.uint8).reshape(len(data), width)


def _scaled(M: np.ndarray, E2: np.ndarray, X: np.ndarray):
    """``q = floor(M 2**E2 10**(16 - X))`` for 53-bit integers M, whether q
    rounds up (to nearest, ties to even), and whether q is exact and has
    17 digits.  A shift out of range gives 0 in numpy; such lanes fail."""
    k = 16 - X
    s = -E2 - k  # M 2**E2 10**k = M 5**k / 2**s
    exact = (k.view(np.uint64) <= 27) & ((s - 1).view(np.uint64) <= 62)  # 0..27, 1..63
    P = _POW5.take(k, mode="clip")
    s = s.view(np.uint64)
    # M 5**k = hi 2**64 + lo from 32-bit limbs: no partial sum exceeds 2**64
    m0, m1, p0, p1 = M & _LOW32, M >> _U32, P & _LOW32, P >> _U32
    lo0 = m0 * p0
    mid = m1 * p0 + m0 * p1
    lo = lo0 + (mid << _U32)
    hi = m1 * p1 + (mid >> _U32) + (lo < lo0)
    left = _U64 - s
    q = (hi << left) | (lo >> s)
    up = ((lo << left) | (q & _U1)) > _HALF  # the remainder, as a fraction of 2**64
    return q, up, exact & ((hi >> s) == 0) & (q - _E16 < _E17 - _E16)


@functools.cache
def _g17_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4-digit groups 0 to 9999 as words with a digit in each even
    byte, and the rest of a :func:`_g17` lane by exponent X (-11 to 16),
    place of the last digit that is not 0, and sign: row
    ``34 (X + 11) + 2 place + sign``, as words."""
    g = np.arange(10**4, dtype=np.uint64)
    digits = sum((g // np.uint64(10**(3 - i)) % np.uint64(10) + np.uint64(48))
                 << np.uint64(16 * i) for i in range(4))
    X = np.arange(-11, 17)[:, None, None]
    last = np.arange(17)[:, None]
    whole = (X >= 0) & (X <= 16)  # ddd.ddd
    small = (X < 0) & (X >= -4)  # 0.000ddd
    expo = ~(whole | small)  # d.ddde-XX
    keep = np.zeros((28, 17, 2, _LANE), bool)
    keep[..., 0] = np.arange(2)
    keep[..., 1:6] = np.arange(5) < np.where(small, 1 - X, 0)[..., None]
    keep[..., 6:40:2] = np.arange(17) <= np.where(whole, np.maximum(last, X), last)[..., None]
    point = np.where(whole & (X < last), X, np.where(expo & (last > 0), 0, -1))
    keep[..., 7:40:2] = np.arange(17) == point[..., None]
    keep[..., 40:44] = expo[..., None]
    text = np.zeros((28, 1, 1, _LANE), np.uint8)  # 0 where a digit goes
    text[..., :6] = np.frombuffer(b"-0.000", np.uint8)
    text[..., 7:40:2] = ord(".")
    text[..., 40] = ord("e")
    text[..., 41] = np.where(X < 0, ord("-"), ord("+"))
    text[..., 42] = abs(X) // 10 + ord("0")
    text[..., 43] = abs(X) % 10 + ord("0")
    lanes = np.where(keep, text, np.uint8(_GAP[0]))
    return digits, lanes.reshape(-1, _LANE).view("<u8")


def _g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each v of a float64 array: row i of the uint8
    matrix returned holds x[i]'s text, with _GAP bytes between and after
    its parts.

    A finite x with ``1e-10 <= |x| < 1e16`` is ``M 2**E2`` with M < 2**53.
    Its 17 significant digits are ``M 5**k / 2**s`` for ``k = 16 - X``,
    X = floor(log10 |x|), rounded to nearest with ties to even: exact
    integer arithmetic on uint64 (128-bit products from 32-bit limbs), as
    correctly rounded as Python's own formatting.  The floor of the product
    lies in [10**16, 10**17) exactly when X is right, so np.log10's guess of
    X is checked and corrected; a round up to 10**17 moves X up one.  A row
    holds a sign, "0.000", the 17 digits each followed by a point, and an
    exponent, as little-endian words; a table row picked by X, sign and
    the last digit that is not 0 lays out %g's text: fixed notation for
    ``-4 <= X < 17``, ``d.ddde-XX`` below, without trailing zeros, and
    without a point that no digit follows.  Every other value (0,
    subnormals, non-finite, outside the range) and any lane the check
    rejects twice is rendered by Python's '%.17g'.
    """
    digits, layouts = _g17_tables()
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e16)
    a[~fast] = 1.0  # a stand-in, rendered below by Python
    mantissa, E2 = np.frexp(a)
    M = (mantissa * 2.0**53).astype(np.uint64)
    E2 -= 53
    X = np.floor(np.log10(a)).astype(np.int64)  # one off near a power of ten
    q, up, ok = _scaled(M, E2, X)
    redo = np.flatnonzero(fast & ~ok)
    if redo.size:
        X[redo] += np.where(q[redo] < _E16, -1, 1)
        q[redo], up[redo], ok[redo] = _scaled(M[redo], E2[redo], X[redo])
    ok &= fast
    q += up
    carry = q == _E17
    q[carry] = _E16
    X += carry

    # digit 0, then four groups of four digits
    head = q // _E8
    d0 = head // _E8
    groups = np.empty((4, n), np.uint64)
    groups[1] = head - d0 * _E8
    groups[3] = q - head * _E8
    groups[::2] = groups[1::2] // _E4
    groups[1::2] -= groups[::2] * _E4
    words = np.empty((n, _LANE // 8), "<u8")
    words[:, 0] = (d0 + np.uint64(48)) << np.uint64(48)
    words[:, 1:5] = digits.take(groups.view(np.int64)).T
    words[:, 5] = 0
    chars = words.view(np.uint8)
    last = np.full(n, 16)  # the place of the last digit that is not 0
    rows = np.flatnonzero(groups[3] % np.uint64(10) == 0)
    if rows.size:
        last[rows] -= np.argmax(chars[rows, 38:5:-2] != ord("0"), axis=1)
    words |= layouts.take(34 * (X + 11) + 2 * last + np.signbit(x), axis=0, mode="clip")

    rows = np.flatnonzero(~ok)
    if rows.size:
        chars[rows] = _padded(list(map(b"%.17g".__mod__, x[rows].tolist())), _LANE)
    return chars


def _trim(lanes: np.ndarray) -> np.ndarray:
    """The bytes of :func:`_g17` rows less the leading and trailing ones
    that are _GAP in every row."""
    words = lanes.view("<u8")
    head = int(np.bitwise_and.reduce(words[:, 0])).to_bytes(8, "little")
    tail = int(np.bitwise_and.reduce(words[:, -1])).to_bytes(8, "little").rstrip(_GAP)
    return lanes[:, 8 - len(head.lstrip(_GAP)):_LANE - 8 + len(tail) if tail else 39]


def _join_rows(parts: list, count: int) -> bytes:
    """The bytes of ``count`` rows, each the concatenation of ``parts``:
    bytes stand on every row, a uint8 matrix gives each row its own row,
    and the _GAP bytes are dropped."""
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    out = np.empty((count, sum(widths)), np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        out[:, at:at + width] = np.frombuffer(part, np.uint8) if isinstance(part, bytes) else part
        at += width
    return out.tobytes().translate(None, _GAP)


def _block_columns(block: Sequence, refs: list[int]):
    """How a block's columns render: each one's kind, the float columns that
    hold one value (column -> value), and for each column the first column
    equal to it bit for bit (itself if none)."""
    kinds = {j: _kind(block[j]) for j in set(refs)}
    fixed, same, seen = {}, {}, {}
    for j in sorted(kinds):
        same[j] = j
        if kinds[j] != "f":
            continue
        bits = block[j].view(np.int64)
        if (bits == bits[0]).all():
            fixed[j] = block[j][0].item()
            continue
        i = seen.setdefault(hash(bits.tobytes()), j)
        if i != j and np.array_equal(bits, block[i].view(np.int64)):
            same[j] = i
    return kinds, fixed, same


def _text_column(part, kind: str, cell) -> np.ndarray:
    """A slice of an integer or object column as :func:`_g17` renders a
    float column, each distinct integer or text rendered once."""
    if kind == "i":
        values, inverse = np.unique(part, return_inverse=True)
        texts = list(map(cell, values.tolist()))
    else:
        index: dict[str, int] = {}
        inverse = [index.setdefault(text, len(index)) for text in map(cell, part)]
        texts = list(index)
    return _padded([text.encode() for text in texts])[inverse]


def _write_csv(f, header: list[str], lines: Sequence[Sequence], blocks, cell) -> None:
    """CSV rows as byte matrices: every float64 column of up to ``_CSV_ROWS``
    lines goes through :func:`_g17` in one call."""
    f.write((",".join(map(cell, header)) + "\n").encode())
    refs = [c for line in lines for c in line if not isinstance(c, _Fixed)]
    per_block = max(1, _CSV_ROWS // len(lines))
    for block in blocks:
        kinds, fixed, same = _block_columns(block, refs)
        # the record as text that stands on every row between rendered columns
        parts, text = [], ""
        for line in lines:
            for i, c in enumerate(line):
                text += "," if i else ""
                if isinstance(c, _Fixed) or c in fixed:
                    text += cell(c.value if isinstance(c, _Fixed) else fixed[c])
                else:
                    parts += [text.encode(), same[c]]
                    text = ""
            text += "\n"
        parts.append(text.encode())
        columns = {p for p in parts if isinstance(p, int)}
        floats = sorted(j for j in columns if kinds[j] == "f")
        count = len(block[0])
        for a in range(0, count, per_block):
            n = min(per_block, count - a)
            cols = {j: _text_column(block[j][a:a + n], kinds[j], cell)
                    for j in columns if kinds[j] != "f"}
            if floats:
                chars = _g17(np.concatenate([block[j][a:a + n] for j in floats]))
                for i, j in enumerate(floats):
                    cols[j] = _trim(chars[i * n:(i + 1) * n])
            f.write(_join_rows([cols[p] if isinstance(p, int) else p for p in parts], n))


def _write_jsonl(f, header: list[str], lines: Sequence[Sequence], blocks, cell) -> None:
    """JSONL lines through one ``%`` per ``_CHUNK_LINES`` lines: numbers go
    into it raw, since str(float) is the repr json writes, and only the
    non-finite floats, found by np.isfinite, get json's names."""

    def literal(value) -> str:  # a cell written into the % template
        return cell(value).replace("%", "%%")

    refs = [c for line in lines for c in line if not isinstance(c, _Fixed)]
    keys = [literal(key) + ":" for key in header]
    per_chunk = max(1, _CHUNK_LINES // len(lines))
    for block in blocks:
        kinds, fixed, same = _block_columns(block, refs)
        order = [same[c] for c in refs if c not in fixed]  # the column of each %
        columns = set(order)
        # those a record repeats are rendered before the %
        repeated = {j for j in columns if kinds[j] == "f" and order.count(j) > 1}
        fix = {j for j in columns if kinds[j] == "f" and not np.isfinite(block[j]).all()}
        pieces = [[literal(c.value) if isinstance(c, _Fixed) else literal(fixed[c])
                   if c in fixed else "%s" for c in line] for line in lines]
        template = "".join("{" + ",".join(map(str.__add__, keys, p)) + "}\n" for p in pieces)
        count = len(block[0])
        for a in range(0, count, per_chunk):
            cols = {}
            for j in columns:
                part = block[j][a:a + per_chunk]
                if kinds[j] == "O":
                    cols[j] = list(map(cell, part))
                    continue
                values = part.tolist()
                if j in fix:
                    for i in np.flatnonzero(~np.isfinite(part)).tolist():
                        values[i] = _JSON_NONFINITE[repr(values[i])]
                cols[j] = list(map(str, values)) if j in repeated else values
            values = chain.from_iterable(zip(*[cols[j] for j in order]))
            f.write((template * min(per_chunk, count - a) % tuple(values)).encode())


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
    equal bit for bit to an earlier one over a block once per record.  CSV
    renders float64 columns with :func:`_g17`, and each distinct integer
    once per ``_CSV_ROWS`` lines.  A path that cannot be opened for writing
    raises :class:`ConfigError`.
    """
    render = _csv_cell if fmt == "csv" else _json_cell
    strings: dict[str, str] = {}

    def cell(value) -> str:
        if type(value) is not str:
            return render(value)
        out = strings.get(value)
        if out is None:
            out = strings[value] = render(value)
        return out

    try:
        f = open(path, "wb")
    except OSError as exc:
        raise ConfigError("output.path", f"cannot write {path}: {exc.strerror or exc}") from exc
    with f:
        (_write_csv if fmt == "csv" else _write_jsonl)(f, header, lines, blocks, cell)


def _resolve_output(cfg: RunConfig, args) -> tuple[str, str]:
    path = args.output or (cfg.output.path if cfg.output else None)
    if path is None:
        raise ConfigError("output.path", "no output path given (config or --output)")
    fmt = args.format or (cfg.output.format if cfg.output else "csv")
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
    numbers = np.array([[c.family_param, c.E, c.lam,
                         c.s_delta_phi if c.s_delta_phi is not None else math.nan]
                        for c in report.cells])
    _write_rows(path, fmt, header, [range(5)],
                [[*numbers.T, [c.status for c in report.cells]]])

    n_ok = sum(1 for c in report.cells if c.status == "ok")
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
    rng = np.random.default_rng(args.seed)
    n_points, h = cfg.algebra.n_points, cfg.algebra.h
    coords = draw_bound_points(rng, params, n_points)
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
