"""Result files as bytes: the writer behind every subcommand's output.

CSV and JSONL take one path.  A record's lines are assembled as byte
matrices, one matrix row per output line: the text that stands between
rendered cells (commas, or a JSONL object's braces and keys) is the same
on every line, a float64 column is one lane per value from a vectorized
float-text kernel, an integer column is rendered value by value, and
any other column once per distinct text.  The matrices are joined row by
row and a filler byte, which UTF-8 text never holds, is dropped.

The float kernel has one exact digit core and two layouts: ``'%.17g'``
for CSV (:func:`_g17`) and Python's shortest ``repr``, which ``json``
writes, for JSONL (:func:`_shortest`).  :mod:`conedyn.cli` imports this
module once a subcommand has its output path, so ``import conedyn.cli``
does not compile it.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Iterable, Sequence
from json.encoder import encode_basestring_ascii

import numpy as np

_MATRIX_LINES = 1024  # lines per byte matrix: bounds the matrices held at once
_JSON_COMPACT = json.JSONEncoder(separators=(",", ":"))

# The kernels' fast range is _TINY <= |x| < 1e16, so X = floor(log10 |x|)
# lies in [_XMIN, 15] (16 after a round up), and the digit core scales by
# 10**k for k = 16 - X <= 47.  Up to k = 27, 5**k < 2**63 is one uint64
# limb; above, 5**k 2**t is two, with t >= 0 the least that keeps the
# shift s + t of every x whose X is k's or one above at 64 or more.
_TINY = 1e-30
_XMIN = -31
_K1 = 27
_P5 = [5**k for k in range(17 - _XMIN)]
_T = [max(0, 11 + k + math.ceil((18 - k) * math.log2(10))) if k > _K1 else 0
      for k in range(len(_P5))]


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Integers below 2**128 as their low and high 64-bit limbs."""
    return (np.array([v & (2**64 - 1) for v in values], np.uint64),
            np.array([v >> 64 for v in values], np.uint64))


_POW5 = _limbs([p << t for p, t in zip(_P5, _T)])
_HALF5 = _limbs([p // 2 << t for p, t in zip(_P5, _T)])  # floor(5**k / 2) 2**t
_HALF5_UP = _limbs([(p // 2 + 1) << t for p, t in zip(_P5, _T)])
_SHIFT5 = np.array(_T)
_P10 = 10 ** np.arange(17, dtype=np.uint64)
_E4, _E8, _E16, _E17 = _P10[4], _P10[8], _P10[16], np.uint64(10**17)
_U0, _U1, _U32, _U64 = (np.uint64(v) for v in (0, 1, 32, 64))
_HALF = np.uint64(1 << 63)
_LOW32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64(1 << 52)  # the significand of a power of two
# a lane: sign, "0.000", 17 digits each followed by ".", exponent, 4 unused
_LANE = 48
_GAP = b"\xff"  # a byte the writer drops; UTF-8 text never holds it


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
    """How :func:`write` renders a column: "f" float64 and "i" integer
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


def _mul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a b = hi 2**64 + lo`` for uint64 arrays, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    lo0 = a0 * b0
    cross = a1 * b0
    mid = cross + a0 * b1
    lo = lo0 + (mid << _U32)
    hi = a1 * b1 + (mid >> _U32) + (lo < lo0) + ((mid < cross) << _U32)
    return lo, hi


def _add(N: list[np.ndarray], c: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """``N + c`` for little-endian uint64 limbs, c shorter than N."""
    out, carry = [], 0
    for i, n in enumerate(N):
        t = n + c[i] if i < len(c) else n
        u = t + carry
        out.append(u)
        carry = (t < n) | (u < t)
    return out


def _sub(N: list[np.ndarray], c: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """``N - c`` for little-endian uint64 limbs, c shorter than N and not
    larger."""
    out, borrow = [], 0
    for i, n in enumerate(N):
        t = n - c[i] if i < len(c) else n
        u = t - borrow
        out.append(u)
        borrow = (t > n) | (u > t)
    return out


def _narrow(M, E2, X, bounds: bool) -> list[np.ndarray]:
    """:func:`_digits` for ``k <= 27``, with two-limb products."""
    k = 16 - X
    s = -E2 - k  # M 2**E2 10**k = M 5**k / 2**s
    exact = (k.view(np.uint64) <= _K1) & ((s - 1).view(np.uint64) <= 62)  # 0..27, 1..63
    s = s.view(np.uint64)
    # M 5**k = hi 2**64 + lo from 32-bit limbs: no partial sum exceeds 2**64
    P = _POW5[0].take(k, mode="clip")
    m0, m1, p1 = M & _LOW32, M >> _U32, P >> _U32
    P &= _LOW32
    lo = m0 * P
    mid = m1 * P
    mid += m0 * p1
    hi = m1 * p1
    del m0, m1, p1, P
    low = lo
    lo = low + (mid << _U32)
    hi += mid >> _U32
    hi += lo < low
    del low, mid
    left = _U64 - s
    q = (hi << left) | (lo >> s)
    exact &= (hi >> s) == 0
    exact &= q - _E16 < _E17 - _E16
    out = [q, lo << left, exact]
    if bounds:
        H = _HALF5[0].take(k, mode="clip")
        a = lo + H
        above = ((hi + (a < lo)) << left) | (a >> s)
        H += _U1
        a = lo - H
        below = ((hi - (a > lo)) << left) | (a >> s)
        del a, H, lo, hi
        np.subtract(q, below, out=below)
        above -= q
        out += [below.view(np.int64) - 1, above.view(np.int64)]
    return out


def _wide(M, E2, X, bounds: bool) -> list[np.ndarray]:
    """:func:`_digits` for ``28 <= k <= 47``, with three-limb products: in
    ``M 5**k 2**t / 2**(s + t)`` the shift ``s + t`` is 64 to 127, so the
    quotient and the remainder's top word each straddle two limbs."""
    k = 16 - X
    s = -E2 - k
    exact = (k - _K1 - 1).view(np.uint64) <= len(_P5) - _K1 - 2  # 28..47
    k = k.clip(0, len(_P5) - 1)
    u = (s + _SHIFT5[k] - 64).view(np.uint64)
    exact &= u <= 63
    v = _U64 - u
    l0, h0 = _mul(M, _POW5[0][k])
    l1, h1 = _mul(M, _POW5[1][k])
    n1 = h0 + l1
    n2 = h1 + (n1 < h0)
    q = (n1 >> u) | (n2 << v)
    # the next 64 bits, and bit 0 set if a lower bit is
    frac = (l0 >> u) | (n1 << v) | ((l0 << v) != 0)
    out = [q, frac, exact & (q - _E16 < _E17 - _E16)]
    if bounds:
        _, b1, b2 = _sub([l0, n1, n2], (_HALF5_UP[0][k], _HALF5_UP[1][k]))
        _, a1, a2 = _add([l0, n1, n2], (_HALF5[0][k], _HALF5[1][k]))
        below, above = (b1 >> u) | (b2 << v), (a1 >> u) | (a2 << v)
        out += [(q - below).view(np.int64) - 1, (above - q).view(np.int64)]
    return out


def _digits(M, E2, X, bounds: bool) -> list[np.ndarray]:
    """For ``x = M 2**E2`` with ``M < 2**53`` and a guess X of floor(log10
    x), ``k = 16 - X`` and ``s = -E2 - k``: ``q = floor(x 10**k) = floor(M
    5**k / 2**s)``, the remainder as a fraction of 2**64 rounded to odd
    (exact where it is 0 or one half), and whether the lane is exact with
    q of 17 digits, which holds only where X is right.  With ``bounds``,
    also ``floor((H - r) / 2**s)`` and ``floor((H + r) / 2**s)`` as int64,
    for ``r = M 5**k mod 2**s`` and ``H = floor(5**k / 2)``: they are
    ``q - 1 - ((M 5**k - H - 1) >> s)`` and ``((M 5**k + H) >> s) - q``.
    Lanes with ``k <= 27`` take two uint64 limbs; the others, up to ``k =
    47``, take three, on those lanes only."""
    out = _narrow(M, E2, X, bounds)
    wide = np.flatnonzero(X < 16 - _K1)
    if wide.size:
        for o, w in zip(out, _wide(M[wide], E2[wide], X[wide], bounds)):
            o[wide] = w
    return out


def _decimal(x: np.ndarray, bounds: bool):
    """``M``, the exponent ``X`` and :func:`_digits` of each |x|, with X
    corrected where np.log10's guess was one off.  A lane outside the fast
    range, or not exact after the correction, is not ok."""
    a = np.abs(x)
    fast = (a >= _TINY) & (a < 1e16)
    a[~fast] = 1.0  # a stand-in, rendered by Python
    mantissa, E2 = np.frexp(a)
    mantissa *= 2.0**53
    M = mantissa.astype(np.uint64)
    E2 -= 53
    X = np.log10(a, out=a)
    X = np.floor(X, out=X).astype(np.int64)  # one off near a power of ten
    del a, mantissa
    out = _digits(M, E2, X, bounds)
    redo = np.flatnonzero(fast & ~out[2])
    if redo.size:
        X[redo] += np.where(out[0][redo] < _E16, -1, 1)
        for o, r in zip(out, _digits(M[redo], E2[redo], X[redo], bounds)):
            o[redo] = r
    out[2] &= fast
    return M, X, out


@functools.cache
def _digit_words() -> np.ndarray:
    """The 4-digit groups 0 to 9999 as words with a digit in each even byte."""
    g = np.arange(10**4, dtype=np.uint64)
    return sum((g // np.uint64(10**(3 - i)) % np.uint64(10) + np.uint64(48))
               << np.uint64(16 * i) for i in range(4))


@functools.cache
def _layouts(pad: int) -> np.ndarray:
    """The rest of a lane by exponent X (_XMIN to 16), place of the last
    digit that is not 0, and sign: row ``34 (X - _XMIN) + 2 place + sign``,
    as words.  Fixed notation holds for ``-4 <= X <= 16 - pad`` and shows
    the digits up to place ``X + pad`` at least; below or above it is
    ``d.ddde-XX``.  ``pad`` 0 is '%.17g', 1 repr's ``.0`` after an integer."""
    X = np.arange(_XMIN, 17)[:, None, None]
    last = np.arange(17)[:, None]
    whole = (X >= 0) & (X <= 16 - pad)  # ddd.ddd
    small = (X < 0) & (X >= -4)  # 0.000ddd
    expo = ~(whole | small)  # d.ddde-XX
    shown = np.where(whole, np.maximum(last, X + pad), last)
    keep = np.zeros((len(X), 17, 2, _LANE), bool)
    keep[..., 0] = np.arange(2)
    keep[..., 1:6] = np.arange(5) < np.where(small, 1 - X, 0)[..., None]
    keep[..., 6:40:2] = np.arange(17) <= shown[..., None]
    point = np.where(whole & (X < shown), X, np.where(expo & (last > 0), 0, -1))
    keep[..., 7:40:2] = np.arange(17) == point[..., None]
    keep[..., 40:44] = expo[..., None]
    text = np.zeros((len(X), 1, 1, _LANE), np.uint8)  # 0 where a digit goes
    text[..., :6] = np.frombuffer(b"-0.000", np.uint8)
    text[..., 7:40:2] = ord(".")
    text[..., 40] = ord("e")
    text[..., 41] = np.where(X < 0, ord("-"), ord("+"))
    text[..., 42] = abs(X) // 10 + ord("0")
    text[..., 43] = abs(X) % 10 + ord("0")
    return np.where(keep, text, np.uint8(_GAP[0])).reshape(-1, _LANE).view("<u8")


def _digit_lanes(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each q at the even bytes 6 to 38 of a lane, as
    words, and q's last group of four digits."""
    head = q // _E8
    d0 = head // _E8
    groups = np.empty((4, len(q)), np.uint64)
    groups[1] = head - d0 * _E8
    groups[3] = q - head * _E8
    groups[::2] = groups[1::2] // _E4
    groups[1::2] -= groups[::2] * _E4
    words = np.empty((len(q), _LANE // 8), "<u8")
    words[:, 0] = (d0 + np.uint64(48)) << np.uint64(48)
    words[:, 1:5] = _digit_words().take(groups.view(np.int64)).T
    words[:, 5] = 0
    return words, groups[3]


def _laid_out(words, x, X, last, ok, pad: int, render: Callable[[float], bytes]) -> np.ndarray:
    """The lanes of x as uint8 rows: digit words laid out by the table of
    ``pad``, and each lane not ok by ``render``."""
    words |= _layouts(pad).take(34 * (X - _XMIN) + 2 * last + np.signbit(x), axis=0, mode="clip")
    chars = words.view(np.uint8)
    rows = np.flatnonzero(~ok)
    if rows.size:
        chars[rows] = _padded(list(map(render, x[rows].tolist())), _LANE)
    return chars


def _g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each v of a float64 array: row i of the uint8
    matrix returned holds x[i]'s text, with _GAP bytes between and after
    its parts.

    A finite x with ``1e-30 <= |x| < 1e16`` has 17 significant digits
    ``q = floor(x 10**(16 - X))`` from :func:`_decimal`'s exact integer
    arithmetic, rounded to nearest with ties to even, as correctly rounded
    as Python's own formatting; a round up to 10**17 moves X up one.  A
    table row picked by X, sign and the last digit that is not 0 lays out
    %g's text: fixed notation for ``-4 <= X < 17``, ``d.ddde-XX``
    otherwise, without trailing zeros, and without a point that no digit
    follows.  Every other value (0, subnormals, non-finite, outside the
    range) and any lane the check rejects twice is rendered by Python's
    '%.17g'.
    """
    _, X, (q, frac, ok) = _decimal(x, False)
    q += (frac | (q & _U1)) > _HALF  # to nearest, ties to even
    carry = q == _E17
    q[carry] = _E16
    X += carry
    words, low = _digit_lanes(q)
    last = np.full(len(x), 16)  # the place of the last digit that is not 0
    rows = np.flatnonzero(low % np.uint64(10) == 0)
    if rows.size:
        last[rows] -= np.argmax(words.view(np.uint8)[rows, 38:5:-2] != ord("0"), axis=1)
    return _laid_out(words, x, X, last, ok, 0, b"%.17g".__mod__)


def _shortest(x: np.ndarray) -> np.ndarray:
    """``repr(v)``, as json writes a finite float, for each v of a float64
    array, in :func:`_g17`'s rows.

    repr is the shortest decimal that reads back as v, the nearest to v
    of those.  In units of the 17th digit, v is ``y = q + f`` with q and
    the fraction f from :func:`_decimal`, and the decimals that read back
    as v lie strictly inside ``(y - w, y + w)`` for ``w = 5**k / 2**(s+1)``
    (no multiple of 10**j lies on its ends, which are odd multiples of
    2**-(s+1)).  With ``b = q mod 10**j``, the multiple of 10**j below y is
    inside when ``b <= floor(w - f)``, the one above when ``10**j - b <=
    floor(w + f)``: :func:`_digits` gives both floors exactly.  A j that
    passes implies j - 1 does, so j runs up from 1 on the lanes that
    passed the last, and the largest j that passes gives the digits, with
    the last at place 16 - j not 0.  repr's layout is %g's but with fixed
    notation for ``-4 <= X < 16`` and ``.0`` after an integer.  Python
    renders the lanes where a rule of repr's own could decide otherwise (an
    exact tie, the asymmetric interval of a power of two, a round up to
    10**17) and, as for :func:`_g17`, the values outside the fast range.
    """
    M, X, (q, frac, ok, below, above) = _decimal(x, True)
    ok &= M != _M52
    j = np.zeros(len(x), np.int64)
    lanes = np.flatnonzero(ok)
    for p in range(1, 17):
        b = (q[lanes] % _P10[p]).view(np.int64)
        lanes = lanes[(b <= below[lanes]) | (10**p - b <= above[lanes])]
        if not lanes.size:
            break
        j[lanes] = p
    t = _P10.take(j)
    b = q % t
    q -= b  # the multiple of 10**j below y; t - b up to the one above
    low = b.view(np.int64) <= below
    high = (t - b).view(np.int64) <= above
    # with both inside: the nearer, 10**j - 2 b against 2 f
    e = (t - b - b).view(np.int64)
    del b, below, above
    up = ~low | (high & ((e < 0) | ((e == 0) & (frac != 0)) | ((e == 1) & (frac > _HALF))))
    ok &= ~(low & high & (((e == 0) & (frac == 0)) | ((e == 1) & (frac == _HALF))))
    del low, high, e, frac
    q += np.where(up, t, _U0)
    ok &= q < _E17
    words, _ = _digit_lanes(q)
    return _laid_out(words, x, X, 16 - j, ok, 1, lambda v: _json_cell(v).encode())


def _trimmed(chars: np.ndarray, count: int) -> list[np.ndarray]:
    """Kernel rows cut into columns of ``count`` rows, each less the leading
    and trailing bytes that are _GAP in every row of the column."""
    lanes = chars.reshape(-1, count, _LANE)
    words = lanes.view("<u8")
    heads = np.bitwise_and.reduce(words[:, :, 0], axis=1).tolist()
    tails = np.bitwise_and.reduce(words[:, :, -1], axis=1).tolist()
    out = []
    for column, head, tail in zip(lanes, heads, tails):
        head = head.to_bytes(8, "little").lstrip(_GAP)
        tail = tail.to_bytes(8, "little").rstrip(_GAP)
        out.append(column[:, 8 - len(head):_LANE - 8 + len(tail) if tail else 39])
    return out


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
    """A slice of an integer or object column as the kernels render a
    float column: an integer as str, which is also what json writes, and
    anything else by ``cell``, each distinct text once."""
    if kind == "i":
        return _padded([str(v).encode() for v in part.tolist()])
    index: dict[str, int] = {}
    inverse = [index.setdefault(text, len(index)) for text in map(cell, part)]
    return _padded([text.encode() for text in index])[inverse]


def write(f, fmt: str, header: list[str], lines: Sequence[Sequence],
          blocks: Iterable[Sequence]) -> None:
    """Write records of rows to the binary file ``f`` as CSV, or as JSONL
    objects keyed by ``header``; see :func:`conedyn.cli._write_rows`.

    A record's cells are ints, which pick a column of the block, or fixed
    cells, whose ``value`` stands on every row.  Every float64 column of
    up to ``_MATRIX_LINES`` lines goes through one kernel call, :func:`_g17`
    for CSV and :func:`_shortest` for JSONL, each integer is rendered by
    str, and each string once per call.
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

    if fmt == "csv":
        f.write((",".join(map(cell, header)) + "\n").encode())
        before = [""] + [","] * (max(map(len, lines)) - 1)
        end, kernel = "\n", _g17
    else:
        before = [("," if i else "{") + cell(key) + ":" for i, key in enumerate(header)]
        end, kernel = "}\n", _shortest
    refs = [c for line in lines for c in line if isinstance(c, int)]
    per_block = max(1, _MATRIX_LINES // len(lines))
    for block in blocks:
        kinds, fixed, same = _block_columns(block, refs)
        # the record as text that stands on every row between rendered columns
        parts, text = [], ""
        for line in lines:
            for prefix, c in zip(before, line):
                text += prefix
                if not isinstance(c, int) or c in fixed:
                    text += cell(fixed[c] if isinstance(c, int) else c.value)
                else:
                    parts += [text.encode(), same[c]]
                    text = ""
            text += end
        parts.append(text.encode())
        columns = {p for p in parts if isinstance(p, int)}
        floats = sorted(j for j in columns if kinds[j] == "f")
        count = len(block[0])
        for a in range(0, count, per_block):
            n = min(per_block, count - a)
            cols = {j: _text_column(block[j][a:a + n], kinds[j], cell)
                    for j in columns if kinds[j] != "f"}
            if floats:
                chars = kernel(np.concatenate([block[j][a:a + n] for j in floats]))
                cols.update(zip(floats, _trimmed(chars, n)))
            f.write(_join_rows([cols[p] if isinstance(p, int) else p for p in parts], n))
