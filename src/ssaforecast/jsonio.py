"""Deterministic serialization: every float is written with 17 significant
digits ("%.17g", lossless for doubles) and non-finite values are refused, so
identical runs produce byte-identical artifacts.

One scalar rule, `_scalar_text`, turns a bool, integer or float into text,
for JSON and for each cell of a CSV row alike; any other CSV cell is written
as str() gives it.  A float array, in a CSV file or in JSON, is cast to
float64 and checked for finiteness once, then formatted by one vectorized
routine, `_float_text`, a block of cells at a time, into the bytes "%.17g"
writes.  Each file is streamed to a temp file ``<name>.<pid>.<n>.tmp`` next
to the target, unique to the writer, which replaces the target once complete
and is removed on any error: the target is always either the old file or the
complete new one.

A 2-D float array of at least `_LANE_CELLS` cells is formatted on one lane
per CPU (`lanes.run_side_by_side`) once it has passed the finiteness check.
Its rows are cut into one contiguous range per lane: lane 0 formats the
first range straight into the temp file, every other range goes to
``<temp>.part<k>``, and the parts are then appended in order by the kernel
(``os.sendfile``) and removed.  The bytes do not depend on the lane count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .lanes import lane_count, run_side_by_side

# spaces per nesting level of JSON output
_INDENT = 2
# float cells formatted per block: bounds _float_text's temporaries, about
# 170 bytes a cell (0.7 MiB a block by tracemalloc; a block of 256 rows took
# 1.6 MiB at 66 columns and 6.2 MiB at 257 as Python floats and strings)
_BLOCK_CELLS = 1 << 12
# cells from which a float array is formatted on several lanes.  Measured on
# 2 vCPUs in an 86 MB process: a second lane costs about 5 ms (fork, join,
# sendfile) and one lane formats and writes about 0.37 us a cell, so two
# lanes took 14.5 ms against one lane's 13.1 ms at 32,896 cells and 17.5 ms
# against 25.2 ms at 65,792 cells
_LANE_CELLS = 1 << 16
_temp_ids = itertools.count()


def _non_finite(x) -> ValueError:
    return ValueError(f"refusing to serialize non-finite value {x}")


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise _non_finite(x)
    return "%.17g" % x


def _scalar_text(x) -> str | None:
    """The text of a bool, integer or float, never empty; None for any other
    value."""
    # floats, the commonest cells, first; bools before integers, as a bool
    # is an int
    if isinstance(x, (float, np.floating)):
        return format_float(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return None


def _finite_float64(values: np.ndarray) -> np.ndarray:
    """A float array as float64 (itself if it is float64); raise for the
    first non-finite entry in row-major order, if any.  A longdouble beyond
    float64's range becomes inf here, without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        raise _non_finite(float(values[~finite][0]))
    return values


# -- "%.17g" of a float array ---------------------------------------------------
#
# For 1e-4 <= |x| < 1e17, "%.17g" % x is the integer
# D = round-half-even(|x| * 10**(16 - e10)), 1e16 <= D < 1e17, e10 being the
# decimal exponent of |x|, written in fixed notation without trailing zeros.
# 10**s is an exact double for s <= 20, so Dekker's two-product gives the
# product exactly as hi + lo; hi >= 1e16 is an even integer, so
# D = hi + rint(lo) rounds ties to even, as Python does.  Each cell's text is
# laid out in four little-endian 64-bit words, byte j in bits 8(j % 8) to
# 8(j % 8) + 7 of word j // 8: the sign at byte 0, then "0000000" and D's
# digits with the '.' inserted, cut to the bytes the text keeps, and the
# separator at byte 26.  The zero bytes left are then deleted.  The other
# cells (0, |x| < 1e-4, |x| >= 1e17) are formatted with "%.17g", as by
# format_float, in one call of the % operator per block.

_WORD = np.dtype("<u8")
_POW10 = np.array([float(10**s) for s in range(21)])


def _split(a):
    """Veltkamp's split of a into two halves of at most 26 bits each."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


_POW10_HI, _POW10_LO = _split(_POW10)
_BELOW_1E17 = np.nextafter(1e17, 0)


def _two_product(a, s):
    """hi, lo with hi + lo == a * 10**s exactly (Dekker 1971)."""
    hi = a * _POW10[s]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _divmod(n, k: int):
    """np.divmod(n, k), by floor division, which numpy does faster."""
    q = n // k
    return q, n - q * k


def _below(hi, lo, bound):
    """Whether hi + lo < bound, for the sum of a two-product."""
    return (hi < bound) | ((hi == bound) & (lo < 0))


_GROUPS = np.arange(10000, dtype=np.uint16)
# the ASCII digits of 0000-9999, as the low and the high half of a word
_DIGITS = np.stack([_GROUPS // 10**k % 10 for k in (3, 2, 1, 0)], axis=1).astype(np.uint8) + 48
_DIGITS_LO = _DIGITS.view("<u4").ravel().astype(_WORD)
_DIGITS_HI = _DIGITS_LO << np.uint64(32)
# _GROUP_END[k][g]: where the text ends, after its last nonzero digit, if
# that digit lies in g, the k-th 4-digit group (bytes 8 + 4k to 11 + 4k);
# 8, just after d0, if g is 0
_TRAILING_ZEROS = sum((_GROUPS % 10**k == 0).astype(np.uint8) for k in (1, 2, 3))
_GROUP_END = np.where(
    _GROUPS == 0, 8, 12 + 4 * np.arange(4, dtype=np.uint8)[:, None] - _TRAILING_ZEROS
).astype(np.uint8)
# Byte masks over the 24 digit bytes, for the '.' position p (the bytes
# before it are the integer part) and the end e: the integer part
# [min(p - 1, 7), p), indexed by p; the fraction [p, e), indexed by 25p + e,
# with its '.' at byte p - 1 if it is not empty.
_BYTE, _P, _E = np.arange(24), np.arange(25)[:, None, None], np.arange(25)[None, :, None]


def _as_words(table) -> np.ndarray:
    """Rows of 24 bytes as words, word k of row i at [k, i]."""
    return table.astype(np.uint8).reshape(-1, 24).view(_WORD).T.copy()


_INT_MASK = _as_words(np.where((_BYTE >= np.minimum(_P - 1, 7)) & (_BYTE < _P), 255, 0))
_FRAC_MASK = _as_words(np.where((_BYTE >= _P) & (_BYTE < _E), 255, 0))
_FRAC_DOT = _as_words(np.where((_BYTE == _P - 1) & (_E > _P), 46, 0))
_ZEROS = np.frombuffer(b"0000000\0", _WORD)[0]
_COMMA, _NEWLINE = np.uint64(44 << 16), np.uint64(10 << 16)


def _digits(a):
    """For each a, 1e-4 <= a < 1e17: the '.' position 8 + e10, the three
    digit words and the end of the text."""
    e10 = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e10, -4, 16, out=e10)
    hi, lo = _two_product(a, 16 - e10)
    # the estimate is off by one at most, near a power of ten
    low, high = _below(hi, lo, 1e16), ~_below(hi, lo, 1e17)
    fix = np.flatnonzero(low | high)
    if fix.size:
        e10[fix] += high[fix].astype(np.int64) - low[fix]
        hi[fix], lo[fix] = _two_product(a[fix], 16 - e10[fix])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # d = d0 g1 g2 g3 g4, one digit and four 4-digit groups
    upper, lower = _divmod(d, 100000000)
    d0, upper = _divmod(upper, 100000000)
    g1, g2 = _divmod(upper, 10000)
    g3, g4 = _divmod(lower, 10000)
    # the digit bytes "0000000" d0 g1 g2 g3 g4
    words = (
        (d0.astype(_WORD) + np.uint64(48)) << np.uint64(56) | _ZEROS,
        _DIGITS_LO[g1] | _DIGITS_HI[g2],
        _DIGITS_LO[g3] | _DIGITS_HI[g4],
    )
    end = np.maximum(
        np.maximum(_GROUP_END[0][g1], _GROUP_END[1][g2]),
        np.maximum(_GROUP_END[2][g3], _GROUP_END[3][g4]),
    )
    return e10 + 8, words, end


def _cells(a, negative) -> np.ndarray:
    """Rows of four words holding the text of each a, 1e-4 <= a < 1e17,
    with a '-' where `negative`, and no separator."""
    point, digits, end = _digits(a)
    frac = point * 25 + np.maximum(end, point)
    i0, i1, i2 = (s & mask[point] for s, mask in zip(digits, _INT_MASK))
    f0, f1, f2 = (s & mask[frac] | dot[frac] for s, mask, dot in zip(digits, _FRAC_MASK, _FRAC_DOT))
    # the integer part one byte up, after the sign; the fraction two
    b8, b16, b48, b56 = (np.uint64(k) for k in (8, 16, 48, 56))
    words = np.empty((a.size, 4), _WORD)
    words[:, 0] = i0 << b8 | f0 << b16 | negative.view(np.uint8) * np.uint64(45)
    words[:, 1] = i1 << b8 | i0 >> b56 | f1 << b16 | f0 >> b48
    words[:, 2] = i2 << b8 | i1 >> b56 | f2 << b16 | f1 >> b48
    words[:, 3] = i2 >> b56 | f2 >> b48
    return words


def _float_text(values: np.ndarray) -> str:
    """The CSV lines of a finite 2-D float64 array with at least one column:
    each cell's "%.17g" text, followed by "," or, after a row's last
    cell, by a newline."""
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    # the other cells get a value in range, and are overwritten below
    np.clip(a, 1e-4, _BELOW_1E17, out=a)
    words = _cells(a, x < 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        rest = x[slow]
        # at most 24 characters each, so padded to 24 they fill three words
        text = ("%-24.17g" * rest.size % tuple(rest.tolist())).encode("ascii")
        words[slow, :3] = np.frombuffer(text.replace(b" ", b"\0"), _WORD).reshape(-1, 3)
        words[slow, 3] = 0
    separators = words.reshape(len(values), -1, 4)[:, :, 3]
    separators[:, :-1] |= _COMMA
    separators[:, -1] |= _NEWLINE
    chars = words.view(np.uint8).ravel()
    return chars[chars != 0].tobytes().decode("ascii")


def _bracket(items: list[str], level: int, open_: str, close: str) -> str:
    if not items:
        return open_ + close
    pad = " " * (_INDENT * level)
    child_pad = " " * (_INDENT * (level + 1))
    return f"{open_}\n{child_pad}" + f",\n{child_pad}".join(items) + f"\n{pad}{close}"


def _nest(items: list[str], shape: tuple[int, ...], level: int) -> str:
    """The rendered innermost lists of an array, in row-major order, laid
    out as _render lays out nested lists; `shape` leaves out the last axis."""
    if not shape:
        return items[0]
    size = math.prod(shape[1:])
    items = [_nest(items[i * size : (i + 1) * size], shape[1:], level + 1) for i in range(shape[0])]
    return _bracket(items, level, "[", "]")


def _render_floats(values: np.ndarray, level: int) -> str:
    """A finite float array, laid out as _render lays out nested lists."""
    *outer, inner = values.shape
    depth = level + len(outer)
    lines = (
        line
        for block in _float_blocks(values.reshape(math.prod(outer), inner))
        for line in block[:-1].split("\n")
    )
    rows = [_bracket(line.split(",") if line else [], depth, "[", "]") for line in lines]
    return _nest(rows, tuple(outer), level)


def _render(obj, level: int) -> str:
    if obj is None:
        return "null"
    text = _scalar_text(obj)
    if text is not None:
        return text
    if isinstance(obj, str):
        # every control character escaped, every other character as is
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            return _render_floats(_finite_float64(obj), level)
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return _bracket([_render(v, level + 1) for v in obj], level, "[", "]")
    if isinstance(obj, dict):
        items = [f"{_render(str(k), 0)}: {_render(v, level + 1)}" for k, v in obj.items()]
        return _bracket(items, level, "{", "}")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """JSON text with fixed float formatting and insertion-ordered keys."""
    return _render(obj, 0) + "\n"


@contextmanager
def _atomic_open(path):
    """Text file handle on a fresh temp file next to `path`; the temp file
    replaces `path` when the block completes and is removed if it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_temp_ids)}.tmp")
        try:
            fh = open(tmp, "x", encoding="utf-8")
        except FileExistsError:  # left by a dead process with this pid
            continue
        break
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    text = dumps(obj)
    with _atomic_open(path) as fh:
        fh.write(text)


def _float_blocks(rows: np.ndarray):
    """The CSV text of a finite 2-D float array, a block of rows of at most
    `_BLOCK_CELLS` cells (or one row) at a time."""
    if not rows.shape[1]:
        yield "\n" * len(rows)
        return
    step = max(1, _BLOCK_CELLS // rows.shape[1])
    for start in range(0, len(rows), step):
        yield _float_text(rows[start : start + step])


def _write_rows(fh, rows: np.ndarray) -> None:
    fh.writelines(_float_blocks(rows))


def _write_part(path: Path, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, rows)


def _write_lanes(fh, rows: np.ndarray) -> None:
    """Write the finite float array `rows` to the open temp file `fh`, one
    contiguous range of rows per lane."""
    lanes = min(lane_count(), len(rows))
    size, extra = divmod(len(rows), lanes)
    cuts = [k * size + min(k, extra) for k in range(lanes + 1)]
    ranges = [rows[a:b] for a, b in zip(cuts, cuts[1:])]
    # the first ranges are the longest, so task 0, which writes to `fh`,
    # runs on lane 0, in this process
    parts = [Path(f"{fh.name}.part{k}") for k in range(1, lanes)]
    tasks = [(_write_rows, (fh, ranges[0]))]
    tasks += [(_write_part, (part, block)) for part, block in zip(parts, ranges[1:])]
    # nothing buffered before the fork, so no worker holds a copy of it
    fh.flush()
    try:
        outcomes = run_side_by_side(tasks, [len(block) for block in ranges])
        if isinstance(outcomes[-1], Exception):
            raise outcomes[-1]
        fh.flush()
        for part in parts:
            with open(part, "rb") as src:
                offset, end = 0, os.fstat(src.fileno()).st_size
                while offset < end:
                    offset += os.sendfile(fh.fileno(), src.fileno(), offset, end - offset)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def write_csv(path, header: list[str], rows) -> None:
    """Write `header` and `rows` (any iterable of row iterables, or a 2-D
    float array) as comma-separated lines."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
            rows = _finite_float64(rows)
            if rows.size >= _LANE_CELLS and lane_count() > 1:
                _write_lanes(fh, rows)
            else:
                _write_rows(fh, rows)
        else:
            fh.writelines(
                ",".join([_scalar_text(cell) or str(cell) for cell in row]) + "\n" for row in rows
            )
