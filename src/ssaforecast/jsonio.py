"""Deterministic serialization: every float is written with 17 significant
digits ("%.17g", lossless for doubles) and non-finite values are refused, so
identical runs produce byte-identical artifacts.

A CSV row is formatted by one "%" template made from its cell types; a 2-D
float array, like a float array in JSON, is checked for finiteness in one
call and converted to Python floats a block of rows at a time.  Each file is
streamed to a temp file ``<name>.<pid>.<n>.tmp`` next to the target, unique
to the writer, which replaces the target once complete and is removed on any
error: the target is always either the old file or the complete new one.

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
# rows converted and written per block: bounds the Python floats held at once
_BLOCK_ROWS = 256
# cells from which a float array is formatted on several lanes: forking and
# joining two lanes of an 80 MB process takes about 3.5 ms, and "%.17g" about
# 0.64 us per float, so this many cells take about 42 ms on one lane
_LANE_CELLS = 1 << 16
_temp_ids = itertools.count()


def _non_finite(x) -> ValueError:
    return ValueError(f"refusing to serialize non-finite value {x}")


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise _non_finite(x)
    return "%.17g" % x


def _require_finite(values: np.ndarray) -> None:
    """Raise for the first non-finite entry in row-major order, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        raise _non_finite(float(values[~finite][0]))


def _bracket(items: list[str], level: int, open_: str, close: str) -> str:
    if not items:
        return open_ + close
    pad = " " * (_INDENT * level)
    child_pad = " " * (_INDENT * (level + 1))
    return f"{open_}\n{child_pad}" + f",\n{child_pad}".join(items) + f"\n{pad}{close}"


def _render_floats(values: list, level: int) -> str:
    """A nested list of finite floats, laid out as _render lays out lists."""
    if values and isinstance(values[0], list):
        items = [_render_floats(v, level + 1) for v in values]
    else:
        items = ["%.17g" % v for v in values]
    return _bracket(items, level, "[", "]")


def _render(obj, level: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        # every control character escaped, every other character as is
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            _require_finite(obj)
            return _render_floats(obj.tolist(), level)
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


def _row_format(types: tuple[type, ...]) -> tuple[str, list[int], list[int]]:
    """(template, float positions, bool positions) for rows with these cell
    types; a bool takes a "%s" slot and is passed in as "true" or "false"."""
    slots, floats, bools = [], [], []
    for i, kind in enumerate(types):
        if issubclass(kind, (bool, np.bool_)):
            bools.append(i)
            slots.append("%s")
        elif issubclass(kind, (int, np.integer)):
            slots.append("%d")
        elif issubclass(kind, (float, np.floating)):
            floats.append(i)
            slots.append("%.17g")
        else:
            slots.append("%s")
    return ",".join(slots) + "\n", floats, bools


def _is_float_matrix(rows) -> bool:
    return isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f"


def _float_blocks(rows: np.ndarray):
    """The CSV text of a finite 2-D float array, a block of rows at a time."""
    template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS].tolist()
        yield "".join([template % tuple(row) for row in block])


def _csv_blocks(rows):
    """The CSV text of `rows`, a block of rows at a time."""
    if _is_float_matrix(rows):
        _require_finite(rows)
        yield from _float_blocks(rows)
        return
    formats = {}
    lines = []
    isfinite = math.isfinite
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        spec = formats.get(types)
        if spec is None:
            spec = formats[types] = _row_format(types)
        template, floats, bools = spec
        for i in floats:
            if not isfinite(row[i]):
                raise _non_finite(float(row[i]))
        if bools:
            row = tuple(
                ("true" if cell else "false") if i in bools else cell
                for i, cell in enumerate(row)
            )
        lines.append(template % row)
        if len(lines) == _BLOCK_ROWS:
            yield "".join(lines)
            lines = []
    yield "".join(lines)


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
        if _is_float_matrix(rows) and rows.size >= _LANE_CELLS and lane_count() > 1:
            _require_finite(rows)
            _write_lanes(fh, rows)
        else:
            fh.writelines(_csv_blocks(rows))
