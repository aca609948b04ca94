"""Reference serializer: ssaforecast.jsonio as first written, one isinstance
chain, float() and format() per value, each CSV file built as one string
before it is written, and every array rendered element by element.

The functions below are that module verbatim, renamed with a ``reference_``
prefix and made to call one another, so tests can check that the streaming
serializer, with its vectorized "%.17g" for float arrays and one scalar rule
for JSON scalars and the cells of other CSV rows, writes the same bytes.
"""

import json
import math
import os
from pathlib import Path

import numpy as np


def reference_format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x}")
    return format(float(x), ".17g")


def reference_render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    child_pad = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_format_float(float(obj))
    if isinstance(obj, str):
        # not verbatim: the first version wrote control characters other
        # than \n, \r and \t raw, which is not JSON
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_render(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(child_pad + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{child_pad}{reference_render(str(k), indent, 0)}: {reference_render(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj, indent: int = 2) -> str:
    """JSON text with fixed float formatting and insertion-ordered keys."""
    return reference_render(obj, indent, 0) + "\n"


def reference_write_text_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def reference_write_json(path, obj) -> None:
    reference_write_text_atomic(path, reference_dumps(obj))


def reference_csv_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return reference_format_float(float(value))
    return str(value)


def reference_write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(reference_csv_cell(cell) for cell in row) for row in rows)
    reference_write_text_atomic(path, "\n".join(lines) + "\n")
