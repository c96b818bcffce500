"""File output: one writer for the CSV and JSON tables the package emits,
and one for its JSON documents (reports, configs, summaries).

Rows are tuples in header order.  CSV writes floats with 6 significant
digits; JSON writes a list of objects whose floats are rounded to the
same 6 digits (`round6`).
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def round6(value: float) -> float:
    """`value` rounded to 6 significant digits, as the CSV tables print it."""
    return float(f"{value:.6g}")


def write_json(path, obj) -> None:
    """Write `obj` to `path` as `json.dump(obj, indent=2)` plus a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _json_float(value: float) -> str:
    value = round6(value)
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _json_layout(header, indent):
    """List opening, item separator, list closing and object template of `json.dump`."""
    keys = [f"{json.dumps(key)}: {{}}" for key in header]
    if indent is None:
        return "[", ", ", "]", "{{" + ", ".join(keys) + "}}"
    outer = "\n" + " " * indent
    inner = outer + " " * indent
    return ("[" + outer, "," + outer, "\n]",
            "{{" + inner + ("," + inner).join(keys) + outer + "}}")


def write_rows(path, header, rows, indent=None) -> None:
    """Write `rows` to `path` as CSV, or as JSON when the suffix is ``.json``.

    `rows` is consumed lazily, so a generator keeps memory flat however
    many rows there are.  The line template is built once from the first
    row: a float column is formatted as a float in every row.  `indent`
    lays the JSON out as `json.dump` would; CSV ignores it.
    """
    rows = iter(rows)
    first = next(rows, None)
    as_json = Path(path).suffix.lower() == ".json"
    with open(path, "w", encoding="utf-8") as fh:
        if first is None:
            fh.write("[]\n" if as_json else ",".join(header) + "\n")
        elif as_json:
            open_list, item_sep, close_list, obj = _json_layout(header, indent)
            encode = [_json_float if isinstance(v, float) else json.dumps for v in first]

            def fmt(row):
                return obj.format(*[f(v) for f, v in zip(encode, row)])

            fh.write(open_list + fmt(first))
            fh.writelines(item_sep + fmt(row) for row in rows)
            fh.write(close_list + "\n")
        else:
            line = ",".join("{:.6g}" if isinstance(v, float) else "{}" for v in first) + "\n"
            fh.write(",".join(header) + "\n" + line.format(*first))
            fh.writelines(line.format(*row) for row in rows)
