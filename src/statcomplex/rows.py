"""File output: one opener for every file the package writes, one writer for
the CSV and JSON tables it emits, and one for its JSON documents (reports,
configs, summaries).

Rows are tuples in header order.  CSV writes floats with 6 significant
digits; JSON writes a list of objects whose floats are rounded to the
same 6 digits (`round6`).  Both JSON writers lay a list of rows out from
one template per list (`RowList`), byte for byte as `json.dump` would.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

_INDENT = 2
# Rows per block of `_json_list`: bounds the text held at once.
_BLOCK_ROWS = 4096
# The repr of a non-finite float, and the token `json.dumps` writes for it.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@contextmanager
def open_output(path, binary: bool = False):
    """`path` opened for writing, as a UTF-8 text file or, with `binary`, a
    binary one; the file is created with mode 0o666 less the umask.

    An existing file is written over in place, not truncated on open, and
    cut at the position where writing ended when the block exits, also on
    an error, and only if it is a regular file (so `os.devnull` or a FIFO
    works).  The bytes, inode, mode, symlinks and hard links end as
    `open(path, "w")` leaves them, but ext4 does not start the file's
    writeback at close, as it does for a file truncated on open and then
    written (its ``auto_da_alloc`` heuristic).  Until the block exits, a
    reader can see the old file's tail.  Nothing is fsynced and nothing is
    replaced atomically: after a power loss the file can hold old
    contents, where a truncating open might leave it empty.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    # a descriptor opened with "w" is not truncated: the mode only picks the stream
    with open(fd, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
        try:
            yield fh
        finally:
            fh.flush()
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if end < st.st_size:
                    os.ftruncate(fd, end)


def round6(value: float) -> float:
    """`value` rounded to 6 significant digits, as the CSV tables print it."""
    return float(f"{value:.6g}")


def json_float(value: float) -> str:
    """`round6(value)` as `json.dumps` writes it."""
    text = repr(float(f"{value:.6g}"))
    return _JSON_NONFINITE.get(text, text)


def json_scalar(value) -> str:
    """`value`, a str, number, bool or None, as `json.dumps` writes it; a finite
    float without rounding, by its repr."""
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def json_bool(value) -> str:
    """`bool(value)` as `json.dumps` writes it."""
    return "true" if value else "false"


@dataclass(frozen=True)
class RowList:
    """A JSON list of rows, laid out from one template: objects with the keys
    `header`, or arrays when `header` is None.  `encode` holds one function per
    column that returns its value's JSON text; by default a float column is
    written as `json_float` and any other through `json.dumps`, as the first
    row's types pick.  `rows` may be a generator: it is read once."""

    header: tuple
    rows: object
    encode: tuple = None


def _json_layout(header, width, indent, depth):
    """List opening, item separator, list closing and item template of `json.dump`
    for a list of `width`-column rows at nesting `depth`."""
    if header is None:
        item_open, item_close, fields = "[", "]", ["{}"] * width
    else:  # braces doubled for str.format
        item_open, item_close = "{{", "}}"
        fields = [f"{json.dumps(key)}: {{}}" for key in header]
    if indent is None:
        return "[", ", ", "]", item_open + ", ".join(fields) + item_close
    outer = "\n" + " " * (indent * depth)
    item = outer + " " * indent
    inner = item + " " * indent
    return ("[" + item, "," + item, outer + "]",
            item_open + inner + ("," + inner).join(fields) + item + item_close)


def _json_list(rows: RowList, indent, depth=0):
    """The text of `rows` as `json.dump` lays it out at nesting `depth`, in pieces of
    up to `_BLOCK_ROWS` rows.  Each block is encoded column by column and
    formatted row by row, both in C loops."""
    it = iter(rows.rows)
    block = list(islice(it, _BLOCK_ROWS))
    if not block:
        yield "[]"
        return
    open_list, item_sep, close_list, item = _json_layout(rows.header, len(block[0]),
                                                         indent, depth)
    encode = rows.encode or [json_float if isinstance(v, float) else json.dumps
                             for v in block[0]]
    piece = open_list
    while block:
        yield piece + item_sep.join(map(item.format, *map(map, encode, zip(*block))))
        block = list(islice(it, _BLOCK_ROWS))
        piece = item_sep
    yield close_list


def json_text(obj, depth: int = 0) -> str:
    """`obj` as `json.dumps(obj, indent=2)` lays it out at nesting `depth`.

    A non-empty dict is laid out member by member, and its keys must be
    strings; a `RowList` among its values is laid out from its template.
    Anything else goes through `json.dumps`, re-indented to `depth`.
    """
    if isinstance(obj, RowList):
        return "".join(_json_list(obj, _INDENT, depth))
    if isinstance(obj, dict) and obj:
        pad = "\n" + " " * (_INDENT * (depth + 1))
        members = [f"{json.dumps(key)}: {json_text(value, depth + 1)}"
                   for key, value in obj.items()]
        return "{" + pad + ("," + pad).join(members) + "\n" + " " * (_INDENT * depth) + "}"
    if not isinstance(obj, (dict, list, tuple)):
        return json_scalar(obj)
    return json.dumps(obj, indent=_INDENT).replace("\n", "\n" + " " * (_INDENT * depth))


def write_json(path, obj) -> None:
    """Write `obj` to `path` as `json.dump(obj, indent=2)` plus a trailing newline,
    in one write; see `json_text` for the `RowList` values it may hold."""
    text = json_text(obj) + "\n"
    with open_output(path) as fh:
        fh.write(text)


def write_rows(path, header, rows, indent=None) -> None:
    """Write `rows` to `path` as CSV, or as JSON when the suffix is ``.json``.

    `rows` is consumed lazily, so a generator keeps memory flat however
    many rows there are.  The line template is built once from the first
    row: a float column is formatted as a float in every row.  `indent`
    lays the JSON out as `json.dump` would, from the same template code as
    a `RowList` in `write_json`; CSV ignores it.
    """
    as_json = Path(path).suffix.lower() == ".json"
    with open_output(path) as fh:
        if as_json:
            fh.writelines(_json_list(RowList(header, rows), indent))
            fh.write("\n")
            return
        rows = iter(rows)
        first = next(rows, None)
        fh.write(",".join(header) + "\n")
        if first is not None:
            line = ",".join("{:.6g}" if isinstance(v, float) else "{}" for v in first) + "\n"
            fh.write(line.format(*first))
            fh.writelines(line.format(*row) for row in rows)
