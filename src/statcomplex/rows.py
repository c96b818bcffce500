"""File output: one opener for every file the package writes, one writer for
the CSV and JSON tables it emits, and one for its JSON documents (configs,
summaries).  `sigproc.write_report_json` lays the report out from its own
template and the list layout here.

Rows are tuples in header order.  CSV writes floats with 6 significant
digits; JSON writes a list of objects whose floats are rounded to the
same 6 digits (`round6`).  A list of rows is laid out from one template
per list (`RowList`), byte for byte as `json.dump` would, and filled
column by column: a float column is encoded in one pass (`json_floats`),
with the same text as `json_float` gives each value.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat, starmap
from pathlib import Path

_INDENT = 2
# Values per block of `_json_list` (a block holds one row at least): bounds the
# text held at once.
_BLOCK_VALUES = 1 << 14
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


def _differs_from_repr(text: str) -> bool:
    """Whether `json_float` writes other than `text`, the "{:.6g}" text of a value:
    a text with neither "." nor "e" (an integral result, +-0, nan or inf), or an
    exponent from 6 to 15 (|value| in [999999.5, 1e16)), or one of -308 or below,
    where subnormals lie."""
    if "e" not in text:
        return "." not in text
    exponent = int(text[text.index("e") + 1:])
    return 6 <= exponent <= 15 or exponent <= -308


def json_floats(values) -> list:
    """`json_float` of each of `values`, a sequence of floats, as a list of texts.

    The column is formatted by "{:.6g}" in one pass.  Where
    `_differs_from_repr` does not mark it, that text is `json_float`'s,
    `repr(float(text))`: it has at most 6 significant digits, which every
    normal float64 keeps, and both switch to an exponent below 1e-4.  The
    marked texts go through `json_float`.  The joined column is searched
    for them first, so a column without any is not looked at value by value.
    """
    texts = list(map("{:.6g}".format, values))
    # a text holds at most one ".", and an exponent never spans two texts
    joined = "".join(texts)
    if (joined.count(".") < len(texts)
            or "e+0" in joined or "e+1" in joined or "e-3" in joined):
        for i, text in enumerate(texts):
            if ("." not in text or "e" in text) and _differs_from_repr(text):
                texts[i] = json_float(values[i])
    return texts


def json_scalar(value) -> str:
    """`value`, a str, number, bool or None, as `json.dumps` writes it; a finite
    float without rounding, by its repr."""
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


@dataclass(frozen=True)
class RowList:
    """A JSON list of rows, laid out from one template: objects with the keys
    `header`, or arrays when `header` is None.  `encode` holds one function per
    column that takes the column's values in a block of rows and returns their
    JSON texts; by default a float column is encoded by `json_floats` and any
    other value through `json.dumps`, as the first row's types pick.  `rows` may
    be a generator: it is read once, in blocks of up to `_BLOCK_VALUES` values."""

    header: tuple
    rows: object
    encode: tuple = None


# The column encoder of a column that is not all floats.
_JSON_DUMPS = partial(map, json.dumps)


def _json_layout(header, width, indent, depth):
    """List opening, item separator and list closing of `json.dump` for a list of
    `width`-column rows at nesting `depth`, and the item's pieces: the text
    before each field, then the text after the last one."""
    if header is None:
        item_open, item_close, keys = "[", "]", [""] * width
    else:
        item_open, item_close = "{", "}"
        keys = [f"{json.dumps(key)}: " for key in header]
    if indent is None:
        open_list, item_sep, close_list = "[", ", ", "]"
        item, inner, field_sep = "", "", ", "
    else:
        outer = "\n" + " " * (indent * depth)
        item = outer + " " * indent
        inner = item + " " * indent
        open_list, item_sep, close_list = "[" + item, "," + item, outer + "]"
        field_sep = "," + inner
    pieces = [item_open + inner + keys[0], *(field_sep + key for key in keys[1:]),
              item + item_close]
    return open_list, item_sep, close_list, pieces


def _json_items(pieces, columns):
    """The text of each row whose fields are `columns`, columns of JSON texts,
    laid out from the item's `pieces` (`_json_layout`), as an iterator."""
    stream = [repeat(pieces[0])]
    for column, piece in zip(columns, pieces[1:]):
        stream += (column, repeat(piece))
    return map("".join, zip(*stream))


def _json_list(rows: RowList, indent, depth=0):
    """The text of `rows` as `json.dump` lays it out at nesting `depth`, in pieces of
    up to `_BLOCK_VALUES` values.  Each block is encoded column by column, and
    each row is joined from the item's pieces and its fields' texts."""
    it = iter(rows.rows)
    first = next(it, None)
    if first is None:
        yield "[]"
        return
    block_rows = max(1, _BLOCK_VALUES // len(first))
    block = [first, *islice(it, block_rows - 1)]
    open_list, item_sep, close_list, pieces = _json_layout(rows.header, len(first),
                                                           indent, depth)
    encode = rows.encode or [json_floats if isinstance(v, float) else _JSON_DUMPS
                             for v in first]
    piece = open_list
    while block:
        columns = [to_json(column) for to_json, column in zip(encode, zip(*block))]
        yield piece + item_sep.join(_json_items(pieces, columns))
        block = list(islice(it, block_rows))
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
            fh.writelines(starmap(line.format, rows))
