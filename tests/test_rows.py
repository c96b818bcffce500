import json
import math
import os
import stat
import struct
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statcomplex import rows
from statcomplex.rows import (RowList, json_float, json_floats, json_scalar, json_text,
                              open_output, round6, write_json, write_rows)
from statcomplex.sigproc import write_samples

HEADER = ("kind", "n", "c", "flag")
ROWS = [("sq", 3, 0.19323943583345649, True), ("tv", 2048, 1.0 / 3.0, False),
        ("jsd", 7, math.nan, True), ("sq", 1, -math.inf, False)]


def test_round6():
    assert round6(1.0 / 3.0) == 0.333333
    assert round6(123456789.0) == 123457000.0
    assert math.isnan(round6(math.nan))


# Values where "{:.6g}" and `json_float` part, or nearly do: +-0, integral and band
# results, exponents at the band's edges, the smallest normal, subnormals, non-finite
# values, and ties at the 6th digit (123456.5 and 2**-16 are exact ties).
EDGES = [0.0, -0.0, 1.0, -3.0, 0.9999995, 999999.4999, 999999.5, -999999.5, 9.9999951e15,
         9.9999949e15, 1e16, 1e17, 1e-5, 2.5e-5, 1e-300, sys.float_info.min,
         -sys.float_info.min, 2.2250738585072009e-308, 1e-310, 5e-324, -5e-324,
         math.inf, -math.inf, math.nan, 123456.5, -123457.5, 1234565.0, 2.0 ** -16,
         0.1234565, 9.5, -9.5, 99999.95, 0.5]


def test_json_floats_edges():
    assert json_floats(EDGES) == [json_float(v) for v in EDGES]
    assert json_floats(EDGES[:3]) == ["0.0", "-0.0", "1.0"]
    assert json_floats([999999.5, 5e-324, math.nan]) == ["1000000.0", "5e-324", "NaN"]
    assert json_floats([]) == []


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1).map(_from_bits), max_size=40))
@example([_from_bits(0x000FFFFFFFFFFFFF)])  # the largest subnormal
@example([_from_bits(0x7FF8000000000001), 0.25])  # a NaN with payload
def test_json_floats_matches_json_float_on_bit_patterns(values):
    assert json_floats(values) == [json_float(v) for v in values]


@pytest.mark.parametrize("indent", [None, 2])
def test_json_matches_json_dump(tmp_path, indent):
    path = tmp_path / "rows.json"
    write_rows(path, HEADER, iter(ROWS), indent=indent)
    expected = [{"kind": k, "n": n, "c": round6(c), "flag": f} for k, n, c, f in ROWS]
    assert path.read_text() == json.dumps(expected, indent=indent) + "\n"


def test_csv_formats_floats_as_6g(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, HEADER, (r for r in ROWS), indent=2)
    assert path.read_text().splitlines() == [
        "kind,n,c,flag", "sq,3,0.193239,True", "tv,2048,0.333333,False",
        "jsd,7,nan,True", "sq,1,-inf,False"]


def test_empty_rows(tmp_path):
    write_rows(tmp_path / "rows.json", HEADER, [], indent=2)
    write_rows(tmp_path / "rows.csv", HEADER, [])
    assert (tmp_path / "rows.json").read_text() == "[]\n"
    assert (tmp_path / "rows.csv").read_text() == "kind,n,c,flag\n"


def test_write_json_matches_json_dump(tmp_path):
    obj = {"c": [0.1, math.nan, -math.inf], "kind": "tv", "n": 3, "rows": [{"x": None}]}
    write_json(tmp_path / "doc.json", obj)
    assert (tmp_path / "doc.json").read_text() == json.dumps(obj, indent=2) + "\n"


def _rounded(rows):
    return [{k: round6(v) if isinstance(v, float) else v for k, v in zip(HEADER, row)}
            for row in rows]


@pytest.mark.parametrize("listed", [ROWS, []], ids=["rows", "empty"])
def test_row_list_matches_json_dump_at_depth(listed):
    # the row layout nested at depth 0 and 1, as objects and as arrays, with the
    # default column encoders (floats to 6 digits) and with full-precision ones
    assert json_text(RowList(HEADER, iter(listed))) == json.dumps(_rounded(listed), indent=2)
    arrays = [[row[2], -row[2]] for row in listed]
    doc = {"n": 3, "rows": RowList(HEADER, iter(listed)), "tail": [1.5, None],
           "inner": {"arrays": RowList(None, arrays, (partial(map, json_scalar),) * 2), "x": {}}}
    expected = {"n": 3, "rows": _rounded(listed), "tail": [1.5, None],
                "inner": {"arrays": arrays, "x": {}}}
    assert json_text(doc) == json.dumps(expected, indent=2)


def test_rows_written_in_blocks_match_json_dump(tmp_path, monkeypatch):
    # a list longer than one block joins its blocks with the item separator
    monkeypatch.setattr(rows, "_BLOCK_VALUES", 12)  # 3 rows of 4 columns
    many = ROWS * 2 + ROWS[:1]
    write_rows(tmp_path / "rows.json", HEADER, iter(many), indent=2)
    assert (tmp_path / "rows.json").read_text() == json.dumps(_rounded(many), indent=2) + "\n"
    assert json_text({"rows": RowList(HEADER, many)}) == json.dumps({"rows": _rounded(many)},
                                                                   indent=2)


# ---------------------------------------------------------------------------
# the output opener: every writer rewrites in place and cuts the old tail
# ---------------------------------------------------------------------------

RECORD = np.sin(np.arange(300) * 0.1) * 0.5

WRITERS = {
    "json": ("doc.json", lambda path: write_json(path, {"rows": RowList(HEADER, ROWS), "n": 3})),
    "rows_csv": ("rows.csv", lambda path: write_rows(path, HEADER, iter(ROWS))),
    "rows_json": ("rows.json", lambda path: write_rows(path, HEADER, iter(ROWS), indent=2)),
    "samples_csv": ("x.csv", lambda path: write_samples(path, RECORD)),
    "samples_wav": ("x.wav", lambda path: write_samples(path, RECORD, sample_rate=8000)),
    "samples_f64": ("x.f64", lambda path: write_samples(path, RECORD)),
}


def _fresh_bytes(tmp_path, name, write):
    fresh = tmp_path / "fresh" / name
    fresh.parent.mkdir()
    write(fresh)
    return fresh.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_over_longer_file_matches_fresh_write(tmp_path, writer):
    name, write = WRITERS[writer]
    expected = _fresh_bytes(tmp_path, name, write)
    path = tmp_path / name
    path.write_bytes(b"\xff" * (3 * len(expected) + 4096))
    write(path)
    assert path.read_bytes() == expected
    write(path)  # over a file of the same length
    assert path.read_bytes() == expected


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_keeps_symlink_and_hard_link(tmp_path, writer):
    name, write = WRITERS[writer]
    expected = _fresh_bytes(tmp_path, name, write)
    target = tmp_path / ("target" + os.path.splitext(name)[1])
    target.write_bytes(b"old" * 10000)
    link = tmp_path / name
    link.symlink_to(target)
    write(link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected

    other = tmp_path / ("other" + os.path.splitext(name)[1])
    os.link(target, other)
    inode = target.stat().st_ino
    target.write_bytes(b"older" * 10000)
    write(other)
    assert other.stat().st_ino == inode == target.stat().st_ino
    assert target.read_bytes() == expected and target.stat().st_nlink == 2


def test_new_output_mode_matches_open(tmp_path):
    with open(tmp_path / "by_open.txt", "w"):
        pass
    with open_output(tmp_path / "by_opener.txt"):
        pass
    assert (stat.S_IMODE((tmp_path / "by_opener.txt").stat().st_mode)
            == stat.S_IMODE((tmp_path / "by_open.txt").stat().st_mode))


def test_write_json_to_devnull():
    # not a regular file, so it is not truncated
    write_json(os.devnull, {"n": 3})
    write_rows(os.devnull, HEADER, iter(ROWS))


def test_failed_write_leaves_no_old_tail(tmp_path):
    # as a truncating open would: the rows written before the error, and nothing else
    def failing():
        yield from ROWS[:2]
        raise RuntimeError("row source failed")

    path = tmp_path / "rows.csv"
    path.write_text("old\n" * 1000)
    with pytest.raises(RuntimeError, match="row source failed"):
        write_rows(path, HEADER, failing())
    assert path.read_text().splitlines() == ["kind,n,c,flag", "sq,3,0.193239,True",
                                             "tv,2048,0.333333,False"]
