import json
import math

import pytest

from statcomplex.rows import round6, write_json, write_rows

HEADER = ("kind", "n", "c", "flag")
ROWS = [("sq", 3, 0.19323943583345649, True), ("tv", 2048, 1.0 / 3.0, False),
        ("jsd", 7, math.nan, True), ("sq", 1, -math.inf, False)]


def test_round6():
    assert round6(1.0 / 3.0) == 0.333333
    assert round6(123456789.0) == 123457000.0
    assert math.isnan(round6(math.nan))


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
