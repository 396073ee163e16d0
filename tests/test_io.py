"""Data-file parsing, round-trips and result export."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaflow import (
    Link,
    NetworkError,
    Node,
    ODPair,
    Path,
    TimeGrid,
    run_dnl,
    validate_network,
)
from dtaflow import fileio
from dtaflow.cli import main
from dtaflow.fileio import (
    ParseError,
    enumerate_paths,
    load_demand,
    load_departures,
    load_network,
    load_paths,
    write_departures,
    write_dnl_results,
    write_paths,
)
from helpers import (braess_components, grid_components, path_matrix, random_network,
                     single_link_network)

DATA = os.path.join(os.path.dirname(__file__), "..", "data", "braess")


class TestLoadNetwork:
    def test_braess_fixture(self):
        nodes, links = load_network(os.path.join(DATA, "network.txt"))
        assert len(nodes) == 4
        assert len(links) == 5
        by_id = {n.id: n for n in nodes}
        assert by_id["1"].origin and not by_id["1"].destination
        assert by_id["2"].source_priority == pytest.approx(0.4)
        assert by_id["3"].destination
        # empty backward-speed column falls back to v/3
        link1 = {l.id: l for l in links}["1"]
        assert link1.backward_speed_mps == pytest.approx(4.0)
        assert link1.length_m == 1200.0

    def test_full_bundle_validates(self):
        nodes, links = load_network(os.path.join(DATA, "network.txt"))
        paths = load_paths(os.path.join(DATA, "paths.txt"))
        ods = load_demand(os.path.join(DATA, "demand.txt"))
        net = validate_network(nodes, links, paths, ods)
        assert set(net.paths) == {f"p{i}" for i in range(1, 9)}
        assert sum(od.demand_veh for od in net.od_pairs) == 1000.0

    def test_data_before_section(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("id,x\n[nodes]\n")
        with pytest.raises(ParseError, match="before any"):
            load_network(str(f))

    def test_unknown_section(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("[nodes]\n[links]\n[weather]\n")
        with pytest.raises(ParseError, match=r"bad.txt:3: unknown section \[weather\]$"):
            load_network(str(f))
        # a paths or demand file refuses a section it does not read, rather
        # than dropping the rows under it
        files = {n: os.path.join(DATA, f"{n}.txt") for n in ("network", "paths", "demand")}
        for name, load, block in [
                ("paths", load_paths, "[pathz]\nid,origin,destination,links\np9,1,3,2\n"),
                ("paths", load_paths, "[path]\n"),
                ("demand", load_demand, "[demands]\norigin,destination,demand_veh,"
                                        "target_arrival_s\n1,3,10,1200\n")]:
            with open(os.path.join(DATA, f"{name}.txt")) as fh:
                text = fh.read()
            bad = tmp_path / f"{name}.txt"
            bad.write_text(text + block)
            at = len(text.splitlines()) + 1
            header = block.splitlines()[0]
            message = rf"{name}.txt:{at}: unknown section \[{header[1:-1]}\]$"
            with pytest.raises(ParseError, match=message):
                load(str(bad))
            argv = ["dnl", "--departures", os.path.join(DATA, "departures.csv"),
                    "--out", str(tmp_path / "out"), "--dt", "30", "--horizon", "2400"]
            for kind, good in files.items():
                argv += [f"--{kind}", str(bad) if kind == name else good]
            assert main(argv) == 2
            assert re.search(message, capsys.readouterr().err.strip())

    @pytest.mark.parametrize("name, load, section", [
        ("network.txt", load_network, "links"), ("demand.txt", load_demand, "demand")])
    def test_repeated_section_is_rejected(self, tmp_path, name, load, section):
        # a second header must not drop the rows read under the first one
        with open(os.path.join(DATA, name)) as fh:
            lines = fh.readlines()
        at = lines.index(f"[{section}]\n")
        cut = at + 4  # after the header row and two data rows
        f = tmp_path / name
        f.write_text("".join(lines[:cut] + lines[at:at + 2] + lines[cut:]))
        with pytest.raises(ParseError,
                           match=rf"{name}:{cut + 1}: repeated section \[{section}\]"):
            load(str(f))

    def test_unknown_field_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("[nodes]\nid,x,y,origin,destination,colour\n[links]\n")
        with pytest.raises(ParseError, match=r"bad.txt:2.*colour"):
            load_network(str(f))

    def test_bad_flag_value(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(
            "[nodes]\nid,x,y,origin,destination,source_priority\n"
            "a,0,0,yes,0,\n[links]\n"
        )
        with pytest.raises(ParseError,
                           match=r"bad.txt:3: field origin must be 0 or 1, got 'yes'$"):
            load_network(str(f))

    def test_nonnumeric_length(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(
            "[nodes]\nid,x,y,origin,destination,source_priority\n"
            "a,0,0,1,0,\nb,1,0,0,1,\n[links]\n"
            "id,tail,head,length_m,free_speed_mps,capacity_vps,backward_speed_mps\n"
            "1,a,b,long,12,0.5,\n"
        )
        with pytest.raises(ParseError,
                           match=r"bad.txt:7: field length_m is not numeric: 'long'$"):
            load_network(str(f))

    def test_column_count_mismatch(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(
            "[demand]\norigin,destination,demand_veh,target_arrival_s\na,b,5\n"
        )
        with pytest.raises(ParseError, match=r"bad.txt:3: expected 4 fields, got 3$"):
            load_demand(str(f))

    def test_negative_demand(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(
            "[demand]\norigin,destination,demand_veh,target_arrival_s\n"
            "a,b,-5,600\n"
        )
        with pytest.raises(ParseError,
                           match=r"bad.txt:3: negative or non-finite demand -5\.0 or "
                                 r"target 600\.0 for O-D \(a, b\)$"):
            load_demand(str(f))


NETWORK_TEMPLATE = (
    "[nodes]\nid,x,y,origin,destination,source_priority\n"
    "a,{x},0,1,0,{source_priority}\nb,1,0,0,1,\n[links]\n"
    "id,tail,head,length_m,free_speed_mps,capacity_vps,backward_speed_mps\n"
    "1,a,b,{length_m},{free_speed_mps},{capacity_vps},{backward_speed_mps}\n"
)
NETWORK_VALUES = {"x": "0", "source_priority": "", "length_m": "1200",
                  "free_speed_mps": "12", "capacity_vps": "0.5",
                  "backward_speed_mps": ""}
DEMAND_TEMPLATE = ("[demand]\norigin,destination,demand_veh,target_arrival_s\n"
                   "a,b,{demand_veh},{target_arrival_s}\n")
DEMAND_VALUES = {"demand_veh": "40", "target_arrival_s": "600"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("field", list(NETWORK_VALUES) + list(DEMAND_VALUES))
def test_nonfinite_field_rejected(tmp_path, field, value):
    if field in NETWORK_VALUES:
        template, values, load = NETWORK_TEMPLATE, NETWORK_VALUES, load_network
    else:
        template, values, load = DEMAND_TEMPLATE, DEMAND_VALUES, load_demand
    f = tmp_path / "data.txt"
    f.write_text(template.format(**values))
    load(str(f))  # the template parses with finite values
    f.write_text(template.format(**dict(values, **{field: value})))
    at = next(i for i, line in enumerate(template.splitlines(), start=1)
              if "{" + field + "}" in line)
    with pytest.raises(ParseError,
                       match=rf"data.txt:{at}: field {field} is not finite: '{value}'$"):
        load(str(f))


BRAESS_LOADERS = {
    "network.txt": load_network, "paths.txt": load_paths, "demand.txt": load_demand,
    "departures.csv": lambda f: load_departures(f, [f"p{i}" for i in range(1, 9)], 80),
}


# (Braess file, edit of its text, message): a record-level refusal names
# the record's line; a refusal of the whole file names the file alone
BRAESS_REFUSALS = {
    "duplicate node id": (
        "network.txt", lambda t: t.replace("2,1.0,1.0,1,0,0.4", "1,1.0,1.0,1,0,0.4"),
        r"network.txt:5: duplicate node id 1$"),
    "node refused by Node": (
        "network.txt", lambda t: t.replace("2,1.0,1.0,1,0,0.4", "2,1.0,1.0,1,0,1.5"),
        r"network.txt:5: source_priority of node 2 must lie in \[0, 1\], got 1.5$"),
    "duplicate link id": (
        "network.txt", lambda t: t.replace("2,1,3,2400,", "1,1,3,2400,"),
        r"network.txt:11: duplicate link id 1$"),
    "link refused by Link.create": (
        "network.txt", lambda t: t.replace("1,1,2,1200,", "1,1,2,0,"),
        r"network.txt:10: link 1: nonpositive or non-finite physical parameter: "
        r"L=0.0, v=12.0, C=0.9$"),
    "empty network": (
        "network.txt", lambda t: t.split("1,1,2,1200,")[0],
        r"network.txt: empty network \(no links\)$"),
    "network without links": (
        "network.txt", lambda t: t.split("[links]")[0],
        r"network.txt: missing \[links\] section$"),
    "path with no links": (
        "paths.txt", lambda t: t.replace("p2,1,3,2", "p2,1,3,"),
        r"paths.txt:4: path p2 has no links$"),
    "path refused by Path": (
        "paths.txt", lambda t: t.replace("p1,1,3,1|3", "p1,1,3,1|1"),
        r"paths.txt:3: path p1 repeats a link \(must be simple\)$"),
    "empty path id": (
        "paths.txt", lambda t: t.replace("p1,1,3,1|3", ",1,3,1|3"),
        r"paths.txt:3: path id '' is empty or holds a path separator$"),
    "path id with a path separator": (
        "paths.txt", lambda t: t.replace("p1,1,3,1|3", "a/b,1,3,1|3"),
        r"paths.txt:3: path id 'a/b' is empty or holds a path separator$"),
    "duplicate path id": (
        "paths.txt", lambda t: t + "p3,2,3,3\n",
        r"paths.txt:11: duplicate path id p3$"),
    "duplicate O-D pair": (
        "demand.txt", lambda t: t + "2,4,10,2400\n",
        r"demand.txt:7: duplicate O-D pair \('2', '4'\)$"),
    "empty path table": (
        "paths.txt", lambda t: t.split("p1,")[0],
        r"paths.txt: empty path table$"),
    "paths section without rows": (
        "paths.txt", lambda t: t.split("id,")[0],
        r"paths.txt: empty path table$"),
    "empty demand table": (
        "demand.txt", lambda t: t.split("1,3,250,")[0],
        r"demand.txt: empty demand table$"),
    "duplicate departures row": (
        "departures.csv", lambda t: t + t.splitlines()[0] + "\n",
        r"departures.csv:9: duplicate path id p1$"),
    # "\udce9" is written as the byte 0xE9, which no UTF-8 text holds
    **{f"{name} not UTF-8": (name, lambda t: t + "# caf\udce9\n",
                             rf"{re.escape(name)}: not UTF-8 text$")
       for name in BRAESS_LOADERS},
}


@pytest.mark.parametrize("name,edit,message", BRAESS_REFUSALS.values(),
                         ids=BRAESS_REFUSALS)
def test_braess_file_refusal_names_its_location(tmp_path, name, edit, message):
    with open(os.path.join(DATA, name)) as fh:
        text = fh.read()
    BRAESS_LOADERS[name](os.path.join(DATA, name))  # the file as it is loads
    bad = edit(text)
    assert bad != text
    f = tmp_path / name
    f.write_text(bad, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ParseError, match=message):
        BRAESS_LOADERS[name](str(f))


class TestPathsRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        _, _, paths, _ = braess_components()
        out = tmp_path / "paths.txt"
        write_paths(paths, str(out))
        again = load_paths(str(out))
        assert again == paths

    def test_pipe_separated_links(self):
        paths = load_paths(os.path.join(DATA, "paths.txt"))
        by_id = {p.id: p for p in paths}
        assert by_id["p5"].links == ("1", "3", "5")
        assert by_id["p2"].links == ("2",)


class TestDepartures:
    def make(self, tmp_path, matrix, order=("p1", "p2")):
        out = tmp_path / "h.csv"
        write_departures(order, matrix, str(out))
        return str(out)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        h = rng.uniform(0, 1, (2, 7))
        f = self.make(tmp_path, h)
        again = load_departures(f, ("p1", "p2"), 7)
        assert np.array_equal(again, h)  # repr round-trip, bit for bit

    def test_row_order_follows_request(self, tmp_path):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = self.make(tmp_path, h)
        swapped = load_departures(f, ("p2", "p1"), 2)
        assert np.array_equal(swapped, h[::-1])

    @pytest.mark.parametrize("order,matrix", [
        (("p1", "p2"), np.ones((3, 2))),
        (("p1", "p2", "p3"), np.ones((2, 2))),
        (("p1",), np.ones(2)),
        ((), np.zeros(0)),
    ], ids=["fewer-ids", "more-ids", "1-D", "1-D-empty"])
    def test_ids_not_one_per_row_refused(self, tmp_path, order, matrix):
        out = tmp_path / "h.csv"
        with pytest.raises(ValueError, match="expected one id per row"):
            write_departures(order, matrix, str(out))
        assert not out.exists()

    def test_wrong_column_count(self, tmp_path):
        f = self.make(tmp_path, np.zeros((2, 5)))
        with pytest.raises(ParseError, match="expected N = 6"):
            load_departures(f, ("p1", "p2"), 6)

    def test_path_repeated_in_the_order_is_a_duplicate_row(self, tmp_path):
        f = self.make(tmp_path, np.zeros((2, 3)), order=("p1", "p1"))
        with pytest.raises(ParseError, match=r"h.csv:2: duplicate path id p1$"):
            load_departures(f, ("p1", "p1"), 3)

    def test_missing_path_row(self, tmp_path):
        f = self.make(tmp_path, np.zeros((2, 5)))
        with pytest.raises(ParseError, match="missing rows"):
            load_departures(f, ("p1", "p2", "p3"), 5)

    def test_unknown_path_row(self, tmp_path):
        f = self.make(tmp_path, np.zeros((2, 5)))
        with pytest.raises(ParseError, match="unknown paths"):
            load_departures(f, ("p1",), 5)

    def test_negative_rate(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("p1,0.1,-0.2,0.3\n")
        with pytest.raises(ParseError, match="negative rate"):
            load_departures(str(f), ("p1",), 3)

    def test_header_row_is_optional(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("path_id,0,1,2\np1,0.1,0.2,0.3\n")
        h = load_departures(str(f), ("p1",), 3)
        assert h[0] == pytest.approx([0.1, 0.2, 0.3])

    def test_path_named_path_id_loads(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("# rates\npath_id,0.1,0.2,0.3\np2,0.4,0.5,0.6\n")
        h = load_departures(str(f), ("p2", "path_id"), 3)
        assert h.tolist() == [[0.4, 0.5, 0.6], [0.1, 0.2, 0.3]]

    def test_path_id_row_after_the_first_is_an_unknown_path(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("path_id,0,1,2\np1,0.1,0.2,0.3\npath_id,0,1,2\n")
        with pytest.raises(ParseError, match=r"rows for unknown paths \['path_id'\]$"):
            load_departures(str(f), ("p1",), 3)

    @pytest.mark.parametrize("value,rate", [(" 1.5", 1.5), ("1_0", 10.0), ("+2", 2.0)])
    def test_rate_parses_as_float_does(self, tmp_path, value, rate):
        f = tmp_path / "h.csv"
        f.write_text(f"p1,0.5,{value}\n")
        assert load_departures(str(f), ("p1",), 2).tolist() == [[0.5, rate]]

    @pytest.mark.parametrize("value", ["0x10", "", "1e5j"])
    def test_rate_float_rejects_is_non_numeric(self, tmp_path, value):
        f = tmp_path / "h.csv"
        f.write_text(f"p1,0.5,0.5\np2,0.5,{value}\n")
        with pytest.raises(ParseError, match=r"h.csv:2: non-numeric rate$"):
            load_departures(str(f), ("p1", "p2"), 2)


# rates whose text or value is at an edge: signed zero, subnormal, the
# largest finite double
EDGE_RATES = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]
# one edit of a written departures file: a rate replaced by a token, or a
# change of its rows, ids or line endings
RATE_TOKENS = ["1_0", "\uff11", '"0.5"', "", "nan", "-1", "1e400", "1e-400", " 2.5\t",
               "0x10"]
FILE_EDITS = ["none", "extra cell", "missing cell", "duplicate row", "missing row",
              "unknown id", "comment row", "NUL in a comment row", "blank line", "LF",
              "CR", "header", "path named path_id", "quoted id with a comma"]


@st.composite
def edited_departures(draw):
    """(path ids, rates, edit, row, cell, reverse): a departures matrix to
    write, one edit of the written file at a row and rate cell, and whether
    to read it back in reversed path order."""
    n_paths, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rates = draw(st.lists(st.one_of(st.sampled_from(EDGE_RATES),
                                    st.floats(0, 1e6, allow_nan=False)),
                          min_size=n_paths * n, max_size=n_paths * n))
    edit = draw(st.sampled_from(RATE_TOKENS + FILE_EDITS))
    r, j = draw(st.integers(0, n_paths - 1)), draw(st.integers(1, n))
    ids = [f"p{i}" for i in range(n_paths)]
    ids[r] = {"path named path_id": "path_id", "quoted id with a comma": "a,b"}.get(edit, ids[r])
    return ids, np.reshape(rates, (n_paths, n)), edit, r, j, draw(st.booleans())


def edit_departures(path, edit, r, j, n):
    """Apply one of RATE_TOKENS or FILE_EDITS to a written departures file,
    at row r and rate cell j of N = n."""
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")[:-1]
    end = "\r\n"
    if edit in RATE_TOKENS:
        cells = lines[r].split(",")
        cells[j] = edit
        lines[r] = ",".join(cells)
    elif edit == "extra cell":
        lines[r] += ",0.5"
    elif edit == "missing cell":
        lines[r] = lines[r].rsplit(",", 1)[0]
    elif edit == "duplicate row":
        lines.insert(j % (len(lines) + 1), lines[r])
    elif edit == "missing row":
        del lines[r]
    elif edit == "unknown id":
        lines[r] = "q" + lines[r]
    elif edit == "comment row":
        lines.insert(r, "# note,1")
    elif edit == "NUL in a comment row":
        lines.insert(r, "#\0")
    elif edit == "blank line":
        lines.insert(r, "")
    elif edit in ("LF", "CR"):
        end = {"LF": "\n", "CR": "\r"}[edit]
    elif edit == "header":
        lines.insert(0, ",".join(["path_id"] + [str(k) for k in range(n)]))
    write_text(path, end.join(lines) + end)


def departures_outcome(load, path, order, n):
    """The bits of the matrix `load` reads, or its refusal."""
    try:
        m = load(path, order, n)
    except Exception as e:
        return type(e), str(e)
    return m.shape, m.view(np.int64).tolist()


def write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


@settings(max_examples=300, deadline=None)
@given(case=edited_departures())
def test_bulk_pass_reads_as_the_row_reader(case):
    ids, h, edit, r, j, reverse = case
    order = ids[::-1] if reverse else ids
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.csv")
        write_departures(ids, h, path)
        edit_departures(path, edit, r, j, h.shape[1])
        assert departures_outcome(load_departures, path, order, h.shape[1]) == \
            departures_outcome(fileio._read_departure_rows, path, order, h.shape[1])


@pytest.mark.parametrize("case", ["plain", "h_final"])
def test_written_departures_take_the_bulk_pass(monkeypatch, tmp_path, case):
    def row_reader(*args):
        raise AssertionError("the row reader read a file the bulk pass takes")

    monkeypatch.setattr(fileio, "_read_departure_rows", row_reader)
    order = [f"p{i}" for i in range(5)]
    h = np.random.default_rng(3).uniform(0, 1, (5, 9))
    h[0, :3] = [0.0, -0.0, 5e-324]
    f = str(tmp_path / "h.csv")
    fileio._write_tables([(f, ["path_id"] + [str(k) for k in range(9)]
                           if case == "h_final" else None, order, h)])
    got = load_departures(f, order, 9)
    assert np.array_equal(got.view(np.int64), h.view(np.int64))


@pytest.mark.parametrize("text,message", [
    ("", r"missing rows for paths \['p0'\]$"),
    ("p0\n", r"h.csv:1: row for p0 has 0 rates, expected N = 1$"),
    ("p0,\n", r"h.csv:1: non-numeric rate$"),
    # a quote in a comment row opens a field that holds the rows up to the
    # next quote: here the only data row
    ('#,"\np0,1.0\n#",\n', r"missing rows for paths \['p0'\]$"),
], ids=["empty", "no-rates", "empty-rate", "quote-in-a-comment"])
def test_departures_refused_without_a_warning(tmp_path, text, message):
    f = tmp_path / "h.csv"
    write_text(f, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=message):
            load_departures(str(f), ["p0"], 1)


def test_departures_field_over_the_csv_limit_is_refused_alike(tmp_path):
    f = str(tmp_path / "h.csv")
    limit = csv.field_size_limit(12)
    try:
        for text in ["#" + "x" * 12 + "\np0,1\n", "p0,1.00000000000\n",
                     "#" + "x" * 11 + "\np0,1.0000000000\n"]:
            write_text(f, text)
            assert departures_outcome(load_departures, f, ["p0"], 1) == \
                departures_outcome(fileio._read_departure_rows, f, ["p0"], 1)
    finally:
        csv.field_size_limit(limit)


def test_departure_refusal_names_its_physical_line(tmp_path):
    # a quoted id may hold a line break: the rows after it are a line further on
    f = str(tmp_path / "h.csv")
    write_text(f, '"p\n1",0.5\np2,-1\n')
    with pytest.raises(ParseError, match=r"h\.csv:3: negative rate at \(path p2"):
        load_departures(f, ["p\n1", "p2"], 1)


class TestEnumeratePaths:
    def test_braess_origin1_to_4(self):
        nodes, links, _, _ = braess_components()
        ods = [od for od in braess_components()[3]
               if (od.origin, od.destination) == ("1", "4")]
        paths = enumerate_paths(nodes, links, ods, 3)
        assert len(paths) == 3
        assert {p.links for p in paths} == {("1", "4"), ("2", "5"), ("1", "3", "5")}
        assert [p.id for p in paths] == ["1-4-1", "1-4-2", "1-4-3"]

    @pytest.mark.parametrize("k", [0, -1, 2.5, 1.0, "2", None])
    def test_k_not_a_positive_integer_refused(self, k):
        nodes, links, _, ods = braess_components()
        with pytest.raises(ValueError, match=r"must be an integer >= 1"):
            enumerate_paths(nodes, links, ods, k)

    def test_k_limits_output(self):
        nodes, links, _, ods = braess_components()
        paths = enumerate_paths(nodes, links, ods, 1)
        assert len(paths) == len(ods)

    def test_deterministic(self):
        nodes, links, _, ods = braess_components()
        a = enumerate_paths(nodes, links, ods, 3)
        b = enumerate_paths(nodes, links, ods, 3)
        assert a == b

    def test_unreachable_destination(self):
        nodes, links, _, _ = braess_components()
        from dtaflow import ODPair
        with pytest.raises(NetworkError, match="unreachable"):
            enumerate_paths(nodes, links, [ODPair("3", "1", 1.0, 0.0)], 2)

    def test_parallel_links_keep_fastest(self):
        from dtaflow import Link, Node, ODPair
        nodes = [Node("a", origin=True), Node("b", destination=True)]
        links = [Link.create("slow", "a", "b", 1000.0, 5.0, 0.5),
                 Link.create("fast", "a", "b", 1000.0, 20.0, 0.5)]
        paths = enumerate_paths(nodes, links, [ODPair("a", "b", 1.0, 0.0)], 2)
        assert len(paths) == 1
        assert paths[0].links == ("fast",)


def networkx_paths(nx, nodes, links, od_pairs, k):
    """enumerate_paths as it was written over networkx.shortest_simple_paths:
    the oracle of the package's own Yen search."""
    g = nx.DiGraph()
    for n in nodes:
        g.add_node(n.id)
    best = {}
    for l in sorted(links, key=lambda l: (l.free_flow_time_s, l.id)):
        best.setdefault((l.tail, l.head), l)
    for (t, hd), l in best.items():
        g.add_edge(t, hd, weight=l.free_flow_time_s, link=l.id)
    out = []
    for od in od_pairs:
        if od.origin not in g or od.destination not in g or \
                not nx.has_path(g, od.origin, od.destination):
            raise NetworkError(
                f"destination {od.destination} unreachable from {od.origin}")
        count = 0
        for seq in nx.shortest_simple_paths(g, od.origin, od.destination,
                                            weight="weight"):
            count += 1
            out.append(Path(f"{od.origin}-{od.destination}-{count}",
                            (od.origin, od.destination),
                            tuple(g.edges[a, b]["link"] for a, b in zip(seq, seq[1:]))))
            if count >= k:
                break
    return out


def paths_outcome(find, *args):
    """The (id, links) of each path find returns, or its refusal's message."""
    try:
        return [(p.id, p.links) for p in find(*args)]
    except NetworkError as e:
        return str(e)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@st.composite
def digraphs(draw):
    """Nodes, links and O-D pairs with many equal-cost paths: 4 to 15 nodes,
    some of them link endpoints only, parallel links and self-loops, and
    O-D pairs that are unreachable, outside the graph or their own
    destination. Every free-flow time is a whole number of seconds, so
    that every sum of times is exact and no Python version's sum() rounds
    it differently."""
    n = draw(st.integers(4, 15))
    names = [f"v{i}" for i in range(n)]
    nodes = [Node(v) for v in names if draw(st.integers(0, 9))]
    ends = st.sampled_from(names)
    specs = draw(st.lists(st.tuples(ends, ends, st.sampled_from([100.0, 200.0, 300.0]),
                                    st.sampled_from([10.0, 20.0])),
                          min_size=2 * n, max_size=5 * n))
    links = [Link.create(f"l{draw(st.integers(0, 60))}.{i}", t, hd, length, v, 0.5)
             for i, (t, hd, length, v) in enumerate(specs)]
    ods = draw(st.lists(st.tuples(st.sampled_from(names + ["elsewhere"]), ends),
                        min_size=1, max_size=4))
    return nodes, links, [ODPair(o, d, 1.0, 0.0) for o, d in ods]


@settings(max_examples=300, deadline=None)
@given(graph=digraphs(), k=st.integers(1, 8))
def test_enumerate_paths_as_networkx(nx, graph, k):
    nodes, links, ods = graph
    for od in ods:
        assert paths_outcome(enumerate_paths, nodes, links, [od], k) == \
            paths_outcome(lambda *a: networkx_paths(nx, *a), nodes, links, [od], k)


def paths_digest(paths) -> str:
    with tempfile.TemporaryDirectory() as d:
        write_paths(paths, os.path.join(d, "paths.txt"))
        with open(os.path.join(d, "paths.txt"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


GRID_K4 = "514699d20b90e35d0b529ae2644427a317e1685150a67c8cb5d4f3a7cc057248"
GRID_K12 = "3fc87fac0dd926eacc718455503374de6294f05570b6876a6bcebae9b37aec9c"


@pytest.mark.parametrize("k,seed,digest", [
    (4, 0, GRID_K4), (4, 5, GRID_K4), (12, 0, GRID_K12),
])
def test_grid_paths_file_is_pinned(k, seed, digest):
    """The bytes of the 4x6 grid's paths file, as networkx's search wrote
    them (tests/test_cli.py pins Braess's); seed 5 scales the demands as the
    benchmark does, which leaves the paths as they are."""
    nodes, links, ods = grid_components()
    if seed:
        f = np.random.default_rng(seed).uniform(0.9, 1.1, size=len(ods))
        ods = [dataclasses.replace(od, demand_veh=od.demand_veh * fi)
               for od, fi in zip(ods, f)]
    assert paths_digest(enumerate_paths(nodes, links, ods, k)) == digest


@pytest.mark.parametrize("n_nodes,digest", [
    (50, "6bf524220983b37505cd152b32c899211bb12643ec6d5f007e92ca5a5b31b66d"),
    (10, "9ac1ab84f59e1e926aa1782b0c4fc7c08c3c08d01a582e42a92b6ec5bb0cbc05"),
])
def test_random_network_is_unchanged(n_nodes, digest):
    """The O-D pairs and paths of the random networks the suite loads, as
    they were when a networkx search picked each origin's destination."""
    net = random_network(n_nodes=n_nodes)
    assert paths_digest(list(net.paths.values())) == digest


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    net = single_link_network()
    grid = TimeGrid(0.0, 600.0, 10.0)
    h = path_matrix(net, grid, {"p1": 0.2}, until_s=300.0)
    res = run_dnl(net, h, grid)
    out = str(tmp_path_factory.mktemp("dnl_out"))
    write_dnl_results(res, out)
    return res, out


class TestResultExport:
    def test_files_written(self, outputs):
        _, out = outputs
        for name in ("travel_times.csv", "link_timeseries.csv",
                     "summary.json", "plot_results.py"):
            assert os.path.exists(os.path.join(out, name))

    def test_travel_times_round_trip(self, outputs):
        res, out = outputs
        with open(os.path.join(out, "travel_times.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "path_id"
        got = np.array([float(x) for x in rows[1][1:]])
        np.testing.assert_array_equal(got, res.travel_time[0])

    def test_summary_contents(self, outputs):
        res, out = outputs
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["mode"] == "dnl"
        assert summary["n_paths"] == 1
        assert summary["n_steps"] == res.grid.n_steps
        assert summary["max_balance_residual"] <= 1e-6

    def test_link_timeseries_header(self, outputs):
        _, out = outputs
        with open(os.path.join(out, "link_timeseries.csv")) as fh:
            header = next(csv.reader(fh))
        assert header == ["link_id", "time_s", "inflow_vps", "outflow_vps",
                          "density_vpm", "relative_density", "relative_inflow",
                          "relative_outflow"]

    def test_relative_density_bounded(self, outputs):
        _, out = outputs
        with open(os.path.join(out, "link_timeseries.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        rel = np.array([float(r[5]) for r in rows])
        assert np.all(rel >= -1e-12) and np.all(rel <= 1 + 1e-9)


def reference_link_rows(result):
    """The body of link_timeseries.csv built one (link, step) at a time."""
    fmt = lambda x: repr(float(x))  # noqa: E731
    times = result.grid.times()
    rows = []
    for lid in sorted(result.link_states):
        st = result.link_states[lid]
        for k in range(result.grid.n_steps):
            dens = (st.n_up[k] - st.n_dn[k]) / st.link.length_m
            rows.append([
                lid, fmt(times[k]), fmt(st.inflow[k]), fmt(st.outflow[k]),
                fmt(dens), fmt(dens / st.link.jam_density_vpm),
                fmt(st.inflow[k] / st.link.capacity_vps),
                fmt(st.outflow[k] / st.link.capacity_vps),
            ])
    return rows


def test_link_timeseries_matches_reference_rows(tmp_path):
    # a 0.3 veh/s bottleneck behind a 0.8 veh/s link fed 0.7 veh/s: the queue
    # spills back to the origin. Link "z" is inserted before "a", so the
    # file's id order is not the network's order.
    nodes = [Node("n0", origin=True), Node("n1"), Node("n2", destination=True)]
    links = [Link.create("z", "n0", "n1", 1200.0, 12.0, 0.8),
             Link.create("a", "n1", "n2", 300.0, 12.0, 0.3)]
    net = validate_network(nodes, links, [Path("p1", ("n0", "n2"), ("z", "a"))],
                           [ODPair("n0", "n2", 420.0, 900.0)])
    assert list(net.links) == ["z", "a"]
    grid = TimeGrid(0.0, 3000.0, 10.0)
    h = path_matrix(net, grid, {"p1": 0.7}, until_s=600.0)
    res = run_dnl(net, h, grid)
    assert res.origin_states["n0"].queue_veh.max() > 0
    write_dnl_results(res, str(tmp_path))
    with open(tmp_path / "link_timeseries.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = reference_link_rows(res)
    assert rows == expected
    assert [r[0] for r in rows[::grid.n_steps]] == ["a", "z"]
    for col in range(4, 8):  # density and the three relative columns move
        assert any(float(r[col]) > 0 for r in rows)


def reference_write_matrix(fh, ids, matrix):
    """The numeric-table writer formatting every cell: csv.writer over [id,
    *repr of each cell as a Python float], a row at a time."""
    csv.writer(fh).writerows([rid, *map(repr, row.tolist())]
                             for rid, row in zip(ids, np.asarray(matrix, dtype=float)))


def assert_writes_as_reference(monkeypatch, tmp_path, write):
    """write(out_dir) gives the same files, byte for byte, with the package's
    numeric-table writer as with the reference writer."""
    write(str(tmp_path / "new"))
    with monkeypatch.context() as m:
        m.setattr(fileio, "_write_matrix", reference_write_matrix)
        m.setattr(fileio, "_workers", lambda units, least: 1)
        write(str(tmp_path / "ref"))
    names = sorted(n for n in os.listdir(tmp_path / "ref") if n.endswith(".csv"))
    assert names == sorted(n for n in os.listdir(tmp_path / "new") if n.endswith(".csv"))
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes(), name
    return names


# cells whose text depends on more than the value: signed zeros, NaN with its
# sign bit set, the smallest subnormal, exponent forms and a rounding residue
SPECIAL_CELLS = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                 1e16, 1e-5, 0.1 + 0.2]


def _matrix_case(name):
    rng = np.random.default_rng(7)
    repeats = rng.choice(np.append(SPECIAL_CELLS, rng.uniform(0, 1, 40)), (10000,))
    # an odd row count over two workers: more than two workers' minimum of cells
    rows = 2 * fileio._WORKER_MIN_CELLS // 64 + 5
    return {
        "cells": (["p1", "p2"], np.array([SPECIAL_CELLS, SPECIAL_CELLS[::-1]])),
        "wider-than-a-block": (["p1", "p2"], repeats.reshape(2, 5000)),
        "taller-than-a-block": ([f"p{i}" for i in range(5000)], repeats.reshape(5000, 2)),
        "no-rows": ([], np.zeros((0, 4))),
        "quoted-ids": (["a,b", 'q"x', " lead"], rng.uniform(0, 1, (3, 3))),
        "numpy-str-ids": (np.repeat(np.array(["x", "y"]), 3), rng.uniform(0, 1, (6, 3))),
        "two-workers": ([f"p{i}" if i % 7 else f"p,{i}" for i in range(rows)],
                        np.resize(repeats, (rows, 64))),
    }[name]


FORKS = sys.platform == "linux"  # the package forks workers on Linux only
fork_linux_only = pytest.mark.skipif(not FORKS, reason="no forked workers")


def two_cpus(monkeypatch):
    """Let forked workers see two CPUs; returns the list of the pids the
    package forks."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forked


@pytest.mark.parametrize("case", ["cells", "wider-than-a-block", "taller-than-a-block",
                                  "no-rows", "quoted-ids", "numpy-str-ids", "two-workers"])
def test_departures_written_as_reference(monkeypatch, tmp_path, case):
    ids, matrix = _matrix_case(case)
    forked = two_cpus(monkeypatch)

    def write(out):
        os.makedirs(out)
        write_departures(ids, matrix, os.path.join(out, "h.csv"))

    assert_writes_as_reference(monkeypatch, tmp_path, write)
    assert len(forked) == (case == "two-workers" and FORKS)
    assert sorted(os.listdir(tmp_path / "new")) == ["h.csv"]


def test_dnl_results_written_as_reference(monkeypatch, outputs, tmp_path):
    # the loading's own tables, then its travel-time table replaced by the
    # special cells under ids that csv quotes, then by more than two
    # workers' minimum of cells, which a forked worker shares
    res, _ = outputs
    N = res.grid.n_steps
    cells = np.resize(SPECIAL_CELLS, (3, N))
    special = dataclasses.replace(res, path_order=("a,b", 'q"x', " lead"),
                                  travel_time=cells, departed=np.ones((3, N), bool))
    rows = 2 * fileio._WORKER_MIN_CELLS // N + 3
    many = np.resize(np.append(SPECIAL_CELLS, res.travel_time[0]), (rows, N))
    forked_paths = dataclasses.replace(res, path_order=tuple(f"p{i}" for i in range(rows)),
                                       travel_time=many, departed=np.ones((rows, N), bool))
    forked = two_cpus(monkeypatch)
    for name, result, forks in (("loading", res, 0), ("special", special, 0),
                                ("forked", forked_paths, FORKS)):
        assert_writes_as_reference(monkeypatch, tmp_path / name,
                                   lambda out: write_dnl_results(result, out))
        assert len(forked) == forks
        forked.clear()


def test_workers_derived_from_cpus_and_cells(monkeypatch):
    two_cpus(monkeypatch)
    monkeypatch.setattr(sys, "platform", "linux")
    least = fileio._WORKER_MIN_CELLS
    assert [fileio._workers(c, least) for c in (0, 2 * least - 1, 2 * least, 9 * least)] == \
        [1, 1, 2, 2]
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(10.0,))
    other.start()
    try:
        assert fileio._workers(9 * least, least) == 1  # no fork while another thread runs
    finally:
        done.set()
        other.join(timeout=10.0)
    assert not other.is_alive()
    assert fileio._workers(9 * least, least) == 2
    monkeypatch.setattr(sys, "platform", "darwin")
    assert fileio._workers(9 * least, least) == 1


def failing_writer(monkeypatch, how="raises"):
    """Make _write_matrix raise in every forked worker ("raises"), kill the
    worker with SIGKILL ("killed"), or raise in this process ("parent")."""
    parent, write = os.getpid(), fileio._write_matrix

    def failing(fh, ids, matrix):
        if (os.getpid() == parent) == (how == "parent"):
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError("no space left")
        write(fh, ids, matrix)

    monkeypatch.setattr(fileio, "_write_matrix", failing)


@fork_linux_only
@pytest.mark.parametrize("how", ["raises", "killed", "parent"])
def test_failed_worker_raises_and_leaves_no_part_or_child(monkeypatch, tmp_path, how):
    forked = two_cpus(monkeypatch)
    failing_writer(monkeypatch, how)
    ids, matrix = _matrix_case("two-workers")
    n = len(ids)
    message = {"raises": rf"h\.csv: the worker formatting rows {n // 2}-{n} failed$",
               "killed": r"h\.csv: worker 1 died of signal 9$",
               "parent": r"^no space left$"}[how]
    old = tmp_path / "h.csv"
    old.write_bytes(b"p1,0.5\r\n")
    with pytest.raises(OSError, match=message):
        write_departures(ids, matrix, str(old))
    assert len(forked) == 1
    # the table keeps its old bytes; no part file remains
    assert os.listdir(tmp_path) == ["h.csv"]
    assert old.read_bytes() == b"p1,0.5\r\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_write_in_one_process_keeps_the_old_table(monkeypatch, tmp_path):
    # P = 1: no fork, and the table is still written under a part name first
    failing_writer(monkeypatch, "parent")
    monkeypatch.setattr(fileio, "_workers", lambda units, least: 1)
    old = tmp_path / "h.csv"
    old.write_bytes(b"p1,0.5\r\n")
    with pytest.raises(OSError, match=r"^no space left$"):
        write_departures(["p1", "p2"], np.ones((2, 3)), str(old))
    with pytest.raises(OSError, match=r"^no space left$"):
        write_departures(["p1", "p2"], np.ones((2, 3)), str(tmp_path / "new.csv"))
    assert os.listdir(tmp_path) == ["h.csv"]
    assert old.read_bytes() == b"p1,0.5\r\n"


@fork_linux_only
def test_failed_worker_exits_4_naming_the_table(monkeypatch, tmp_path, capsys):
    forked = two_cpus(monkeypatch)
    failing_writer(monkeypatch)
    monkeypatch.setattr(fileio, "_WORKER_MIN_CELLS", 64)
    out = tmp_path / "out"
    out.mkdir()
    old = out / "travel_times.csv"
    old.write_bytes(b"path_id,0.0\r\np1,60.0\r\n")
    code = main(["dnl", "--network", os.path.join(DATA, "network.txt"),
                 "--paths", os.path.join(DATA, "paths.txt"),
                 "--demand", os.path.join(DATA, "demand.txt"),
                 "--departures", os.path.join(DATA, "departures.csv"),
                 "--dt", "30", "--horizon", "2400", "--out", str(out)])
    assert code == 4
    assert len(forked) == 1
    err = capsys.readouterr().err
    assert re.search(r"runtime error: \S*travel_times\.csv: the worker formatting "
                     r"rows \d+-\d+ failed", err), err
    # the table written before keeps its bytes; no part file or new table remains
    assert os.listdir(out) == ["travel_times.csv"]
    assert old.read_bytes() == b"path_id,0.0\r\np1,60.0\r\n"


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def within(seconds):
    """Fail the block, rather than hang, when it runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("P", [1, 2, 3])
def test_paths_searched_in_shares_as_in_one_process(monkeypatch, P):
    # the pinned grid files, and the random network's paths as one process finds them
    nodes, links, ods = grid_components()
    net = random_network()
    inputs = list(net.nodes.values()), list(net.links.values()), list(net.od_pairs), 3
    serial = enumerate_paths(*inputs)
    forked = two_cpus(monkeypatch)
    monkeypatch.setattr(fileio, "_workers", lambda units, least: P)
    assert paths_digest(enumerate_paths(nodes, links, ods, 4)) == GRID_K4
    assert paths_digest(enumerate_paths(nodes, links, ods, 12)) == GRID_K12
    assert enumerate_paths(*inputs) == serial
    assert len(forked) == 3 * (P - 1)
    no_child_left()


def test_paths_forked_only_for_enough_pairs_and_no_thread(monkeypatch):
    forked = two_cpus(monkeypatch)
    monkeypatch.setattr(sys, "platform", "linux")
    nodes, links, _, ods = braess_components()
    assert len(enumerate_paths(nodes, links, ods, 3)) == 8
    assert forked == []  # Braess's 4 pairs are searched in this process
    nodes, links, ods = grid_components()
    assert len(ods) >= 2 * fileio._WORKER_MIN_PAIRS
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(10.0,))
    other.start()
    try:
        assert paths_digest(enumerate_paths(nodes, links, ods, 4)) == GRID_K4
        assert forked == []  # no fork while another thread runs
    finally:
        done.set()
        other.join(timeout=10.0)
    assert not other.is_alive()
    assert paths_digest(enumerate_paths(nodes, links, ods, 4)) == GRID_K4
    assert len(forked) == 1


@fork_linux_only
def test_unreachable_pair_of_a_forked_share_refused_as_in_one_process(monkeypatch):
    # pair 1 falls in worker 1's share and pair 2 in this process's: the
    # first unreachable pair in O-D order is refused, with the serial text
    nodes, links, ods = grid_components()
    ods = [ods[0], ODPair("n0_1", "island", 1.0, 0.0),
           ODPair("n0_2", "island", 1.0, 0.0), *ods[1:]]
    nodes = [*nodes, Node("island", destination=True)]
    monkeypatch.setattr(fileio, "_workers", lambda units, least: 1)
    with pytest.raises(NetworkError) as serial:
        enumerate_paths(nodes, links, ods, 4)
    assert str(serial.value) == "destination island unreachable from n0_1"
    forked = two_cpus(monkeypatch)
    monkeypatch.setattr(fileio, "_workers", lambda units, least: 2)
    with pytest.raises(NetworkError) as shared:
        enumerate_paths(nodes, links, ods, 4)
    assert str(shared.value) == str(serial.value)
    assert len(forked) == 1
    no_child_left()


def share_of(failing=None):
    """A share that returns a large result, except in worker 2, which
    raises ("raises"), dies of SIGKILL ("killed") or returns what pickle
    refuses ("unpicklable")."""
    def share(w):
        if w == 2 and failing == "raises":
            raise NetworkError("no route")
        if w == 2 and failing == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if w == 2 and failing == "unpicklable":
            return lambda: None
        return [w] * 100_000

    return share


@fork_linux_only
def test_shares_return_in_worker_order():
    assert [r[:2] for r in fileio._in_workers(3, share_of(), "test")] == \
        [[0, 0], [1, 1], [2, 2]]
    assert fileio._in_workers(1, share_of(), "test")[0][0] == 0
    no_child_left()


@fork_linux_only
@pytest.mark.parametrize("failing,error,message", [
    ("raises", NetworkError, r"^no route$"),
    ("killed", OSError, r"^test: worker 2 died of signal 9$"),
    ("unpicklable", OSError, r"^test: worker 2 failed$"),
])
def test_failed_share_names_its_worker_and_leaves_no_child(failing, error, message):
    # a share's own exception is raised as it was, caused by an error naming
    # its worker; a worker that sends nothing is named by the error itself
    with within(60), pytest.raises(error, match=message) as failed:
        fileio._in_workers(4, share_of(failing), "test")
    if failing == "raises":
        assert str(failed.value.__cause__) == "test: worker 2 raised"
    no_child_left()


@fork_linux_only
def test_failure_in_this_process_reaps_workers_with_results_to_send():
    # each worker's result fills more than a pipe's buffer while nothing reads it
    def share(w):
        if w == 0:
            raise ValueError("this process failed")
        return [w] * 1_000_000

    with within(60), pytest.raises(ValueError, match=r"^this process failed$"):
        fileio._in_workers(3, share, "test")
    no_child_left()


@fork_linux_only
def test_failed_fork_closes_its_pipe_and_leaves_no_child(monkeypatch):
    forks = []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/proc/self/fd"))
    with within(60), pytest.raises(OSError, match="Resource temporarily unavailable"):
        fileio._in_workers(3, share_of(), "test")
    assert len(os.listdir("/proc/self/fd")) == fds
    no_child_left()


QUICK_STARTS = pytest.mark.parametrize("argv", [
    ["dnl", "--paths", os.path.join(DATA, "paths.txt"),
     "--departures", os.path.join(DATA, "departures.csv"), "--dt", "30"],
    ["due", "--auto-paths", "3", "--dt", "10", "--alpha", "5e-4", "--epsilon", "1e-4",
     "--max-iters", "200", "--init-window", "0:1200"],
], ids=["dnl", "due"])


def quick_start_writes_as_reference(monkeypatch, tmp_path, argv):
    common = ["--network", os.path.join(DATA, "network.txt"),
              "--demand", os.path.join(DATA, "demand.txt"), "--horizon", "2400"]

    def write(out):
        assert main(argv + common + ["--out", out]) == 0

    names = assert_writes_as_reference(monkeypatch, tmp_path, write)
    assert {"travel_times.csv", "link_timeseries.csv"} <= set(names)


@QUICK_STARTS
def test_readme_quick_starts_written_as_reference(monkeypatch, tmp_path, capsys, argv):
    quick_start_writes_as_reference(monkeypatch, tmp_path, argv)


@fork_linux_only
@QUICK_STARTS
def test_readme_quick_starts_forked_as_reference(monkeypatch, tmp_path, capsys, argv):
    # every table of the run, due's four included, shared with a forked worker
    forked = two_cpus(monkeypatch)
    monkeypatch.setattr(fileio, "_WORKER_MIN_CELLS", 64)
    quick_start_writes_as_reference(monkeypatch, tmp_path, argv)
    assert len(forked) == 1
