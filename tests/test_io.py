"""Data-file parsing, round-trips and result export."""

import csv
import json
import os

import numpy as np
import pytest

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
from helpers import braess_components, path_matrix, single_link_network

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

    def test_unknown_section(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("[nodes]\n[links]\n[weather]\n")
        with pytest.raises(ParseError, match="unknown section"):
            load_network(str(f))

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
        with pytest.raises(ParseError, match="must be 0 or 1"):
            load_network(str(f))

    def test_nonnumeric_length(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(
            "[nodes]\nid,x,y,origin,destination,source_priority\n"
            "a,0,0,1,0,\nb,1,0,0,1,\n[links]\n"
            "id,tail,head,length_m,free_speed_mps,capacity_vps,backward_speed_mps\n"
            "1,a,b,long,12,0.5,\n"
        )
        with pytest.raises(ParseError, match="not numeric"):
            load_network(str(f))

    def test_column_count_mismatch(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(
            "[demand]\norigin,destination,demand_veh,target_arrival_s\na,b,5\n"
        )
        with pytest.raises(ParseError, match="expected 4 columns"):
            load_demand(str(f))

    def test_negative_demand(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(
            "[demand]\norigin,destination,demand_veh,target_arrival_s\n"
            "a,b,-5,600\n"
        )
        with pytest.raises(ParseError, match="negative demand"):
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
    with pytest.raises(ParseError,
                       match=rf"data.txt: field {field} is not finite: '{value}'"):
        load(str(f))


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

    def test_wrong_column_count(self, tmp_path):
        f = self.make(tmp_path, np.zeros((2, 5)))
        with pytest.raises(ParseError, match="expected N = 6"):
            load_departures(f, ("p1", "p2"), 6)

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


class TestEnumeratePaths:
    def test_braess_origin1_to_4(self):
        nodes, links, _, _ = braess_components()
        ods = [od for od in braess_components()[3]
               if (od.origin, od.destination) == ("1", "4")]
        paths = enumerate_paths(nodes, links, ods, 3)
        assert len(paths) == 3
        assert {p.links for p in paths} == {("1", "4"), ("2", "5"), ("1", "3", "5")}
        assert [p.id for p in paths] == ["1-4-1", "1-4-2", "1-4-3"]

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
