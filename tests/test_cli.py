"""End-to-end command-line tests: exit codes, outputs, determinism."""

import contextlib
import csv
import filecmp
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dtaflow
from dtaflow import cli
from dtaflow.cli import main
from dtaflow.fileio import load_paths
from dtaflow.solver import solve_due

DATA = os.path.join(os.path.dirname(__file__), "..", "data", "braess")


NETWORK = """\
[nodes]
id,x,y,origin,destination,source_priority
a,0,0,1,0,
b,1,0,0,1,
[links]
id,tail,head,length_m,free_speed_mps,capacity_vps,backward_speed_mps
1,a,b,1200,12,0.8,
"""

PATHS = """\
[paths]
id,origin,destination,links
p1,a,b,1
"""

DEMAND = """\
[demand]
origin,destination,demand_veh,target_arrival_s
a,b,40,400
"""


@pytest.fixture
def tiny(tmp_path):
    files = {}
    for name, text in [("network.txt", NETWORK), ("paths.txt", PATHS),
                       ("demand.txt", DEMAND)]:
        f = tmp_path / name
        f.write_text(text)
        files[name] = str(f)
    return files, tmp_path


def due_args(files, out, **over):
    opts = {"--dt": "10", "--horizon": "700", "--alpha": "5e-4",
            "--epsilon": "1e-5", "--max-iters": "200",
            "--init-window": "0:500"}
    opts.update(over)
    argv = ["due", "--network", files["network.txt"],
            "--paths", files["paths.txt"],
            "--demand", files["demand.txt"], "--out", out]
    for k, v in opts.items():
        argv += [k, v]
    return argv


class TestUsageErrors:
    def test_missing_required_argument(self, capsys):
        assert main(["dnl", "--network", "x"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_nonpositive_alpha(self, tiny, capsys):
        files, tmp = tiny
        argv = due_args(files, str(tmp / "out"), **{"--alpha": "0"})
        assert main(argv) == 1
        assert "--alpha" in capsys.readouterr().err

    def test_bad_init_window(self, tiny, capsys):
        files, tmp = tiny
        argv = due_args(files, str(tmp / "out"), **{"--init-window": "oops"})
        assert main(argv) == 1
        assert "LO:HI" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["1200:0", "300:300"])
    def test_empty_init_window_is_usage_error(self, tiny, capsys, window):
        files, tmp = tiny
        argv = due_args(files, str(tmp / "out"), **{"--init-window": window})
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --init-window") and "LO < HI" in err

    @pytest.mark.parametrize("window", ["5000:6000", "10:20"])
    def test_init_window_without_step_is_usage_error(self, tiny, capsys, window):
        # past the horizon, or between the 0 s and 30 s step starts
        files, tmp = tiny
        argv = due_args(files, str(tmp / "out"), **{"--dt": "30", "--horizon": "2400",
                                                    "--init-window": window})
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --init-window {window}:")
        assert "no grid steps" in err

    @pytest.mark.parametrize("flags,message", [
        (["--auto-paths", "2"],
         "argument --auto-paths: not allowed with argument --paths"),
        ([], "one of the arguments --paths --auto-paths is required"),
    ], ids=["both", "neither"])
    def test_due_takes_exactly_one_path_source(self, tiny, capsys, flags, message):
        files, tmp = tiny
        argv = due_args(files, str(tmp / "out"))
        if not flags:
            i = argv.index("--paths")
            del argv[i:i + 2]
        assert main(argv + flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp / "out").exists()


FLOAT_FLAGS = ["--dt", "--horizon", "--t0", "--alpha", "--epsilon",
               "--br-tolerance", "--early-weight", "--late-weight"]

OUT_OF_RANGE = [  # (flag, value, reason)
    ("--dt", "0", "must be positive"),
    ("--horizon", "-700", "must be positive"),
    ("--alpha", "-5e-4", "must be positive"),
    ("--epsilon", "0", "must be positive"),
    ("--br-tolerance", "-1", "must be nonnegative"),
    ("--early-weight", "-1", "must be nonnegative"),
    ("--late-weight", "-0.5", "must be nonnegative"),
    ("--max-iters", "0", "not a positive integer"),
    ("--max-iters", "2.5", "not a positive integer"),
    ("--auto-paths", "0", "not a positive integer"),
    ("--k", "0", "not a positive integer"),
]


@pytest.mark.parametrize("flag,value,reason", [
    pytest.param(flag, value, "not a finite number", id=f"{flag}-{value}")
    for flag in FLOAT_FLAGS for value in ["nan", "inf", "-inf"]
] + [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in OUT_OF_RANGE])
def test_nonfinite_flag_is_usage_error(tiny, capsys, flag, value, reason):
    # non-finite or out-of-range number flags are usage errors naming the flag
    files, tmp = tiny
    if flag == "--k":
        argv = ["paths", "--network", files["network.txt"],
                "--demand", files["demand.txt"], "--out", str(tmp / "p.txt")]
    else:
        argv = due_args(files, str(tmp / "out"))
    assert main(argv + [f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {reason}: '{value}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name,good,bad,field", [
    ("network.txt", "1,a,b,1200,", "1,a,b,{},", "length_m"),
    ("demand.txt", "a,b,40,", "a,b,{},", "demand_veh"),
])
def test_nonfinite_file_value_is_parse_error(tiny, capsys, name, good, bad,
                                             field, value):
    files, tmp = tiny
    path = tmp / name
    text = path.read_text()
    line = next(i for i, row in enumerate(text.splitlines(), start=1) if good in row)
    path.write_text(text.replace(good, bad.format(value)))
    assert main(due_args(files, str(tmp / "out"))) == 2
    err = capsys.readouterr().err
    assert f"{name}:{line}: field {field} is not finite: '{value}'" in err
    assert len(err.strip().splitlines()) == 1


class TestExitCodes:
    def test_parse_error_is_2(self, tiny, capsys):
        files, tmp = tiny
        bad = tmp / "broken.txt"
        bad.write_text("id,tail\n[links]\n")
        argv = due_args(dict(files, **{"network.txt": str(bad)}), str(tmp / "o"))
        assert main(argv) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("name,line,good,bad,message", [
        ("network.txt", 3, "a,0,0,1,0,", "a,0,0,1,0,1.5",
         "source_priority of node a must lie in [0, 1], got 1.5"),
        ("network.txt", 7, "1,a,b,1200,", "1,a,b,0,", "link 1: nonpositive or non-finite"),
        ("paths.txt", 3, "p1,a,b,1", "p1,a,b,1|1", "path p1 repeats a link (must be simple)"),
        ("paths.txt", 3, "p1,a,b,1", "a/b,a,b,1",
         "path id 'a/b' is empty or holds a path separator"),
        ("demand.txt", 3, "a,b,40,", "a,b,-40,",
         "negative or non-finite demand -40.0 or target 400.0 for O-D (a, b)"),
        ("paths.txt", 4, "p1,a,b,1", "p1,a,b,1\np1,a,b,1", "duplicate path id p1"),
        ("demand.txt", 4, "a,b,40,", "a,b,40,400\na,b,40,",
         "duplicate O-D pair ('a', 'b')"),
    ], ids=["node", "link", "path", "path-id", "demand", "repeated-path-id",
            "repeated-od-pair"])
    def test_record_refused_by_its_constructor_is_2(self, tiny, capsys, name, line,
                                                    good, bad, message):
        files, tmp = tiny
        path = tmp / name
        path.write_text(path.read_text().replace(good, bad))
        assert main(due_args(files, str(tmp / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}:{line}: {message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name,line", [
        ("network.txt", 3), ("departures.csv", 1), ("od_gaps.csv", 2),
    ], ids=["sections", "departure-rows", "report-rows"])
    def test_line_csv_cannot_read_is_2(self, tmp_path, capsys, name, line):
        # one reader each: the sectioned files', the departure rows' and
        # the plain tables' that report reads
        big = "x" * (csv.field_size_limit() + 1)
        if name == "od_gaps.csv":
            (tmp_path / name).write_text(f"origin,destination,gap_s\n1,4,{big}\n")
            argv = ["report", "--in", str(tmp_path)]
        else:
            text = open(os.path.join(DATA, name)).read()
            if name == "network.txt":
                rows = text.splitlines(keepends=True)
                rows[line - 1] = rows[line - 1].replace("id,", f"{big},", 1)
                text = "".join(rows)
            else:
                text = f"#{big}\n{text}"
            (tmp_path / name).write_text(text)
            argv = braess_replay_args(str(tmp_path / "out"))
            argv[argv.index(os.path.join(DATA, name))] = str(tmp_path / name)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {tmp_path / name}:{line}: "
                              "field larger than field limit")
        assert len(err.strip().splitlines()) == 1

    def test_validation_error_is_3(self, tiny, capsys):
        files, tmp = tiny
        bad = tmp / "demand_bad.txt"
        bad.write_text("[demand]\norigin,destination,demand_veh,target_arrival_s\n"
                       "b,a,5,600\n")
        argv = due_args(dict(files, **{"demand.txt": str(bad)}), str(tmp / "o"))
        assert main(argv) == 3
        assert "validation error" in capsys.readouterr().err

    def test_runtime_error_is_4(self, tiny, capsys):
        files, tmp = tiny
        h = tmp / "h.csv"
        h.write_text("p1,0.1,0.1\n")  # 2 columns but the grid has 70 steps
        argv = ["dnl", "--network", files["network.txt"],
                "--paths", files["paths.txt"], "--demand", files["demand.txt"],
                "--departures", str(h), "--out", str(tmp / "o"),
                "--dt", "10", "--horizon", "700"]
        assert main(argv) == 2  # dimension mismatch is caught at parse time
        assert "expected N" in capsys.readouterr().err

    def test_unexpected_error_is_4(self, tiny, capsys, monkeypatch):
        def fail(args):
            raise KeyError("no such thing")

        monkeypatch.setitem(cli._COMMANDS, "dnl", fail)
        files, tmp = tiny
        argv = ["dnl", "--network", files["network.txt"],
                "--paths", files["paths.txt"], "--demand", files["demand.txt"],
                "--departures", str(tmp / "h.csv"), "--out", str(tmp / "o"),
                "--dt", "10", "--horizon", "700"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.splitlines() == ["runtime error: KeyError: 'no such thing'"]
        assert "Traceback" not in err


def braess_replay_args(out, departures=os.path.join(DATA, "departures.csv")):
    return ["dnl", "--network", os.path.join(DATA, "network.txt"),
            "--paths", os.path.join(DATA, "paths.txt"),
            "--demand", os.path.join(DATA, "demand.txt"),
            "--departures", departures,
            "--out", out, "--dt", "30", "--horizon", "2400"]


class TestDnlCommand:
    def test_braess_fixture_replay(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(braess_replay_args(out)) == 0
        assert "dnl complete" in capsys.readouterr().out
        for name in ("travel_times.csv", "link_timeseries.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["mode"] == "dnl"

    def test_nan_departure_is_parse_error(self, tmp_path, capsys):
        with open(os.path.join(DATA, "departures.csv")) as fh:
            lines = fh.read().splitlines()
        cells = lines[0].split(",")
        cells[3] = "nan"
        lines[0] = ",".join(cells)
        bad = tmp_path / "departures.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(braess_replay_args(str(tmp_path / "out"), str(bad))) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert ":1: non-finite rate at (path p1, step 2)" in err

    def test_coarse_dt_prints_warning(self, tiny, capsys):
        files, tmp = tiny
        h = tmp / "h.csv"
        h.write_text("p1," + ",".join(["0.1"] * 5) + "\n")
        argv = ["dnl", "--network", files["network.txt"],
                "--paths", files["paths.txt"], "--demand", files["demand.txt"],
                "--departures", str(h), "--out", str(tmp / "o"),
                "--dt", "150", "--horizon", "700"]
        assert main(argv) == 0
        assert "exceeds the minimum link free-flow time" in capsys.readouterr().err

    @pytest.mark.parametrize("last, warning, cells", [
        ("0", None, 0),
        ("0.1", "warning: 1 path/departure cells not completed", 1),
    ], ids=["early-departures-only", "one-late-departure"])
    def test_truncation_warning_counts_trips_only(self, tiny, capsys, last,
                                                  warning, cells):
        # a 100 s link and a 700 s horizon: cells departing after 600 s are
        # truncated, but only a cell with departures is a trip, in the
        # warning and in summary.json
        files, tmp = tiny
        h = tmp / "h.csv"
        h.write_text("p1," + ",".join(["0.1"] * 10 + ["0"] * 59 + [last]) + "\n")
        argv = ["dnl", "--network", files["network.txt"],
                "--paths", files["paths.txt"], "--demand", files["demand.txt"],
                "--departures", str(h), "--out", str(tmp / "o"),
                "--dt", "10", "--horizon", "700"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        if warning is None:
            assert "not completed" not in err
        else:
            assert err.count("not completed") == 1 and warning in err
        with open(tmp / "o" / "summary.json") as fh:
            assert json.load(fh)["truncated_cells"] == cells


class TestDueCommand:
    def test_converges_and_reports(self, tiny, capsys):
        files, tmp = tiny
        out = str(tmp / "out")
        assert main(due_args(files, out)) == 0
        stdout = capsys.readouterr().out
        assert "CONVERGED" in stdout
        assert "log10(relative gap)" in stdout
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "CONVERGED"
        for name in ("h_final.csv", "eff_delay.csv", "od_gaps.csv",
                     "convergence.csv", "travel_times.csv"):
            assert os.path.exists(os.path.join(out, name))

    def test_truncation_warned_once(self, tiny, capsys):
        files, tmp = tiny
        # a 100 s link and a 90 s horizon: no trip can finish, in any of the
        # solve's loadings
        argv = due_args(files, str(tmp / "out"),
                        **{"--horizon": "90", "--init-window": "0:90"})
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.count("not completed within the horizon") == 1

    def test_auto_paths(self, tiny):
        files, tmp = tiny
        out = str(tmp / "out")
        argv = due_args(files, out)
        i = argv.index("--paths")
        argv[i : i + 2] = ["--auto-paths", "2"]
        assert main(argv) == 0
        assert os.path.exists(os.path.join(out, "h_final.csv"))

    def test_repeat_runs_byte_identical(self, tiny):
        files, tmp = tiny
        out1, out2 = str(tmp / "o1"), str(tmp / "o2")
        assert main(due_args(files, out1)) == 0
        assert main(due_args(files, out2)) == 0
        for name in ("h_final.csv", "eff_delay.csv", "convergence.csv"):
            assert filecmp.cmp(os.path.join(out1, name),
                               os.path.join(out2, name), shallow=False), name

    @pytest.mark.parametrize("pid", ["p1", "path_id"])
    def test_output_replays_through_dnl(self, tiny, pid):
        # dnl on due's own h_final.csv repeats due's final loading byte for
        # byte, also for a path named like the file's header cell
        files, tmp = tiny
        (tmp / "paths.txt").write_text(PATHS.replace("p1,", f"{pid},"))
        solved, replayed = tmp / "due", tmp / "dnl"
        assert main(due_args(files, str(solved))) == 0
        with open(solved / "h_final.csv") as fh:
            assert [line.split(",")[0] for line in fh] == ["path_id", pid]
        argv = ["dnl", "--network", files["network.txt"],
                "--paths", files["paths.txt"], "--demand", files["demand.txt"],
                "--departures", str(solved / "h_final.csv"), "--out", str(replayed),
                "--dt", "10", "--horizon", "700"]
        assert main(argv) == 0
        for name in ("travel_times.csv", "link_timeseries.csv"):
            assert filecmp.cmp(solved / name, replayed / name, shallow=False), name

    def test_zero_demand_od_is_quiet(self, tmp_path, capsys, caplog):
        # an O-D with no demand has no used departure cells; that is no fault
        with open(os.path.join(DATA, "demand.txt")) as fh:
            text = fh.read().replace("1,3,250,", "1,3,0,")
        demand = tmp_path / "demand.txt"
        demand.write_text(text)
        argv = ["due", "--network", os.path.join(DATA, "network.txt"),
                "--paths", os.path.join(DATA, "paths.txt"),
                "--demand", str(demand), "--out", str(tmp_path / "out"),
                "--dt", "30", "--horizon", "2400", "--alpha", "5e-4",
                "--max-iters", "3", "--init-window", "0:1200"]
        assert main(argv) == 0
        err = capsys.readouterr().err + caplog.text
        assert "used departure cells" not in err

    def test_origin_without_paths_or_entering_links(self, tmp_path, capsys):
        # origin 1 has no incoming link and, with only 2-3 and 2-4 demanded,
        # no path leaves it: it has no junction input to weigh
        demand = tmp_path / "demand.txt"
        demand.write_text("[demand]\norigin,destination,demand_veh,target_arrival_s\n"
                          "2,3,150,2400\n2,4,250,2400\n")
        argv = ["due", "--network", os.path.join(DATA, "network.txt"),
                "--auto-paths", "3", "--demand", str(demand),
                "--out", str(tmp_path / "out"), "--dt", "30", "--horizon", "2400",
                "--alpha", "5e-4", "--max-iters", "2"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "error" not in err
        assert "after 2 iterations" in out


class TestPathsCommand:
    def test_enumerates_braess(self, tmp_path, capsys):
        out = str(tmp_path / "paths_out.txt")
        argv = ["paths", "--network", os.path.join(DATA, "network.txt"),
                "--demand", os.path.join(DATA, "demand.txt"),
                "--k", "3", "--out", out]
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out
        generated = load_paths(out)
        assert {p.links for p in generated if p.od == ("1", "4")} == \
            {("1", "4"), ("2", "5"), ("1", "3", "5")}

    def test_runs_without_networkx(self, tmp_path, monkeypatch):
        """The Braess k=3 file, byte for byte as networkx's search wrote it."""
        monkeypatch.setitem(sys.modules, "networkx", None)  # import fails
        out = tmp_path / "paths_out.txt"
        assert main(["paths", "--network", os.path.join(DATA, "network.txt"),
                     "--demand", os.path.join(DATA, "demand.txt"),
                     "--k", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "717fa114151c9f2fcac168cf72284d9744601a8c220b5b796baa0462df8dab21"


class TestReportCommand:
    @pytest.fixture
    def finished_run(self, tiny):
        files, tmp = tiny
        out = str(tmp / "out")
        assert main(due_args(files, out)) == 0
        return out

    def test_percentiles_and_curves(self, finished_run, capsys):
        assert main(["report", "--in", finished_run, "--paths", "p1"]) == 0
        stdout = capsys.readouterr().out
        assert "percentiles" in stdout
        assert os.path.exists(os.path.join(finished_run, "gap_percentiles.csv"))
        assert os.path.exists(os.path.join(finished_run, "curve_p1_h_final.csv"))

    def test_incomplete_directory_is_2(self, tmp_path):
        assert main(["report", "--in", str(tmp_path)]) == 2

    def test_unknown_path_is_2(self, finished_run, capsys):
        assert main(["report", "--in", finished_run, "--paths", "zz"]) == 2
        assert "not present" in capsys.readouterr().err

    @pytest.mark.parametrize("selected", ["zz", "p1,a/b"])
    def test_refused_report_writes_no_percentiles(self, finished_run, selected):
        assert main(["report", "--in", finished_run, "--paths", selected]) == 2
        assert not os.path.exists(os.path.join(finished_run, "gap_percentiles.csv"))

    @pytest.mark.parametrize("selected,drop,message", [
        ("p1,../../x", None, "path ../../x not present in h_final.csv"),
        ("p1", "p1", "path p1 not present in eff_delay.csv"),
    ], ids=["second-id-unknown", "id-missing-from-second-file"])
    def test_failed_report_writes_no_curve(self, finished_run, capsys, selected,
                                           drop, message):
        if drop is not None:  # eff_delay.csv loses a row that h_final.csv keeps
            name = os.path.join(finished_run, "eff_delay.csv")
            with open(name) as fh:
                lines = [ln for ln in fh if not ln.startswith(drop + ",")]
            with open(name, "w") as fh:
                fh.writelines(lines)
        assert main(["report", "--in", finished_run, "--paths", selected]) == 2
        assert message in capsys.readouterr().err
        assert not [f for f in os.listdir(finished_run) if f.startswith("curve_")]

    @pytest.mark.parametrize("pid", ["a/b", "a/../../x"])
    def test_path_id_with_separator_is_parse_error(self, finished_run, capsys, pid):
        # the id is a row of both curve tables, and curve_a exists: a write
        # of curve_{id}_{file} would land in it or above the run directory
        for name in ("h_final.csv", "eff_delay.csv"):
            with open(os.path.join(finished_run, name)) as fh:
                lines = fh.readlines()
            row = lines[1].split(",", 1)[1]
            with open(os.path.join(finished_run, name), "a") as fh:
                fh.write(f"{pid},{row}")
        os.mkdir(os.path.join(finished_run, "curve_a"))
        before = set(os.listdir(os.path.dirname(finished_run)))
        assert main(["report", "--in", finished_run, "--paths", f"p1,{pid}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and f"path id '{pid}'" in err
        written = [f for _, _, files in os.walk(finished_run) for f in files
                   if f.startswith("curve_")]
        assert not written and not os.listdir(os.path.join(finished_run, "curve_a"))
        assert set(os.listdir(os.path.dirname(finished_run))) == before

    @pytest.mark.parametrize("name,line,message", [
        ("od_gaps.csv", 3, "duplicate O-D pair ('a', 'b')"),
        ("h_final.csv", 3, "duplicate path id p1"),
        ("eff_delay.csv", 3, "duplicate path id p1"),
    ], ids=["od-gaps", "h-final", "eff-delay"])
    def test_repeated_row_is_2(self, finished_run, capsys, name, line, message):
        # a repeated gap would count twice in the percentiles, and a repeated
        # curve row would hide the first one
        path = os.path.join(finished_run, name)
        with open(path) as fh:
            first = fh.readlines()[1]
        with open(path, "a") as fh:
            fh.write(first)
        assert main(["report", "--in", finished_run, "--paths", "p1"]) == 2
        assert capsys.readouterr().err == f"parse error: {path}:{line}: {message}\n"
        assert not os.path.exists(os.path.join(finished_run, "gap_percentiles.csv"))
        assert not [f for f in os.listdir(finished_run) if f.startswith("curve_")]

    @pytest.mark.parametrize("name,text,message", [
        ("h_final.csv", "", "h_final.csv: empty file"),
        ("eff_delay.csv", "path_id,0.0,10.0\np1,5.0\n",
         "eff_delay.csv:2: expected 3 fields, got 2"),
    ], ids=["empty-file", "short-row"])
    def test_malformed_curve_file_is_parse_error(self, tmp_path, capsys, name,
                                                 text, message):
        (tmp_path / "od_gaps.csv").write_text("origin,destination,gap_s\n")
        (tmp_path / name).write_text(text)
        assert main(["report", "--in", str(tmp_path), "--paths", "p1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("row,message", [
        ("1,3", "od_gaps.csv:3: expected 3 fields"),
        ("1,3,fast", "od_gaps.csv:3: field gap_s is not numeric: 'fast'"),
    ], ids=["short-row", "non-numeric-gap"])
    def test_malformed_gap_row_is_parse_error(self, tmp_path, capsys, row,
                                              message):
        (tmp_path / "od_gaps.csv").write_text(
            f"origin,destination,gap_s\n1,4,2.5\n{row}\n")
        assert main(["report", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text,message", [
        ("", "od_gaps.csv: empty file, expected a header row"),
        ("o,d,gap\n1,4,2.5\n", "od_gaps.csv:1: header ['o', 'd', 'gap'] does not"),
    ], ids=["empty-file", "wrong-header"])
    def test_malformed_gap_header_is_parse_error(self, tmp_path, capsys, text,
                                                 message):
        (tmp_path / "od_gaps.csv").write_text(text)
        assert main(["report", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "gap_percentiles.csv").exists()


def test_cli_import_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(dtaflow.__file__))
    code = "import sys, dtaflow.cli; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


BRAESS_FILES = {}
for _name in ("network.txt", "paths.txt", "demand.txt", "departures.csv"):
    with open(os.path.join(DATA, _name)) as _fh:
        BRAESS_FILES[_name] = _fh.read().splitlines()
FUZZ_TOKENS = ["", "x", "-1", "0", "nan", "1e308", "1e-300", "1|9"]
# messages of the loader's and solver's own invariant checks, the junction
# input refusals included: bad input must be named before it reaches them
INVARIANT_MESSAGES = ["vehicle balance residual", "conservation residual",
                      "composition mass", "junction demands/supplies",
                      "with positive demand", "split fractions must lie in"]


@st.composite
def field_edits(draw):
    """One or two (file, line, field, token) substitutions in the Braess data."""
    edits = []
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(BRAESS_FILES)))
        lines = BRAESS_FILES[name]
        line = draw(st.integers(0, len(lines) - 1))
        field = draw(st.integers(0, lines[line].count(",")))
        edits.append((name, line, field, draw(st.sampled_from(FUZZ_TOKENS))))
    return edits


@settings(max_examples=100, deadline=None)
@given(edits=field_edits(), command=st.sampled_from(["dnl", "due"]))
# a rate whose cumulative departures overflow
@example(edits=[("departures.csv", 0, 15, "1e308")], command="dnl")
# a free-flow time L/v lost in t - L/v
@example(edits=[("network.txt", 11, 4, "1e308")], command="dnl")
# two O-D demands whose cumulative departures are finite per origin, not summed
@example(edits=[("demand.txt", 2, 2, "1e308"), ("demand.txt", 3, 2, "1e308")],
         command="due")
# exit-time reads of counts near 1e308 that the exit curves never reach
@example(edits=[("demand.txt", 5, 2, "1e308")], command="due")
def test_mutated_braess_inputs_fail_cleanly(edits, command):
    files = {name: list(lines) for name, lines in BRAESS_FILES.items()}
    for name, line, field, token in edits:
        cells = files[name][line].split(",")
        cells[field] = token
        files[name][line] = ",".join(cells)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write("\n".join(lines) + "\n")
        argv = [command, "--out", os.path.join(tmp, "out"),
                "--dt", "30", "--horizon", "2400"]
        for flag, name in [("--network", "network.txt"), ("--paths", "paths.txt"),
                           ("--demand", "demand.txt")]:
            argv += [flag, os.path.join(tmp, name)]
        if command == "dnl":
            argv += ["--departures", os.path.join(tmp, "departures.csv")]
        else:
            argv += ["--alpha", "5e-4", "--max-iters", "2"]
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main_raising_warnings(argv)
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
    for message in INVARIANT_MESSAGES:
        assert message not in err.getvalue()


def write_braess(tmp_path, edits):
    """The Braess files with (file, line, field, token) substitutions, written
    to tmp_path; returns the --network/--paths/--demand/--departures flags."""
    for name, lines in BRAESS_FILES.items():
        lines = list(lines)
        for file, line, field, token in edits:
            if file == name:
                cells = lines[line].split(",")
                cells[field] = token
                lines[line] = ",".join(cells)
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    flags = []
    for flag, name in [("--network", "network.txt"), ("--paths", "paths.txt"),
                       ("--demand", "demand.txt"), ("--departures", "departures.csv")]:
        flags += [flag, str(tmp_path / name)]
    return flags


def main_raising_warnings(argv):
    """main(argv) with numpy and Python RuntimeWarnings raised as errors,
    which main() would report as a runtime error (exit 4)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


# link 3's free-flow speed, then its length: lags so long that s + dt == s
@pytest.mark.parametrize("field, token", [(4, "1e-300"), (3, "1e308")],
                         ids=["free speed 1e-300", "length 1e308"])
def test_huge_lags_load_without_warnings(tmp_path, capsys, field, token):
    flags = write_braess(tmp_path, [("network.txt", 11, field, token)])
    argv = ["dnl", "--out", str(tmp_path / "out"), "--dt", "30",
            "--horizon", "2400"] + flags
    assert main_raising_warnings(argv) == 0
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_overflowing_relative_gap_stays_finite(tmp_path, capsys):
    # a 1-3 demand of 1e308 overflows the plain squared sums of the gap
    flags = write_braess(tmp_path, [("demand.txt", 2, 2, "1e308")])
    argv = ["due", "--out", str(tmp_path / "out"), "--dt", "30", "--horizon", "2400",
            "--alpha", "5e-4", "--max-iters", "2"] + flags[:6]
    assert main_raising_warnings(argv) == 0
    out, err = capsys.readouterr()
    assert "RuntimeWarning" not in err
    gaps = [float(line.split("=")[1]) for line in out.splitlines()
            if line.startswith("iter")]
    assert gaps and all(math.isfinite(g) for g in gaps)


def test_nan_relative_gap_printed_as_nan(tiny, capsys, monkeypatch):
    def nan_gap(*args):
        report = solve_due(*args)
        report.relative_gap_history[-1] = math.nan
        return report

    files, tmp = tiny
    monkeypatch.setattr(cli, "solve_due", nan_gap)
    assert main(due_args(files, str(tmp / "out"), **{"--max-iters": "1"})) == 0
    assert "log10(relative gap) =      nan" in capsys.readouterr().out
