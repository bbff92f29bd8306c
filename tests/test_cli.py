"""Command-line contract: headers, round trips, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermaljc
from thermaljc import cli
from thermaljc.cli import (
    _READ_ROWS,
    EPE_HEADER,
    SCAN_HEADER,
    TIMESERIES_HEADER,
    CsvFormatError,
    _build_parser,
    _read_csv,
    _write_columns,
    main,
)
from thermaljc.core import MAX_POINTS, MAX_SECTORS, SystemParams
from thermaljc.floattext import BLOCK
from thermaljc.oracle import validation_times

TS_FLAGS = [
    "--p", "1", "--kbar", "0.1", "--lbar", "0.1", "--delta", "0",
    "--gt-max", "25", "--steps", "200",
]


def _read_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {
        name: np.array([float(row[i]) for row in rows])
        for i, name in enumerate(header)
    }


class TestTimeseries:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert main(["timeseries", *TS_FLAGS, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TIMESERIES_HEADER
        assert lines[0] == "gt,g_eff,x1,x2,x3_re,x3_im,x5,x6,concurrence,purity,energy"
        assert len(lines) == 202
        first = lines[1].split(",")
        assert len(first) == 11
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # g_eff at the start
        assert float(first[8]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[9]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[10]) == pytest.approx(0.0, abs=1e-9)

    def test_json_round_trip_matches_csv_exactly(self, tmp_path):
        csv_out = tmp_path / "ts.csv"
        json_out = tmp_path / "ts.json"
        assert main(["timeseries", *TS_FLAGS, "--output", str(csv_out)]) == 0
        assert main(["timeseries", *TS_FLAGS, "--format", "json",
                     "--output", str(json_out)]) == 0
        csv_columns = _read_columns(csv_out)
        json_columns = json.loads(json_out.read_text())["columns"]
        assert set(json_columns) == set(csv_columns)
        for name, values in csv_columns.items():
            assert values.tolist() == json_columns[name]

    def test_json_metadata_echoes_inputs(self, tmp_path):
        out = tmp_path / "ts.json"
        assert main(["timeseries", *TS_FLAGS, "--format", "json",
                     "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert meta["subcommand"] == "timeseries"
        assert meta["p"] == 1
        assert meta["kbar"] == 0.1
        assert meta["lbar"] == 0.1
        assert meta["delta"] == 0.0
        assert meta["g"] == 1.0
        assert meta["motion"] is True
        assert meta["gt_max"] == 25.0
        assert meta["steps"] == 200
        assert meta["epsilon_tail"] == 1e-12
        assert "generated_at" in meta

    def test_timestamp_is_suppressible(self, tmp_path):
        out = tmp_path / "ts.json"
        assert main(["timeseries", *TS_FLAGS, "--format", "json",
                     "--no-timestamp", "--output", str(out)]) == 0
        assert "generated_at" not in json.loads(out.read_text())["metadata"]

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["timeseries", *TS_FLAGS, "--format", "json",
                         "--no-timestamp", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        for path in (c, d):
            assert main(["timeseries", *TS_FLAGS, "--output", str(path)]) == 0
        assert c.read_bytes() == d.read_bytes()

    def test_vacuum_concurrence_column(self, tmp_path):
        out = tmp_path / "vac.csv"
        assert main(["timeseries", "--kbar", "0", "--lbar", "0", "--delta", "0",
                     "--gt-max", "6", "--steps", "100", "--output", str(out)]) == 0
        columns = _read_columns(out)
        expected = np.cos(1.0 - np.cos(columns["gt"])) ** 2
        np.testing.assert_allclose(columns["concurrence"], expected, atol=1e-9)

    def test_fast_motion_avoids_sudden_death(self, tmp_path):
        out = tmp_path / "p4.csv"
        assert main(["timeseries", "--p", "4", "--kbar", "0.1", "--delta", "0",
                     "--gt-max", "10", "--steps", "400", "--output", str(out)]) == 0
        assert np.min(_read_columns(out)["concurrence"]) > 0.0

    def test_missing_output_is_a_usage_error(self, capsys):
        assert main(["timeseries", "--kbar", "0.1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_coarse_truncation_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "ts.csv"
        rc = main(["timeseries", "--kbar", "5", "--epsilon-tail", "1e-2",
                   "--steps", "50", "--output", str(out)])
        assert rc == 3
        assert "validation failure" in capsys.readouterr().err


class TestEpe:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "epe.csv"
        assert main(["epe", *TS_FLAGS, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == EPE_HEADER
        assert lines[0] == "gt,concurrence,purity,energy"
        assert len(lines) == 202
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-9)
        assert first[2] == pytest.approx(1.0, abs=1e-9)
        assert first[3] == pytest.approx(0.0, abs=1e-9)


class TestScan:
    def test_csv_report(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--p", "1,4", "--kbar", "0.1", "--delta", "0",
                     "--gt-max", "25", "--steps", "2000",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SCAN_HEADER
        assert len(lines) == 3
        row_p1 = lines[1].split(",")
        row_p4 = lines[2].split(",")
        assert (row_p1[0], row_p4[0]) == ("1", "4")
        assert row_p1[10] == "4"  # sudden-death episodes
        assert row_p4[10] == "0"
        assert float(row_p1[11]) == 2.0 * math.pi
        assert float(row_p4[11]) == 0.5 * math.pi

    def test_json_report_with_window(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--p", "1", "--kbar", "0.1", "--delta", "0",
                     "--gt-max", "10", "--steps", "200", "--window-lo", "0.5",
                     "--format", "json", "--no-timestamp",
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metadata"]["p"] == [1]
        assert data["metadata"]["window_lo"] == 0.5
        (report,) = data["reports"]
        assert report["p"] == 1
        assert report["max_concurrence"] < 1.0
        assert report["period"] == 2.0 * math.pi
        assert all(len(iv) == 2 for iv in report["dead_intervals"])

    def test_detuned_scan_has_no_period(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--p", "1", "--kbar", "0.1", "--delta", "5",
                     "--gt-max", "10", "--steps", "200",
                     "--output", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[11] == ""  # period column stays blank


class TestValidate:
    def test_single_configuration_ok(self, capsys):
        assert main(["validate", "--kbar", "0", "--times", "5"]) == 0
        out = capsys.readouterr().out
        assert "max_deviation=" in out
        assert " ok" in out

    def test_small_grid_ok(self, capsys):
        assert main(["validate", "--gt-max", "2", "--times", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 19  # 18 configurations plus the summary
        assert out[-1].startswith("validate: all configurations ok")

    def test_coarse_truncation_fails(self, capsys):
        rc = main(["validate", "--kbar", "5", "--epsilon-tail", "1e-2",
                   "--times", "5"])
        assert rc == 3
        assert "validation failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--times", "0"], "times must be >= 1, got 0"),  # compared nothing
            (["--times", "-5"], "times must be >= 1, got -5"),
            (["--kbar", "0.1", "--times", "0"], "times must be >= 1, got 0"),
            (["--g", "0", "--times", "3"], "coupling strength g"),  # grid mode
            (["--gt-max", "-1", "--times", "3"], "gt_max must be >= 0, got -1.0"),
            (["--kbar", "0.1", "--gt-max", "-1"], "gt_max must be >= 0, got -1.0"),
            # gt = 0 alone compares the initial Bell state with itself
            (["--times", "1"], "times must be >= 2 to compare anything past gt = 0, got 1"),
            (["--kbar", "0.1", "--times", "1"],
             "times must be >= 2 to compare anything past gt = 0, got 1"),
            (["--gt-max", "0"], "gt_max must be > 0 to compare anything past gt = 0, got 0.0"),
            (["--kbar", "0.1", "--gt-max", "0"],
             "gt_max must be > 0 to compare anything past gt = 0, got 0.0"),
        ],
    )
    def test_vacuous_or_invalid_grid_is_a_usage_error(self, capsys, flags, reason):
        assert main(["validate", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert reason in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, reason",
        [
            # the original report: the routes disagreed (max_deviation 1.469e-01)
            (["--g", "1e-300"], "coupling strength g must lie in [1e-150, 1e+150], got 1e-300"),
            # a bogus "Fock truncation is too coarse"
            (["--g", "1e-160"], "coupling strength g must lie in [1e-150, 1e+150], got 1e-160"),
            # NaN populations
            (["--g", "1e160"], "coupling strength g must lie in [1e-150, 1e+150], got 1e+160"),
            (["--delta", "1e160"], "detuning delta must lie in [-1e+150, 1e+150], got 1e+160"),
            (["--delta=-1e160"], "detuning delta must lie in [-1e+150, 1e+150], got -1e+160"),
        ],
    )
    def test_g_and_delta_outside_their_range_are_usage_errors(self, capsys, flags, reason):
        assert main(["validate", "--kbar", "0.1", "--times", "2", "--no-motion", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("mode", [["--kbar", "0.1"], []], ids=["single", "grid"])
    def test_overflowing_time_grid_is_a_usage_error(self, capsys, mode):
        # gt_max/g = 1e300/1e-150 overflows to inf; single mode used to crash
        assert main(["validate", *mode, "--gt-max", "1e300", "--g", "1e-150", "--times", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: gt_max/g = 1e+300/1e-150 overflows to an infinite time\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags", [["--g", "1e-150"], ["--g", "1e150"], ["--delta", "1e150"], ["--delta=-1e150"]]
    )
    def test_range_ends_validate(self, capsys, flags):
        assert main(["validate", "--kbar", "0.1", "--times", "5", "--no-motion", *flags]) == 0
        assert capsys.readouterr().out.endswith(" ok\n")

    def test_g_outside_its_range_is_a_usage_error_in_grid_mode_and_timeseries(
        self, tmp_path, capsys
    ):
        assert main(["validate", "--g", "1e-300", "--times", "2"]) == 1
        assert main(["timeseries", "--g", "1e160", "--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("usage error: coupling strength g must lie in") for line in err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("subcommand", ["validate", "timeseries"])
    def test_huge_mean_photon_number_is_refused_before_allocating(
        self, tmp_path, capsys, subcommand
    ):
        # kbar 1e9 would certify 2.8e10 sectors, hundreds of GiB per array
        output = [] if subcommand == "validate" else ["--output", str(tmp_path / "x.csv")]
        tracemalloc.start()
        try:
            rc = main([subcommand, "--kbar", "1e9", *output])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert f"limit of {MAX_SECTORS} sectors" in capsys.readouterr().err
        assert peak < 16 * 2**20


class TestConfigFileAndEnvironment:
    def test_environment_supplies_the_default_tail(self, monkeypatch, tmp_path):
        # the value must stay fine enough for the trace gate (deficit ~ 2*tail)
        monkeypatch.setenv("THERMALJC_EPSILON_TAIL", "1e-10")
        out = tmp_path / "ts.json"
        assert main(["timeseries", "--steps", "50", "--format", "json",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["epsilon_tail"] == 1e-10

    def test_flag_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("THERMALJC_EPSILON_TAIL", "1e-6")
        out = tmp_path / "ts.json"
        assert main(["timeseries", "--steps", "50", "--epsilon-tail", "1e-10",
                     "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["epsilon_tail"] == 1e-10

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference run\n"
            "p = 4\n"
            "kbar=0.2\n"
            "gt-max = 10\n"
            "steps=100\n"
            "\n"
        )
        out = tmp_path / "ts.json"
        assert main(["timeseries", "--config", str(cfg), "--format", "json",
                     "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert meta["p"] == 4
        assert meta["kbar"] == 0.2
        assert meta["gt_max"] == 10.0
        assert meta["steps"] == 100

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=4\nsteps=100\n")
        out = tmp_path / "ts.json"
        assert main(["timeseries", "--config", str(cfg), "--p", "2",
                     "--format", "json", "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert meta["p"] == 2
        assert meta["steps"] == 100

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["timeseries", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")]) == 1
        assert "not accepted" in capsys.readouterr().err

    def test_malformed_config_line_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just-some-words\n")
        assert main(["timeseries", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")]) == 1
        assert "expected key=value" in capsys.readouterr().err

    def test_unparseable_config_value_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=abc\n")
        assert main(["timeseries", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")]) == 1
        assert "config key steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key, value, reason",
        [
            (["timeseries"], "kbar", "nan", "expected a finite number, got 'nan'"),
            (["timeseries"], "steps", "abc", "expected an integer, got 'abc'"),
            (["scan"], "p", "1,x", "expected an integer, got 'x'"),
            (["scan"], "kbar", ",", "expected a comma-separated list, got ','"),
            (["timeseries"], "format", "xml", "format must be csv or json, got 'xml'"),
        ],
    )
    def test_flag_gives_the_config_file_reason(
        self, tmp_path, capsys, argv, key, value, reason
    ):
        output = ["--output", str(tmp_path / "x.out")]
        assert main([*argv, f"--{key}", value, *output]) == 1
        assert capsys.readouterr().err == f"usage error: argument --{key}: {reason}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert main([*argv, "--config", str(cfg), *output]) == 1
        assert capsys.readouterr().err == f"usage error: config key {key}: {reason}\n"

    @pytest.mark.parametrize(
        "flags, config",
        [
            pytest.param(
                ["scan", "--p", "1,4", "--kbar", "0.1,0.5", "--lbar", "0.2",
                 "--delta", "0,1", "--window-lo", "0.5", "--gt-max", "10",
                 "--steps", "100", "--format", "json", "--no-timestamp"],
                "p = 1,4\nkbar=0.1, 0.5\nlbar=0.2\ndelta=0,1\nwindow-lo=0.5\n"
                "gt_max=10\nsteps=100\nformat=json\ntimestamp=false\n",
                id="scan",
            ),
            pytest.param(
                ["validate", "--kbar", "0.1", "--lbar", "0.2", "--delta", "1",
                 "--times", "4", "--gt-max", "3"],
                "kbar=0.1\nlbar=0.2\ndelta=1\ntimes=4\ngt-max=3\n",
                id="validate-single",
            ),
            pytest.param(
                ["validate", "--times", "3", "--gt-max", "2", "--no-motion"],
                "times=3\ngt-max=2\nmotion=off\n",
                id="validate-grid",
            ),
            pytest.param(
                ["plot", "--projection", "c-vs-u", "--title", "C against U"],
                "projection = c-vs-u\ntitle = C against U\n",
                id="plot",
            ),
        ],
    )
    def test_config_file_matches_flags(
        self, tmp_path, capsys, sample_csv, flags, config
    ):
        subcommand = flags[0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        extra = ["--input", str(sample_csv)] if subcommand == "plot" else []
        runs = []
        for name, args in (("flags", flags[1:]), ("config", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.out"
            output = [] if subcommand == "validate" else ["--output", str(out)]
            rc = main([subcommand, *args, *extra, *output])
            captured = capsys.readouterr()
            runs.append((rc, captured.out, captured.err,
                         out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1]
        rc, stdout, _, written = runs[0]
        assert rc == 0
        assert (stdout if subcommand == "validate" else written)


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    assert main(["timeseries", "--kbar", "0.1", "--gt-max", "6", "--steps", "50",
                 "--output", str(path)]) == 0
    return path


class TestPlot:
    def test_default_columns(self, sample_csv, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["plot", "--input", str(sample_csv),
                     "--output", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert svg.count("<polyline") == 3
        assert ">gt<" in svg
        assert "concurrence" in svg

    def test_single_column(self, sample_csv, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["plot", "--input", str(sample_csv), "--columns",
                     "purity", "--output", str(out)]) == 0
        assert out.read_text().count("<polyline") == 1

    @pytest.mark.parametrize("projection", ["c-vs-u", "c-vs-p"])
    def test_projections(self, sample_csv, tmp_path, projection):
        out = tmp_path / "proj.svg"
        assert main(["plot", "--input", str(sample_csv), "--projection",
                     projection, "--output", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        assert "concurrence" in svg

    @pytest.mark.parametrize(
        "flags, text",
        [(["--title", "C & P <1>"], "C & P <1>"), (["--columns", "a<b"], "a<b")],
        ids=["title", "column"],
    )
    def test_outside_text_is_escaped(self, tmp_path, flags, text):
        path, out = tmp_path / "in.csv", tmp_path / "plot.svg"
        path.write_text("gt,a<b,concurrence,purity,energy\n0,1,1,1,0\n1,0.5,0.5,0.7,-0.2\n")
        assert main(["plot", "--input", str(path), "--output", str(out), *flags]) == 0
        root = ET.parse(out).getroot()  # well-formed XML
        assert text in [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_projection_conflicts_with_columns(self, sample_csv, tmp_path):
        assert main(["plot", "--input", str(sample_csv), "--projection", "c-vs-u",
                     "--columns", "purity",
                     "--output", str(tmp_path / "x.svg")]) == 1

    def test_unknown_column_is_a_usage_error(self, sample_csv, tmp_path, capsys):
        assert main(["plot", "--input", str(sample_csv), "--columns", "bogus",
                     "--output", str(tmp_path / "x.svg")]) == 1
        assert "no column" in capsys.readouterr().err

    def test_missing_input_file_is_an_io_error(self, tmp_path):
        assert main(["plot", "--input", str(tmp_path / "absent.csv"),
                     "--output", str(tmp_path / "x.svg")]) == 2

    def test_unknown_projection_is_refused_before_reading_input(self, tmp_path, capsys):
        missing = ["--input", str(tmp_path / "absent.csv"),
                   "--output", str(tmp_path / "x.svg")]
        assert main(["plot", "--projection", "bogus", *missing]) == 1
        assert "unknown projection 'bogus'" in capsys.readouterr().err
        cfg = tmp_path / "plot.cfg"
        cfg.write_text("projection=bogus\n")
        assert main(["plot", "--config", str(cfg), *missing]) == 1
        assert "config key projection: unknown projection" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, lineno",
        [
            ("", 1),
            ("gt,gt\n0,1\n", 1),
            ("gt,concurrence\n0.0,1.0\n0.5\n", 3),
            ("gt,concurrence\n0.0,oops\n", 2),
            ("gt,concurrence\n", 2),
        ],
    )
    def test_malformed_csv_names_the_line(self, tmp_path, capsys, content, lineno):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        assert main(["plot", "--input", str(bad),
                     "--output", str(tmp_path / "x.svg")]) == 2
        assert f"bad.csv:{lineno}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, bad",
        [
            ("gt,concurrence,purity\n0,1,2\n1,nan,2\n2,1,inf\n", "3: not a finite number: 'nan'"),
            ("gt,concurrence\n0,1\n1,-Infinity\n", "3: not a finite number: '-Infinity'"),
            ("gt,concurrence\n0,1e999\n1,2\n", "2: not a finite number: '1e999'"),
            # in a later block, after a whole clean one
            ("gt,concurrence\n" + "0,1\n" * 898 + "1,nan\n" + "0,1\n" * 9,
             "900: not a finite number: 'nan'"),
        ],
        ids=["nan-and-inf", "minus-infinity", "overflowing", "later-block"],
    )
    def test_a_non_finite_field_is_an_input_error(self, tmp_path, capsys, content, bad):
        # one nan used to turn every point and y tick of the SVG into nan, with exit 0
        path = tmp_path / "bad.csv"
        path.write_text(content)
        out = tmp_path / "x.svg"
        assert main(["plot", "--input", str(path), "--columns", "concurrence",
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {path}:{bad}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, columns, error",
        [
            ("gt,concurrence,purity,energy\n0,1,1,0\n", [],
             "curve 'concurrence' needs two or more paired points"),
            # finite values whose span, 2e308, overflows a float
            ("gt,concurrence\n0,1\n1e308,2\n-1e308,3\n", ["--columns", "concurrence"],
             "values from -1e+308 to 1e+308 span more than the largest float"),
            ("gt,concurrence\n0,1\n1,-1.7976931348623157e308\n2,1.7976931348623157e308\n",
             ["--columns", "concurrence"],
             "values from -1.7976931348623157e+308 to 1.7976931348623157e+308 span more "
             "than the largest float"),
        ],
        ids=["one-row", "wide-gt", "wide-column"],
    )
    def test_data_a_plot_cannot_frame_is_an_input_error(
        self, tmp_path, capsys, content, columns, error
    ):
        # both used to escape: a ValueError traceback with exit 1, and nan
        # points and ticks in an SVG with exit 0
        path = tmp_path / "in.csv"
        path.write_text(content)
        out = tmp_path / "x.svg"
        assert main(["plot", "--input", str(path), *columns, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {path}: {error}\n"
        assert not out.exists()


class TestNonUtf8Input:
    """A byte that is not UTF-8 is an input fault that names its line (the
    newlines before it, plus one), not a decoding traceback."""

    @pytest.mark.parametrize(
        "content, lineno",
        [
            (b"gt,c\n0.5,\xff\n", 2),
            (b"\xfegt,c\n0,1\n", 1),
            (b"gt,c\r\n0,1\r\n1,\xc3(\r\n", 3),
            (b"gt,c\n" + b"0,1\n" * 700 + b"0,\xed\xa0\x80\n", 702),  # a surrogate
        ],
        ids=["body", "header", "crlf", "later-block"],
    )
    def test_plot_input_is_an_input_error(self, tmp_path, capsys, content, lineno):
        path, out = tmp_path / "bad.csv", tmp_path / "x.svg"
        path.write_bytes(content)
        assert main(["plot", "--input", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {path}:{lineno}: not UTF-8 text\n"
        assert not out.exists()

    def test_config_file_is_a_usage_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        cfg.write_bytes(b"kbar=0.1\n# \xfe\nsteps=50\n")
        assert main(["timeseries", "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {cfg}:2: not UTF-8 text\n"
        assert not out.exists()


def _parsed(path):
    """What ``_read_csv`` gives for ``path`` in a process that wrote nothing."""
    kept, cli._written = cli._written, None
    try:
        return _read_csv(str(path))
    finally:
        cli._written = kept


def _plot(path, out, *flags):
    assert main(["plot", "--input", str(path), "--output", str(out), *flags]) == 0
    return out.read_bytes()


# '-' is -0.0, '+' is 0.0 and '1' is -1.0: a column whose np.max is -0.0 over a
# strided view and 0.0 over a contiguous copy (numpy 2.4 with AVX2), which
# shows as a top tick label of "-0" or "0"
_ZEROS = "++1-+--1++-+-+++-+---+---++-++1+-11"


class TestWrittenColumns:
    """``plot`` reuses the columns this process wrote to the file it reads,
    when that file still holds the written bytes; it parses anything else."""

    @staticmethod
    def _written_csv(tmp_path):
        path = tmp_path / "ts.csv"
        assert main(["timeseries", "--kbar", "0.1", "--gt-max", "6", "--steps", "50",
                     "--output", str(path)]) == 0
        return path

    def test_the_written_file_is_not_parsed_again(self, tmp_path, monkeypatch):
        path = self._written_csv(tmp_path)
        expected = _parsed(path)
        monkeypatch.setattr(cli, "_parse_csv", None)  # any parse would raise
        got = _read_csv(str(path))
        assert list(got) == TIMESERIES_HEADER.split(",")
        assert {k: v.tobytes() for k, v in got.items()} == {
            k: v.tobytes() for k, v in expected.items()
        }

    def test_strided_columns_and_signed_zeros_read_and_plot_as_parsed(self, tmp_path):
        rows = len(_ZEROS)
        zeros = np.array([{"-": -0.0, "+": 0.0, "1": -1.0}[c] for c in _ZEROS])
        x3 = np.empty(rows, dtype=complex)
        x3.real, x3.imag = zeros[::-1], zeros
        names = TIMESERIES_HEADER.split(",")
        columns = {name: zeros + k for k, name in enumerate(names)}
        columns.update(gt=np.arange(rows) / 2.0, x3_re=x3.real, x3_im=x3.imag)
        path = _write(tmp_path, "csv", True, columns)
        assert cli._written is not None and "-0.0," in path.read_text()
        reused, parsed = _read_csv(str(path)), _parsed(path)
        assert list(reused) == list(parsed) == names
        for name in names:
            assert reused[name].dtype == np.float64
            assert reused[name].tobytes() == parsed[name].tobytes() == columns[name].tobytes()
        for flags in (["--columns", "x3_im"], ["--columns", "x3_re,x3_im,x1"]):
            svg = _plot(path, tmp_path / "reused.svg", *flags)
            kept, cli._written = cli._written, None
            assert _plot(path, tmp_path / "parsed.svg", *flags) == svg
            cli._written = kept

    def test_a_changed_byte_is_parsed_not_reused(self, tmp_path):
        path = self._written_csv(tmp_path)
        written = _read_csv(str(path))
        stat = path.stat()
        lines = path.read_bytes().split(b"\n")
        fields = lines[21].split(b",")
        col = TIMESERIES_HEADER.split(",").index("concurrence")
        digit = fields[col][2:3]  # the first digit after "0."
        fields[col] = fields[col][:2] + str((int(digit) + 5) % 10).encode() + fields[col][3:]
        lines[21] = b",".join(fields)
        path.write_bytes(b"\n".join(lines))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        got, fresh = _read_csv(str(path)), _parsed(path)
        assert got["concurrence"][20] != written["concurrence"][20]
        assert {k: v.tobytes() for k, v in got.items()} == {
            k: v.tobytes() for k, v in fresh.items()
        }
        svg = _plot(path, tmp_path / "changed.svg")
        # a fresh interpreter has never written anything
        code = (f"import sys; from thermaljc.cli import main; sys.exit(main(["
                f"'plot', '--input', {str(path)!r}, '--output', {str(tmp_path / 'fresh.svg')!r}]))")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thermaljc.__file__))}
        subprocess.run([sys.executable, "-c", code], env=env, timeout=60, check=True)
        assert (tmp_path / "fresh.svg").read_bytes() == svg

    def test_a_non_finite_column_is_not_kept(self, tmp_path, capsys):
        columns = {"gt": np.arange(4.0), "concurrence": np.array([0.0, 1.0, np.nan, 1.0])}
        path = _write(tmp_path, "csv", True, columns, header="gt,concurrence")
        assert cli._written is None
        out = tmp_path / "x.svg"
        assert main(["plot", "--input", str(path), "--output", str(out),
                     "--columns", "concurrence"]) == 2
        assert capsys.readouterr().err == f"input error: {path}:4: not a finite number: 'nan'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["timeseries", "--steps", "20", "--format", "json"],
            ["epe", "--steps", "20"],
            ["scan", "--steps", "20"],
            ["validate", "--p", "1", "--times", "3", "--gt-max", "1"],
            ["timeseries", "--bogus"],
            ["plot", "--bogus"],
        ],
        ids=["timeseries-json", "epe", "scan", "validate", "usage-error", "plot-usage-error"],
    )
    def test_any_call_but_a_plot_empties_the_slot_before_it_runs(
        self, tmp_path, capsys, argv
    ):
        path = self._written_csv(tmp_path)
        slot = cli._written
        assert slot is not None and slot[0] == os.path.realpath(path)
        _plot(path, tmp_path / "x.svg")
        assert cli._written is slot
        other = tmp_path / "other.out"
        main([*argv, *([] if argv[0] == "validate" else ["--output", str(other)])])
        # only a CSV of time series fills it again, with its own file
        if argv[0] == "epe":
            assert cli._written[0] == os.path.realpath(other)
        else:
            assert cli._written is None
        assert _plot(path, tmp_path / "y.svg") == (tmp_path / "x.svg").read_bytes()


def _reference_read_csv(path):
    """The line-by-line reader the block reader replaced, kept as its reference."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CsvFormatError(f"{path}:1: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or any(not name for name in header):
        raise CsvFormatError(f"{path}:1: malformed header {lines[0]!r}")
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}:1: duplicate column names")
    columns = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise CsvFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, found {len(fields)}"
            )
        for name, field in zip(header, fields):
            try:
                columns[name].append(float(field))
            except ValueError:
                raise CsvFormatError(f"{path}:{lineno}: not a number: {field!r}") from None
    if not columns[header[0]]:
        raise CsvFormatError(f"{path}:2: no data rows")
    return {name: np.asarray(values) for name, values in columns.items()}


# finite spellings float() accepts, besides the repr of any finite double
_SPELLINGS = ["-0.0", "0", "5e-324", "-5e-324", "1e308", "-1.7976931348623157e308",
              " 1.5", "1.5 ", "\t2", "1_0", "+3", ".5", "5.", "1E5", "\u0661\u0662"]
_FIELDS = st.one_of(
    st.sampled_from(_SPELLINGS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_ROWS = [1, _READ_ROWS - 1, _READ_ROWS, _READ_ROWS + 1, 2 * _READ_ROWS + 1]
_ROW = "0.5,1.0,2.0\n"


def _csv(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text, newline="")
    return path


class TestBlockReader:
    """``_read_csv`` parses the body in blocks of ``_READ_ROWS`` lines; it must
    read what the line loop read, bit for bit, and fail where it failed."""

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.sampled_from(_ROWS),
        width=st.integers(min_value=2, max_value=5),
        cells=st.lists(_FIELDS, min_size=1, max_size=40),
        stride=st.integers(min_value=1, max_value=97),
    )
    def test_columns_are_bit_identical_to_the_line_loop(
        self, tmp_path_factory, rows, width, cells, stride
    ):
        header = ",".join(f"c{j}" for j in range(width))
        body = [
            ",".join(cells[(i * width + j) * stride % len(cells)] for j in range(width))
            for i in range(rows)
        ]
        path = _csv(tmp_path_factory.mktemp("csv"), "\n".join([header, *body]) + "\n")
        got, expected = _read_csv(str(path)), _reference_read_csv(str(path))
        assert list(got) == list(expected)
        for name, column in expected.items():
            assert got[name].dtype == np.float64 and got[name].shape == (rows,)
            # bytes compare the sign bit of -0.0 too
            assert got[name].tobytes() == column.tobytes()

    @pytest.mark.parametrize(
        "content, error",
        [
            ("gt,c,p\n" + _ROW * 698 + "0.5,x,1\n" + _ROW * 10, "700: not a number: 'x'"),
            # the first error in line order wins, also across blocks
            ("gt,c,p\n" + _ROW * 598 + "0.5,bad,1\n" + _ROW * 299 + "1,2\n" + _ROW * 9,
             "600: not a number: 'bad'"),
            ("gt,c,p\n" + _ROW * 898 + "1,2\n" + _ROW * 9, "900: expected 3 fields, found 2"),
            ("gt,c,p\n" + _ROW * 5 + "\n" + _ROW * 5, "7: expected 3 fields, found 1"),
            # a short line and a long one: the block still holds rows * 3 fields
            ("gt,c,p\n" + _ROW + "0.5,1\n" + "0.5,1,2,3\n" + _ROW, "3: expected 3 fields, found 2"),
            ("gt,c,p\n" + _ROW + "1,2\x0c" + _ROW, "3: expected 3 fields, found 2"),
            ("gt,c,p\r\n" + "0.5,1.0\r\n" + _ROW, "2: expected 3 fields, found 2"),
            ("gt,c,p\n" + _ROW + "1,,2\n", "3: not a number: ''"),
            ("gt,c,p\n" + _ROW + "0x10,1,2\n", "3: not a number: '0x10'"),
            ("gt,c,p\n", "2: no data rows"),
        ],
        ids=["word-in-2nd-block", "first-of-two-errors", "field-count-in-2nd-block",
             "blank-line", "compensating-counts", "form-feed", "crlf", "empty-field", "hex", "no-rows"],
    )
    def test_a_malformed_file_fails_as_the_line_loop_did(self, tmp_path, capsys, content, error):
        path = _csv(tmp_path, content)
        with pytest.raises(CsvFormatError) as reference:
            _reference_read_csv(str(path))
        assert str(reference.value) == f"{path}:{error}"
        assert main(["plot", "--input", str(path), "--output", str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err == f"input error: {reference.value}\n"

    @pytest.mark.parametrize(
        "content",
        [
            "gt,c,p\r\n" + "0.5,1.0,2.0\r\n" * 600,
            "gt,c,p\n" + "0.5,1.0,2.0\x0c" * 3 + _ROW,
            "gt,c,p\n" + _ROW * _READ_ROWS,
        ],
        ids=["crlf", "form-feed", "one-full-block"],
    )
    def test_line_separators_read_as_the_line_loop_read_them(self, tmp_path, content):
        path = _csv(tmp_path, content)
        got, expected = _read_csv(str(path)), _reference_read_csv(str(path))
        assert {k: v.tobytes() for k, v in got.items()} == {
            k: v.tobytes() for k, v in expected.items()
        }


class TestParserReuse:
    """One parser serves every call of a process; it keeps nothing between them."""

    @staticmethod
    def _call(capsys, argv, output=None):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        written = output.read_bytes() if output is not None and output.exists() else None
        return rc, captured.out, captured.err, written

    def test_a_call_gives_what_a_fresh_parser_gives(
        self, sample_csv, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("THERMALJC_EPSILON_TAIL", "1e-10")
        series, svg = tmp_path / "ts.json", tmp_path / "plot.svg"
        calls = [
            (["timeseries", "--steps", "1", "--bogus", "2"], None),
            (["plot", "--help"], None),
            (["timeseries", "--steps", "50", "--format", "json", "--no-timestamp",
              "--output", str(series)], series),
            (["plot", "--input", str(sample_csv), "--output", str(svg)], svg),
        ]
        shared = [self._call(capsys, argv, output) for argv, output in calls]
        assert _build_parser() is _build_parser()
        for (argv, output), first in zip(calls, shared):
            _build_parser.cache_clear()
            assert self._call(capsys, argv, output) == first
        assert shared[0][:3] == (1, "", "usage error: unrecognized arguments: --bogus 2\n")
        assert shared[1][0] == ("SystemExit", 0) and "--projection" in shared[1][1]
        assert json.loads(shared[2][3])["metadata"]["epsilon_tail"] == 1e-10
        assert shared[3][0] == 0
        # the environment is read per call, not when the parser was built
        monkeypatch.setenv("THERMALJC_EPSILON_TAIL", "1e-11")
        assert self._call(capsys, calls[2][0], series)[0] == 0
        assert json.loads(series.read_text())["metadata"]["epsilon_tail"] == 1e-11


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["timeseries", "--bogus", "1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_degenerate_grid_is_a_usage_error(self, tmp_path, capsys):
        assert main(["timeseries", "--steps", "1",
                     "--output", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        rc = main(["timeseries", "--steps", "50", "--output", str(target)])
        assert rc == 2
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["timeseries", "epe", "scan"])
    def test_overflowing_time_grid_is_a_usage_error(self, tmp_path, capsys, subcommand):
        # gt_max/g = 1e300/1e-150 overflows; the division used to print a numpy
        # RuntimeWarning before the usage error
        out = tmp_path / "x.csv"
        rc = main([subcommand, "--kbar", "0.1", "--gt-max", "1e300", "--g", "1e-150",
                   "--steps", "3", "--output", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: gt_max/g = 1e+300/1e-150 overflows to an infinite time\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["timeseries", "epe", "scan", "validate"])
    @pytest.mark.parametrize(
        "scale, quotient",
        [
            (["--gt-max", "1.0000000000000002e150"], "1e+150/1"),
            (["--gt-max", "1.0000000000000002", "--g", "1e-150"], "1/1e-150"),
        ],
        ids=["gt_max", "g"],
    )
    def test_a_time_past_the_limit_is_a_usage_error(
        self, tmp_path, capsys, subcommand, scale, quotient
    ):
        # a moving atom's g'(t) falls as 1/t, so past t = 1e150 its square
        # leaves the normal range: at gt_max 1e158 validate failed its
        # delta = 0 rows and timeseries wrote wrong rows with exit code 0
        # (with motion off g' = g, and TestValidate runs t = 2.5e151)
        out = tmp_path / "x.csv"
        tail = ["--times", "3"] if subcommand == "validate" else ["--steps", "3", "--output", str(out)]
        assert main([subcommand, *scale, *tail]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"usage error: gt_max/g = {quotient} = 1.0000000000000002e+150 "
            "exceeds the largest time, 1e+150\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_the_time_limit_itself_is_accepted(self, capsys):
        assert main(["validate", "--gt-max", "1e150"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "validate: all configurations ok (tolerance 1e-09)"
        assert len(lines) == 19 and all(line.endswith(" ok") for line in lines[:-1])

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["timeseries", "--steps"], f"steps must be < {MAX_POINTS}"),
            (["epe", "--steps"], f"steps must be < {MAX_POINTS}"),
            (["scan", "--steps"], f"steps must be < {MAX_POINTS}"),
            (["validate", "--times"], f"times must be <= {MAX_POINTS}"),
        ],
    )
    def test_a_grid_past_the_point_limit_is_a_usage_error(self, tmp_path, capsys, argv, reason):
        # 10**12 points used to end in numpy's "Unable to allocate 7.28 TiB"
        out = tmp_path / "x.csv"
        tail = [] if argv[0] == "validate" else ["--output", str(out)]
        assert main([*argv, "1000000000000", *tail]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"usage error: {reason}, the limit of grid points, got 1000000000000\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_the_point_limit_itself_is_accepted(self):
        assert validation_times(SystemParams(), 1.0, MAX_POINTS).size == MAX_POINTS


def _write(tmp_path, fmt, timestamp, columns, header=TIMESERIES_HEADER):
    out = tmp_path / f"out.{fmt}"
    resolved = {"p": 1, "kbar": 0.1, "format": fmt, "timestamp": timestamp}
    _write_columns(str(out), resolved, "timeseries", header, columns)
    return out


class TestColumnWriter:
    """The block writer's bytes equal those of one json.dumps / one join over
    the whole columns, at every block boundary."""

    # repr and json.dumps agree on these only if the encoder keeps its defaults
    VALUES = [-0.0, 5e-324, 1e300, 0.1, 1e16, math.nan, math.inf, -math.inf, -1.5]

    @pytest.mark.parametrize(
        "rows",
        [3, _READ_ROWS - 1, _READ_ROWS, _READ_ROWS + 1, 2 * _READ_ROWS + 1]
        # the encoder's blocks: BLOCK values of one JSON column, or BLOCK // 11
        # rows of the eleven CSV columns
        + [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK // 11 - 1, BLOCK // 11, BLOCK // 11 + 1],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("timestamp", [True, False], ids=["timestamp", "no-timestamp"])
    def test_bytes_equal_the_one_shot_formulas(self, tmp_path, rows, fmt, timestamp):
        names = TIMESERIES_HEADER.split(",")
        columns = {
            name: np.resize(np.roll(self.VALUES, k), rows) for k, name in enumerate(names)
        }
        text = _write(tmp_path, fmt, timestamp, columns).read_bytes().decode("utf-8")
        lists = {name: column.tolist() for name, column in columns.items()}
        if fmt == "csv":
            lines = [",".join(map(repr, row)) for row in zip(*lists.values())]
            expected = "\n".join([TIMESERIES_HEADER, *lines]) + "\n"
        else:
            meta = json.loads(text)["metadata"]
            assert ("generated_at" in meta) == timestamp
            expected = json.dumps({"metadata": meta, "columns": lists}, indent=2) + "\n"
        assert text == expected
        assert "nan" in text.lower() and "5e-324" in text and "-0.0" in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failed_run_leaves_no_output(self, tmp_path, capsys, fmt):
        out = tmp_path / f"ts.{fmt}"
        rc = main(["timeseries", "--kbar", "5", "--epsilon-tail", "1e-2", "--steps", "50",
                   "--format", fmt, "--output", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("validation failure: ")
        assert not out.exists()

    @pytest.mark.parametrize("rows", [20001, 80001])
    # a CSV block holds a row of every column, so the widest header sets its
    # peak; a JSON block holds one column, so one column sets its peak
    @pytest.mark.parametrize(
        "fmt, header", [("csv", TIMESERIES_HEADER), ("json", "gt")], ids=["csv", "json"]
    )
    def test_memory_does_not_grow_with_the_rows(self, tmp_path, rows, fmt, header):
        rng = np.random.default_rng(rows)
        columns = {name: rng.standard_normal(rows) for name in header.split(",")}
        tracemalloc.start()
        try:
            _write(tmp_path, fmt, True, columns, header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole file as one text would take 3-60 MiB here
        assert peak <= 2**20


def test_the_cli_imports_no_pool_module():
    # the kernel's workers are plain threads: no executor or process pool adds
    # its import time and memory to every run
    code = (
        "import sys, numpy, thermaljc.cli\n"
        "thermaljc.states(thermaljc.SystemParams(delta=1.0), thermaljc.ThermalDistribution"
        ".from_mean(5.0), thermaljc.ThermalDistribution.from_mean(0.5), numpy.linspace(0, 9, 999))\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    path = [os.path.dirname(os.path.dirname(thermaljc.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == "[]\n"


def test_python_m_thermaljc_runs_the_cli_from_a_source_checkout():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thermaljc.__file__))}
    result = subprocess.run(
        [sys.executable, "-m", "thermaljc", "validate", "--times", "2", "--gt-max", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("validate: all configurations ok (tolerance 1e-09)\n")
