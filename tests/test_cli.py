"""Tests for the command-line interface."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import srmlab
from helpers import single_gus_pc
from srmlab import cli, errors
from srmlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    fmt,
    main,
    parse_angle,
    parse_angle_list,
    parse_grid,
    parse_int_list,
)
from srmlab.constellations import make_psk, weighted_gram

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestParsers:
    def test_grid(self):
        np.testing.assert_allclose(parse_grid("1:3:3"), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(parse_grid("5:9:1"), [5.0])

    @pytest.mark.parametrize(
        "bad", ["1:2", "1:2:0", "-1:2:3", "a:b:c", "nan:1:2", "1:inf:2", "1:nan:2", "inf:inf:1"]
    )
    def test_grid_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)

    def test_angles(self):
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("pi/8") == pytest.approx(math.pi / 8)
        assert parse_angle("3pi/8") == pytest.approx(3 * math.pi / 8)
        assert parse_angle("0.5") == pytest.approx(0.5)
        assert parse_angle_list("0,pi/4") == pytest.approx([0.0, math.pi / 4])
        with pytest.raises(ValueError):
            parse_angle("two")
        for bad in (".pi", "pi/.", "nan", "inf", "-inf", "1.2.3pi", "pi/1.2.3"):
            with pytest.raises(ValueError, match=f"^bad angle '{re.escape(bad)}'$"):
                parse_angle(bad)

    def test_int_list(self):
        assert parse_int_list("2,16") == [2, 16]
        with pytest.raises(ValueError):
            parse_int_list("2,x")

    def test_fmt(self):
        assert fmt(1.0) == "1"
        assert fmt(float("nan")) == "nan"
        assert fmt(0.25058156621) == "0.25058156621"
        assert fmt(None) == ""
        assert fmt(16) == "16"


class TestFig1:
    def test_default_row_count(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 500

    def test_curves_monotone_in_offset_and_energy(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--grid", "0.5:8:16", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        by_energy = {}
        by_delta = {}
        for row in rows:
            by_energy.setdefault(row["alpha_sq"], []).append(float(row["pc"]))
            by_delta.setdefault(row["delta"], []).append(float(row["pc"]))
        for values in by_energy.values():
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        for values in by_delta.values():
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_quarter_turn_row_matches_four_phase_value(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--grid", "1:1:1", "--delta", "pi/2", "--out", str(out)]) == EXIT_OK
        (row,) = read_csv(out)
        expected = single_gus_pc(weighted_gram(make_psk(4, 1.0).base)[0])
        assert float(row["pc"]) == pytest.approx(expected, abs=1e-10)

    def test_rejects_zero_energy(self, tmp_path, capsys):
        assert main(["fig1", "--grid", "0:1:2"]) == EXIT_CONFIG


class TestFig2Fig3:
    def test_columns_and_bright_limit(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--grid", "1:10:4", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert list(rows[0]) == ["alpha_sq", "p_star", "pc", "pe"]
        assert abs(float(rows[-1]["p_star"]) - 0.25) < 0.01
        pes = [float(row["pe"]) for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(pes, pes[1:]))

    def test_fig3_same_dataset(self, tmp_path):
        out2 = tmp_path / "fig2.csv"
        out3 = tmp_path / "fig3.csv"
        assert main(["fig2", "--grid", "0.5:2:3", "--out", str(out2)]) == EXIT_OK
        assert main(["fig3", "--grid", "0.5:2:3", "--out", str(out3)]) == EXIT_OK
        assert out2.read_bytes() == out3.read_bytes()


class TestFig4Fig5:
    def test_coverage_and_ordering(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--grid", "0.5:4:6", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 6 * 2 * 2
        assert {row["scheme"] for row in rows} == {"ppm", "double_ppm"}
        assert {row["m"] for row in rows} == {"2", "16"}

    def test_phase_doubling_costs_accuracy_pointwise(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--grid", "0.5:6:8", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        seen = {}
        for row in rows:
            seen[(row["alpha_sq"], row["m"], row["scheme"])] = float(row["pe"])
        for (alpha_sq, m, scheme), pe in seen.items():
            if scheme == "ppm":
                assert seen[(alpha_sq, m, "double_ppm")] > pe

    def test_infinite_tolerance_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--tol-psd", "inf", "--out", str(out)]) == EXIT_CONFIG
        assert "tolerance overrides must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_bright_pulse_information(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["fig5", "--grid", "20:20:1", "--m", "2", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        info = {row["scheme"]: float(row["mutual_info_bits"]) for row in rows}
        assert info["ppm"] == pytest.approx(1.0, abs=1e-3)
        assert info["double_ppm"] == pytest.approx(2.0, abs=1e-3)


class TestSweep:
    def test_double_bpsk_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--scheme", "double_bpsk", "--grid", "1:1:1", "--delta", "pi/2", "--out", str(out)]
        )
        assert code == EXIT_OK
        (row,) = read_csv(out)
        expected = single_gus_pc(weighted_gram(make_psk(4, 1.0).base)[0])
        assert float(row["pc"]) == pytest.approx(expected, abs=1e-10)
        assert float(row["prior"]) == 0.25

    def test_ppm_sweep_has_info_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scheme", "ppm", "--grid", "1:2:2", "--m", "2,4", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(float(row["mutual_info_bits"]) > 0 for row in rows)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scheme", "ppm", "--delta", "foo"],
            ["--scheme", "double_bpsk", "--m", "x"],
            ["--scheme", "ppm", "--p", "0.2"],
        ],
    )
    def test_inapplicable_flags_are_still_checked(self, flags, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *flags, "--grid", "1:1:1", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_singular_sweep_is_numeric_failure(self, tmp_path):
        code = main(
            ["sweep", "--scheme", "double_bpsk", "--grid", "1:1:1", "--delta", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_NUMERIC


class TestCheck:
    def run_check(self, name, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["check", str(GRAMFILES / name), "--out", str(out)])
        return code, out.read_text()

    def test_binary_equal(self, tmp_path):
        code, report = self.run_check("binary_equal.gram", tmp_path)
        assert code == EXIT_OK
        lines = report.splitlines()
        assert "pc 0.933012701892" in lines
        assert "theorem3 optimal" in lines
        assert "theorem2 optimal" in lines
        assert any(line.startswith("theorem1_oracle optimal") for line in lines)

    def test_binary_biased(self, tmp_path):
        code, report = self.run_check("binary_biased.gram", tmp_path)
        assert code == EXIT_OK
        lines = report.splitlines()
        assert "pc 0.941462611618" in lines
        assert any(line.startswith("theorem2 suboptimal") for line in lines)
        assert any(line.startswith("theorem1_oracle suboptimal") for line in lines)

    def test_identity(self, tmp_path):
        code, report = self.run_check("identity3.gram", tmp_path)
        assert code == EXIT_OK
        lines = report.splitlines()
        assert "pc 1" in lines
        assert "theorem2 optimal" in lines
        assert any(line.startswith("theorem1_oracle optimal") for line in lines)

    def test_parse_error_has_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.gram"
        bad.write_text("n 2\npriors 0.5 0.5\ninner 1 0 0.5 0\n")
        assert main(["check", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.gram:3" in err

    def test_singular_gram_is_numeric_failure(self, tmp_path, capsys):
        singular = tmp_path / "singular.gram"
        singular.write_text("n 2\npriors 0.5 0.5\ninner 0 1 1.0 0.0\n")
        assert main(["check", str(singular)]) == EXIT_NUMERIC

    def test_missing_file(self, capsys):
        assert main(["check", "/does/not/exist.gram"]) == EXIT_CONFIG

    def test_non_finite_tolerance_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        argv = ["check", str(GRAMFILES / "binary_biased.gram"), "--tol-cond", "nan", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "tolerance overrides must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_directive(self, tmp_path, capsys):
        bad = tmp_path / "bad.gram"
        bad.write_text("n 1\npriors 1.0\nwat 1 2\n")
        assert main(["check", str(bad)]) == EXIT_CONFIG
        assert "bad.gram:3" in capsys.readouterr().err


class TestDeterminismAndFormats:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--grid", "0.5:2:4"],
            ["fig2", "--grid", "0.5:2:3"],
            ["fig3", "--grid", "0.5:2:3"],
            ["fig4", "--grid", "0.5:2:3", "--m", "2,4"],
            ["fig5", "--grid", "0.5:2:3", "--m", "2,4"],
        ],
    )
    def test_repeated_runs_are_byte_identical(self, argv, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        assert main(argv + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_json_matches_csv_records(self, tmp_path):
        base = ["fig4", "--grid", "0.5:2:3", "--m", "2"]
        csv_out = tmp_path / "rows.csv"
        json_out = tmp_path / "rows.json"
        assert main(base + ["--out", str(csv_out)]) == EXIT_OK
        assert main(base + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
        csv_rows = read_csv(csv_out)
        json_rows = json.loads(json_out.read_text())
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            assert list(c_row) == list(j_row)
            for key, text in c_row.items():
                if isinstance(j_row[key], str):
                    assert text == j_row[key]
                else:
                    assert float(text) == j_row[key]

    def test_csv_uses_lf_endings(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["fig1", "--grid", "1:1:1", "--out", str(out)]) == EXIT_OK
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_stdout_output(self, capsys):
        assert main(["fig1", "--grid", "1:1:1", "--delta", "pi/2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("alpha_sq,delta,pc,pe\n")

    @pytest.mark.parametrize(
        "argv",
        [["fig2"], ["fig3"], ["sweep", "--scheme", "double_ppm"]],
    )
    def test_bright_pipeline_error_probability_is_never_negative(self, argv, tmp_path):
        # near |alpha|^2 = 10 the pipeline pc can round to one ulp above one
        out = tmp_path / "bright.csv"
        assert main([*argv, "--grid", "9:10:11", "--out", str(out)]) == EXIT_OK
        cells = [row["pe"] for row in read_csv(out)]
        assert cells
        assert not [cell for cell in cells if cell.startswith("-")]

    def test_emitted_probabilities_and_information_are_bounded(self, tmp_path):
        fig1 = tmp_path / "fig1.csv"
        assert main(["fig1", "--grid", "0.2:6:7", "--out", str(fig1)]) == EXIT_OK
        for row in read_csv(fig1):
            assert 0.0 <= float(row["pc"]) <= 1.0
            assert 0.0 <= float(row["pe"]) <= 1.0
        fig5 = tmp_path / "fig5.csv"
        assert main(["fig5", "--grid", "0.2:6:7", "--out", str(fig5)]) == EXIT_OK
        for row in read_csv(fig5):
            states = int(row["m"]) * (2 if row["scheme"] == "double_ppm" else 1)
            assert 0.0 <= float(row["mutual_info_bits"]) <= math.log2(states) + 1e-12
            assert 0.0 <= float(row["pe"]) <= 1.0
        sweep = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--scheme", "psk", "--grid", "0.5:3:4", "--m", "2,8", "--out", str(sweep)]
        ) == EXIT_OK
        for row in read_csv(sweep):
            assert 0.0 <= float(row["pc"]) <= 1.0
            assert 0.0 <= float(row["mutual_info_bits"]) <= math.log2(int(row["m"])) + 1e-12


def test_every_error_is_an_input_or_a_numerical_error(monkeypatch, capsys):
    classes, stack = [], [errors.SrmLabError]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        classes.append(cls)
    bases = (errors.SrmLabError, errors.InputError, errors.NumericalError)
    leaves = [cls for cls in classes if cls not in bases]
    assert len(leaves) == 12
    assert srmlab.InputError is errors.InputError
    assert srmlab.NumericalError is errors.NumericalError
    for cls in leaves:
        kinds = [issubclass(cls, errors.InputError), issubclass(cls, errors.NumericalError)]
        assert kinds.count(True) == 1, cls.__name__

        def raising(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_check", raising)
        expected = EXIT_CONFIG if kinds[0] else EXIT_NUMERIC
        assert main(["check", "unused.gram"]) == expected, cls.__name__
        assert capsys.readouterr().err == "error: boom\n"
