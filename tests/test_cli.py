"""Tests for the command-line interface."""

import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srmlab
from helpers import (
    check_theorem3_reference,
    GRAMFILE_REPORTS,
    circulant_from_row,
    counted_factorizations,
    counted_transforms,
    dense_route,
    gram_file_lines,
    gram_lines,
    load_gram_file_reference,
    random_circulant_gram,
    random_gus_ensemble,
    single_gus_pc,
    weighted_gram,
)
from srmlab import analysis, cli, errors
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
from srmlab.constellations import make_double_bpsk, make_psk
from srmlab.gus import fast_srm

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"

MALFORMED_FILES = [
    ("n\n", 1, "expected 'n <count>'"),
    ("n two\n", 1, "state count must be an integer"),
    ("n 0\n", 1, "state count must be positive"),
    ("priors 0.5 0.5\n", 1, "'n' must come before 'priors'"),
    ("n 2\npriors 1.0\n", 2, "expected 2 priors, got 1"),
    ("n 2\npriors a b\n", 2, "priors must be numbers"),
    ("inner 0 1 0.5 0\n", 1, "'n' must come before 'inner'"),
    ("n 2\ninner 0 1 0.5\n", 2, "expected 'inner i j re im'"),
    ("n 2\ninner 0 1 x 0\n", 2, "bad 'inner' line"),
    ("n 2\nblocks\n", 2, "expected at least one index group"),
    ("n 2\nblocks 0,x\n", 2, "block indices must be integers"),
    ("# no directives\n", None, "missing 'n' line"),
    ("n 2\n", None, "missing 'priors' line"),
    ("n 2\npriors 0 1\n", None, "invalid constellation: priors must be strictly positive"),
    ("n 2\npriors 0.5 0.5\ninner 0 1 nan 0\n", None, "invalid constellation: overlaps must be finite"),
    ("n 2\npriors 0.5 0.5\ninner 0 1 inf 0\n", None, "invalid constellation: overlaps must be finite"),
    (
        "n 2\npriors 0.5 0.5\ninner 0 1 0.1 0\n\ninner 0 1 0.2 0\n",
        5,
        "duplicate inner product for pair (0, 1), first given on line 3",
    ),
    ("n 2\npriors 0.5 0.5\ninner 0 1 2 0\n", 3, "overlap of states 0 and 1 has modulus 2.0 > 1"),
    (
        "n 2\npriors 0.5 0.5\ninner 0 1 1e308 0\n",
        3,
        "overlap of states 0 and 1 has modulus 1e+308 > 1",
    ),
    (
        "n 3\npriors 0.2 0.3 0.5\ninner 0 2 0.1 0\ninner 1 2 0 -1.5\ninner 0 3 0.1 0\n",
        4,
        "overlap of states 1 and 2 has modulus 1.5 > 1",
    ),
    (
        "n 3\npriors 0.2 0.3 0.5\ninner 0 3 0.1 0\ninner 1 2 0 -1.5\n",
        3,
        "need 0 <= i < j < 3, got i=0, j=3",
    ),
]

REPEATED_DIRECTIVES = [
    ("n", "n 3\npriors 0.2 0.3 0.5\ninner 0 2 0.1 0.0\nn 2\n", 4, 1),
    ("priors", "n 2\npriors 0.5 0.5\npriors 0.4 0.6\n", 3, 2),
    ("blocks", "n 2\npriors 0.5 0.5\nblocks 0 1\n# again\nblocks 0,1\n", 5, 3),
]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def grouped_gram_text(rng, groups, equal_priors, blocks) -> str:
    """A Gram file of mutually orthogonal groups of states, each group a circulant Gram matrix."""
    n = sum(len(group) for group in groups)
    overlaps = np.zeros((n, n), dtype=complex)
    for group in groups:
        overlaps[np.ix_(group, group)] = len(group) * random_circulant_gram(rng, len(group))
    priors = np.ones(n) if equal_priors else rng.uniform(0.5, 1.5, n)
    priors /= priors.sum()
    return "\n".join(gram_file_lines(priors, overlaps, groups if blocks else None)) + "\n"


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
        assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
        assert parse_angle("+3pi/8") == pytest.approx(3 * math.pi / 8)
        assert parse_angle("-pi") == pytest.approx(-math.pi)
        assert parse_angle_list("0,pi/4") == pytest.approx([0.0, math.pi / 4])
        with pytest.raises(ValueError):
            parse_angle("two")
        for bad in (".pi", "pi/.", "nan", "inf", "-inf", "1.2.3pi", "pi/1.2.3"):
            with pytest.raises(ValueError, match=f"^bad angle '{re.escape(bad)}'$"):
                parse_angle(bad)
        with pytest.raises(ValueError, match="^bad angle 'pi/0': division by zero$"):
            parse_angle("pi/0")
        with pytest.raises(ValueError, match="^empty angle list$"):
            parse_angle_list(" , ")

    def test_int_list(self):
        assert parse_int_list("2,16") == [2, 16]
        with pytest.raises(ValueError):
            parse_int_list("2,x")
        with pytest.raises(ValueError, match="^empty integer list$"):
            parse_int_list(",")

    def test_fmt(self):
        assert fmt(1.0) == "1"
        assert fmt(float("nan")) == "nan"
        assert fmt(0.25058156621) == "0.25058156621"
        assert fmt(None) == ""
        assert fmt(16) == "16"


SINGULAR = (
    "Gram matrix is singular (min eigenvalue {} < 1e-10); "
    "the weighted states are not linearly independent"
)
FIG1_FAILURES = [
    ("--grid 1e-12:1e-12:1", EXIT_NUMERIC, SINGULAR.format("-7.623e-18")),
    ("--grid 2e-7:2e-7:1", EXIT_NUMERIC, SINGULAR.format("-9.995e-18")),
    ("--grid 1e-12:1e-12:1 --delta pi/8,2", EXIT_NUMERIC, SINGULAR.format("-7.623e-18")),
    (
        "--grid 1e-12:1e-12:1 --delta 2,pi/8",
        EXIT_CONFIG,
        "phase offset must lie in [0, pi/2], got 2.0",
    ),
    ("--grid 1:0:3", EXIT_CONFIG, "amplitude must be positive and finite, got 0.0"),
    ("--grid 1:1e-12:2", EXIT_NUMERIC, SINGULAR.format("-7.623e-18")),
]

# every singular row that the defaults and the low-energy grids meet today,
# refused with its ensemble's least bin eigenvalue; giving these ensembles an
# answer changes this table on purpose
SINGULAR_ROWS = [
    ("sweep --scheme psk", "-2.011e-17"),
    ("sweep --scheme psk --m 8 --grid 0.1:0.1:1", "1.795e-11"),
    ("sweep --scheme double_ppm --grid 2e-7:2e-7:1", "9.992e-15"),
    ("sweep --scheme double_ppm --m 256 --grid 2e-7:2e-7:1", "5.551e-17"),
    ("sweep --scheme double_bpsk --grid 2e-7:2e-7:1", "-8.896e-18"),
    ("fig2 --grid 2.5e-4:2.5e-4:1", "7.654e-11"),
    ("fig1 --grid 1:1e-12:2 --delta pi/8,pi/4", "-7.623e-18"),
]


@pytest.mark.parametrize("argv, lowest", SINGULAR_ROWS, ids=[argv for argv, _ in SINGULAR_ROWS])
def test_singular_row_prints_its_least_eigenvalue(argv, lowest, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main([*argv.split(), "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", f"error: {SINGULAR.format(lowest)}\n")
    assert not out.exists()


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
        expected = single_gus_pc(weighted_gram(make_psk(4, 1.0))[0])
        assert float(row["pc"]) == pytest.approx(expected, abs=1e-10)

    def test_rejects_zero_energy(self, tmp_path, capsys):
        assert main(["fig1", "--grid", "0:1:2"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags, code, message", FIG1_FAILURES, ids=[flags for flags, *_ in FIG1_FAILURES]
    )
    def test_first_failing_point_in_grid_order_is_reported(
        self, flags, code, message, tmp_path, capsys
    ):
        # every offset is rooted in one batch, yet the error is that of the
        # first failing (energy, offset): a closed-form domain error before
        # its ensemble is built, or that ensemble's own singular root
        out = tmp_path / "fig1.csv"
        assert main(["fig1", *flags.split(), "--out", str(out)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_singular_point_is_refused_from_the_one_batched_root(
        self, monkeypatch, tmp_path, capsys
    ):
        # the whole grid is rooted once; the first singular point, at
        # 1e-12 and pi/8, is refused with the line its ensemble gives alone
        alpha = math.sqrt(1e-12)
        with pytest.raises(errors.GramSingular) as alone:
            fast_srm(make_double_bpsk(alpha, alpha * np.exp(1j * math.pi / 8), 0.25))
        calls = counted_transforms(monkeypatch)
        out = tmp_path / "fig1.csv"
        argv = ["fig1", "--grid", "1:1e-12:2", "--delta", "pi/8,pi/4", "--out", str(out)]
        assert main(argv) == EXIT_NUMERIC
        assert capsys.readouterr().err == f"error: {alone.value}\n"
        assert calls == {"ifft": 1, "fft": 1}
        assert not out.exists()

    def test_mismatch_before_a_singular_point_is_reported_first(
        self, monkeypatch, tmp_path, capsys
    ):
        closed_form = analysis.pc_double_bpsk_equal_amp

        def off_at_unit_energy(alpha, delta):
            return closed_form(alpha, delta) + (1e-6 if alpha == 1.0 and delta > 0.5 else 0.0)

        monkeypatch.setattr(analysis, "pc_double_bpsk_equal_amp", off_at_unit_energy)
        out = tmp_path / "fig1.csv"
        argv = ["fig1", "--grid", "1:1e-12:2", "--delta", "pi/8,pi/4", "--out", str(out)]
        assert main(argv) == EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(
            "error: closed form and pipeline disagree at |alpha|^2=1.0, delta=0.7853981633974483: "
        )
        assert not out.exists()


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

    @pytest.mark.parametrize("photon_number", ["1e-15", "1e-12", "1e-9", "2e-7", "3e-6"])
    def test_low_energy_root_is_refused_as_singular(self, photon_number, tmp_path, capsys):
        # the root at p* is refused by the default tol_psd before any certificate
        out = tmp_path / "fig2.csv"
        grid = f"{photon_number}:{photon_number}:1"
        assert main(["fig2", "--grid", grid, "--out", str(out)]) == EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: Gram matrix is singular (min eigenvalue ")
        assert not out.exists()

    def test_failed_certificate_is_numeric_failure(self, monkeypatch, tmp_path, capsys):
        # equal priors are not p* for 4-PAM, so the measurement there is suboptimal
        monkeypatch.setattr(analysis, "optimize_prior_4pam", lambda alpha: 0.25)
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--grid", "1:1:1", "--out", str(out)]) == EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: optimized prior failed the optimality certificate: ")
        assert not out.exists()

    def test_tiny_psd_tolerance_answers_where_the_root_is_positive(self, tmp_path):
        out = tmp_path / "fig2.csv"
        argv = ["fig2", "--grid", "3e-6:3e-6:1", "--tol-psd", "1e-300", "--out", str(out)]
        assert main(argv) == EXIT_OK
        (row,) = read_csv(out)
        assert row["p_star"] == fmt(analysis.optimize_prior_4pam(math.sqrt(3e-6)))


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
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--tol-psd", "inf", "--out", str(out)]) == EXIT_CONFIG
        assert "tolerance overrides must be positive" in capsys.readouterr().err
        assert not out.exists()
        # fig4/fig5 rows are closed forms, so they take no tolerance at all
        for name in ("fig4", "fig5"):
            with pytest.raises(SystemExit) as exc:
                main([name, "--tol-psd", "1e-3", "--out", str(out)])
            assert exc.value.code == EXIT_CONFIG
            assert "--tol-psd" in capsys.readouterr().err
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
        expected = single_gus_pc(weighted_gram(make_psk(4, 1.0))[0])
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

    def test_tolerance_of_check_only_is_refused(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scheme", "ppm", "--tol-cond", "1e-9", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "--tol-cond" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("stem", sorted(GRAMFILE_REPORTS))
    def test_documented_report(self, stem, tmp_path):
        code, report = self.run_check(f"{stem}.gram", tmp_path)
        assert code == EXIT_OK
        assert report == GRAMFILE_REPORTS[stem]

    def test_prior_sum_error_prints_a_plain_float(self, tmp_path, capsys):
        bad = tmp_path / "bad.gram"
        bad.write_text("n 2\npriors 1 1\n")
        assert main(["check", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid constellation: priors must sum to 1, got 2.0\n"
        )

    def test_single_state_at_unit_psd_tolerance(self, tmp_path):
        # fast_srm accepts lambda_min(G) = 1 at --tol-psd 1, and no second test of
        # the factor refuses it: sigma_min(X)^2 is that same eigenvalue
        one = tmp_path / "one.gram"
        one.write_text("n 1\npriors 1\n")
        out = tmp_path / "report.txt"
        assert main(["check", str(one), "--tol-psd", "1", "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[:3] == ["states 1", "pc 1", "pe 0"]

    def test_condition_tolerance_bounds_only_the_residual(self, tmp_path):
        # --tol-cond bounds the one residual: the smallest |X[i, i]| of this
        # 16-state root is 0.19, below the 0.5 given, and that does not
        # enter any verdict
        overlaps = circulant_from_row(make_psk(16, 2.0).rows[0, 0])
        lines = ["n 16", "priors " + " ".join([repr(1 / 16)] * 16)]
        for i, j in zip(*np.triu_indices(16, 1)):
            value = overlaps[i, j]
            lines.append(f"inner {i} {j} {float(value.real)!r} {float(value.imag)!r}")
        path = tmp_path / "psk16.gram"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.txt"
        assert main(["check", str(path), "--tol-cond", "0.5", "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[-2:] == [
            "theorem2 optimal",
            "theorem1_oracle optimal (boundary: min eigenvalue over Y - W_r is 0.000000e+00, "
            "inside the zero band)",
        ]

    @pytest.mark.parametrize("tol_cond", [None, "0.05", "0.5"])
    def test_two_circulant_blocks_are_optimal_at_every_tolerance(self, tol_cond, tmp_path):
        # two PSK(8) blocks at priors 1/16, every weighted entry off the
        # diagonal below 0.047: each block's root has a flat diagonal, so
        # every verdict holds whether --tol-cond lies below those entries or
        # above them
        row = make_psk(8, 1.0).rows[0, 0]
        lines = ["n 16", "priors " + " ".join([repr(1 / 16)] * 16)]
        for start in (0, 8):
            for i, j in zip(*np.triu_indices(8, 1)):
                value = row[j - i]
                lines.append(
                    f"inner {start + i} {start + j} {float(value.real)!r} {float(value.imag)!r}"
                )
        lines.append("blocks 0,1,2,3,4,5,6,7 8,9,10,11,12,13,14,15")
        path = tmp_path / "two_psk8.gram"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.txt"
        flags = [] if tol_cond is None else ["--tol-cond", tol_cond]
        assert main(["check", str(path), *flags, "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[-3:] == [
            "theorem3 optimal",
            "theorem2 optimal",
            "theorem1_oracle optimal (boundary: min eigenvalue over Y - W_r is 0.000000e+00, "
            "inside the zero band)",
        ]

    def test_one_decomposition_per_matrix(self, monkeypatch, tmp_path):
        # one eigh of G (the one-bin stack) and nothing else: every verdict
        # reads the root's residual, so no Cholesky, solve, eigvalsh, SVD or
        # per-block root. G of two orthogonal halves is rooted as its two
        # 32 x 32 groups in that one eigh, and G of two states in closed
        # form, with no factorization at all
        calls = counted_factorizations(monkeypatch)
        cases = {GRAMFILES / f"{stem}.gram": None for stem in ("binary_equal", "binary_biased")}
        # seed 1 draws equal priors (optimal), seed 5 skewed ones (suboptimal)
        for seed, blocks in ((1, False), (1, True), (5, False), (5, True)):
            path = tmp_path / f"certify{seed}{blocks:d}.gram"
            path.write_text("\n".join(gram_lines(np.random.default_rng(seed), 64, blocks)) + "\n")
            cases[path] = (2, 32, 32) if blocks else (1, 64, 64)
        for path, shape in cases.items():
            for log in calls.values():
                log.clear()
            assert main(["check", str(path), "--out", str(tmp_path / "report.txt")]) == EXIT_OK
            expected = {"eigh": [shape]} if shape else {}
            assert {name: log for name, log in calls.items() if log} == expected

    def test_roots_the_one_bin_rows_without_a_dense_gram(self, monkeypatch, tmp_path):
        # check roots the parsed one-bin ensemble as one stack of its groups
        # of mutually coupled states, with or without a 'blocks' line: one
        # (1, n, n) stack when every state is coupled, (2, n/2, n/2) for two
        # orthogonal halves and (3, 1, 1) for three orthogonal states; two
        # states take the closed form and no eigh. The leaky file's
        # cross-block overlap of 1e-4 (2.2e-5 weighted) passes --tol-cond
        # 1e-3, so the Gram with it set to zero is rooted too, in one call of
        # the same kernel: both 2 x 2 blocks in one stack
        groups = {"binary_equal": [], "binary_biased": [], "identity3": [(3, 1, 1)]}
        cases = [(GRAMFILES / f"{stem}.gram", (), groups[stem]) for stem in GRAMFILE_REPORTS]
        for seed in (1, 5):
            for blocks in (False, True):
                path = tmp_path / f"certify{seed}{blocks:d}.gram"
                lines = gram_lines(np.random.default_rng(seed), 16, blocks)
                path.write_text("\n".join(lines) + "\n")
                cases.append((path, (), [(2, 8, 8) if blocks else (1, 16, 16)]))
        leaky = tmp_path / "leaky.gram"
        leaky.write_text(
            "n 4\npriors 0.2 0.3 0.25 0.25\n"
            "inner 0 1 0.4 0\ninner 0 2 1e-4 0\ninner 2 3 0.3 0\nblocks 0,1 2,3\n"
        )
        cases.append((leaky, ("--tol-cond", "1e-3"), [(1, 4, 4), (2, 2, 2)]))

        out = tmp_path / "report.txt"
        calls = counted_factorizations(monkeypatch)
        reports = {}
        for path, flags, shapes in cases:
            calls["eigh"].clear()
            assert main(["check", str(path), *flags, "--out", str(out)]) == EXIT_OK
            reports[path] = out.read_text()
            assert calls["eigh"] == shapes
        for stem, report in GRAMFILE_REPORTS.items():
            assert reports[GRAMFILES / f"{stem}.gram"] == report
        ensemble, blocks = cli.load_gram_file(str(leaky))
        reference = check_theorem3_reference(weighted_gram(ensemble), blocks, tol_cond=1e-3)
        assert reference.at == (0, 1, 0)
        assert reports[leaky].splitlines()[-3] == f"theorem3 suboptimal ({reference.witness})"
        assert reference.witness == (
            "condition (i) fails at state pair (0, 1): residual 1.032452e-02"
        )
        assert sum("theorem3" in report for report in reports.values()) == 4
        assert {report.splitlines()[0] for report in reports.values()} == {
            "states 2", "states 3", "states 4", "states 16"
        }

    def test_block_roots_take_no_forward_transform(self, monkeypatch, tmp_path):
        # the root of the file's one-bin ensemble takes the one ifft; under a
        # tolerated leak the Gram with that entry set to zero is rooted as
        # one one-bin coupling stack, its 2 x 2 and 3 x 3 blocks in one eigh
        # each and one fft for both, with no forward transform
        leaky = tmp_path / "leaky.gram"
        leaky.write_text(
            "n 5\npriors 0.2 0.2 0.2 0.2 0.2\n"
            "inner 0 1 0.4 0\ninner 0 2 1e-4 0\ninner 2 3 0.3 0\ninner 3 4 0.2 0\n"
            "blocks 0,1 2,3,4\n"
        )
        out = tmp_path / "report.txt"
        factorizations = counted_factorizations(monkeypatch)
        calls = counted_transforms(monkeypatch)
        for flags, blockwise in (((), []), (("--tol-cond", "1e-3"), [(1, 2, 2), (1, 3, 3)])):
            factorizations["eigh"].clear()
            calls.clear()
            assert main(["check", str(leaky), *flags, "--out", str(out)]) == EXIT_OK
            assert out.read_text().count("theorem3") == 1
            assert factorizations["eigh"] == [(1, 5, 5), *blockwise]
            assert calls == {"ifft": 1, "eigh": 1 + len(blockwise), "fft": 1 + bool(blockwise)}

    @pytest.mark.parametrize("blocks", [False, True], ids=["no_blocks", "blocks"])
    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "skewed"])
    def test_orthogonal_groups_are_rooted_apart(self, equal, blocks, monkeypatch, tmp_path):
        # three mutually orthogonal groups of 2, 3 and 3 interleaved states:
        # G is the direct sum of the groups' Gram matrices, and so is its root,
        # which takes one eigh per group size and no cross-group entry
        groups = [(0, 4), (1, 3, 6), (2, 5, 7)]
        path = tmp_path / "groups.gram"
        path.write_text(grouped_gram_text(np.random.default_rng(29), groups, equal, blocks))
        out = tmp_path / "report.txt"
        calls = counted_factorizations(monkeypatch)
        assert main(["check", str(path), "--out", str(out)]) == EXIT_OK
        assert sorted(calls["eigh"]) == [(1, 2, 2), (2, 3, 3)]
        report = out.read_text().splitlines()

        ensemble, _ = cli.load_gram_file(str(path))
        root = fast_srm(ensemble).rows[:, :, 0]
        inside = np.zeros(root.shape, dtype=bool)
        for group in groups:
            inside[np.ix_(group, group)] = True
        assert (root[~inside] == 0).all()

        monkeypatch.setattr(cli, "fast_srm", lambda ensemble, tol_psd: dense_route(ensemble))
        assert main(["check", str(path), "--out", str(out)]) == EXIT_OK
        dense = out.read_text().splitlines()
        assert len(report) == len(dense) == 11 + blocks + 2
        for line, reference in zip(report, dense):
            if line.startswith("theorem"):
                assert line == reference
            else:
                *label, value = line.split()
                *reference_label, reference_value = reference.split()
                assert label == reference_label
                assert float(value) == pytest.approx(float(reference_value), rel=0, abs=1e-12)
        verdicts = {line.split()[1] for line in report if line.startswith("theorem")}
        assert verdicts == {"optimal" if equal else "suboptimal"}

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 2)], ids=["regular2_singular3", "regular3_singular2"])
    def test_singular_group_is_named_by_the_lowest_eigenvalue_of_all_groups(
        self, sizes, tmp_path, capsys
    ):
        # a regular group of states 0.. and, orthogonal to it, a nearly
        # dependent group whose smallest weighted eigenvalue, 5e-11, is below
        # --tol-psd: the message names that minimum over both groups, before
        # any root is taken
        regular, singular = sizes
        n = regular + singular
        overlaps = np.eye(n, dtype=complex)
        overlaps[:regular, :regular] += 0.3 * (1 - np.eye(regular))
        overlaps[regular:, regular:] += (1 - 2.5e-10) * (1 - np.eye(singular))
        path = tmp_path / "singular_group.gram"
        path.write_text("\n".join(gram_file_lines([0.2] * n, overlaps)) + "\n")
        gram = weighted_gram(cli.load_gram_file(str(path))[0])
        lowest = np.linalg.eigvalsh(gram[regular:, regular:])[0]
        assert 1e-11 < lowest < 1e-10 < np.linalg.eigvalsh(gram[:regular, :regular])[0]

        assert main(["check", str(path)]) == EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        named = re.fullmatch(
            r"error: Gram matrix is singular \(min eigenvalue (\S+) < 1e-10\); "
            r"the weighted states are not linearly independent",
            line,
        )
        assert named and float(named.group(1)) == pytest.approx(lowest, rel=1e-3)

    @pytest.mark.parametrize("tol_cond", [None, "1e-9", "1e-6", "1e-3", "0.5"])
    def test_no_report_pairs_an_optimal_line_with_a_suboptimal_one(self, tol_cond, tmp_path):
        # every verdict reads the one residual under the one --tol-cond
        paths = sorted(GRAMFILES.glob("*.gram"))
        for n in (16, 64):
            for blocks in (False, True):
                for seed in range(4):
                    rng = np.random.default_rng(8 * n + 2 * seed + blocks)
                    path = tmp_path / f"case{n}_{blocks:d}_{seed}.gram"
                    path.write_text("\n".join(gram_lines(rng, n, blocks)) + "\n")
                    paths.append(path)
        flags = [] if tol_cond is None else ["--tol-cond", tol_cond]
        out = tmp_path / "report.txt"
        seen = set()
        for path in paths:
            assert main(["check", str(path), *flags, "--out", str(out)]) == EXIT_OK
            lines = out.read_text().splitlines()
            words = {line.split()[1] for line in lines if line.startswith("theorem")}
            assert words in ({"optimal"}, {"suboptimal"}), path.name
            seen |= words
        if tol_cond in (None, "1e-9"):
            assert seen == {"optimal", "suboptimal"}

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

    def test_eigensolver_failure_is_numeric_failure(self, monkeypatch, capsys):
        # only a stack of s >= 3 reaches the eigensolver: three constellations,
        # and the three states of identity3.gram
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        ensemble = random_gus_ensemble(np.random.default_rng(3), 3, 4)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        message = "eigensolver did not converge: Eigenvalues did not converge"
        with pytest.raises(errors.ConvergenceFailure) as caught:
            fast_srm(ensemble)
        assert str(caught.value) == message
        assert main(["check", str(GRAMFILES / "identity3.gram")]) == EXIT_NUMERIC
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("values", ["0.6 -0.8", "1.00000000005 0"])
    def test_unit_overlap_within_tolerance_is_singular(self, values, tmp_path, capsys):
        # an overlap of modulus 1, to RULE_TOL, is two identical states: a
        # valid file whose Gram matrix is singular
        singular = tmp_path / "singular.gram"
        singular.write_text(f"n 2\npriors 0.5 0.5\ninner 0 1 {values}\n")
        assert main(["check", str(singular)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: Gram matrix is singular")

    def test_missing_file(self, capsys):
        assert main(["check", "/does/not/exist.gram"]) == EXIT_CONFIG

    def test_non_finite_tolerance_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        argv = ["check", str(GRAMFILES / "binary_biased.gram"), "--tol-cond", "nan", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "tolerance overrides must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_block_is_reported(self, tmp_path):
        gram = tmp_path / "empty_block.gram"
        gram.write_text("n 3\npriors 0.25 0.25 0.5\ninner 0 1 0.5 0\nblocks 0,1 , 2\n")
        out = tmp_path / "report.txt"
        assert main(["check", str(gram), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert "theorem3 error (every block must hold at least one state index)" in lines
        assert any(line.startswith("theorem1_oracle ") for line in lines)

    def test_nan_prior_is_an_invalid_prior(self, tmp_path, capsys):
        gram = tmp_path / "nan_prior.gram"
        gram.write_text("n 2\npriors nan 0.5\n")
        assert main(["check", str(gram)]) == EXIT_CONFIG
        assert "priors must be strictly positive" in capsys.readouterr().err

    def test_error_probability_is_never_negative(self, tmp_path):
        # orthogonal states whose computed pc rounds one ulp above 1
        gram = tmp_path / "orthogonal.gram"
        gram.write_text("n 2\npriors 0.5 0.5\n")
        out = tmp_path / "report.txt"
        assert main(["check", str(gram), "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[1:3] == ["pc 1", "pe 0"]

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "latin1.gram"
        bad.write_bytes(b"n 2\npriors 0.5 0.5\n# caf\xe9\n")
        assert main(["check", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: cannot read file: 'utf-8' codec can't decode byte 0xe9")

    def test_unknown_directive(self, tmp_path, capsys):
        bad = tmp_path / "bad.gram"
        bad.write_text("n 1\npriors 1.0\nwat 1 2\n")
        assert main(["check", str(bad)]) == EXIT_CONFIG
        assert "bad.gram:3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, lineno, message", MALFORMED_FILES)
    def test_malformed_file_names_its_line(self, text, lineno, message, tmp_path, capsys):
        bad = tmp_path / "bad.gram"
        bad.write_text(text)
        assert main(["check", str(bad)]) == EXIT_CONFIG
        where = str(bad) if lineno is None else f"{bad}:{lineno}"
        assert capsys.readouterr().err == f"error: {where}: {message}\n"

    @pytest.mark.parametrize(
        "key, text, lineno, first", REPEATED_DIRECTIVES, ids=[case[0] for case in REPEATED_DIRECTIVES]
    )
    def test_repeated_directive_is_refused(self, key, text, lineno, first, tmp_path, capsys):
        bad = tmp_path / "bad.gram"
        bad.write_text(text)
        assert main(["check", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {bad}:{lineno}: duplicate {key!r} line, first given on line {first}\n"
        )


def mutated(lines, seed, mutation) -> tuple[list[str], int]:
    """Put one fault of the given kind on an 'inner' line near the 500th; return its index."""
    rng = np.random.default_rng(seed)
    first = next(k for k, line in enumerate(lines) if line.startswith("inner "))
    at = first + 480 + int(rng.integers(40))
    lines = list(lines)
    parts = lines[at].split()
    if mutation == "token":
        parts[1 + int(rng.integers(4))] = str(rng.choice(["x", "0x1", "1..0", "--1", "", "i"]))
    elif mutation == "four":
        del parts[1 + int(rng.integers(4))]
    elif mutation == "six":
        parts.insert(1 + int(rng.integers(5)), "0")
    elif mutation == "order":
        parts[1], parts[2] = parts[2], parts[1 + int(rng.integers(2))]
    elif mutation == "range":
        parts[2] = str(int(lines[0].split()[1]) + int(rng.integers(3)))
    elif mutation == "modulus":
        parts[3] = repr(1.0 + float(rng.uniform(1e-9, 1.0)))
    elif mutation == "repeat":
        earlier = lines[first + int(rng.integers(at - first))].split()
        parts[1:3] = earlier[1:3]
    lines[at] = " ".join(parts)
    return lines, at


def parse_outcome(parse, path):
    """The parsed bits of a Gram file, or the text of the error it raises."""
    try:
        ensemble, blocks = parse(str(path))
    except errors.GramFileError as exc:
        return str(exc)
    priors, rows = ensemble.constellation_priors, ensemble.rows
    return priors.dtype, priors.tobytes(), rows.dtype, rows.shape, rows.tobytes(), blocks


class TestGramFileParser:
    """``load_gram_file`` gives the same bits or error text as the line-by-line reference."""

    def assert_same(self, path):
        outcome = parse_outcome(cli.load_gram_file, path)
        assert outcome == parse_outcome(load_gram_file_reference, path)
        return outcome

    def assert_same_text(self, text, tmp_path, name="case.gram"):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return self.assert_same(path)

    @pytest.mark.parametrize("name", sorted(p.name for p in GRAMFILES.glob("*.gram")))
    def test_gramfiles(self, name):
        assert not isinstance(self.assert_same(GRAMFILES / name), str)

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("blocks", [False, True])
    def test_certify_style_files(self, n, blocks, tmp_path):
        lines = gram_lines(np.random.default_rng(n + blocks), n, blocks)
        outcome = self.assert_same_text("\n".join(lines) + "\n", tmp_path)
        assert not isinstance(outcome, str)

    @pytest.mark.parametrize(
        "text", [case[0] for case in MALFORMED_FILES] + [case[1] for case in REPEATED_DIRECTIVES]
    )
    def test_malformed_texts(self, text, tmp_path):
        assert isinstance(self.assert_same_text(text, tmp_path), str)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "mutation", ["token", "four", "six", "order", "range", "modulus", "repeat"]
    )
    def test_one_deep_fault(self, mutation, seed, tmp_path):
        lines, at = mutated(gram_lines(np.random.default_rng(seed), 64, seed == 1), seed, mutation)
        message = self.assert_same_text("\n".join(lines) + "\n", tmp_path)
        assert message.startswith(f"{tmp_path / 'case.gram'}:{at + 1}: ")

    @pytest.mark.parametrize("inner_first", [True, False])
    @pytest.mark.parametrize("other", ["wat 1 2", "priors 0.5 x"])
    @pytest.mark.parametrize("mutation", ["token", "six", "range", "modulus"])
    def test_inner_fault_and_another_fault(self, mutation, other, inner_first, tmp_path):
        lines, at = mutated(gram_lines(np.random.default_rng(7), 64, False), 7, mutation)
        del lines[1]  # the priors line, so that "priors 0.5 x" is not a repeat
        other_at = len(lines) if inner_first else 1
        lines.insert(other_at, other)
        at += -1 if inner_first else 0
        message = self.assert_same_text("\n".join(lines) + "\n", tmp_path)
        assert message.startswith(f"{tmp_path / 'case.gram'}:{min(at, other_at) + 1}: ")

    def test_repeated_pair_before_unknown_directive(self, tmp_path):
        lines, _ = mutated(gram_lines(np.random.default_rng(8), 64, False), 8, "repeat")
        lines.append("wat")
        message = self.assert_same_text("\n".join(lines) + "\n", tmp_path)
        assert message.endswith(f":{len(lines)}: unknown directive 'wat'")

    @pytest.mark.parametrize(
        "text",
        [
            "n 1_2\npriors" + " 1_0" * 12 + "\ninner ٣ +4 0.0_1 -0.0\ninner 1_0 1_1 0.25 1e-400\n",
            "n 5\npriors 1 2 3 4 5\ninner 0 4 nan 0\n",
            "n 5\npriors 1 2 3 4 5\ninner 0 4 0.1 inf\n",
            "n 5\npriors 1 2 3 4 5\ninner 0 4 1e400 -Infinity\n",
            "n 5\npriors 1 2 nan 4 5\ninner 0 4 0.1 0\n",
            "n 3\npriors 1 1 1\ninner 0 99999999999999999999 0.1 0\n",
            "n 3\npriors 1 1 1\ninner -99999999999999999999 1 0.1 0\n",
            "n 100000000000000000000\ninner 9223372036854775807 9223372036854775808 0.1 0\n",
            "n 3\npriors 1 1 1\ninner 0 1 0.5 0\ninner 1 2 0.1 0 inner 0 2 0.1 0\n",
            "n 3\npriors 1 1 1\ninner 0 1 0.5\ninner 1 2 0.1 0 0\n",
            "n 3\npriors 1 1 1\ninner 0 1 0.5 0 inner 1 2 0.1 0\ninner\ninner 0 2 0.1\n",
            "n 3\npriors 1 1 1\ninner 0 1 0.5 0\ninner 1 2 inner 0\n",
            "n 3\npriors 1 1 1\ninner 0 1 0.5 0\ninnerx 1 2 0.1 0\n",
            "n 3\npriors 1 1 1\ninner 0 1 0.5 0\ninner\n",
        ],
    )
    def test_number_syntax_and_odd_lines(self, text, tmp_path):
        self.assert_same_text(text, tmp_path)

    def test_python_number_syntax_is_read(self, tmp_path):
        text = "n 0_4\npriors 0.2_5 +0.25 2.5e-1 ٠.٢٥\ninner ٠ +3 0.0_1 -0.0\ninner ١ 0_2 -.25 1e-400\n"
        assert not isinstance(self.assert_same_text(text, tmp_path), str)
        ensemble, _ = cli.load_gram_file(str(tmp_path / "case.gram"))
        assert ensemble.rows[0, 3, 0] == 0.01
        assert ensemble.rows[1, 2, 0] == -0.25

    @pytest.mark.parametrize(
        "text",
        [
            "# head\nn 3 # count\n\npriors 0.2 0.3 0.5#p\n  # own line\ninner 0 1 0.5 0 # c\n"
            "inner 0 2 0.1 -0.2#c\n\n\t inner\t1 2 0.3 0.1\nblocks 0,1,2 # one\n",
            "n 3\r\npriors 0.2 0.3 0.5\r\ninner 0 1 0.5 0\r\n\r\ninner 1 2 0.1 0\r\n",
            "n 3\rpriors 0.2 0.3 0.5\rinner 0 1 0.5 0\rinner 1 2 0.1 0",
            "n 3\npriors 0.2 0.3 0.5\ninner 0 1 0.5 0\ninner 0 1 0.5 0 # again\n",
            "n 2\npriors 0.5 0.5\n",
            "",
        ],
        ids=["comments", "crlf", "cr", "repeat-commented", "no-inner", "empty"],
    )
    def test_comments_and_line_endings(self, text, tmp_path):
        self.assert_same_text(text, tmp_path)

    @pytest.mark.parametrize("space", ["\x0c", "\x1c", "\u2028", "\x85", "\x0b", " "])
    def test_split_whitespace_is_not_a_line_break(self, space, tmp_path):
        inside = f"n 2\npriors 0.5 0.5\ninner{space}0 1{space}0.5 0\n"
        assert not isinstance(self.assert_same_text(inside, tmp_path), str)
        two = f"n 2\npriors 0.5 0.5\ninner 0 1 0.5 0{space}inner 0 1 0.2 0\n"
        message = self.assert_same_text(two, tmp_path)
        assert message == f"{tmp_path / 'case.gram'}:3: expected 'inner i j re im'"


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


@pytest.mark.parametrize("photon_number", ["1e-17", "1e-12", "2e-7", "1e3"])
@pytest.mark.parametrize(
    "command",
    [["fig1"], ["fig2"], ["fig4"], *(["sweep", "--scheme", scheme] for scheme in analysis.SCHEMES)],
    ids=lambda command: command[-1],
)
def test_every_energy_gets_an_answer_or_one_error_line(command, photon_number, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([*command, "--grid", f"{photon_number}:{photon_number}:1", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_NUMERIC)
    if code == EXIT_NUMERIC:
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert not out.exists()


def test_out_in_a_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["fig4", "--grid", "1:1:1", "--out", str(out)]) == EXIT_CONFIG
    reason = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {out}: cannot write file: {reason}"]
    assert captured.out == ""


def test_out_that_is_a_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path
    assert main(["check", str(GRAMFILES / "binary_equal.gram"), "--out", str(out)]) == EXIT_CONFIG
    reason = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {out}: cannot write file: {reason}"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    [
        ["fig1", "--grid", "1e7:1e7:1"],
        ["sweep", "--scheme", "double_bpsk", "--delta", "pi/8,pi/2", "--grid", "1e7:1e7:1"],
        ["fig1", "--grid", "1e300:1e300:1"],
    ],
    ids=["fig1-1e7", "sweep-1e7", "fig1-1e300"],
)
def test_bright_coherent_pairs_answer(command, tmp_path):
    # the builders write each seed overlap as 1; computed, it cancels to
    # 1 - 1.9e-9 at 1e7 photons and overflows at 1e300
    out = tmp_path / "rows.csv"
    assert main([*command, "--out", str(out)]) == EXIT_OK
    rows = [row for row in read_csv(out) if float(row["delta"]) > 0]
    assert rows and all(float(row["pc"]) == 1.0 for row in rows)


def test_module_entry_point(tmp_path):
    # `python -m srmlab` is the one script entry besides the installed one
    root = GRAMFILES.parent
    env = dict(os.environ)
    src = str(Path(srmlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*argv):
        command = [sys.executable, "-m", "srmlab", *argv]
        return subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=60)

    done = run("check", "gramfiles/binary_biased.gram")
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_OK, GRAMFILE_REPORTS["binary_biased"], ""
    )
    done = run("check", str(tmp_path / "missing.gram"))
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and "missing.gram" in line


def test_every_error_is_an_input_or_a_numerical_error(monkeypatch, capsys):
    classes, stack = [], [errors.SrmLabError]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        classes.append(cls)
    bases = (errors.SrmLabError, errors.InputError, errors.NumericalError)
    leaves = [cls for cls in classes if cls not in bases]
    assert len(leaves) == 8
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


SUBCOMMAND_ARGVS = [
    ["fig1", "--grid", "1:2:3", "--delta", "0,pi/2", "--tol-psd", "1e-6"],
    ["fig2", "--format", "json"],
    ["fig3", "--out", "fig3.csv"],
    ["fig4", "--m", "2,4"],
    ["fig5", "--grid", "1:1:1", "--format", "csv"],
    ["sweep", "--scheme", "ppm", "--p", "0.2", "--m", "2"],
    ["check", "a.gram", "--tol-cond", "1e-4", "--out", "report.txt"],
]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        ["--", "check", "a.gram"],
        ["--bogus", "check", "a.gram"],
        ["check"],
        ["check", "a.gram", "--bogus"],
        ["sweep", "--scheme", "nope"],
        ["fig4", "--tol-psd", "1e-3"],
        *([argv[0], "--help"] for argv in SUBCOMMAND_ARGVS),
    ],
    ids=" ".join,
)
def test_a_run_exits_as_the_full_parser_does(argv, capsys):
    # main builds the arguments of its own subcommand only; the usage, help
    # and error texts must still be those of the full parser
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as run:
        main(argv)
    assert run.value.code == full.value.code
    assert capsys.readouterr() == expected


def test_a_subcommand_parses_as_in_the_full_parser():
    full = cli.build_parser()
    for argv in SUBCOMMAND_ARGVS:
        assert cli.build_parser(argv[0]).parse_args(argv) == full.parse_args(argv)
