import functools
import importlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import tiltedsum
from tiltedsum import cli, oracle
from tiltedsum.cli import main, render_csv

from conftest import decimal_tilted


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def reject_constant(name):
    """json.loads hook: Infinity, -Infinity and NaN are not valid JSON."""
    raise ValueError(f"{name} is not valid JSON")


def parse_cell(text):
    """Inverse of the CLI's cell formatting: int if bare digits, float if numeric, else str."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    columns = lines[0].split(",")
    rows = [dict(zip(columns, map(parse_cell, line.split(",")))) for line in lines[1:]]
    return columns, rows


class TestPaperTables:
    def test_all_rows_pass(self, capsys):
        code, out = run_cli(capsys, "paper-tables")
        assert code == 0
        assert out.count("PASS") == 10  # 6 variance rows + 3 sources + constant
        assert "FAIL" not in out
        assert "1.533" in out  # the n=10 row
        assert "23.080" in out and "49.000" in out
        assert "gap" in out

    def test_json_verdict(self, capsys):
        code, out = run_cli(capsys, "paper-tables", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        n10 = next(r for r in payload["variance_table"] if r["n"] == 10)
        assert abs(n10["var_per_letter"] - 1.533) <= 5e-4

    def test_csv_blocks_parse_back(self, capsys):
        # Three CSV blocks, one after another, each with its own header; a
        # text cell such as n = "inf" parses back as the number it spells.
        code, out = run_cli(capsys, "paper-tables", "--format", "csv")
        assert code == 0
        _, payload = run_cli(capsys, "paper-tables", "--format", "json")
        lines = out.splitlines()
        for key in ("variance_table", "sources", "constants"):
            want = json.loads(payload)[key]
            block, lines = lines[: len(want) + 1], lines[len(want) + 1 :]
            columns, rows = parse_csv("\n".join(block))
            assert columns == list(want[0])
            assert rows == [
                {k: parse_cell(v) if isinstance(v, str) else v for k, v in row.items()}
                for row in want
            ]
        assert lines == []


def test_installed_entry_point_is_cli_main(capsys):
    # The console script of pyproject.toml, resolved as an installer would and run in process.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tiltedsum"]
    module, attr = target.split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    assert entry(["paper-tables", "--format", "csv"]) == 0
    assert capsys.readouterr().out


def check_out(tmp_path, capsys, argv, code):
    # --out gets the bytes stdout would, with LF line endings, and stdout gets nothing; the exit
    # code is the command's.
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "out")) == (code, "")
    want = run_cli(capsys, *argv)[1].encode()
    assert (tmp_path / "out").read_bytes() == want and b"\r" not in want


FIGURE_CSV = ("figure", "--a", "0.1", "--b", "0.3", "--n-grid", "1:5", "--format", "csv")


class TestFigure:
    def test_csv_schema_and_values(self, capsys):
        code, out = run_cli(
            capsys, "figure", "--a", "0.1", "--b", "0.3", "--n-grid", "1:50", "--format", "csv"
        )
        assert code == 0
        columns, rows = parse_csv(out)
        assert columns == ["n", "var_per_letter", "v_sl", "v_iid"]
        assert len(rows) == 50
        assert abs(rows[-1]["var_per_letter"] - 1.813) <= 5e-4
        assert all(abs(r["v_sl"] - 1.884) <= 5e-4 for r in rows)
        assert all(abs(r["v_iid"] - 0.471) <= 5e-4 for r in rows)

    def test_default_grid_is_200(self, capsys):
        code, out = run_cli(capsys, "figure", "--a", "0.1", "--b", "0.3", "--format", "csv")
        _, rows = parse_csv(out)
        assert code == 0 and len(rows) == 200

    def test_writes_file(self, tmp_path, capsys):
        check_out(tmp_path, capsys, FIGURE_CSV, 0)

    def test_unwritable_path(self, tmp_path, capsys):
        assert run_cli(capsys, *FIGURE_CSV, "--out", str(tmp_path / "missing" / "out"))[0] == 3


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.1", "--n", "6"),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "32", "--theta-grid=-1:1:0.5"),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid", "0.05:0.25:0.05"),
            ("variance-table", "--a", "0.45", "--b", "0.55", "--n-grid", "1,2,5"),
            ("tail", "--a", "0.1", "--b", "0.3", "--n", "100", "--x", "0.2"),
            ("verify", "--a", "0.1", "--b", "0.3"),
        ],
    )
    def test_csv_reemission_is_byte_identical(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        columns, rows = parse_csv(out)
        assert render_csv(columns, rows) == out

    # One call per table subcommand.
    @pytest.mark.parametrize(
        "argv",
        [
            ("pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.1", "--n", "4"),
            ("variance-table", "--a", "0.1", "--b", "0.3"),
            # The exact tail underflows to 0, so the ratio is infinite.
            ("tail", "--a", "0.7", "--b", "0.6", "--n", "3000", "--x", "0.119"),
            ("jtilt", "--a", "0.1", "--b", "0.3", "--distortion", "0.1"),
            ("stats", "--a", "0.1", "--b", "0.3", "--distortion", "0.1"),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "16", "--theta-grid=-1,0,1"),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid", "0.05,0.2"),
            ("simulate", "--a", "0.1", "--b", "0.3", "--distortion", "0.1", "--n", "10",
             "--reps", "200", "--seed", "3"),
            ("figure", "--a", "0.1", "--b", "0.3", "--n-grid", "1:3"),
        ],
    )
    def test_json_reemission_is_byte_identical(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["command"] == argv[0]
        assert json.dumps(payload, indent=2) + "\n" == out

    def test_machine_output_deterministic(self, capsys):
        argv = ("cgf", "--a", "0.2", "--b", "0.5", "--n", "16", "--format", "csv")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestSchemas:
    def test_pmf_columns(self, capsys):
        code, out = run_cli(
            capsys, "pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.1",
            "--n", "3", "--format", "csv",
        )
        columns, rows = parse_csv(out)
        assert columns == ["m", "prob", "j_value"]
        assert [r["m"] for r in rows] == [0, 1, 2, 3]
        assert abs(sum(r["prob"] for r in rows) - 1.0) < 1e-12

    def test_cgf_columns(self, capsys):
        code, out = run_cli(
            capsys, "cgf", "--a", "0.1", "--b", "0.3", "--n", "8",
            "--theta-grid", "0:1:0.5", "--format", "csv",
        )
        columns, rows = parse_csv(out)
        assert columns == ["theta", "lambda_n", "lambda_inf"]
        assert abs(rows[0]["lambda_n"]) < 1e-12  # theta = 0 row
        # --theta is a spelling of --theta-grid.
        spellings = [run_cli(capsys, "cgf", "--a", "0.1", "--b", "0.3", "--n", "8", flag, "0.5")
                     for flag in ("--theta", "--theta-grid")]
        assert spellings[0] == spellings[1] and spellings[0][0] == 0

    def test_rate_columns(self, capsys):
        code, out = run_cli(
            capsys, "rate", "--a", "0.1", "--b", "0.3", "--x", "0.2", "--format", "csv"
        )
        columns, rows = parse_csv(out)
        assert columns == ["x", "theta_star", "rate"]
        assert rows[0]["rate"] > 0
        # --x is a spelling of --x-grid.
        assert run_cli(capsys, "rate", "--a", "0.1", "--b", "0.3", "--x-grid", "0.2",
                       "--format", "csv") == (code, out)

    def test_stats_symmetric_chain(self, capsys):
        code, out = run_cli(
            capsys, "stats", "--a", "0.3", "--b", "0.3", "--distortion", "0.2", "--format", "csv"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["amplification"] == pytest.approx(7.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("a,b,d_grid", [(0.1, 0.3, (0.01, 0.1, 0.24)),
                                            (0.5, 0.5, (0.05, 0.2, 0.45))])
    def test_stats_distortion_free_cells(self, capsys, a, b, d_grid):
        # The chain's cells are the same text with and without a distortion,
        # which only appends mu_d and the operating point.
        chain = ("stats", "--a", repr(a), "--b", repr(b), "--format", "csv")
        code, bare = run_cli(capsys, *chain)
        assert code == 0
        header, row = bare.splitlines()
        for d in d_grid:
            code, out = run_cli(capsys, *chain, "--distortion", repr(d))
            assert code == 0
            header_d, row_d = out.splitlines()
            assert header_d == header + ",mu_d,beta,q0,q1"
            assert row_d.startswith(row + ",")
            assert row_d.count(",") == row.count(",") + 4

    def test_tail_below_float_range_is_zero(self, capsys):
        # The exact tail is near 1e-879: it must print 0.0, not a subnormal
        # the count law got stuck at.
        code, out = run_cli(
            capsys, "tail", "--a", "0.1", "--b", "0.3", "--n", "6000", "--x", "1.18",
            "--format", "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["exact"] == 0.0
        assert rows[0]["ratio"] == float("inf")

    @pytest.mark.parametrize(
        "command, column", [("variance-table", "var_total"), ("figure", "var_per_letter")]
    )
    def test_nonfinite_cells_are_strict_json(self, capsys, command, column):
        # Var(J_n) overflows at n = 10**308: the cell is the string "inf", not Infinity.
        code, out = run_cli(capsys, command, "--a", "0.1", "--b", "0.3",
                            "--n-grid", str(10**308), "--format", "json")
        assert code == 0
        rows = json.loads(out, parse_constant=reject_constant)["rows"]
        assert rows[0]["n"] == 10**308 and rows[0][column] == "inf"

    def test_tail_gaussian_regime_flag(self, capsys):
        # theta* ~ x / L''(0): well under the 0.05 threshold at x = 0.01, above it at 0.2.
        for x, flag in (("0.01", 1), ("0.2", 0)):
            code, out = run_cli(
                capsys, "tail", "--a", "0.1", "--b", "0.3", "--n", "100", "--x", x,
                "--format", "csv",
            )
            assert code == 0
            _, rows = parse_csv(out)
            assert rows[0]["near_gaussian"] == flag

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "--a", "0.1", "--b", "0.3", "--distortion", "0.05"),
            ("jtilt", "--a", "0.1", "--b", "0.3", "--distortion", "0.05"),
        ],
    )
    def test_default_table_format(self, capsys, argv):
        # A header, then one line per row, each cell starting where its
        # column's name does; floats show 10 significant digits.
        code, table = run_cli(capsys, *argv)
        assert code == 0
        _, csv = run_cli(capsys, *argv, "--format", "csv")
        columns, rows = parse_csv(csv)
        header, *lines = table.splitlines()
        assert header.split() == columns and len(lines) == len(rows)
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        for line, row in zip(lines, rows):
            assert [m.start() for m in re.finditer(r"\S+", line)] == starts
            want = [f"{v:.10g}" if isinstance(v, float) else str(v) for v in row.values()]
            assert line.split() == want


class TestVerifyCommand:
    def test_default_sweep_passes(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "ALL PASS" in out
        assert "oracle-pmf-tv" in out and "cases" in out

    def test_perturbation_detected(self, capsys):
        code, out = run_cli(capsys, "verify", "--perturb", "1e-6")
        assert code == 2
        assert "FAIL" in out

    def test_json_verdict(self, capsys):
        code, out = run_cli(capsys, "verify", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True
        assert {s["name"] for s in payload["suites"]} >= {
            "oracle-pmf-tv",
            "variance-forms",
            "oracle-variance",
            "d-invariance",
        }
        assert all(s["pass"] for s in payload["suites"])
        assert run_cli(capsys, "verify", "--format", "json") == (code, out)

    def test_single_pair(self, capsys):
        code, out = run_cli(capsys, "verify", "--a", "0.2", "--b", "0.4")
        assert code == 0 and "ALL PASS" in out

    def test_nearly_alternating_chain_passes(self, capsys):
        # lambda2 = -0.9997: the double sum's alternating lags cancel unless
        # they are added in pairs.
        code, out = run_cli(capsys, "verify", "--a", "0.9999", "--b", "0.9998", "--json")
        suites = json.loads(out)["suites"]
        assert code == 0 and len(suites) == 7
        assert all(s["pass"] for s in suites)

    def test_single_pair_with_distortion(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--a", "0.2", "--b", "0.4", "--distortion", "0.15"
        )
        assert code == 0 and "ALL PASS" in out

    def test_out_of_regime_distortion_exits_1(self, capsys):
        # 0.3 lies inside the regime of some default chains but not of
        # (0.1, 0.3), whose bound is 0.25: no chain may be skipped.
        for d in ("5", "nan", "0.3"):
            code = main(["verify", "--distortion", d])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error:") and "interior regime" in captured.err

    def test_nonfinite_perturb_exits_1(self, capsys):
        for perturb in ("nan", "inf", "-inf"):
            code = main(["verify", f"--perturb={perturb}"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error:") and "--perturb" in captured.err

    def test_nan_deviation_fails_its_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "perron_root", lambda chain, u: math.nan)
        code, out = run_cli(capsys, "verify", "--a", "0.1", "--b", "0.3")
        assert code == 2
        assert "cgf-zeros: max deviation nan over 6 cases (tol 1e-13): FAIL" in out
        code, out = run_cli(capsys, "verify", "--a", "0.1", "--b", "0.3", "--json")
        suites = json.loads(out, parse_constant=reject_constant)["suites"]
        assert code == 2
        assert [s["max_deviation"] for s in suites if not s["pass"]] == ["nan"]

    @pytest.mark.parametrize("perturb", ["1e308", "-1e308"])
    def test_huge_perturb_json_is_strict(self, capsys, perturb):
        # The perturbed closed form overflows, so its deviations are inf.
        code, out = run_cli(capsys, "verify", f"--perturb={perturb}", "--json")
        payload = json.loads(out, parse_constant=reject_constant)
        assert code == 2 and payload["pass"] is False
        worst = {s["name"]: s["max_deviation"] for s in payload["suites"]}
        assert worst["variance-forms"] == "inf" and worst["oracle-variance"] == "inf"
        code, out = run_cli(capsys, "verify", f"--perturb={perturb}")
        assert code == 2 and "oracle-variance: max deviation inf over" in out

    def test_csv_has_one_row_per_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--perturb", "1e308", "--format", "csv")
        columns, rows = parse_csv(out)
        assert code == 2
        assert columns == ["name", "cases", "max_deviation", "tolerance", "pass"]
        suites = {row["name"]: row for row in rows}
        assert list(suites) == [name for name, _, _ in oracle.SUITES]
        assert suites["oracle-variance"]["max_deviation"] == math.inf
        assert suites["oracle-variance"]["pass"] == 0
        # --json is --format json, so the last format flag wins.
        assert run_cli(capsys, "verify", "--perturb", "1e308", "--json",
                       "--format", "csv") == (code, out)

    @pytest.mark.parametrize(
        "argv, want",
        [
            ((), {"oracle-variance": {0.05, 0.1, 0.2}, "cgf-expectation": {0.125},
                  "d-invariance": {0.05, 0.2}}),
            (("--distortion", "0.01"), {"oracle-variance": {0.01}, "cgf-expectation": {0.01},
                                        "d-invariance": {0.01, 0.2}}),
        ],
    )
    def test_distortion_reaches_every_suite(self, capsys, monkeypatch, argv, want):
        # Record the distortion of every exact law and oracle variance, per suite.
        seen, suite = {}, [None]

        def recording(fn):
            def wrapped(chain, d, n):
                seen.setdefault(suite[0], set()).add(d)
                return fn(chain, d, n)
            return wrapped

        def named(name, deviations):
            def run(*args):
                suite[0] = name
                yield from deviations(*args)
            return run

        monkeypatch.setattr(oracle, "jn_law", recording(oracle.jn_law))
        monkeypatch.setattr(oracle, "oracle_variance", recording(oracle.oracle_variance))
        monkeypatch.setattr(oracle, "SUITES", [(name, tol, named(name, deviations))
                                               for name, tol, deviations in oracle.SUITES])
        code, _ = run_cli(capsys, "verify", "--a", "0.1", "--b", "0.3", *argv)
        assert code == 0 and seen == want


class TestRateDomain:
    # Chains near the ends of the accepted domain: slow mixing, a sticky
    # state, nearly alternating.
    @pytest.mark.parametrize(
        "argv",
        [
            ("rate", "--a", "1.781510379126522e-11", "--b", "5.233863770635598e-06",
             "--x", "1.8456444210731207"),
            ("tail", "--a", "0.00972356736242579", "--b", "6.3573332322043285e-12",
             "--n", "100", "--x", "20.65778673353927"),
            ("rate", "--a", "0.999943193268331", "--b", "0.9999999998752219",
             "--x", "4.09796321030106e-05"),
        ],
    )
    def test_optimal_tilt_on_extreme_chains(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        chain = tiltedsum.derive_chain(float(argv[2]), float(argv[4]))
        for row in rows:
            *_, slope = decimal_tilted(chain, -row["theta_star"] * chain.ell)
            assert abs(float(slope) - row["x"]) <= 1e-9

    def test_past_the_interval_end_exits_1(self, capsys):
        # The interval's upper end for (0.1, 0.3) is 1.1887218755408666.
        code = main(["rate", "--a", "0.1", "--b", "0.3", "--x", "1.188721875540867"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_tail_whose_tilt_rounds_to_zero_exits_1(self, capsys):
        # On (0.1, 0.3) theta* rounds to 0 below about 8.8e-17; the estimate divides by it.
        code = main(["tail", "--a", "0.1", "--b", "0.3", "--n", "5", "--x", "1e-17"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: x=1e-17 is too close to 0: its optimal tilt rounds to 0\n"

    def test_chain_whose_logs_round_equal(self, capsys):
        # log2(0.2) and log2(0.20000000000000004) round equal, yet ell != 0, so no call
        # divides by it; x = 0.1 lies outside the interval of half-width about 1e-16.
        for argv, want in (
            (("rate", "--x", "0.0"), 0),
            (("tail", "--n", "10", "--x", "1e-17"), 0),
            (("tail", "--n", "10", "--x", "0.1"), 1),
            (("simulate", "--distortion", "0.05", "--n", "6", "--reps", "100", "--seed", "1"), 0),
        ):
            code = main([*argv, "--a", "0.2", "--b", "0.20000000000000004", "--format", "csv"])
            captured = capsys.readouterr()
            assert code == want, argv
            if code:
                assert captured.out == "" and captured.err.startswith("error: x=0.1 outside")
            else:
                assert captured.err == "" and captured.out.count("\n") == 2, argv


class TestCgfTilts:
    def test_infinite_tilt_exits_1(self, capsys):
        # Each theta is checked where it enters, then n: with both bad, the first theta decides.
        for n, grid, message in (("10", "inf", "theta=inf"), ("0", "inf,1", "theta=inf"),
                                 ("0", "1,inf", "blocklength n=0")):
            code = main(["cgf", "--a", "0.1", "--b", "0.3", "--n", n, f"--theta-grid={grid}",
                         "--format", "json"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err
            assert message in captured.err

    def test_huge_tilts_stay_finite(self, capsys):
        # n*theta*ell overflows here; theta*ell itself does not.
        code, out = run_cli(capsys, "cgf", "--a", "0.1", "--b", "0.3", "--n", "10",
                            "--theta-grid=1e307,5e307", "--format", "json")
        assert code == 0
        rows = json.loads(out, parse_constant=reject_constant)["rows"]
        assert [row["theta"] for row in rows] == [1e307, 5e307]
        for row in rows:
            assert row["lambda_n"] == pytest.approx(row["lambda_inf"], rel=1e-12)


class TestValidation:
    def test_bad_probability_exits_1(self, capsys):
        code, _ = run_cli(capsys, "stats", "--a", "1.5", "--b", "0.3")
        assert code == 1

    def test_regime_violation_exits_1(self, capsys):
        code, _ = run_cli(
            capsys, "pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.4", "--n", "3"
        )
        assert code == 1

    def test_missing_required_exits_1(self, capsys):
        code, _ = run_cli(capsys, "pmf", "--a", "0.1", "--b", "0.3")
        assert code == 1
        # A required option, checked by argparse, and options that are required together,
        # checked by the command itself: each ends stderr with one error line.
        for argv, message in (
            (("rate", "--a", "0.1", "--b", "0.3"),
             "tiltedsum rate: error: the following arguments are required: --x-grid/--x"),
            (("verify", "--a", "0.1"), "error: verify needs both --a and --b"),
        ):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.splitlines()[-1].startswith(message)

    def test_unknown_command_exits_1(self, capsys):
        code, _ = run_cli(capsys, "no-such-command")
        assert code == 1
        code = main(["cgf", "--bogus"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("usage: tiltedsum cgf") and "cgf: error:" in captured.err

    def test_help_exits_0(self, capsys):
        code, out = run_cli(capsys, "--help")
        assert code == 0 and out.startswith("usage: tiltedsum")

    @pytest.mark.parametrize(
        "argv",
        [
            ("figure", "--a", "0.1", "--b", "0.3", "--n-grid", ","),
            ("variance-table", "--a", "0.1", "--b", "0.3", "--n-grid", ","),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=,"),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid", ","),
            ("figure", "--a", "0.1", "--b", "0.3", "--n-grid", "5:1"),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid", "0:inf:1"),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=0:1:inf"),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=nan:1"),
            # A span or an int bound beyond float range.
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=1e308:-1e308"),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid=1e308:-1e308"),
            ("figure", "--a", "0.1", "--b", "0.3", "--n-grid", "1:" + "9" * 400),
            ("figure", "--a", "0.1", "--b", "0.3", f"--n-grid=-{'9' * 308}:{'9' * 308}"),
            # Too many parts, and a step that is not positive.
            ("figure", "--a", "0.1", "--b", "0.3", "--n-grid", "1:10:2:3"),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=0:1:0"),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid=0:0.5:-0.1"),
            # An empty value is an empty grid, not the default grid.
            ("figure", "--a", "0.1", "--b", "0.3", "--n-grid="),
            ("variance-table", "--a", "0.1", "--b", "0.3", "--n-grid="),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid="),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid="),
        ],
    )
    def test_empty_or_nonfinite_grid_exits_1(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "grid" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("figure", "--a", "0.1", "--b", "0.3", "--n-grid", "1:1000001"),
            ("variance-table", "--a", "0.1", "--b", "0.3", "--n-grid", "1:10000000000"),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=0:1:1e-300"),
        ],
    )
    def test_oversize_grid_exits_1(self, capsys, argv):
        # 10**6 + 1 points and more are refused before the list is built.
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "more than 1000000 points" in captured.err


@pytest.mark.parametrize("a, b", [("0.1", "0.3"), ("0.5", "0.5")])
@pytest.mark.parametrize("n", [10**21, 10**400], ids=["1e21", "1e400"])
def test_huge_blocklengths_end_in_an_exit_code(capsys, a, b, n):
    # Each call exits 0 with strict JSON or 1 with one error line.  Beyond float range, where
    # float(n) and n*x overflow, the blocklength check refuses every command.
    for argv in (
        ("pmf", "--distortion", "0.1", "--n"),
        ("tail", "--x", "0.1", "--n"),
        ("cgf", "--theta", "1", "--n"),
        ("variance-table", "--n-grid"),
        ("figure", "--n-grid"),
        ("simulate", "--distortion", "0.1", "--reps", "200", "--n"),
    ):
        code = main([*argv, str(n), "--a", a, "--b", b, "--format", "json"])
        captured = capsys.readouterr()
        if code == 0:
            json.loads(captured.out, parse_constant=reject_constant)
        else:
            assert code == 1 and captured.out == "", argv
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        if n > sys.float_info.max:
            assert "exceeds float range" in captured.err, argv


def fresh_python(script):
    """Stdout and stderr of ``script`` run in a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(tiltedsum.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout, done.stderr


@functools.cache
def plain_float_routes():
    """One new interpreter's report on the plain-float routes, shared by the tests below.

    It imports the package, then the CLI, then calls the generating functions, the count law
    and the oracle in turn, and records after each stage whether numpy is loaded.
    """
    script = """
import sys
before = set(sys.modules)
import tiltedsum as ts
report = {'package': 'numpy' in sys.modules}
import tiltedsum.cli
report['added'] = sorted({m.split('.')[0] for m in set(sys.modules) - before})
from tiltedsum.oracle import VERIFY_PAIRS
chain = ts.derive_chain(0.1, 0.3)
def stage(name, values):
    report[name] = [all(type(v) is float for v in values), 'numpy' in sys.modules]
stage('generating', [ts.cgf_finite(chain, 1000, 0.5), ts.occupation_log2_pgf(chain, 1000, 2.0),
                     ts.cgf_limit(chain, 0.5), *ts.centered_cumulants(chain, 1000)])
support, probs = ts.jn_law(chain, 0.1, 300)
stage('count_law', [*ts.occupation_pmf(chain, 300), *support, *probs,
                    ts.centered_tail_probability(chain, 300, 0.1),
                    ts.exact_normal_distance(chain, 300)])
stage('oracle', [*ts.enumerate_pmf(chain, 8), ts.oracle_variance(chain, 0.05, 8),
                 ts.variance_double_sum(chain, 8), *ts.ba_fixed_point_iterate(chain, 0.05),
                 ts.jtilt_generic(chain, 0.05, 1)])
report['suites'] = [all(s['pass'] for s in ts.verify_suites(VERIFY_PAIRS)), 'numpy' in sys.modules]
import json
print(json.dumps(report))
"""
    return json.loads(fresh_python(script)[0])


def test_cli_imports_only_stdlib_and_numpy():
    # Only what the import adds counts: .pth files run at interpreter start-up may load site
    # packages of their own.  numpy is not among what it adds: montecarlo, the one module that
    # needs it, is imported on first use.  Nor is any code generation or introspection module:
    # the value types are named tuples, and every annotation in the package evaluates as written.
    added = set(plain_float_routes()["added"])
    assert added - sys.stdlib_module_names == {"tiltedsum"}
    assert added & {"__future__", "dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_verify_suites_run_without_numpy():
    # The suites and every check route of oracle are plain floats.
    report = plain_float_routes()
    assert report["oracle"] == [True, False] and report["suites"] == [True, False]


CHAIN = ("--a", "0.1", "--b", "0.3")


@pytest.mark.parametrize(
    "argv, code",
    [(("paper-tables", "--format", "csv"), 0), (("verify", "--perturb", "1e-6", "--json"), 2)],
    ids=["paper-tables", "verify"],
)
def test_out_holds_exactly_stdout(tmp_path, capsys, argv, code):
    # A path in a directory that does not exist exits 3.
    check_out(tmp_path, capsys, argv, code)
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "out"))[0] == 3


@pytest.mark.parametrize(
    "argv, needs_numpy",
    [
        (("stats", *CHAIN, "--distortion", "0.05"), False),
        (("jtilt", *CHAIN, "--distortion", "0.05"), False),
        (("variance-table", *CHAIN), False),
        (("figure", *CHAIN, "--n-grid", "1:20"), False),
        (("paper-tables",), False),
        (("rate", *CHAIN, "--x-grid=-0.2,0.2"), False),
        (("cgf", *CHAIN, "--n", "1000000", "--theta-grid=-1,0,1"), False),
        (("pmf", *CHAIN, "--distortion", "0.05", "--n", "6"), False),
        (("tail", *CHAIN, "--n", "200", "--x", "0.1"), False),
        (("verify", *CHAIN), False),
        (("simulate", *CHAIN, "--distortion", "0.05", "--n", "6", "--reps", "100"), True),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else None,
)
def test_closed_form_commands_run_without_numpy(argv, needs_numpy):
    # Every format of the call exits 0; numpy is loaded only by a command
    # that needs the array modules, and simulate shows the check can tell.
    script = (
        "import sys; from tiltedsum.cli import main; "
        f"codes = [main([*{list(argv)!r}, '--format', f]) for f in ('table', 'csv', 'json')]; "
        "print(codes, 'numpy' in sys.modules, file=sys.stderr)"
    )
    out, err = fresh_python(script)
    assert out and err.splitlines()[-1] == f"[0, 0, 0] {needs_numpy}"


def test_simulate_loads_numpy_with_one_blas_thread():
    # simulate sets OPENBLAS_NUM_THREADS to 1 while it imports numpy, so OpenBLAS starts
    # no worker threads, and unsets it after; a value the caller set is kept, and other
    # commands leave the variable unset.  The thread count is read where /proc exists,
    # after the variable is gone, as OpenBLAS reads it only when it loads.  On a 1-vCPU
    # host OpenBLAS starts no workers either way, so there it cannot tell the default
    # from its absence.
    simulate = ["simulate", *CHAIN, "--distortion", "0.05", "--n", "6", "--reps", "100"]
    script = (
        "import os, sys; from tiltedsum.cli import main; "
        "os.environ.pop('OPENBLAS_NUM_THREADS', None); "
        f"main(['stats', *{CHAIN!r}]); stats = os.environ.get('OPENBLAS_NUM_THREADS'); "
        f"main({simulate!r}); sim = os.environ.get('OPENBLAS_NUM_THREADS'); "
        "status = '/proc/self/status'; "
        "threads = [line.split()[1] for line in open(status) if line.startswith('Threads:')] "
        "if os.path.exists(status) else ['absent']; "
        "print(stats, sim, *threads, file=sys.stderr)"
    )
    threads = "1" if os.path.exists("/proc/self/status") else "absent"
    assert fresh_python(script)[1].splitlines()[-1] == f"None None {threads}"
    preset = (
        "import os, sys; from tiltedsum.cli import main; "
        f"os.environ['OPENBLAS_NUM_THREADS'] = '2'; main({simulate!r}); "
        "print(os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)"
    )
    assert fresh_python(preset)[1].splitlines()[-1] == "2"


class TestLazyPackage:
    def test_public_names_resolve_to_their_home_objects(self):
        for name in tiltedsum.__all__:
            obj = getattr(tiltedsum, name)
            if hasattr(obj, "__module__"):  # functions and classes, not the constants
                assert getattr(sys.modules[obj.__module__], name) is obj
        assert tiltedsum.occupation_pmf is tiltedsum.exact.occupation_pmf
        assert tiltedsum.cgf_finite is tiltedsum.cgf.cgf_finite
        assert tiltedsum.sample_trajectory is tiltedsum.montecarlo.sample_trajectory
        assert tiltedsum.verify_suites is tiltedsum.oracle.verify_suites
        assert tiltedsum.cgf_limit_derivative is tiltedsum.oracle.cgf_limit_derivative

    def test_public_names_are_pinned(self):
        # The package derives __all__ from the modules' own lists; this is the list it must give.
        assert tiltedsum.__all__ == [
            "BAOperatingPoint", "ChainParams", "ConvergenceError", "DP_MAX_N", "ENUM_MAX_N",
            "RegimeError", "SimReport", "ba_fixed_point_iterate", "ba_operating_point",
            "binary_entropy", "centered_cumulants", "centered_tail_probability", "cgf_finite",
            "cgf_limit", "cgf_limit_derivative", "derive_chain", "enumerate_pmf",
            "exact_normal_distance", "jn_law", "jtilt", "jtilt_generic", "occupation_log2_pgf",
            "occupation_pmf", "oracle_variance", "perron_root", "rate_function",
            "saddlepoint_tail", "sample_trajectory", "simulate", "tilted_mean",
            "variance_double_sum", "variance_exact", "verify_suites",
        ]

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from tiltedsum import *", namespace)
        assert set(tiltedsum.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'tiltedsum' has no attribute 'no_such'"):
            tiltedsum.no_such  # noqa: B018

    def test_package_import_leaves_numpy_unloaded(self):
        assert plain_float_routes()["package"] is False

    def test_generating_functions_leave_numpy_unloaded(self):
        assert plain_float_routes()["generating"] == [True, False]

    def test_count_law_leaves_numpy_unloaded(self):
        assert plain_float_routes()["count_law"] == [True, False]


def is_builtin_scalar(value):
    # Exact types: a numpy scalar such as np.float64 subclasses float but is not float.
    return type(value) in (bool, int, float, str)


ROW_CALLS = [
    ("jtilt", "--distortion", "0.05"),
    ("stats", "--distortion", "0.05"),
    ("pmf", "--distortion", "0.05", "--n", "6"),
    ("variance-table",),
    ("cgf", "--n", "8", "--theta-grid=-1:1:0.5"),
    ("rate", "--x-grid=-0.1,0.1"),
    ("tail", "--n", "50", "--x", "0.1"),
    ("simulate", "--distortion", "0.05", "--n", "20", "--reps", "200", "--seed", "3"),
    ("figure", "--n-grid", "1:5"),
]


@pytest.mark.parametrize(
    "a, b, argv",
    [
        pytest.param(a, b, argv, id=f"{argv[0]}-{a}-{b}")
        for a, b in (("0.1", "0.3"), ("0.6", "0.7"), ("0.5", "0.5"))
        for argv in ROW_CALLS
        if a != b or argv[0] not in ("rate", "tail")  # a symmetric chain has no rate function
    ],
)
def test_chain_rows_hold_builtin_scalars(a, b, argv):
    # The emitter formats bool, int, float and str only; a numpy scalar
    # would reach it as a float subclass whose repr differs.
    args = cli.build_parser().parse_args([argv[0], "--a", a, "--b", b, *argv[1:]])
    handler = getattr(cli, "cmd_" + argv[0].replace("-", "_"))
    rows = handler(args, tiltedsum.derive_chain(float(a), float(b)))
    assert rows and all(is_builtin_scalar(v) for row in rows for v in row.values())


@pytest.mark.parametrize(
    "argv", [("paper-tables",), ("verify", "--a", "0.1", "--b", "0.3")], ids=lambda argv: argv[0]
)
def test_section_rows_hold_builtin_scalars(monkeypatch, argv):
    sections = {}
    monkeypatch.setattr(cli, "_emit", lambda args, found, *rest, **kw: sections.update(found))
    main(list(argv))
    rows = [row for section in sections.values() for row in section]
    assert rows and all(is_builtin_scalar(v) for row in rows for v in row.values())
