import json
import os
import subprocess
import sys

import pytest

import tiltedsum
from tiltedsum.cli import main, parse_cell, render_csv

from conftest import decimal_limit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
        target = tmp_path / "figure.csv"
        code, _ = run_cli(
            capsys, "figure", "--a", "0.1", "--b", "0.3", "--n-grid", "1:5",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("n,var_per_letter")
        assert "\r" not in text

    def test_unwritable_path(self, capsys):
        code, _ = run_cli(
            capsys, "figure", "--a", "0.1", "--b", "0.3",
            "--format", "csv", "--out", "/nonexistent-dir/f.csv",
        )
        assert code == 3


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.1", "--n", "6"),
            ("cgf", "--a", "0.1", "--b", "0.3", "--n", "32", "--theta-grid=-1:1:0.5"),
            ("rate", "--a", "0.1", "--b", "0.3", "--x-grid", "0.05:0.25:0.05"),
            ("variance-table", "--a", "0.45", "--b", "0.55", "--n-grid", "1,2,5"),
            ("tail", "--a", "0.1", "--b", "0.3", "--n", "100", "--x", "0.2"),
        ],
    )
    def test_csv_reemission_is_byte_identical(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        columns, rows = parse_csv(out)
        assert render_csv(columns, rows) == out

    @pytest.mark.parametrize(
        "argv",
        [
            ("pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.1", "--n", "4"),
            ("variance-table", "--a", "0.1", "--b", "0.3"),
            # The exact tail underflows to 0, so the ratio is infinite.
            ("tail", "--a", "0.7", "--b", "0.6", "--n", "3000", "--x", "0.119"),
        ],
    )
    def test_json_reemission_is_byte_identical(self, capsys, argv):
        def strict(name):
            raise ValueError(f"{name} is not valid JSON")

        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out, parse_constant=strict), indent=2) + "\n" == out

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

    def test_rate_columns(self, capsys):
        code, out = run_cli(
            capsys, "rate", "--a", "0.1", "--b", "0.3", "--x", "0.2", "--format", "csv"
        )
        columns, rows = parse_csv(out)
        assert columns == ["x", "theta_star", "rate"]
        assert rows[0]["rate"] > 0

    def test_stats_symmetric_chain(self, capsys):
        code, out = run_cli(
            capsys, "stats", "--a", "0.3", "--b", "0.3", "--distortion", "0.2", "--format", "csv"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["amplification"] == pytest.approx(7.0 / 3.0, rel=1e-15)

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

    def test_simulate_seeded(self, capsys):
        argv = (
            "simulate", "--a", "0.1", "--b", "0.3", "--distortion", "0.1",
            "--n", "20", "--reps", "500", "--seed", "9", "--format", "json",
        )
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second
        payload = json.loads(first)
        assert payload["rows"][0]["seed"] == 9


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

    def test_single_pair(self, capsys):
        code, out = run_cli(capsys, "verify", "--a", "0.2", "--b", "0.4")
        assert code == 0 and "ALL PASS" in out

    def test_single_pair_with_distortion(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--a", "0.2", "--b", "0.4", "--distortion", "0.15"
        )
        assert code == 0 and "ALL PASS" in out


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
            _, slope = decimal_limit(chain, row["theta_star"])
            assert abs(float(slope) - row["x"]) <= 1e-9

    def test_past_the_interval_end_exits_1(self, capsys):
        # The interval's upper end for (0.1, 0.3) is 1.1887218755408666.
        code = main(["rate", "--a", "0.1", "--b", "0.3", "--x", "1.188721875540867"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err


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

    def test_unknown_command_exits_1(self, capsys):
        code, _ = run_cli(capsys, "no-such-command")
        assert code == 1


def test_cli_imports_only_stdlib_and_numpy():
    # Only what the import adds counts: .pth files run at interpreter
    # start-up may load site packages of their own.
    script = (
        "import sys; before = set(sys.modules); import tiltedsum.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = os.path.dirname(os.path.dirname(tiltedsum.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    allowed = sys.stdlib_module_names | {"numpy", "tiltedsum"}
    assert [m for m in loaded if m not in allowed] == []
