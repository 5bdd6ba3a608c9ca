"""Self-test of the benchmark's output checks.

Every check must accept the program's real output and reject a slightly
perturbed copy of it.  Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tiltedsum import cli  # noqa: E402
from workloads import script  # noqa: E402

SEED = 7


def calls_of(workload: str, command: str):
    return [call for call in script(workload, SEED) if call.argv[0] == command]


def output(call) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(call.argv)) == 0, call.argv
    return out.getvalue()


def edit_rows(text: str, fmt: str, row: int, column: str, change) -> str:
    """Copy of a tabular output with one cell replaced by change(cell)."""
    if fmt == "json":
        payload = json.loads(text)
        payload["rows"][row][column] = change(payload["rows"][row][column])
        return json.dumps(payload, indent=2) + "\n"
    lines = text.rstrip("\n").split("\n")
    sep = "," if fmt == "csv" else "  "
    header = lines[0].split(",") if fmt == "csv" else lines[0].split()
    cells = lines[row + 1].split(",") if fmt == "csv" else lines[row + 1].split()
    col = header.index(column)
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = sep.join(cells)
    return "\n".join(lines) + "\n"


def edit_json(text: str, change) -> str:
    payload = json.loads(text)
    change(payload)
    return json.dumps(payload, indent=2) + "\n"


def scale(factor):
    return lambda v: v * factor


def shift(delta):
    return lambda v: v + delta


class CheckCase(unittest.TestCase):
    def assert_rejects(self, call, text: str, fragment: str):
        with self.assertRaises(checks.CheckError) as caught:
            call.check(text)
        self.assertIn(fragment, str(caught.exception))

    def accepted(self, call) -> str:
        text = output(call)
        call.check(text)
        return text


class TestPmf(CheckCase):
    def test_large_n(self):
        call = calls_of("exact-pmf", "pmf")[2]  # n = 2048, csv
        text = self.accepted(call)
        probs = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
        mode = probs.index(max(probs))
        self.assert_rejects(call, edit_rows(text, "csv", mode, "prob", scale(1 + 1e-6)), "sum of probabilities")
        moved = 1e-6 * probs[mode]
        mean_shift = edit_rows(text, "csv", mode, "prob", shift(-moved))
        mean_shift = edit_rows(mean_shift, "csv", mode + 1, "prob", shift(moved))
        self.assert_rejects(call, mean_shift, "mean count")
        wider = edit_rows(text, "csv", mode, "prob", shift(-2 * moved))
        wider = edit_rows(wider, "csv", mode - 1, "prob", shift(moved))
        wider = edit_rows(wider, "csv", mode + 1, "prob", shift(moved))
        self.assert_rejects(call, wider, "variance (double sum)")
        self.assert_rejects(call, edit_rows(text, "csv", mode, "j_value", scale(1 + 1e-9)), "j_value")

    def test_small_n_exact(self):
        call = calls_of("exact-pmf", "pmf")[4]  # n = 24, json
        text = self.accepted(call)
        self.assert_rejects(call, edit_rows(text, "json", 3, "prob", scale(1 + 1e-9)), "sum of probabilities")
        # Moving mass three atoms out and back keeps the sum; the exact law
        # and the exact variance still see it.
        moved = 1e-9
        swapped = edit_rows(text, "json", 10, "prob", shift(-moved))
        swapped = edit_rows(swapped, "json", 11, "prob", shift(moved))
        swapped = edit_rows(swapped, "json", 12, "prob", shift(moved))
        swapped = edit_rows(swapped, "json", 13, "prob", shift(-moved))
        self.assert_rejects(call, swapped, "exact rational")

    def test_rejects_nonstandard_json(self):
        call = calls_of("exact-pmf", "pmf")[4]
        text = self.accepted(call)
        self.assert_rejects(call, text.replace('"prob": 0', '"prob": Infinity', 1), "non-standard JSON")


class TestTail(CheckCase):
    def test_fields(self):
        call = calls_of("exact-pmf", "tail")[0]  # json
        text = self.accepted(call)
        self.assert_rejects(call, edit_rows(text, "json", 0, "exact", scale(1 + 1e-6)), "exact tail")
        self.assert_rejects(call, edit_rows(text, "json", 0, "saddlepoint", scale(1 + 1e-5)), "saddlepoint")
        self.assert_rejects(call, edit_rows(text, "json", 0, "rate", shift(1e-7)), "I(x)")
        self.assert_rejects(call, edit_rows(text, "json", 0, "theta_star", scale(1 + 1e-4)), "L'(theta*)")
        self.assert_rejects(call, edit_rows(text, "json", 0, "ratio", scale(1 + 1e-12)), "ratio")


class TestCgf(CheckCase):
    def test_eigen_and_structure(self):
        call = calls_of("cgf-rate", "cgf")[1]  # n = 1e5, 15 moderate and 3+3 saturated tilts
        text = self.accepted(call)
        rows = json.loads(text)["rows"]
        zero = next(i for i, r in enumerate(rows) if r["theta"] == 0.0)
        moderate = zero + 1
        self.assert_rejects(call, edit_rows(text, "json", zero, "lambda_n", shift(1e-9)), "lambda_n(0)")
        self.assert_rejects(call, edit_rows(text, "json", moderate, "lambda_inf", shift(1e-9)), "lambda_inf(")
        self.assert_rejects(call, edit_rows(text, "json", moderate, "lambda_n", shift(1e-6)), "lambda_n(")
        # The middle one of three saturated tilts, moved either way, bends the
        # curve or pushes a chord slope outside the achievable range.
        for row in (1, len(rows) - 2):
            for sign in (1.0, -1.0):
                bent = edit_rows(text, "json", row, "lambda_n", lambda v: v + sign * 1e-6 * abs(v))
                self.assert_rejects(call, bent, "lambda_n")


class TestRate(CheckCase):
    def test_points(self):
        call = calls_of("cgf-rate", "rate")[0]  # csv
        text = self.accepted(call)
        self.assert_rejects(call, edit_rows(text, "csv", 300, "rate", shift(1e-7)), "I(x)")
        self.assert_rejects(call, edit_rows(text, "csv", 300, "theta_star", scale(1 + 1e-4)), "L'(theta*)")
        self.assert_rejects(call, edit_rows(text, "csv", 0, "rate", lambda v: -1e-12), "negative rate")


class TestSimulate(CheckCase):
    def test_long_paths(self):
        call = calls_of("monte-carlo", "simulate")[2]  # csv, passes today
        text = self.accepted(call)
        self.assert_rejects(call, edit_rows(text, "csv", 0, "emp_mean", scale(1.01)), "Bernstein")
        bound = ref.dkw_halfwidth(8192, checks.FAIL_PROB)
        self.assert_rejects(call, edit_rows(text, "csv", 0, "ks_exact", lambda v: 1.01 * bound), "DKW")
        self.assert_rejects(call, edit_rows(text, "csv", 0, "emp_var_per_letter", scale(1 + 1e-12)), "emp_var_per_letter")

    def test_known_fault_is_the_only_failure(self):
        call = calls_of("monte-carlo", "simulate")[0]
        self.assertTrue(call.known_fault)
        self.assert_rejects(call, output(call), call.known_fault)


class TestShortCalls(CheckCase):
    def test_stats_and_jtilt(self):
        stats = calls_of("short-calls", "stats")[0]
        text = self.accepted(stats)
        self.assert_rejects(stats, edit_rows(text, "table", 0, "gap", scale(1 + 1e-6)), "gap")
        jtilt = calls_of("short-calls", "jtilt")[0]
        text = self.accepted(jtilt)
        self.assert_rejects(jtilt, edit_rows(text, "table", 1, "j_value", scale(1 + 1e-6)), "j_value")

    def test_variance_table_and_figure(self):
        table = calls_of("short-calls", "variance-table")[0]
        text = self.accepted(table)
        self.assert_rejects(table, edit_rows(text, "csv", 6, "var_total", scale(1 + 1e-9)), "var_total")
        self.assert_rejects(table, edit_rows(text, "csv", 7, "var_per_letter", scale(1 + 1e-9)), "v_sl")
        figure = calls_of("short-calls", "figure")[0]
        text = self.accepted(figure)
        self.assert_rejects(figure, edit_rows(text, "csv", 99, "var_per_letter", scale(1 + 1e-9)), "var_per_letter")

    def test_paper_tables(self):
        call = calls_of("short-calls", "paper-tables")[0]
        text = self.accepted(call)

        def bump_n10(p):
            p["variance_table"][3]["var_per_letter"] += 1e-9

        def flip_status(p):
            p["sources"][1]["status"] = "FAIL"

        def bump_gap(p):
            p["sources"][2]["gap"] *= 1 + 1e-9

        self.assert_rejects(call, edit_json(text, bump_n10), "n=10")
        self.assert_rejects(call, edit_json(text, flip_status), "status")
        self.assert_rejects(call, edit_json(text, bump_gap), "gap")

    def test_verify(self):
        for call in calls_of("short-calls", "verify"):
            text = self.accepted(call)

            def more_cases(p):
                p["suites"][2]["cases"] += 1

            def over_tolerance(p):
                p["suites"][0]["max_deviation"] = 1.01 * p["suites"][0]["tolerance"]

            self.assert_rejects(call, edit_json(text, more_cases), "cases")
            self.assert_rejects(call, edit_json(text, over_tolerance), "deviation")


if __name__ == "__main__":
    unittest.main()
