"""Output checks for every CLI call the benchmark makes.

Each ``check_*`` function takes the call's stdout and raises
:class:`CheckError` on the first value that disagrees with an independent
reference from :mod:`reference` or breaks a property the method must
have.  Tolerances scale with the rounding the computation can accumulate
(about n*eps for an n-step product), never with today's observed error.
"""

from __future__ import annotations

import json
import math

import reference as ref
from reference import EPS, Chain

# Monte Carlo bounds are set so that a correct program fails one with
# probability at most this, whatever the seed.
FAIL_PROB = 1e-12
# Largest |theta*ell| (log2 of the tilt u) at which the eigendecomposition
# reference is used; beyond it the CGF checks are structural.
EIGEN_MAX_LOG2_U = 40.0

# The paper's published tables (three decimals) and the presentation
# tolerance the CLI's PASS/FAIL status is defined by.
PAPER_VARIANCE = {1: 0.471, 2: 0.754, 5: 1.232, 10: 1.533, 50: 1.813, "inf": 1.884}
PAPER_SOURCES = {
    "iid": (0.25, 0.75, 0.0, 0.0, 0.471, 1.0),
    "moderate-memory": (0.1, 0.3, 0.6, 0.239, 1.884, 4.0),
    "strong-memory": (0.01, 0.03, 0.96, 0.702, 23.08, 49.0),
}
PAPER_DEFICIT = 3.53
PAPER_TOL = 5e-4

# Message of the DKW check, which simulate's known ks_exact fault trips.
KS_BEYOND_DKW = "beyond the DKW bound"


class CheckError(Exception):
    """A call's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(value: float, expected: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    require(
        abs(value - expected) <= rel * abs(expected) + abs_tol,
        f"{what}: got {value!r}, reference {expected!r}",
    )


# ---------------------------------------------------------------------------
# parsing


def _strict_constant(name: str):
    raise CheckError(f"non-standard JSON constant {name}")


def parse_json(text: str):
    try:
        return json.loads(text, parse_constant=_strict_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def _cell(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_rows(text: str, fmt: str, command: str, columns: list[str]) -> list[dict]:
    """Rows of a tabular command in csv, json or the aligned table format."""
    if fmt == "json":
        payload = parse_json(text)
        require(payload.get("command") == command, f"command field {payload.get('command')!r}")
        rows = payload["rows"]
        for row in rows:
            require(list(row) == columns, f"json columns {list(row)}")
        return rows
    lines = text.rstrip("\n").split("\n")
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    require(split(lines[0]) == columns, f"header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = split(line)
        require(len(cells) == len(columns), f"row {line!r}")
        rows.append({c: _cell(v) for c, v in zip(columns, cells)})
    return rows


# ---------------------------------------------------------------------------
# exact laws


def check_pmf(chain: Chain, d: float, n: int, fmt: str, text: str) -> None:
    rows = parse_rows(text, fmt, "pmf", ["m", "prob", "j_value"])
    require([r["m"] for r in rows] == list(range(n + 1)), "atoms are not m = 0..n")
    probs = [float(r["prob"]) for r in rows]
    require(min(probs) >= 0.0, "negative probability")
    tol = 8.0 * (n + 1) * EPS
    total = math.fsum(probs)
    close(total, 1.0, tol, "sum of probabilities")
    mean = math.fsum(p * m for m, p in enumerate(probs)) / total
    close(mean, n * chain.pi1, tol, "mean count")
    var = chain.ell**2 * math.fsum(p * (m - mean) ** 2 for m, p in enumerate(probs)) / total
    if n <= 32:
        close(var, ref.variance_exact_small(chain, n), tol, "variance (exact rational)")
        for m, (p, exact) in enumerate(zip(probs, ref.count_law_exact(chain.a, chain.b, n))):
            close(p, float(exact), 16.0 * (n + 1) * EPS, f"Pr(N={m}) (exact rational)")
    else:
        close(var, ref.variance_double_sum(chain, n), tol, "variance (double sum)")
    offset = n * (-math.log2(chain.pi0) - ref.h2(d))
    for m, row in enumerate(rows):
        scale = n * (abs(math.log2(chain.pi0)) + ref.h2(d)) + abs(chain.ell) * m
        close(row["j_value"], offset - chain.ell * m, 0.0, f"j_value at m={m}", 8.0 * EPS * scale)


def check_rate_point(chain: Chain, x: float, theta: float, rate: float) -> None:
    require(rate >= 0.0, f"negative rate {rate!r} at x={x!r}")
    slope, _ = ref.cgf_limit_derivatives(chain, theta)
    close(slope, x, 0.0, f"L'(theta*) at x={x!r}", 1e-9 * max(1.0, abs(x)))
    legendre = theta * x - ref.cgf_limit(chain, theta)
    close(rate, legendre, 0.0, f"I(x) = theta*x - L(theta*) at x={x!r}", 1e-9 * max(1.0, abs(theta * x)))


def check_tail(chain: Chain, n: int, x: float, fmt: str, text: str) -> None:
    columns = ["n", "x", "theta_star", "rate", "saddlepoint", "exact", "ratio", "near_gaussian"]
    (row,) = parse_rows(text, fmt, "tail", columns)
    require(row["n"] == n and row["x"] == x, f"echoed n, x = {row['n']!r}, {row['x']!r}")
    law = ref.count_law_powered(chain.a, chain.b, n)
    atoms = [-chain.ell * (m - n * chain.pi1) for m in range(n + 1)]
    exact = math.fsum(p for p, atom in zip(law, atoms) if atom >= n * x)
    close(row["exact"], exact, 1e-9, "exact tail")
    check_rate_point(chain, x, row["theta_star"], row["rate"])
    estimate = ref.saddlepoint(chain, n, x, row["theta_star"], row["rate"])
    close(row["saddlepoint"], estimate, 1e-7, "saddlepoint estimate")
    close(row["ratio"], row["saddlepoint"] / row["exact"], 4.0 * EPS, "ratio")
    near = abs(row["theta_star"]) < 0.05
    require(row["near_gaussian"] in (near, int(near)), f"near_gaussian {row['near_gaussian']!r}")


def check_variance_table(chain: Chain, grid: list[int], text: str) -> None:
    rows = parse_rows(text, "csv", "variance-table", ["n", "var_total", "var_per_letter"])
    require([r["n"] for r in rows[:-1]] == grid, "blocklengths differ from the grid")
    for row in rows[:-1]:
        n = row["n"]
        close(row["var_total"], ref.variance_double_sum(chain, n), 1e-11, f"var_total at n={n}")
        close(row["var_per_letter"], row["var_total"] / n, 2.0 * EPS, f"var_per_letter at n={n}")
    limit = rows[-1]
    require(limit["n"] == math.inf and limit["var_total"] == math.inf, "limit row is not n=inf")
    close(limit["var_per_letter"], chain.v_sl, 1e-12, "limit row v_sl")


def check_figure(chain: Chain, grid: list[int], text: str) -> None:
    rows = parse_rows(text, "csv", "figure", ["n", "var_per_letter", "v_sl", "v_iid"])
    require([r["n"] for r in rows] == grid, "blocklengths differ from the grid")
    for row in rows:
        n = row["n"]
        close(row["var_per_letter"], ref.variance_double_sum(chain, n) / n, 1e-11, f"var_per_letter at n={n}")
        close(row["v_sl"], chain.v_sl, 1e-12, "v_sl")
        close(row["v_iid"], chain.v_iid, 1e-12, "v_iid")


# ---------------------------------------------------------------------------
# cumulant generating functions and rates


def _check_convex_in_range(chain: Chain, thetas, values, errors, what: str) -> None:
    """Chord slopes lie in the achievable range and do not decrease."""
    lo, hi = chain.slope_range()
    prev_slope, prev_tol = -math.inf, 0.0
    for i in range(len(thetas) - 1):
        width = thetas[i + 1] - thetas[i]
        slope = (values[i + 1] - values[i]) / width
        tol = (errors[i] + errors[i + 1]) / width + 8.0 * EPS * max(abs(lo), abs(hi))
        require(lo - tol <= slope <= hi + tol, f"{what} chord slope {slope!r} outside [{lo!r}, {hi!r}]")
        require(slope >= prev_slope - tol - prev_tol, f"{what} not convex near theta={thetas[i]!r}")
        prev_slope, prev_tol = slope, tol


def check_cgf(chain: Chain, n: int, thetas: list[float], fmt: str, text: str) -> None:
    """``thetas`` must be sorted."""
    rows = parse_rows(text, fmt, "cgf", ["theta", "lambda_n", "lambda_inf"])
    require([r["theta"] for r in rows] == thetas, "theta values differ from the grid")
    err_n, err_inf = [], []
    for row in rows:
        theta, lam_n, lam_inf = row["theta"], row["lambda_n"], row["lambda_inf"]
        log2_u = abs(theta * chain.ell)
        err_n.append(32.0 * n * EPS * (1.0 + abs(lam_n) + log2_u))
        err_inf.append(64.0 * EPS * (1.0 + abs(lam_inf) + log2_u))
        if theta == 0.0:
            close(lam_n, 0.0, 0.0, "lambda_n(0)", 1e-12)
            close(lam_inf, 0.0, 0.0, "lambda_inf(0)", 1e-12)
        if log2_u <= EIGEN_MAX_LOG2_U:
            close(lam_inf, ref.cgf_limit(chain, theta), 0.0, f"lambda_inf({theta!r})", err_inf[-1])
            close(lam_n, ref.cgf_finite(chain, n, theta), 0.0, f"lambda_n({theta!r})", err_n[-1])
    _check_convex_in_range(chain, thetas, [r["lambda_n"] for r in rows], err_n, "lambda_n")
    _check_convex_in_range(chain, thetas, [r["lambda_inf"] for r in rows], err_inf, "lambda_inf")


def check_rate(chain: Chain, xs: list[float], fmt: str, text: str) -> None:
    rows = parse_rows(text, fmt, "rate", ["x", "theta_star", "rate"])
    require([r["x"] for r in rows] == xs, "x values differ from the grid")
    for row in rows:
        check_rate_point(chain, row["x"], row["theta_star"], row["rate"])


# ---------------------------------------------------------------------------
# Monte Carlo


def check_simulate(chain: Chain, d: float, n: int, reps: int, seed: int, fmt: str, text: str) -> None:
    columns = ["n", "replications", "seed", "emp_mean", "emp_var", "emp_var_per_letter", "ks_exact", "ks_normal"]
    (row,) = parse_rows(text, fmt, "simulate", columns)
    require((row["n"], row["replications"], row["seed"]) == (n, reps, seed), "echoed n, reps, seed")
    mean = n * (ref.h2(chain.pi1) - ref.h2(d))
    var = ref.variance_double_sum(chain, n)
    spread = n * abs(chain.ell) * max(chain.pi0, chain.pi1)
    halfwidth = ref.bernstein_halfwidth(var, spread, reps, FAIL_PROB)
    close(row["emp_mean"], mean, 1e-12, "emp_mean (Bernstein bound)", halfwidth)
    require(0.0 <= row["ks_normal"] <= 1.0, f"ks_normal {row['ks_normal']!r}")
    require(row["emp_var"] > 0.0, f"emp_var {row['emp_var']!r}")
    close(row["emp_var_per_letter"], row["emp_var"] / n, 2.0 * EPS, "emp_var_per_letter")
    require(0.0 <= row["ks_exact"] <= ref.dkw_halfwidth(reps, FAIL_PROB), f"ks_exact {row['ks_exact']!r} {KS_BEYOND_DKW}")


# ---------------------------------------------------------------------------
# summaries, golden tables and self-certification


def check_stats(chain: Chain, d: float, text: str) -> None:
    columns = ["a", "b", "pi0", "pi1", "lambda2", "ell", "h_rate", "gap", "v_iid", "v_sl",
               "amplification", "mu_d", "beta", "q0", "q1"]
    (row,) = parse_rows(text, "table", "stats", columns)
    h_rate = chain.pi0 * ref.h2(chain.a) + chain.pi1 * ref.h2(chain.b)
    expected = {
        "a": chain.a,
        "b": chain.b,
        "pi0": chain.pi0,
        "pi1": chain.pi1,
        "lambda2": chain.lam,
        "ell": chain.ell,
        "h_rate": h_rate,
        "gap": ref.h2(chain.pi1) - h_rate,
        "v_iid": chain.v_iid,
        "v_sl": chain.v_sl,
        "amplification": (1.0 + chain.lam) / (1.0 - chain.lam),
        "mu_d": ref.h2(chain.pi1) - ref.h2(d),
        "beta": math.log((1.0 - d) / d),
        "q0": (chain.pi0 - d) / (1.0 - 2.0 * d),
        "q1": (chain.pi1 - d) / (1.0 - 2.0 * d),
    }
    for name, value in expected.items():  # the table prints 10 significant digits
        close(row[name], value, 1e-9, name, 1e-12)


def check_jtilt(chain: Chain, d: float, text: str) -> None:
    rows = parse_rows(text, "table", "jtilt", ["x", "j_value"])
    require([r["x"] for r in rows] == [0, 1], "states are not 0, 1")
    for row in rows:
        close(row["j_value"], ref.jtilt(chain, d, row["x"]), 1e-9, f"j_value of state {row['x']}")


def _paper_status(ok: bool, row: dict, what: str) -> None:
    require(row["status"] == ("PASS" if ok else "FAIL"), f"{what} status {row['status']!r}")


def check_paper_tables(text: str) -> None:
    payload = parse_json(text)
    chain = Chain(0.1, 0.3)
    rows = payload["variance_table"]
    require([r["n"] for r in rows] == list(PAPER_VARIANCE), "variance table blocklengths")
    for row in rows:
        n = row["n"]
        value = chain.v_sl if n == "inf" else ref.variance_double_sum(chain, n) / n
        close(row["var_per_letter"], value, 1e-12, f"per-letter variance at n={n}")
        require(row["golden"] == PAPER_VARIANCE[n], f"golden at n={n}")
        _paper_status(abs(value - PAPER_VARIANCE[n]) <= PAPER_TOL, row, f"n={n}")
    require([r["source"] for r in payload["sources"]] == list(PAPER_SOURCES), "source labels")
    for row in payload["sources"]:
        a, b, lam, gap, v_sl, amp = PAPER_SOURCES[row["source"]]
        src = Chain(a, b)
        h_rate = src.pi0 * ref.h2(a) + src.pi1 * ref.h2(b)
        computed = {
            "lambda2": src.lam,
            "gap": ref.h2(src.pi1) - h_rate,
            "v_sl": src.v_sl,
            "amplification": (1.0 + src.lam) / (1.0 - src.lam),
        }
        for name, value in computed.items():
            close(row[name], value, 1e-12, f"{row['source']} {name}", 1e-15)
        ok = (
            abs(computed["lambda2"] - lam) <= PAPER_TOL
            and abs(computed["gap"] - gap) <= PAPER_TOL
            and abs(computed["v_sl"] - v_sl) <= PAPER_TOL
            and abs(computed["amplification"] - amp) <= 1e-9
        )
        _paper_status(ok, row, row["source"])
    (row,) = payload["constants"]
    deficit = 2.0 * chain.v_iid * chain.lam / (1.0 - chain.lam) ** 2
    close(row["value"], deficit, 1e-12, "variance deficit constant")
    _paper_status(abs(deficit - PAPER_DEFICIT) <= 5e-3, row, "deficit constant")
    require(payload["pass"] is True, "paper-tables verdict")


def verify_case_counts(pairs, d_grid) -> dict:
    """Case count of each verify suite, in suite order, from its definition."""
    asym = [Chain(a, b) for a, b in pairs if a != b]
    return {
        "oracle-pmf-tv": 12 * len(pairs),  # n = 1..12
        "variance-forms": 5 * len(pairs),  # five blocklengths
        "oracle-variance": sum(10 for ch in asym for d in d_grid if 0.0 < d < min(ch.pi0, ch.pi1)),
        "pgf-pmf": 15 * len(pairs),  # five blocklengths, three u
        "cgf-zeros": 6 * len(pairs),  # two limit zeros, four blocklengths
        "cgf-expectation": 12 * len(asym),  # three blocklengths, four tilts
        "d-invariance": len(pairs),
    }


def check_verify(pairs, d_grid, text: str) -> None:
    payload = parse_json(text)
    require(payload["command"] == "verify" and payload["perturb"] == 0.0, "verify header")
    suites = payload["suites"]
    counts = verify_case_counts(pairs, d_grid)
    require([s["name"] for s in suites] == list(counts), "verify suite names")
    for suite in suites:
        name = suite["name"]
        require(suite["cases"] == counts[name], f"{name}: {suite['cases']} cases, expected {counts[name]}")
        require(0.0 <= suite["max_deviation"] <= suite["tolerance"], f"{name}: deviation {suite['max_deviation']!r}")
        require(suite["pass"] is True, f"{name}: verdict")
    require(payload["pass"] is True, "verify verdict")
