"""Command-line interface: tables, CSV/JSON emission, and run-time verification.

Machine-readable output is deterministic: floats are written with their
shortest round-trip representation, CSV uses LF line endings and a ``.``
decimal separator, and re-emitting a parsed file reproduces it byte for
byte.  Infinite values are written as the string ``inf``, which keeps the
JSON valid: the limit row's ``n`` and ``var_total`` in ``variance-table``,
and ``tail``'s ``ratio`` when the exact tail is 0.  Exit
codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import (
    ba_operating_point,
    binary_entropy,
    centered_cumulants,
    centered_tail_probability,
    cgf_curve,
    cgf_finite,
    cgf_limit,
    derive_chain,
    enumerate_pmf,
    jn_law,
    jtilt,
    occupation_pgf,
    occupation_pmf,
    oracle_variance,
    perron_root,
    rate_function,
    saddlepoint_tail,
    simulate,
    tilted_stats,
    variance_correction,
    variance_exact,
)
from .errors import RegimeError

DEFAULT_SEED = 20250809

# Golden reference values for the paper-tables command, quoted to three
# decimals; the pass tolerance is half an ULP of that presentation.  The
# "inf" row of the variance table is the limit V_sl.
GOLDEN_TOL = 5e-4
GOLDEN_VARIANCE_TABLE = {1: 0.471, 2: 0.754, 5: 1.232, 10: 1.533, 50: 1.813, "inf": 1.884}
GOLDEN_SOURCES = [
    # label, a, b, lambda2, gap, v_sl, amplification
    ("iid", 0.25, 0.75, 0.0, 0.0, 0.471, 1.0),
    ("moderate-memory", 0.1, 0.3, 0.6, 0.239, 1.884, 4.0),
    ("strong-memory", 0.01, 0.03, 0.96, 0.702, 23.08, 49.0),
]
AMPLIFICATION_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_grid(text: str, cast=float) -> list:
    """Parse 'start:stop[:step]' (stop inclusive) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"grid {text!r} must be start:stop[:step]")
        start, stop = cast(parts[0]), cast(parts[1])
        step = cast(parts[2]) if len(parts) == 3 else cast(1)
        if step <= 0:
            raise ValueError(f"grid step must be positive in {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"empty grid {text!r}")
        values = [start + k * step for k in range(count)]
        return [cast(round(v)) if cast is int else v for v in values]
    return [cast(tok) for tok in text.split(",") if tok]


def _format_value(v) -> str:
    """Shortest round-trip text for a cell (ints bare, floats via repr)."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def parse_cell(text: str):
    """Inverse of _format_value: int if bare digits, float if numeric, else str."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def render_csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(command: str, columns: list[str], rows: list[dict]) -> str:
    return _dump_json({"command": command, "rows": _json_rows(columns, rows)})


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _json_rows(columns: list[str], rows: list[dict]) -> list[dict]:
    return [{c: _json_value(row[c]) for c in columns} for row in rows]


def _json_value(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def render_table(columns: list[str], rows: list[dict], decimals: int | None = None) -> str:
    def show(v):
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.{decimals}f}" if decimals is not None else f"{float(v):.10g}"
        return _format_value(v)

    cells = [[show(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


def _write(args, text: str) -> None:
    """Write a command's whole output to ``--out`` (LF line endings) or stdout."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, command: str, columns: list[str], rows: list[dict]) -> None:
    if args.format == "csv":
        text = render_csv(columns, rows)
    elif args.format == "json":
        text = render_json(command, columns, rows)
    else:
        text = render_table(columns, rows)
    _write(args, text)


# ---------------------------------------------------------------------------
# commands


def cmd_jtilt(args) -> int:
    chain = derive_chain(args.a, args.b)
    rows = [
        {"x": x, "j_value": jtilt(chain, args.distortion, x)} for x in (0, 1)
    ]
    _emit(args, "jtilt", ["x", "j_value"], rows)
    return 0


def cmd_stats(args) -> int:
    chain = derive_chain(args.a, args.b)
    row = {
        "a": chain.a,
        "b": chain.b,
        "pi0": chain.pi0,
        "pi1": chain.pi1,
        "lambda2": chain.lambda2,
        "ell": chain.ell,
    }
    # The per-letter summary needs a distortion only for mu_d and beta; the
    # gap and the variances are distortion-free.
    probe_d = args.distortion if args.distortion is not None else min(chain.pi0, chain.pi1) / 2
    stats = tilted_stats(chain, probe_d)
    row.update(
        h_rate=stats.h_rate,
        gap=stats.gap,
        v_iid=stats.v_iid,
        v_sl=stats.v_sl,
        amplification=stats.amplification,
    )
    if args.distortion is not None:
        point = ba_operating_point(chain, args.distortion)
        row.update(mu_d=stats.mu_d, beta=point.beta, q0=point.q0, q1=point.q1)
    _emit(args, "stats", list(row), [row])
    return 0


def cmd_pmf(args) -> int:
    law = jn_law(derive_chain(args.a, args.b), args.distortion, args.n)
    rows = [
        {"m": m, "prob": float(p), "j_value": float(j)}
        for m, (p, j) in enumerate(zip(law.probs, law.support))
    ]
    _emit(args, "pmf", ["m", "prob", "j_value"], rows)
    return 0


def cmd_variance_table(args) -> int:
    chain = derive_chain(args.a, args.b)
    grid = _parse_grid(args.n_grid, int) if args.n_grid else [1, 2, 5, 10, 50]
    rows = []
    for n in grid:
        total = variance_exact(chain, n)
        rows.append({"n": n, "var_total": total, "var_per_letter": total / n})
    # "inf" rather than a float: JSON has no literal for infinity.
    rows.append({"n": "inf", "var_total": "inf", "var_per_letter": chain.v_sl})
    _emit(args, "variance-table", ["n", "var_total", "var_per_letter"], rows)
    return 0


def cmd_cgf(args) -> int:
    chain = derive_chain(args.a, args.b)
    if args.theta is not None:
        thetas = [args.theta]
    else:
        thetas = _parse_grid(args.theta_grid or "-2:2:0.25", float)
    curve = cgf_curve(chain, args.n, thetas)
    rows = [
        {"theta": float(t), "lambda_n": float(ln), "lambda_inf": float(li)}
        for t, ln, li in zip(curve.thetas, curve.lambda_n, curve.lambda_inf)
    ]
    _emit(args, "cgf", ["theta", "lambda_n", "lambda_inf"], rows)
    return 0


def cmd_rate(args) -> int:
    chain = derive_chain(args.a, args.b)
    if args.x is not None:
        xs = [args.x]
    elif args.x_grid:
        xs = _parse_grid(args.x_grid, float)
    else:
        raise ValueError("rate requires --x or --x-grid")
    rows = []
    for x in xs:
        point = rate_function(chain, x)
        rows.append({"x": point.x, "theta_star": point.theta_star, "rate": point.rate})
    _emit(args, "rate", ["x", "theta_star", "rate"], rows)
    return 0


def cmd_tail(args) -> int:
    chain = derive_chain(args.a, args.b)
    estimate = saddlepoint_tail(chain, args.n, args.x)
    exact = centered_tail_probability(chain, args.n, args.x)
    row = {
        "n": args.n,
        "x": args.x,
        "theta_star": estimate.theta_star,
        "rate": estimate.rate,
        "saddlepoint": estimate.probability,
        "exact": exact,
        "ratio": estimate.probability / exact if exact > 0 else "inf",
        "near_gaussian": estimate.near_gaussian,
    }
    _emit(args, "tail", list(row), [row])
    return 0


def cmd_simulate(args) -> int:
    chain = derive_chain(args.a, args.b)
    report = simulate(chain, args.distortion, args.n, args.reps, args.seed)
    row = {
        "n": report.n,
        "replications": report.replications,
        "seed": report.seed,
        "emp_mean": report.emp_mean,
        "emp_var": report.emp_var,
        "emp_var_per_letter": report.emp_var / report.n,
        "ks_exact": report.ks_exact,
        "ks_normal": report.ks_normal,
    }
    _emit(args, "simulate", list(row), [row])
    return 0


def cmd_figure(args) -> int:
    chain = derive_chain(args.a, args.b)
    grid = _parse_grid(args.n_grid, int) if args.n_grid else list(range(1, 201))
    stats = tilted_stats(chain, min(chain.pi0, chain.pi1) / 2)
    rows = [
        {
            "n": n,
            "var_per_letter": variance_exact(chain, n) / n,
            "v_sl": stats.v_sl,
            "v_iid": stats.v_iid,
        }
        for n in grid
    ]
    _emit(args, "figure", ["n", "var_per_letter", "v_sl", "v_iid"], rows)
    return 0


def _status(*checks) -> str:
    """PASS when every (value, golden, tolerance) triple agrees, else FAIL."""
    return "PASS" if all(abs(value - golden) <= tol for value, golden, tol in checks) else "FAIL"


def cmd_paper_tables(args) -> int:
    chain = derive_chain(0.1, 0.3)
    var_rows = []
    for n, golden in GOLDEN_VARIANCE_TABLE.items():
        value = chain.v_sl if n == "inf" else variance_exact(chain, n) / n
        var_rows.append(
            {"n": n, "var_per_letter": value, "golden": golden,
             "status": _status((value, golden, GOLDEN_TOL))}
        )

    source_rows = []
    tolerances = (GOLDEN_TOL, GOLDEN_TOL, GOLDEN_TOL, AMPLIFICATION_TOL)
    for label, a, b, *goldens in GOLDEN_SOURCES:
        ch = derive_chain(a, b)
        stats = tilted_stats(ch, min(ch.pi0, ch.pi1) / 2)
        values = (ch.lambda2, stats.gap, stats.v_sl, stats.amplification)
        source_rows.append(
            {"source": label, "a": a, "b": b,
             **dict(zip(("lambda2", "gap", "v_sl", "amplification"), values)),
             "status": _status(*zip(values, goldens, tolerances))}
        )

    correction = variance_correction(chain, 1).constant
    constant_rows = [
        {"quantity": "variance_deficit_constant", "value": correction, "golden": 3.53,
         "status": _status((correction, 3.53, 5e-3))}
    ]

    sections = [
        ("variance_table", "Per-letter variance, chain a=0.1 b=0.3", var_rows),
        ("sources", "Same marginal, different dynamics (pi1 = 1/4)", source_rows),
        ("constants", "Finite-n variance deficit constant", constant_rows),
    ]
    failures = sum(row["status"] == "FAIL" for _, _, rows in sections for row in rows)
    if args.format == "json":
        tables = {key: _json_rows(list(rows[0]), rows) for key, _, rows in sections}
        text = _dump_json({"command": "paper-tables", **tables, "pass": failures == 0})
    elif args.format == "csv":
        text = "".join(render_csv(list(rows[0]), rows) for _, _, rows in sections)
    else:
        text = "\n".join(
            f"{title}\n" + render_table(list(rows[0]), rows, decimals=3)
            for _, title, rows in sections
        )
    _write(args, text)
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# verify: each check yields one deviation per case for one chain


VERIFY_PAIRS = [(0.1, 0.3), (0.3, 0.1), (0.25, 0.75), (0.6, 0.7), (0.45, 0.35), (0.5, 0.5)]
VERIFY_D_GRID = (0.05, 0.1, 0.2)


def _oracle_pmf_tv(chain, d_grid, perturb):
    for n in range(1, 13):
        yield 0.5 * float(
            np.abs(enumerate_pmf(chain, n, u_values=()).pmf - occupation_pmf(chain, n).probs).sum()
        )


def _variance_forms(chain, d_grid, perturb):
    for n in (1, 2, 10, 100, 10_000):
        double = variance_exact(chain, n, "double_sum")
        closed = variance_exact(chain, n, "closed_form") * (1.0 + perturb)
        yield abs(double - closed) / max(abs(double), 1e-30)


def _oracle_variance(chain, d_grid, perturb):
    if chain.a == chain.b:
        return
    for d in d_grid:
        if not 0.0 < d < min(chain.pi0, chain.pi1):
            continue
        for n in range(1, 11):
            per_path = oracle_variance(chain, d, n)
            closed = variance_exact(chain, n) * (1.0 + perturb)
            yield abs(per_path - closed) / max(abs(closed), 1e-30)


def _pgf_pmf(chain, d_grid, perturb):
    for n in (1, 2, 10, 50, 200):
        pmf = occupation_pmf(chain, n)
        powers = np.arange(n + 1)
        for u in (0.5, 1.0, 2.0):
            direct = float(pmf.probs @ (u**powers))
            yield abs(occupation_pgf(chain, n, u) - direct) / direct


def _cgf_zeros(chain, d_grid, perturb):
    yield abs(perron_root(chain, 1.0) - 1.0)
    yield abs(cgf_limit(chain, 0.0))
    for n in (1, 4, 16, 200):
        yield abs(cgf_finite(chain, n, 0.0))


def _cgf_expectation(chain, d_grid, perturb):
    if chain.a == chain.b:
        return
    d = min(chain.pi0, chain.pi1) / 2
    mu = tilted_stats(chain, d).mu_d
    for n in (1, 4, 16):
        law = jn_law(chain, d, n)
        centered = law.support - n * mu
        for theta in (-1.0, -0.3, 0.3, 1.0):
            direct = math.log2(float(law.probs @ np.exp2(theta * centered))) / n
            yield abs(cgf_finite(chain, n, theta) - direct)


def _d_invariance(chain, d_grid, perturb):
    """One case per chain: cumulants and atom shifts between two distortions."""
    d_lo, d_hi = 0.05, 0.2
    if not d_hi < min(chain.pi0, chain.pi1):
        d_lo, d_hi = min(chain.pi0, chain.pi1) / 4, min(chain.pi0, chain.pi1) / 2
    n = 20
    k_lo = centered_cumulants(chain, d_lo, n)
    k_hi = centered_cumulants(chain, d_hi, n)
    scale = np.maximum(np.abs(k_lo), 1.0)
    shift = n * (binary_entropy(d_hi) - binary_entropy(d_lo))
    atoms = jn_law(chain, d_lo, n).support - jn_law(chain, d_hi, n).support
    yield max(
        float(np.max(np.abs(k_lo - k_hi) / scale)),
        float(np.max(np.abs(atoms - shift))) / n,
    )


# (suite name, tolerance on its largest deviation, deviation generator)
CHECKS = [
    ("oracle-pmf-tv", 1e-12, _oracle_pmf_tv),
    ("variance-forms", 1e-10, _variance_forms),
    ("oracle-variance", 1e-10, _oracle_variance),
    ("pgf-pmf", 1e-10, _pgf_pmf),
    ("cgf-zeros", 1e-13, _cgf_zeros),
    ("cgf-expectation", 1e-10, _cgf_expectation),
    ("d-invariance", 1e-12, _d_invariance),
]


def cmd_verify(args) -> int:
    if (args.a is None) != (args.b is None):
        raise ValueError("verify needs both --a and --b, or neither")
    pairs = [(args.a, args.b)] if args.a is not None else VERIFY_PAIRS
    d_grid = (args.distortion,) if args.distortion is not None else VERIFY_D_GRID
    perturb = args.perturb or 0.0
    suites = []
    for name, tolerance, deviations in CHECKS:
        worst, cases = 0.0, 0
        for a, b in pairs:
            for deviation in deviations(derive_chain(a, b), d_grid, perturb):
                worst = max(worst, deviation)
                cases += 1
        suites.append({"name": name, "cases": cases, "max_deviation": worst,
                       "tolerance": tolerance, "pass": worst <= tolerance})
    all_pass = all(s["pass"] for s in suites)

    if args.json or args.format == "json":
        text = _dump_json({"command": "verify", "perturb": perturb, "suites": suites, "pass": all_pass})
    else:
        lines = [
            f"{s['name']}: max deviation {s['max_deviation']:.3e} over {s['cases']} cases "
            f"(tol {s['tolerance']:.0e}): {'PASS' if s['pass'] else 'FAIL'}"
            for s in suites
        ]
        lines.append("verify: ALL PASS" if all_pass else "verify: FAILURES DETECTED")
        text = "\n".join(lines) + "\n"
    _write(args, text)
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# wiring


def _command(sub, func, help, options=None, chain=True) -> None:
    """Add the subcommand run by ``func`` (``cmd_paper_tables`` -> ``paper-tables``).

    Its arguments are ``--a``/``--b`` (required when ``chain`` is true, absent
    when it is None), then ``options`` (flag -> add_argument keywords), then
    the shared ``--format`` and ``--out``.
    """
    p = sub.add_parser(func.__name__.removeprefix("cmd_").replace("_", "-"), help=help)
    if chain is not None:
        p.add_argument("--a", type=float, required=chain, help="0->1 transition probability")
        p.add_argument("--b", type=float, required=chain, help="1->0 transition probability")
    for flag, kwargs in (options or {}).items():
        p.add_argument(flag, **kwargs)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tiltedsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    real = {"type": float, "required": True}
    count = {"type": int, "required": True}
    grid = {"help": "start:stop[:step] or comma list"}

    _command(sub, cmd_jtilt, "tilted information of both states", {"--distortion": real})
    _command(sub, cmd_stats, "chain and per-letter summary statistics",
             {"--distortion": {"type": float}})
    _command(sub, cmd_pmf, "exact law of the tilted block sum",
             {"--distortion": real, "--n": count})
    _command(sub, cmd_variance_table, "Var(J_n)/n over a blocklength grid", {"--n-grid": grid})
    _command(sub, cmd_cgf, "finite-n and limiting CGF on a theta grid",
             {"--n": count, "--theta": {"type": float}, "--theta-grid": grid})
    _command(sub, cmd_rate, "Legendre-Fenchel rate function",
             {"--x": {"type": float}, "--x-grid": grid})
    _command(sub, cmd_tail, "saddlepoint vs exact tail probability", {"--n": count, "--x": real})
    _command(sub, cmd_simulate, "Monte Carlo cross-check of the exact law",
             {"--distortion": real, "--n": count, "--reps": count,
              "--seed": {"type": int, "default": DEFAULT_SEED}})
    _command(sub, cmd_figure, "per-letter variance curve data (CSV-friendly)",
             {"--n-grid": {"help": "start:stop[:step], default 1:200"}})
    _command(sub, cmd_paper_tables, "reproduce the golden reference tables", chain=None)
    _command(sub, cmd_verify, "certify the closed forms against the oracle",
             {"--distortion": {"type": float},
              "--perturb": {"type": float, "default": 0.0,
                            "help": "inject a relative error into the closed-form variance (self-test)"},
              "--json": {"action": "store_true", "help": "shorthand for --format json"}},
             chain=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RegimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
