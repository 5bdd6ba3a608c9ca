"""Command-line interface: tables, CSV/JSON emission, and run-time verification.

Every command writes through one emitter, ``_emit``, which takes the
command's sections (JSON key -> rows) and renders them in ``--format``.
Each subcommand that requires a chain (``--a``/``--b``) emits one section,
``rows``, through ``_run_table``: its handler maps the arguments and the
chain to rows, and the columns are the first row's keys.  ``paper-tables``
emits its three golden tables, and ``verify`` the suite rows of
``oracle.verify_suites``.  ``--theta`` and ``--x`` are spellings of
``--theta-grid`` and ``rate``'s ``--x-grid`` (one value is a one-point
grid), and ``verify --json`` is ``--format json``.

No command loads numpy.  The handlers of ``pmf``, ``tail``, ``simulate``
and ``verify`` import their function from ``exact``, ``montecarlo`` or
``oracle`` inside the handler, so a command compiles only the modules it
runs.

Machine-readable output is deterministic: floats are written with their
shortest round-trip representation, CSV uses LF line endings and a ``.``
decimal separator, and re-emitting a parsed file reproduces it byte for
byte.  JSON stays valid: a non-finite float cell is written as the string
``inf``, ``-inf`` or ``nan``.  Exit codes: 0 success, 1 validation
error, 2 verification failure, 3 I/O error.
"""

import argparse
import functools
import json
import math
import sys

from . import (
    ba_operating_point,
    cgf_finite,
    cgf_limit,
    derive_chain,
    jtilt,
    rate_function,
    saddlepoint_tail,
    tilted_mean,
    variance_exact,
)

DEFAULT_SEED = 20250809
# A colon grid is counted before it is built, so a tiny step cannot exhaust memory.
MAX_GRID_POINTS = 10**6

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
# tail's near_gaussian flags |theta*| below this: the saddlepoint nears the Gaussian bulk.
GAUSSIAN_REGIME_THETA = 0.05
# Chain properties in the columns of stats and of the paper-tables sources table.
STATS_FIELDS = ("a", "b", "pi0", "pi1", "lambda2", "ell", "h_rate", "gap", "v_iid", "v_sl",
                "amplification")
SOURCE_FIELDS = ("lambda2", "gap", "v_sl", "amplification")


def _parse_grid(text: str, cast=float) -> list:
    """Parse a non-empty 'start:stop[:step]' (stop inclusive, <= MAX_GRID_POINTS) or comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"grid {text!r} must be start:stop[:step]")
        start, stop = cast(parts[0]), cast(parts[1])
        step = cast(parts[2]) if len(parts) == 3 else cast(1)
        try:  # ints beyond float range overflow in isfinite or in the division
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError(f"grid {text!r} must have a finite start, stop and step")
            if step <= 0:
                raise ValueError(f"grid step must be positive in {text!r}")
            span = (stop - start) / step
        except OverflowError:
            raise ValueError(f"grid {text!r} lies beyond float range") from None
        # Clamped to [-1, MAX_GRID_POINTS]: a float span of +-inf never reaches math.floor,
        # and a negative span leaves the grid empty.
        count = int(math.floor(min(max(span, -1.0), MAX_GRID_POINTS) + 1e-9)) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        values = [start + k * step for k in range(count)]
    else:
        values = [cast(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


def _format_value(v) -> str:
    """Shortest round-trip text for a cell (ints bare, floats via repr)."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_table(columns: list[str], rows: list[dict], decimals: int | None = None) -> str:
    def show(v):
        if isinstance(v, float):
            return f"{v:.{decimals}f}" if decimals is not None else f"{v:.10g}"
        return _format_value(v)

    cells = [[show(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    out = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in (columns, *cells)]
    return "\n".join(out) + "\n"


def _emit(args, sections: dict, table, passed=None, head=()) -> int:
    """Write ``sections`` (JSON key -> rows) to ``--out`` (LF line endings) or stdout.

    JSON is one object: ``command``, then ``head``'s items, the sections and,
    when ``passed`` is given, ``pass``.  CSV is one block per section, its
    columns the first row's keys.  The text format is ``table()``, called
    only when that format is asked for.  Returns 2 when ``passed`` is false.
    """
    if args.format == "json":
        payload = {"command": args.command, **dict(head)}
        for key, rows in sections.items():  # JSON has no literal for a non-finite float
            payload[key] = [{k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                             for k, v in row.items()} for row in rows]
        if passed is not None:
            payload["pass"] = passed
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = "".join(render_csv(list(rows[0]), rows) for rows in sections.values())
    else:
        text = table()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 2 if passed is False else 0


def _run_table(handler, args) -> int:
    """Run a chain subcommand: its rows for the chain of ``--a``/``--b``, as one table."""
    rows = handler(args, derive_chain(args.a, args.b))
    return _emit(args, {"rows": rows}, lambda: render_table(list(rows[0]), rows))


# ---------------------------------------------------------------------------
# commands


def cmd_jtilt(args, chain) -> list[dict]:
    return [{"x": x, "j_value": jtilt(chain, args.distortion, x)} for x in (0, 1)]


def cmd_stats(args, chain) -> list[dict]:
    row = {name: getattr(chain, name) for name in STATS_FIELDS}
    d = args.distortion
    if d is not None:
        row.update(mu_d=tilted_mean(chain, d), **ba_operating_point(chain, d)._asdict())
    return [row]


def cmd_pmf(args, chain) -> list[dict]:
    from .exact import jn_law
    support, probs = jn_law(chain, args.distortion, args.n)
    return [
        {"m": m, "prob": p, "j_value": j}
        for m, (p, j) in enumerate(zip(probs, support))
    ]


def cmd_variance_table(args, chain) -> list[dict]:
    rows = []
    for n in _parse_grid(args.n_grid, int):
        total = variance_exact(chain, n)
        rows.append({"n": n, "var_total": total, "var_per_letter": total / n})
    rows.append({"n": "inf", "var_total": math.inf, "var_per_letter": chain.v_sl})
    return rows


def cmd_cgf(args, chain) -> list[dict]:
    return [
        {"theta": t, "lambda_n": cgf_finite(chain, args.n, t), "lambda_inf": cgf_limit(chain, t)}
        for t in _parse_grid(args.theta_grid)
    ]


def cmd_rate(args, chain) -> list[dict]:
    rows = []
    for x in _parse_grid(args.x_grid):
        theta_star, rate = rate_function(chain, x)
        rows.append({"x": x, "theta_star": theta_star, "rate": rate})
    return rows


def cmd_tail(args, chain) -> list[dict]:
    from .exact import centered_tail_probability
    estimate = saddlepoint_tail(chain, args.n, args.x)
    theta_star, rate = rate_function(chain, args.x)
    exact = centered_tail_probability(chain, args.n, args.x)
    row = {
        "n": args.n,
        "x": args.x,
        "theta_star": theta_star,
        "rate": rate,
        "saddlepoint": estimate,
        "exact": exact,
        "ratio": estimate / exact if exact > 0 else math.inf,
        "near_gaussian": abs(theta_star) < GAUSSIAN_REGIME_THETA,
    }
    return [row]


def cmd_simulate(args, chain) -> list[dict]:
    from .montecarlo import simulate
    report = simulate(chain, args.distortion, args.n, args.reps, args.seed)
    row = {
        "n": args.n,
        "replications": args.reps,
        "seed": args.seed,
        "emp_mean": report.emp_mean,
        "emp_var": report.emp_var,
        "emp_var_per_letter": report.emp_var / args.n,
        "ks_exact": report.ks_exact,
        "ks_normal": report.ks_normal,
    }
    return [row]


def cmd_figure(args, chain) -> list[dict]:
    return [
        {
            "n": n,
            "var_per_letter": variance_exact(chain, n) / n,
            "v_sl": chain.v_sl,
            "v_iid": chain.v_iid,
        }
        for n in _parse_grid(args.n_grid, int)
    ]


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
        values = [getattr(ch, name) for name in SOURCE_FIELDS]
        source_rows.append(
            {"source": label, "a": a, "b": b, **dict(zip(SOURCE_FIELDS, values)),
             "status": _status(*zip(values, goldens, tolerances))}
        )

    constant = chain.deficit_constant
    constant_rows = [
        {"quantity": "variance_deficit_constant", "value": constant, "golden": 3.53,
         "status": _status((constant, 3.53, 5e-3))}
    ]

    sections = {"variance_table": var_rows, "sources": source_rows, "constants": constant_rows}
    titles = ("Per-letter variance, chain a=0.1 b=0.3",
              "Same marginal, different dynamics (pi1 = 1/4)", "Finite-n variance deficit constant")
    passed = all(row["status"] == "PASS" for rows in sections.values() for row in rows)
    return _emit(args, sections, lambda: "\n".join(
        f"{title}\n" + render_table(list(rows[0]), rows, decimals=3)
        for title, rows in zip(titles, sections.values())), passed)


def cmd_verify(args) -> int:
    from .oracle import VERIFY_PAIRS, verify_suites
    if (args.a is None) != (args.b is None):
        raise ValueError("verify needs both --a and --b, or neither")
    perturb = args.perturb or 0.0
    if not math.isfinite(perturb):
        raise ValueError(f"--perturb {perturb!r} must be finite")
    pairs = [(args.a, args.b)] if args.a is not None else VERIFY_PAIRS
    suites = verify_suites(pairs, args.distortion, perturb)
    all_pass = all(s["pass"] for s in suites)
    lines = [
        f"{s['name']}: max deviation {s['max_deviation']:.3e} over {s['cases']} cases "
        f"(tol {s['tolerance']:.0e}): {'PASS' if s['pass'] else 'FAIL'}"
        for s in suites
    ]
    lines.append("verify: ALL PASS" if all_pass else "verify: FAILURES DETECTED")
    return _emit(args, {"suites": suites}, lambda: "\n".join(lines) + "\n", all_pass,
                 head={"perturb": perturb})


# ---------------------------------------------------------------------------
# wiring


def _command(sub, func, help, options=None, chain=True) -> None:
    """Add the subcommand run by ``func`` (``cmd_paper_tables`` -> ``paper-tables``).

    Its arguments are ``--a``/``--b`` (required when ``chain`` is true, absent
    when it is None), then ``options`` (space-separated spellings of one
    option -> add_argument keywords), then the shared ``--format`` and
    ``--out``.  A subcommand that requires a chain emits one table through
    :func:`_run_table`, which passes the chain to ``func`` for its rows; any
    other ``func`` takes the parsed arguments and returns the exit code of
    its :func:`_emit`.
    """
    p = sub.add_parser(func.__name__.removeprefix("cmd_").replace("_", "-"), help=help)
    if chain is not None:
        p.add_argument("--a", type=float, required=chain, help="0->1 transition probability")
        p.add_argument("--b", type=float, required=chain, help="1->0 transition probability")
    for flags, kwargs in (options or {}).items():
        p.add_argument(*flags.split(), **kwargs)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.set_defaults(func=functools.partial(_run_table, func) if chain else func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tiltedsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    real = {"type": float, "required": True}
    count = {"type": int, "required": True}
    grid = {"help": "start:stop[:step] or comma list"}

    _command(sub, cmd_jtilt, "tilted information of both states", {"--distortion": real})
    _command(sub, cmd_stats, "chain and per-letter summary statistics",
             {"--distortion": {"type": float}})
    _command(sub, cmd_pmf, "exact law of the tilted block sum",
             {"--distortion": real, "--n": count})
    _command(sub, cmd_variance_table, "Var(J_n)/n over a blocklength grid",
             {"--n-grid": {**grid, "default": "1,2,5,10,50"}})
    _command(sub, cmd_cgf, "finite-n and limiting CGF on a theta grid",
             {"--n": count, "--theta-grid --theta": {**grid, "default": "-2:2:0.25"}})
    _command(sub, cmd_rate, "Legendre-Fenchel rate function",
             {"--x-grid --x": {**grid, "required": True}})
    _command(sub, cmd_tail, "saddlepoint vs exact tail probability", {"--n": count, "--x": real})
    _command(sub, cmd_simulate, "Monte Carlo cross-check of the exact law",
             {"--distortion": real, "--n": count, "--reps": count,
              "--seed": {"type": int, "default": DEFAULT_SEED}})
    _command(sub, cmd_figure, "per-letter variance curve data (CSV-friendly)",
             {"--n-grid": {"help": "start:stop[:step], default 1:200", "default": "1:200"}})
    _command(sub, cmd_paper_tables, "reproduce the golden reference tables", chain=None)
    _command(sub, cmd_verify, "certify the closed forms against the oracle",
             {"--distortion": {"type": float},
              "--perturb": {"type": float, "default": 0.0,
                            "help": "inject a relative error into the closed-form variance (self-test)"},
              "--json": {"action": "store_const", "dest": "format", "const": "json",
                         "default": "table", "help": "shorthand for --format json"}},
             chain=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, bad usage 2: a validation error here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
