"""Record the CLI's stdout and exit code over a fixed matrix of calls, and library values.

Usage::

    python3 tools/stdout_matrix.py SRC OUTDIR
    python3 tools/stdout_matrix.py --manifest SRC FILE

Both forms import ``tiltedsum`` from ``SRC`` (a checkout's ``src``
directory) and build one list of entries ``(kind, name, body)``, which
takes a few seconds.  First come the calls of the matrix, each run in this
process through ``tiltedsum.cli.main`` with ``COLUMNS`` pinned to 80, the
width ``--help`` takes when stdout is not a terminal: ``kind`` is the exit
code, ``name`` the arguments and ``body`` the exact stdout.  A call that
raises out of ``main`` has the exception's type name, such as
``OverflowError``, for its ``kind``, and the stdout written before the
exception for its ``body``.  Then come the rows of ``row_keys``, library
values that no call prints in full, the sampler's seeded letter sequences
last: ``kind`` is ``value``, ``name`` the function, chain, n and any seed,
and ``body`` the ``repr`` of each value on a line of its own.

The first form writes each entry's body to a file of ``OUTDIR``, under a
header naming the entry.  Two runs, say of a parent checkout and of a
change, compare with ``diff -r``; the entries and the file names depend on
nothing but this script, so a diff names each output and value that moved.
The second form writes the manifest ``FILE``: a header naming the Python
version, then ``line(i, entry)`` for each entry, its number,
kind, the SHA-256 of its body and its name.  ``tests/stdout_manifest.txt``
is such a manifest, and one test of ``tests/test_stdout_manifest.py``
recomputes every entry, calls and rows, and compares each line with it.  A
change that moves output or a pinned value rewrites it, and the manifest's
diff names the entries that moved.

The matrix runs every chain subcommand in table, csv and json on each chain
of ``CHAINS``, with arguments inside that chain's valid ranges; then
``paper-tables``, the ``verify`` variants, every ``--help``, calls that
exit 1 (invalid input) and 3 (unwritable output), ``simulate`` on a chain
with ell > 0, the option spellings ``verify --format json``,
``cgf --theta`` and ``rate --x`` and an empty ``--n-grid=``, a ``tail``
whose x is so close to 0 that its optimal tilt rounds to 0 (exit 1), a
``cgf`` at a blocklength beyond float range (exit 1), a JSON
``variance-table`` whose variance overflows to infinity, a ``verify`` on a
nearly alternating chain, ``pmf`` and ``tail`` on the chain (0.3, 0.1),
with a > b, at n = 33 and 2001, a ``simulate`` of 40,000 paths, which
fills a sampler block and ends in a partial one, ``rate``, ``tail`` and
``simulate`` on (0.2, 0.20000000000000004), whose two logs round equal,
``verify`` on (0.3, 0.30000000000000004) and (0.999999, 0.999998), whose
j1 - j0 its ``oracle-variance`` check route must resolve, and last
``verify`` on a near-alternating chain where ``variance-forms`` fails
(exit 2).  Only the
standard library is used, so the script runs against any checkout.
"""

import argparse
import hashlib
import io
import math
import os
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

CHAINS = [
    (0.1, 0.3),
    (0.6, 0.7),
    (0.02, 0.05),
    (1e-9, 2e-9),
    (0.3, 0.30000000000000004),
    (0.5, 0.5),
]
FORMATS = ("table", "csv", "json")
SUBCOMMANDS = (
    "jtilt", "stats", "pmf", "variance-table", "cgf", "rate", "tail", "simulate", "figure",
    "paper-tables", "verify",
)
# Tilts theta*ell on both sides of u = 1, near it and far from it.
TILTS = (-1100.0, -600.0, -20.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 20.0, 600.0, 1100.0)
# Fractions of the achievable interval (lo, hi) at which the rate is taken.
RATE_FRACTIONS = (1e-8, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-8)

# The rows: the jet kernel at order 0 (cgf_finite at theta*ell in KERNEL_TILTS,
# occupation_log2_pgf at u in KERNEL_US) and at orders up to 10 (centered_cumulants at
# n <= 1000), one row per function and chain over KERNEL_NS; the count law, one row per chain
# and n of PMF_NS; the exact normal distance, one row per chain and n of DISTANCE_NS.
KERNEL_FUNCTIONS = ("cgf_finite", "occupation_log2_pgf", "centered_cumulants")
KERNEL_CHAINS = [
    (0.1, 0.3), (0.3, 0.1), (0.02, 0.05), (0.6, 0.7), (0.95, 0.85), (2e-12, 0.3), (1e-9, 2e-9),
    (0.3, 0.30000000000000004),
]
KERNEL_NS = (1, 2, 3, 7, 64, 1000, 10**6)
KERNEL_TILTS = (0.0, 1e-9, -1e-9, 1.0, -1.0, 20.0, -20.0, 600.0, -600.0, 1100.0, -1100.0)
KERNEL_US = (0.5, 2.0, 1e-3)
PMF_CHAINS = [
    (0.1, 0.3), (0.3, 0.1), (0.5, 0.5), (9.56e-6, 1.33e-11), (1.0 - 1e-9, 1.0 - 2e-9),
    (math.nextafter(1.0 - 1e-12, 0.0), 0.5),
]
PMF_NS = (1, 2, 3, 4, 33, 2000, 2001, 32768)
DISTANCE_CHAINS = [(0.1, 0.3), (0.3, 0.1), (0.02, 0.05), (0.3, 0.30000000000000004)]
DISTANCE_NS = (1, 100, 1600)
# The sampler's streams: (n, seed) of sample_trajectory on (0.1, 0.3).
TRAJECTORIES = ((10, 42), (10, 7), (100_000, 5))


def chain_rule(a: float, b: float) -> tuple[float, float, float]:
    """(pi0, pi1, ell) by derive_chain's rule, kept here so the call list needs no checkout."""
    if b / 2 <= a <= 2 * b:
        ell = math.log1p((a - b) / b) / math.log(2.0)
    else:
        ell = math.log2(a) - math.log2(b)
    return b / (a + b), a / (a + b), ell


def chain_calls(a: float, b: float) -> list[list[str]]:
    """Argument lists of the chain subcommands for (a, b), without --format."""
    chain = ["--a", repr(a), "--b", repr(b)]
    # The chain's own pi and ell, so that the grids lie inside its achievable interval.
    pi0, pi1, ell = chain_rule(a, b)
    d = repr(min(pi0, pi1) / 4)
    if ell:
        thetas = ",".join(repr(t / ell) for t in TILTS)
        lo, hi = sorted((ell * pi1, -ell * pi0))
        xs = ",".join(repr(lo + f * (hi - lo)) for f in RATE_FRACTIONS)
        x_tail = repr(0.3 * hi)
    else:  # symmetric: any grid; rate and tail exit 1
        thetas, xs, x_tail = "-2,0,2", "0.1", "0.1"
    return [
        ["jtilt", *chain, "--distortion", d],
        ["stats", *chain],
        ["stats", *chain, "--distortion", d],
        ["pmf", *chain, "--distortion", d, "--n", "12"],
        ["variance-table", *chain, "--n-grid", "1,2,5,10,50,1000,100000"],
        ["cgf", *chain, "--n", "64", f"--theta-grid={thetas}"],
        ["cgf", *chain, "--n", "1000000", f"--theta-grid={thetas}"],
        ["rate", *chain, f"--x-grid={xs}"],
        ["tail", *chain, "--n", "100", "--x", x_tail],
        ["simulate", *chain, "--distortion", d, "--n", "16", "--reps", "4000", "--seed", "1"],
        ["simulate", *chain, "--distortion", d, "--n", "300", "--reps", "1000", "--seed", "2"],
        ["figure", *chain, "--n-grid", "1:40"],
    ]


def matrix() -> list[list[str]]:
    """Every call, in a fixed order."""
    calls = []
    for a, b in CHAINS:
        for call in chain_calls(a, b):
            calls += [[*call, "--format", fmt] for fmt in FORMATS]
    calls += [["paper-tables", "--format", fmt] for fmt in FORMATS]
    calls += [
        ["verify"],
        ["verify", "--json"],
        ["verify", "--format", "csv"],
        ["verify", "--a", "0.02", "--b", "0.05", "--distortion", "0.05"],
        ["verify", "--perturb", "1e-6"],  # exits 2
    ]
    calls += [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]
    calls += [
        # Seen failing before: a pathwise bound tighter than the atoms' rounding.
        ["simulate", "--a", "0.5", "--b", "1.1e-12", "--distortion", "5e-13", "--n", "30000",
         "--reps", "200", "--seed", "5"],
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=1e307,5e307"],
        # Exit 1: invalid input.
        ["stats", "--a", "1.5", "--b", "0.3"],
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta", "inf"],
        ["cgf", "--a", "0.5", "--b", "0.5", "--n", "10", "--theta", "inf"],
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", "0", "--theta", "1"],
        ["rate", "--a", "0.1", "--b", "0.3", "--x", "1.188721875540867"],
        ["pmf", "--a", "0.1", "--b", "0.3", "--distortion", "0.1", "--n", "40000"],
        ["simulate", "--a", "0.1", "--b", "0.3", "--distortion", "0.1", "--n", "10000",
         "--reps", "10001"],
        ["simulate", "--a", "0.1", "--b", "0.3", "--distortion", "0.4", "--n", "10",
         "--reps", "200"],
        ["verify", "--a", "0.1"],
        ["nonsense"],
        # Exit 3: the output's directory is not a directory.
        ["stats", "--a", "0.1", "--b", "0.3", "--out", "/dev/null/out.csv"],
        # Exit 1: an empty or non-finite grid.
        ["figure", "--a", "0.1", "--b", "0.3", "--n-grid", ","],
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=,"],
        ["rate", "--a", "0.1", "--b", "0.3", "--x-grid", ","],
        ["rate", "--a", "0.1", "--b", "0.3", "--x-grid", "0:inf:1"],
        # Exit 1: a colon grid of more than 10**6 points, refused before it is built.
        ["variance-table", "--a", "0.1", "--b", "0.3", "--n-grid", "1:10000000000"],
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=0:1:1e-300"],
        # Exit 1: a --distortion outside the interior regime of a chain to verify.
        ["verify", "--distortion", "5"],
        ["verify", "--a", "0.1", "--b", "0.3", "--distortion", "nan"],
        # Exit 1: a non-finite --perturb.  Exit 2: deviations beyond float range, as strict JSON.
        ["verify", "--perturb", "nan"],
        ["verify", "--perturb", "1e308", "--json"],
        # Exit 1: a grid whose span is beyond float range.
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta-grid=1e308:-1e308"],
        # Every suite at the given distortion.
        ["verify", "--a", "0.1", "--b", "0.3", "--distortion", "0.01"],
        # Exit 2: the overflowing suites as CSV.
        ["verify", "--perturb", "1e308", "--format", "csv"],
        # Symmetric chains near both ends of the domain, at tilts up to +-1e308.
        ["cgf", "--a", "1e-9", "--b", "1e-9", "--n", "64", "--theta-grid=-1e308,-2,0,2,1e308"],
        ["cgf", "--a", "0.999999999", "--b", "0.999999999", "--n", "64",
         "--theta-grid=-1e308,-2,0,2,1e308"],
        # Exit 1: the other non-finite tilts on a symmetric chain (inf is above).
        ["cgf", "--a", "0.5", "--b", "0.5", "--n", "10", "--theta", "nan"],
        ["cgf", "--a", "0.5", "--b", "0.5", "--n", "10", "--theta=-inf"],
        # Exit 1: a finite theta whose theta*ell overflows (ell is about -28.9).
        ["cgf", "--a", "1e-9", "--b", "0.5", "--n", "10", "--theta", "1e308"],
    ]
    # simulate with ell > 0, where the atoms descend as the count ascends.
    for n, reps, seed in (("16", "4000", "1"), ("300", "1000", "2")):
        calls += [
            ["simulate", "--a", "0.3", "--b", "0.1", "--distortion", "0.0625", "--n", n,
             "--reps", reps, "--seed", seed, "--format", fmt]
            for fmt in FORMATS
        ]
    calls += [
        # Spellings of one option: the same bytes as --json, --theta-grid and --x-grid.
        ["verify", "--format", "json"],
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", "10", "--theta", "0.5"],
        ["rate", "--a", "0.1", "--b", "0.3", "--x", "0.2"],
        # Exit 1: an empty grid is not the default grid.
        ["figure", "--a", "0.1", "--b", "0.3", "--n-grid="],
        # Exit 1: theta* rounds to 0, which the estimate would divide by.
        ["tail", "--a", "0.1", "--b", "0.3", "--n", "5", "--x", "1e-17"],
        # Exit 1: a blocklength beyond float range, where n*x overflows.
        ["cgf", "--a", "0.1", "--b", "0.3", "--n", str(10**400), "--theta", "1"],
        # Var(J_n) beyond float range: a non-finite cell, written as a string in JSON.
        ["variance-table", "--a", "0.1", "--b", "0.3", "--n-grid", str(10**308),
         "--format", "json"],
        # A nearly alternating chain, lambda2 = -0.9997: the double sum's lags cancel in pairs.
        ["verify", "--a", "0.9999", "--b", "0.9998"],
        # The count law of a chain with a > b, at an odd n and at a larger n than the calls above.
        ["pmf", "--a", "0.3", "--b", "0.1", "--distortion", "0.0625", "--n", "33",
         "--format", "csv"],
        ["pmf", "--a", "0.3", "--b", "0.1", "--distortion", "0.0625", "--n", "2001",
         "--format", "json"],
        ["tail", "--a", "0.3", "--b", "0.1", "--n", "2001", "--x", "0.05", "--format", "csv"],
        # simulate over two blocks: a full one of 32768 paths, then a partial one of 7232.
        ["simulate", "--a", "0.6", "--b", "0.7", "--distortion", "0.2", "--n", "300",
         "--reps", "40000", "--seed", "3", "--format", "csv"],
    ]
    # A chain whose two logs round equal, so ell comes from log1p (exits 0, 0, 1, 0).
    near = ["--a", "0.2", "--b", "0.20000000000000004"]
    calls += [
        ["rate", *near, "--x", "0.0", "--format", "csv"],
        ["tail", *near, "--n", "10", "--x", "1e-17", "--format", "csv"],
        ["tail", *near, "--n", "10", "--x", "0.1", "--format", "csv"],
        ["simulate", *near, "--distortion", "0.05", "--n", "6", "--reps", "100", "--seed", "1",
         "--format", "csv"],
        # Near-symmetric chains, whose j1 - j0 oracle-variance must resolve to a few eps.
        ["verify", "--a", "0.3", "--b", "0.30000000000000004"],
        ["verify", "--a", "0.999999", "--b", "0.999998"],
        # verify's remaining limit: near-alternating, variance-forms loses eps/(2-a-b) (exit 2).
        ["verify", "--a", "0.9999999954053412", "--b", "0.9999999999989",
         "--distortion", "0.059567531825363555"],
    ]
    return calls


def row_keys() -> list[tuple]:
    """(function, a, b, n) of every row, in order, and the seed of a trajectory's row.

    n is None on the kernel's rows.
    """
    return (
        [(name, a, b, None) for a, b in KERNEL_CHAINS for name in KERNEL_FUNCTIONS]
        + [("occupation_pmf", a, b, n) for a, b in PMF_CHAINS for n in PMF_NS]
        + [("exact_normal_distance", a, b, n) for a, b in DISTANCE_CHAINS for n in DISTANCE_NS]
        + [("sample_trajectory", 0.1, 0.3, n, seed) for n, seed in TRAJECTORIES]
    )


def row_entry(key: tuple) -> tuple[str, str, bytes]:
    """``value``, the row's function, chain, n and seed, and each value's ``repr`` on a line."""
    import tiltedsum

    name, a, b, n, *seed = key
    chain, function = tiltedsum.derive_chain(a, b), getattr(tiltedsum, name)
    if name == "cgf_finite":
        values = [function(chain, m, tilt / chain.ell) for m in KERNEL_NS for tilt in KERNEL_TILTS]
    elif name == "occupation_log2_pgf":
        values = [function(chain, m, u) for m in KERNEL_NS for u in KERNEL_US]
    elif name == "centered_cumulants":
        values = [function(chain, m, max_order=10) for m in KERNEL_NS if m <= 1000]
    elif name == "sample_trajectory":
        values = function(chain, n, *seed).tolist()
    else:
        values = function(chain, n)
    body = "".join(f"{v!r}\n" for v in (values if isinstance(values, list) else [values]))
    suffix = ("" if n is None else f" n={n}") + "".join(f" seed={s}" for s in seed)
    return "value", f"{name} {a!r} {b!r}{suffix}", body.encode()


def run_in_process(argv: list[str]) -> tuple[int | str, bytes]:
    """Exit code and stdout of ``tiltedsum.cli.main(argv)``, stderr discarded.

    An exception that escapes ``main`` is recorded by its type name in place of the exit code,
    with the stdout written before it.
    """
    from tiltedsum.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()), mock.patch.dict(
        os.environ, COLUMNS="80"
    ):
        try:
            code = main(argv)
        except Exception as exc:
            code = type(exc).__name__
    return code, out.getvalue().encode()


def call_entries() -> list[tuple[int | str, str, bytes]]:
    """(exit code, arguments, stdout) of every call of the matrix, in order."""
    entries = []
    for argv in matrix():
        code, stdout = run_in_process(argv)
        entries.append((code, " ".join(argv), stdout))
    return entries


def entries() -> list[tuple[int | str, str, bytes]]:
    """Every entry, in the manifest's order: the calls of the matrix, then the rows."""
    return call_entries() + [row_entry(key) for key in row_keys()]


def header() -> str:
    """A manifest's first line: the Python version that its digests come from."""
    return f"# CPython {platform.python_version()}"


def line(i: int, entry: tuple[int | str, str, bytes]) -> str:
    """Entry i's manifest line: its number, its kind, the SHA-256 of its body and its name."""
    kind, name, body = entry
    return f"{i:03d} {kind} {hashlib.sha256(body).hexdigest()} {name}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", action="store_true",
                        help="write a digest manifest to OUT instead of one file per entry")
    parser.add_argument("src", help="the src directory of the checkout to run")
    parser.add_argument("out", help="directory for one file per entry (created), or the manifest")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    pinned = entries()
    if args.manifest:
        lines = [header()] + [line(i, entry) for i, entry in enumerate(pinned)]
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, (kind, name, body) in enumerate(pinned):
            head = f"= {name}\n" if kind == "value" else f"$ tiltedsum {name}\nexit {kind}\n"
            path = out / f"{i:03d}-{name.split(' ', 1)[0].lstrip('-')}.txt"
            path.write_bytes(f"{head}---\n".encode() + body)
    print(f"{len(pinned)} calls and rows written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
