"""Record the CLI's stdout and exit code over a fixed matrix of calls.

Usage::

    python3 tools/stdout_matrix.py SRC OUTDIR
    python3 tools/stdout_matrix.py --manifest SRC FILE

Both forms import ``tiltedsum`` from ``SRC`` (a checkout's ``src``
directory) and run every call of the matrix in this process through
``tiltedsum.cli.main``, with ``COLUMNS`` pinned to 80, the width ``--help``
takes when stdout is not a terminal; a run takes a few seconds.  The first
form writes one file per call to ``OUTDIR``: the argument list, the exit
code and the exact stdout.  Two runs, say of a parent checkout and of a
change, compare with ``diff -r``; the call list and the file names depend
on nothing but this script, so the same call lands in the same file on
both sides.  The second form writes the manifest ``FILE``: a header naming
the Python and numpy versions, then one line per call with its number,
exit code, the SHA-256 of its stdout and its arguments.
``tests/stdout_manifest.txt`` is such a manifest, and a test recomputes it;
a change that moves output rewrites it, and the manifest's diff names the
calls that moved.  A call that raises out of ``main`` is recorded with the
exception's type name, such as ``OverflowError``, in place of its exit
code, and with the stdout written before the exception.

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
with a > b, at n = 33 and 2001, a ``simulate`` of 8193 paths, which
spans three sampler blocks, and last ``rate``, ``tail`` and ``simulate``
on (0.2, 0.20000000000000004), whose two logs round equal.  Only the
standard library is used, so the script runs against any checkout.
"""

import argparse
import hashlib
import io
import math
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import version
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


def chain_calls(a: float, b: float) -> list[list[str]]:
    """Argument lists of the chain subcommands for (a, b), without --format."""
    chain = ["--a", repr(a), "--b", repr(b)]
    pi0, pi1 = b / (a + b), a / (a + b)
    d = repr(min(pi0, pi1) / 4)
    # ell by derive_chain's rule, so that the grids lie inside the chain's own interval.
    if b / 2 <= a <= 2 * b:
        ell = math.log1p((a - b) / b) / math.log(2.0)
    else:
        ell = math.log2(a) - math.log2(b)
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


def matrix(missing_dir: str) -> list[list[str]]:
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
        # Exit 3: the output directory does not exist.
        ["stats", "--a", "0.1", "--b", "0.3", "--out", os.path.join(missing_dir, "out.csv")],
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
        # simulate over three blocks: two full ones of 16 runs per chunk, whose paths span
        # chunks, then a one-path block of 250 runs per chunk.
        ["simulate", "--a", "0.6", "--b", "0.7", "--distortion", "0.2", "--n", "300",
         "--reps", "8193", "--seed", "3", "--format", "csv"],
    ]
    # A chain whose two logs round equal, so ell comes from log1p (exits 0, 0, 1, 0).
    near = ["--a", "0.2", "--b", "0.20000000000000004"]
    calls += [
        ["rate", *near, "--x", "0.0", "--format", "csv"],
        ["tail", *near, "--n", "10", "--x", "1e-17", "--format", "csv"],
        ["tail", *near, "--n", "10", "--x", "0.1", "--format", "csv"],
        ["simulate", *near, "--distortion", "0.05", "--n", "6", "--reps", "100", "--seed", "1",
         "--format", "csv"],
    ]
    return calls


def shown(argv: list[str]) -> str:
    """The call as written in a file header or manifest line.

    The missing directory's random name would differ between runs.
    """
    return " ".join("<missing>/out.csv" if arg.endswith("out.csv") else arg for arg in argv)


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


def results() -> list[tuple[list[str], int | str, bytes]]:
    """(arguments, exit code, stdout) of every call of the matrix, in order."""
    with tempfile.TemporaryDirectory() as scratch:
        return [(argv, *run_in_process(argv)) for argv in matrix(os.path.join(scratch, "missing"))]


def manifest() -> str:
    """The manifest text: a version header, then one line per call."""
    lines = [f"# CPython {platform.python_version()}, numpy {version('numpy')}"]
    for i, (argv, code, stdout) in enumerate(results()):
        lines.append(f"{i:03d} {code} {hashlib.sha256(stdout).hexdigest()} {shown(argv)}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", action="store_true",
                        help="write a digest manifest to OUT instead of one file per call")
    parser.add_argument("src", help="the src directory of the checkout to run")
    parser.add_argument("out", help="directory for one file per call (created), or the manifest")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.manifest:
        text = manifest()
        Path(args.out).write_text(text)
        count = len(text.splitlines()) - 1
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        calls = results()
        for i, (argv, code, stdout) in enumerate(calls):
            header = f"$ tiltedsum {shown(argv)}\nexit {code}\n---\n".encode()
            (out / f"{i:03d}-{argv[0].lstrip('-')}.txt").write_bytes(header + stdout)
        count = len(calls)
    print(f"{count} calls written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
