"""Record the benchmark's end-to-end metrics into ``BENCH_<label>.json``.

Usage::

    python3 tools/bench_record.py LABEL [--against REF]

For each of the benchmark's four workloads and each of the seeds 1 to 10, the tool runs
``perfbench/run.py --workload W --seed S --seconds 20 --trace 0`` on the working tree, 20 s
being ``BENCHMARK.json``'s run length.  With ``--against REF`` it also runs the same
command on a ``git archive`` of REF, extracted to a temporary directory, in alternation:
on odd seeds REF runs first, on even seeds the tree does, so a drift of the machine's speed
falls on both sides alike.  Of each run it reads only perfbench's own result, the JSON
object on the last line of stdout.  A record of both sides takes about 30 minutes.

``BENCH_<label>.json`` holds, per workload, each run's result (``correct``, ``attempted``,
``failed`` and every metric's value) by side, ``tree`` and ``ref``, and per metric a
summary from :func:`summarize`: the median and quartiles of each side and, with a REF, the
ratio tree/ref of each seed's pair and the number of pairs in which the tree's value is
lower.  Beside them it records the seeds, the run length, the Python and numpy versions,
both commits, ``os.cpu_count()`` and the load average before and after.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-pmf", "cgf-rate", "monte-carlo", "short-calls")
SEEDS = list(range(1, 11))
SECONDS = 20.0  # BENCHMARK.json's run_seconds


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles of ``values``, by the inclusive method; all equal for one value."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per metric: each side's quartiles, and with two sides the per-pair ratios tree/ref.

    ``runs`` maps a side to its runs in seed order, each run a perfbench result whose
    ``metrics`` map a name to ``{"value": ..., "unit": ...}``; a ``ref`` side pairs its
    runs with the tree's by position.
    """
    summary = {}
    for name in runs["tree"][0]["metrics"]:
        values = {side: [run["metrics"][name]["value"] for run in side_runs]
                  for side, side_runs in runs.items()}
        entry = {side: quartiles(side_values) for side, side_values in values.items()}
        if "ref" in values:
            pairs = list(zip(values["tree"], values["ref"]))
            entry["ratios"] = [tree / ref for tree, ref in pairs]
            entry["tree_lower"] = sum(tree < ref for tree, ref in pairs)
        summary[name] = entry
    return summary


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """perfbench's result for one run of ``workload`` on ``checkout``: its last stdout line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def record(label: str, against: str | None) -> Path:
    """Run every workload and seed, and write ``BENCH_<label>.json`` at the root."""
    header = {
        "label": label,
        "seeds": SEEDS,
        "seconds": SECONDS,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "tree": git("rev-parse", "HEAD") + (" (modified)" if git("status", "--porcelain") else ""),
        "ref": git("rev-parse", against) if against else None,
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    with tempfile.TemporaryDirectory() as scratch:
        checkouts = {"tree": ROOT}
        if against:
            archive = Path(scratch) / "ref.tar"
            git("archive", "--output", str(archive), against)
            with tarfile.open(archive) as tar:
                tar.extractall(Path(scratch) / "ref")
            checkouts["ref"] = Path(scratch) / "ref"
        results = {}
        for workload in WORKLOADS:
            runs = {side: [] for side in checkouts}
            for seed in SEEDS:
                order = ["ref", "tree"] if against and seed % 2 else list(checkouts)
                for side in order:
                    runs[side].append(run_perfbench(checkouts[side], workload, seed))
                    print(f"{workload} seed {seed} {side}: "
                          f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.3f}",
                          file=sys.stderr, flush=True)
            results[workload] = {"summary": summarize(runs), "runs": runs}
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({**header, "loadavg_after": os.getloadavg(),
                               "workloads": results}, indent=1) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    parser.add_argument("--against", metavar="REF", help="a git revision to alternate with")
    args = parser.parse_args(argv)
    out = record(args.label, args.against)
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
