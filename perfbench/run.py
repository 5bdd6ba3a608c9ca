"""Benchmark of the tiltedsum command-line interface.

Run from the root of a source checkout (nothing needs to be installed):

    python3 perfbench/run.py --workload exact-pmf --seed 1 --seconds 20 --trace 0

With ``--trace 0`` a single caller runs the workload's script of CLI calls
as a closed loop, one fresh ``python -m tiltedsum.cli`` subprocess at a
time with ``src`` on the path, repeating whole rounds until ``--seconds``
have passed.  Every call's stdout is checked against the benchmark's own
references.  The end-to-end metrics are printed by name and unit.

With ``--trace 1`` the same calls are replayed in this process through
``tiltedsum.cli.main``, alternating untraced rounds with rounds in which
every public tiltedsum function records a span, and the per-layer metrics
are printed instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details of each run go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import tracing
from checks import CheckError
from workloads import WORKLOADS, script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_IMPORTS = 5  # timed fresh-interpreter imports; their median is setup_s
IMPORTTIME_REPEATS = 3
CALL_TIMEOUT_S = 120.0

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    **tracing.PER_LAYER,
}


@dataclass
class Outcome:
    """One CLI call: how long it took, what it used and whether it passed."""

    label: str
    wall: float
    cpu: float = 0.0
    rss_kib: int = 0
    out_bytes: int = 0
    error: str = ""  # why the call failed; empty when it passed
    unexpected: bool = False  # a check failed other than the call's known fault


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict):
    """Run argv to completion; returns (exit code, stdout, stderr, wall s, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    watchdog.start()
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    stdout = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, stdout, stderr[0], wall, usage


def check_output(call, outcome: Outcome, code: int, stdout: str, stderr: str) -> Outcome:
    if code != 0:
        outcome.error = f"exit {code}: {stderr.strip()[-300:]}"
        return outcome
    try:
        call.check(stdout)
    except CheckError as exc:
        outcome.error = f"check: {exc}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed output
        outcome.error = f"check: malformed output ({exc!r})"
    outcome.unexpected = bool(outcome.error) and not (
        call.known_fault and call.known_fault in outcome.error
    )
    return outcome


def run_subprocess_call(call, env: dict) -> Outcome:
    code, out, err, wall, usage = spawn([sys.executable, "-m", "tiltedsum.cli", *call.argv], env)
    outcome = Outcome(call.label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, len(out))
    return check_output(call, outcome, code, out.decode(), err.decode(errors="replace"))


def run_in_process(call, cli) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(call.argv))
        wall = time.perf_counter() - start
    text = out.getvalue()
    outcome = Outcome(call.label, wall, out_bytes=len(text.encode()))
    return check_output(call, outcome, code, text, err.getvalue())


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter importing tiltedsum.cli."""
    argv = [sys.executable, "-c", "import tiltedsum.cli"]
    times = []
    for attempt in range(SETUP_IMPORTS + 1):  # the first one may compile bytecode
        code, _, err, wall, _ = spawn(argv, env)
        if code != 0:
            sys.exit(f"perfbench: cannot import tiltedsum.cli from {SRC}: {err.decode()[-300:]}")
        if attempt:
            times.append(wall)
    return statistics.median(times)


def repeat_rounds(seconds: float, one_round) -> None:
    """Call one_round() until ``seconds`` are used up, at least once.

    A round is not started when less than half of the last one's duration
    is left, so a run lasts ``seconds`` give or take half a round.
    """
    deadline = time.perf_counter() + seconds
    last = 0.0
    while last == 0.0 or deadline - time.perf_counter() > 0.5 * last:
        start = time.perf_counter()
        one_round()
        last = time.perf_counter() - start


def per_call_median_sum(rounds, field: str) -> float:
    """Sum over the script's calls of each call's median over the rounds."""
    return sum(statistics.median(getattr(r[i], field) for r in rounds) for i in range(len(rounds[0])))


def end_to_end(calls, seconds: float):
    env = child_env()
    setup = setup_seconds(env)
    rounds = []
    repeat_rounds(seconds, lambda: rounds.append([run_subprocess_call(call, env) for call in calls]))
    outcomes = [o for r in rounds for o in r]
    metrics = {
        "setup_s": setup,
        "wall_s": per_call_median_sum(rounds, "wall"),
        "call_p50_s": statistics.median(o.wall for o in outcomes),
        "cpu_s": per_call_median_sum(rounds, "cpu"),
        "peak_rss_mib": max(o.rss_kib for o in outcomes) / 1024.0,
    }
    return rounds, metrics, {}


def traced(calls, seconds: float):
    sys.path.insert(0, str(SRC))
    from tiltedsum import cli

    imports = tracing.import_times(sys.executable, child_env(), ROOT, IMPORTTIME_REPEATS)
    tracer = tracing.Tracer()
    rounds = [[run_in_process(call, cli) for call in calls]]  # warm-up, checked but not timed
    plain, with_spans, layers, spans = [], [], [], []

    def pair_of_rounds():
        plain.append([run_in_process(call, cli) for call in calls])
        tracer.install()
        try:
            with_spans.append([run_in_process(call, cli) for call in calls])
        finally:
            tracer.uninstall()
        spans[:] = tracer.take()
        layers.append(tracing.layer_metrics(spans, sum(o.out_bytes for o in with_spans[-1])))

    repeat_rounds(seconds, pair_of_rounds)
    metrics = dict(imports)
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    overhead = per_call_median_sum(with_spans, "wall") - per_call_median_sum(plain, "wall")
    metrics["trace.overhead_s"] = overhead
    metrics = {name: metrics[name] for name in tracing.PER_LAYER}  # in the documented order
    trace = [span._asdict() for span in spans]
    return rounds + plain + with_spans, metrics, {"spans_of_last_round": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tiltedsum" / "cli.py").is_file():
        sys.exit(f"perfbench: no tiltedsum sources under {SRC}")

    calls = script(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    rounds, metrics, extra = measure(calls, args.seconds)

    outcomes = [o for r in rounds for o in r]
    failures = [o for o in outcomes if o.error]
    for o in failures[:5]:
        kind = "FAILED" if o.unexpected else "FAILED (known fault)"
        print(f"{kind} {o.label}: {o.error}", file=sys.stderr)
    result = {
        "correct": not any(o.unexpected for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "rounds": [[o.__dict__ for o in r] for r in rounds],
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload}: {len(rounds)} rounds of {len(calls)} calls, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for metric, value in metrics.items():
        print(f"  {metric:36s} {value:14.6g} {UNITS[metric]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
