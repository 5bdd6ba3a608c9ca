"""Span tracing of tiltedsum's public functions, installed from outside.

:class:`Tracer` wraps every public function of each tiltedsum module and
rebinds each name bound to it in any loaded ``tiltedsum`` module, including
the names ``tiltedsum.cli`` imported, so calls between modules are traced
too.  A span holds the function's name, start, end, the index of the span
that called it and a work count for the functions listed in ``WORK``.
Spans stay in memory; the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

MODULES = ("markov", "tilting", "exact", "cgf", "montecarlo", "oracle", "cli")

# Work done by one call, from its bound arguments.
WORK = {
    "exact.occupation_pmf": lambda a: a["n"],
    "exact.occupation_log2_pgf": lambda a: a["n"],
    "montecarlo.simulate": lambda a: a["n"] * a["replications"],
    "oracle.enumerate_pmf": lambda a: 2 ** a["n"],
    "oracle.oracle_variance": lambda a: 2 ** a["n"],
}

# name -> unit; the traced run reports exactly these.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main_s": "s",
    "cli.render_s": "s",
    "cli.out_bytes": "B",
    "cli.calls": "count",
    "markov.self_s": "s",
    "markov.derive_chain_calls": "count",
    "tilting.self_s": "s",
    "exact.self_s": "s",
    "exact.occupation_pmf_s": "s",
    "exact.occupation_pmf_calls": "count",
    "exact.occupation_pmf_letters": "count",
    "exact.occupation_log2_pgf_s": "s",
    "exact.occupation_log2_pgf_calls": "count",
    "exact.occupation_log2_pgf_letters": "count",
    "exact.variance_exact_s": "s",
    "cgf.self_s": "s",
    "cgf.cgf_curve_s": "s",
    "cgf.rate_function_s": "s",
    "cgf.rate_function_calls": "count",
    "cgf.cgf_limit_derivative_calls": "count",
    "cgf.saddlepoint_tail_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.simulate_s": "s",
    "montecarlo.letters": "count",
    "montecarlo.letters_per_s": "1/s",
    "oracle.self_s": "s",
    "oracle.enumerate_pmf_s": "s",
    "oracle.oracle_variance_s": "s",
    "oracle.paths": "count",
    "trace.overhead_s": "s",
}


class Span(NamedTuple):
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: int  # index of the calling span, -1 at the top
    work: int


class Tracer:
    """Installs and removes span-recording wrappers around tiltedsum's functions."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._wrappers = {}  # original function -> wrapper
        for module_name in MODULES:
            module = importlib.import_module(f"tiltedsum.{module_name}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    self._wrappers[obj] = self._wrap(f"{module_name}.{name}", obj)
        self._bindings = [
            (module, name, obj)
            for module_name, module in list(sys.modules.items())
            if module_name == "tiltedsum" or module_name.startswith("tiltedsum.")
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj in self._wrappers
        ]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                done = work(signature.bind(*args, **kwargs).arguments) if work else 0
                spans[index] = Span(name, start, end, parent, done)

        return traced

    def install(self) -> None:
        for module, name, original in self._bindings:
            setattr(module, name, self._wrappers[original])

    def uninstall(self) -> None:
        for module, name, original in self._bindings:
            setattr(module, name, original)

    def take(self) -> list[Span]:
        """Spans recorded since the last call, which are then forgotten."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[Span], out_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced round (all in-process metrics)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    self_time = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for index, span in enumerate(spans):
        module = span.name.split(".", 1)[0]
        self_time[module] += span.end - span.start - covered[index]
        calls[span.name] += 1
        work[span.name] += span.work
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:  # outermost span of this function: no double counting
            inclusive[span.name] += span.end - span.start
    letters = work["montecarlo.simulate"]
    simulate_s = inclusive["montecarlo.simulate"]
    return {
        "cli.main_s": inclusive["cli.main"],
        "cli.render_s": sum(inclusive[f"cli.render_{fmt}"] for fmt in ("csv", "json", "table")),
        "cli.out_bytes": out_bytes,
        "cli.calls": calls["cli.main"],
        "markov.self_s": self_time["markov"],
        "markov.derive_chain_calls": calls["markov.derive_chain"],
        "tilting.self_s": self_time["tilting"],
        "exact.self_s": self_time["exact"],
        "exact.occupation_pmf_s": inclusive["exact.occupation_pmf"],
        "exact.occupation_pmf_calls": calls["exact.occupation_pmf"],
        "exact.occupation_pmf_letters": work["exact.occupation_pmf"],
        "exact.occupation_log2_pgf_s": inclusive["exact.occupation_log2_pgf"],
        "exact.occupation_log2_pgf_calls": calls["exact.occupation_log2_pgf"],
        "exact.occupation_log2_pgf_letters": work["exact.occupation_log2_pgf"],
        "exact.variance_exact_s": inclusive["exact.variance_exact"],
        "cgf.self_s": self_time["cgf"],
        "cgf.cgf_curve_s": inclusive["cgf.cgf_curve"],
        "cgf.rate_function_s": inclusive["cgf.rate_function"],
        "cgf.rate_function_calls": calls["cgf.rate_function"],
        "cgf.cgf_limit_derivative_calls": calls["cgf.cgf_limit_derivative"],
        "cgf.saddlepoint_tail_s": inclusive["cgf.saddlepoint_tail"],
        "montecarlo.self_s": self_time["montecarlo"],
        "montecarlo.simulate_s": simulate_s,
        "montecarlo.letters": letters,
        "montecarlo.letters_per_s": letters / simulate_s if simulate_s > 0.0 else 0.0,
        "oracle.self_s": self_time["oracle"],
        "oracle.enumerate_pmf_s": inclusive["oracle.enumerate_pmf"],
        "oracle.oracle_variance_s": inclusive["oracle.oracle_variance"],
        "oracle.paths": work["oracle.enumerate_pmf"] + work["oracle.oracle_variance"],
    }


def _outermost_cumulative(report: str, prefix: str) -> float:
    """Seconds spent importing ``prefix`` and its submodules, from -X importtime.

    The report lists a module after its own imports, indented two spaces per
    level, so reading it backwards meets every parent before its children.
    """
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, raw_name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(raw_name) - len(raw_name.lstrip()) - 1) // 2
        entries.append((depth, raw_name.strip(), int(cumulative)))
    total_us, inside = 0, []  # inside: depths of enclosing matching modules
    for depth, name, cumulative in reversed(entries):
        while inside and inside[-1] >= depth:
            inside.pop()
        if name == prefix or name.startswith(prefix + "."):
            if not inside:
                total_us += cumulative
            inside.append(depth)
    return total_us / 1e6


def import_times(python: str, env: dict, cwd, repeats: int) -> dict[str, float]:
    """Median import seconds of tiltedsum.cli, numpy and scipy in fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(repeats):
        report = subprocess.run(
            [python, "-X", "importtime", "-c", "import tiltedsum.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True, timeout=120,
        ).stderr
        for metric, prefix in (("cli.import_s", "tiltedsum"), ("cli.import_numpy_s", "numpy"),
                               ("cli.import_scipy_s", "scipy")):
            samples[metric].append(_outermost_cumulative(report, prefix))
    return {metric: statistics.median(values) for metric, values in samples.items()}
