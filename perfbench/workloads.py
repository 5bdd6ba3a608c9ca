"""The benchmark's workloads: a fixed script of CLI calls per workload.

A script is a pure function of the seed.  The seed moves the chains a few
percent around their base values and draws distortions, grids and tail
thresholds, but never the blocklengths, the number of grid points or the
replication counts, so every seed asks for the same amount of work.  No
input comes near a case the program is known to get wrong: chains stay
away from slow mixing (a, b >= 0.02), simulate stays under the count-DP
cap, and JSON is only requested where no value is infinite.

The monte-carlo script is the exception: its inputs are fixed.  simulate's
``ks_exact`` is inflated by a whole atom's mass whenever the sampled sums
and the exact law's atoms differ in their last bit, which happens for most
chains; on short paths that breaks the DKW bound.  Fixed inputs make the
calls that hit this fault fail in every run, and they are declared with
``known_fault`` so that they count as failed without marking the run
incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
import reference as ref
from reference import Chain

# The asymmetric pairs of the CLI's own verify set.
VERIFY_PAIRS = [(0.1, 0.3), (0.3, 0.1), (0.25, 0.75), (0.6, 0.7), (0.45, 0.35)]
FAST_PAIR = (0.6, 0.7)  # switches state at more than every other letter
STICKY_PAIR = (0.02, 0.05)  # mean holding times of 50 and 20 letters


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], None]
    known_fault: str = ""  # text of the check failure this call is known to hit

    @property
    def label(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return repr(float(x))


def _grid(values) -> str:
    return ",".join(_num(v) for v in values)


class _Inputs:
    """Seeded draws around fixed base values."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def chain(self, pair) -> Chain:
        a, b = (round(p * (1.0 + self.rng.uniform(-0.03, 0.03)), 5) for p in pair)
        return Chain(a, b)

    def distortion(self, chain: Chain) -> float:
        return round(self.rng.uniform(0.2, 0.8) * min(chain.pi0, chain.pi1), 5)

    def thetas(self, chain: Chain, moderate: int, saturated: int) -> list[float]:
        """0, moderate tilts |theta*ell| <= 20, and saturated tilts on both sides.

        Saturated tilts have |theta*ell| in [600, 900]: on one side they take
        the direct branch of the finite-n CGF with u = 2^-600 or smaller,
        on the other its state-swapped branch (log2 u > 512).
        """
        scale = 1.0 / abs(chain.ell)
        out = [0.0] + [self.rng.uniform(-20.0, 20.0) * scale for _ in range(moderate - 1)]
        for sign in (-1.0, 1.0):
            out += [sign * self.rng.uniform(600.0, 900.0) * scale for _ in range(saturated)]
        return sorted(out)

    def xs(self, chain: Chain, count: int) -> list[float]:
        """Dense x-grid whose ends lie within 1.6e-8 of its width from the interval's ends."""
        lo, hi = chain.slope_range()
        out = []
        for k in range(count):
            t = -18.0 + 36.0 * (k + self.rng.random()) / count
            out.append(lo + (hi - lo) / (1.0 + math.exp(-t)))
        return out

    def tail_x(self, chain: Chain, n: int) -> float:
        """x halfway between two atoms, 3 to 5 standard deviations out."""
        target = self.rng.uniform(3.0, 5.0) * math.sqrt(ref.variance_double_sum(chain, n))
        step = abs(chain.ell)
        start = min(-chain.ell * (0 - n * chain.pi1), -chain.ell * (n - n * chain.pi1))
        k = math.floor((target - start) / step)
        return (start + (k + 0.5) * step) / n


def _pmf(inp: _Inputs, pair, n: int, fmt: str) -> Call:
    chain = inp.chain(pair)
    d = inp.distortion(chain)
    argv = ("pmf", "--a", _num(chain.a), "--b", _num(chain.b), "--distortion", _num(d),
            "--n", str(n), "--format", fmt)
    return Call(argv, partial(checks.check_pmf, chain, d, n, fmt))


def _tail(inp: _Inputs, pair, n: int, fmt: str) -> Call:
    chain = inp.chain(pair)
    x = inp.tail_x(chain, n)
    argv = ("tail", "--a", _num(chain.a), "--b", _num(chain.b), "--n", str(n), "--x", _num(x),
            "--format", fmt)
    return Call(argv, partial(checks.check_tail, chain, n, x, fmt))


def _cgf(inp: _Inputs, pair, n: int, moderate: int, saturated: int, fmt: str) -> Call:
    chain = inp.chain(pair)
    thetas = inp.thetas(chain, moderate, saturated)
    argv = ("cgf", "--a", _num(chain.a), "--b", _num(chain.b), "--n", str(n),
            f"--theta-grid={_grid(thetas)}", "--format", fmt)
    return Call(argv, partial(checks.check_cgf, chain, n, thetas, fmt))


def _rate(inp: _Inputs, pair, count: int, fmt: str) -> Call:
    chain = inp.chain(pair)
    xs = inp.xs(chain, count)
    argv = ("rate", "--a", _num(chain.a), "--b", _num(chain.b), f"--x-grid={_grid(xs)}",
            "--format", fmt)
    return Call(argv, partial(checks.check_rate, chain, xs, fmt))


def _simulate(pair, d: float, n: int, reps: int, seed: int, fmt: str, known_fault: str = "") -> Call:
    chain = Chain(*pair)
    argv = ("simulate", "--a", _num(chain.a), "--b", _num(chain.b), "--distortion", _num(d),
            "--n", str(n), "--reps", str(reps), "--seed", str(seed), "--format", fmt)
    return Call(argv, partial(checks.check_simulate, chain, d, n, reps, seed, fmt), known_fault)


def exact_pmf(inp: _Inputs) -> list[Call]:
    return [
        _pmf(inp, VERIFY_PAIRS[0], 8192, "csv"),
        _pmf(inp, VERIFY_PAIRS[3], 4096, "json"),
        _pmf(inp, VERIFY_PAIRS[4], 2048, "csv"),
        _pmf(inp, VERIFY_PAIRS[1], 300, "csv"),
        _pmf(inp, VERIFY_PAIRS[2], 24, "json"),
        _tail(inp, VERIFY_PAIRS[0], 4096, "json"),
        _tail(inp, VERIFY_PAIRS[4], 600, "csv"),
    ]


def cgf_rate(inp: _Inputs) -> list[Call]:
    return [
        _cgf(inp, VERIFY_PAIRS[0], 1_000_000, 5, 0, "csv"),
        _cgf(inp, VERIFY_PAIRS[3], 100_000, 15, 3, "json"),
        _cgf(inp, VERIFY_PAIRS[4], 10_000, 29, 6, "csv"),
        _rate(inp, VERIFY_PAIRS[1], 600, "csv"),
        _rate(inp, VERIFY_PAIRS[2], 600, "json"),
    ]


def monte_carlo(inp: _Inputs) -> list[Call]:
    del inp  # fixed inputs, see the module docstring
    fault = checks.KS_BEYOND_DKW
    return [
        _simulate(FAST_PAIR, 0.2, 16, 400_000, 11, "json", fault),
        _simulate(STICKY_PAIR, 0.1, 16, 400_000, 12, "json", fault),
        _simulate(FAST_PAIR, 0.2, 2000, 8192, 13, "csv"),
        _simulate(STICKY_PAIR, 0.1, 2000, 8192, 14, "csv"),
    ]


def short_calls(inp: _Inputs) -> list[Call]:
    calls = []
    chain = inp.chain(VERIFY_PAIRS[0])
    d = inp.distortion(chain)
    ab = ("--a", _num(chain.a), "--b", _num(chain.b))
    calls.append(Call(("stats", *ab, "--distortion", _num(d)), partial(checks.check_stats, chain, d)))
    calls.append(Call(("jtilt", *ab, "--distortion", _num(d)), partial(checks.check_jtilt, chain, d)))
    grid = [1, 2, 5, 10, 50, 100, 1000]
    calls.append(Call(("variance-table", *ab, "--n-grid", ",".join(map(str, grid)), "--format", "csv"),
                      partial(checks.check_variance_table, chain, grid)))
    calls.append(Call(("figure", *ab, "--format", "csv"),
                      partial(checks.check_figure, chain, list(range(1, 201)))))
    calls.append(Call(("paper-tables", "--format", "json"), checks.check_paper_tables))
    pairs = VERIFY_PAIRS + [(0.5, 0.5)]
    calls.append(Call(("verify", "--json"), partial(checks.check_verify, pairs, (0.05, 0.1, 0.2))))
    single = inp.chain(VERIFY_PAIRS[3])
    calls.append(Call(("verify", "--a", _num(single.a), "--b", _num(single.b), "--json"),
                      partial(checks.check_verify, [single], (0.05, 0.1, 0.2))))
    x = inp.xs(chain, 1)[0]
    calls.append(Call(("rate", *ab, "--x", _num(x), "--format", "csv"),
                      partial(checks.check_rate, chain, [x], "csv")))
    calls.append(_pmf(inp, VERIFY_PAIRS[1], 16, "csv"))
    return calls


WORKLOADS = {
    "exact-pmf": exact_pmf,
    "cgf-rate": cgf_rate,
    "monte-carlo": monte_carlo,
    "short-calls": short_calls,
}


def script(workload: str, seed: int) -> list[Call]:
    """The fixed list of calls that one round of ``workload`` makes."""
    return WORKLOADS[workload](_Inputs(seed))
