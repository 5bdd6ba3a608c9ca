"""Bit-sliced letter sampler and simulation harness: empirical moments and CDF distances.

The tilted block sum of a path is an affine image of its occupation count
n1, so a replication only needs n1.  Paths are sampled bit-sliced, in the
manner of Biham's DES (1997): a block of up to ``_BLOCK_PATHS`` paths is
one Python int per letter, path r in bit r, and :func:`_letters` yields
that int, the paths' states, letter by letter.  Each transition is an
exact Bernoulli draw by the bitwise comparison of Knuth and Yao (1976):
:func:`_flips` reads fresh random planes, one bit per path, against the
binary digits of a (paths in state 0) or b (paths in state 1) until every
path is decided.  :func:`_count_histogram` adds each letter into a
bit-sliced counter and splits the paths on its planes into the histogram
of n1.  Three checks run: the kernel gave each block n letters, the
histogram holds every replication, and the per-letter sum (n - m)*j0 +
m*j1 of every occupied count m matches the exact law's atom at m; every
path of count m has that sum, so this checks every path.  The report,
the named tuple :class:`SimReport`, comes from the histogram in plain
floats: both distances read it in ``exact``'s atom order, and
``ks_normal`` is ``exact``'s normal distance of the empirical law.
Every block is drawn in turn from one ``random.Random(seed)`` (MT19937)
stream, so the report is a pure function of its inputs.

The cost is about 5 ns per path-letter at full blocks, whatever the chain,
plus a fixed cost per letter and block: a letter of a block of w paths
reads about log2(w) + 2 planes.  :func:`sample_trajectory` is the width-1
case; it alone imports numpy, for the array it returns.
"""

import math
import random
import sys
from itertools import accumulate
from typing import NamedTuple

from .exact import _ascending, _normal_distance, jn_law
from .markov import ChainParams, require_blocklength
from .tilting import jtilt, require_interior

PATHWISE_TOL = 1e-10
MIN_REPLICATIONS = 100
MAX_SAMPLE_BUDGET = 10**8  # replications * n
_BLOCK_PATHS = 2**15  # paths per block, one bit each
_EPS = sys.float_info.epsilon


def _digit_codes(p0: float, p1: float) -> list[int]:
    """Binary digits of p0 and p1 after the point, as d0 + 2*d1, through the last 1 of either."""
    ratios = [p.as_integer_ratio() for p in (p0, p1)]  # each denominator a power of two
    places = max(den.bit_length() - 1 for _, den in ratios)
    m0, m1 = (num * (1 << places) // den for num, den in ratios)
    return [(m0 >> k & 1) | (m1 >> k & 1) << 1 for k in range(places - 1, -1, -1)]


def _flips(codes: list[int], state: int, full: int, rng: random.Random) -> int:
    """The paths of ``full`` whose Bernoulli draw fires: bit r set when U_r < p of its state.

    Path r's uniform U_r is read one binary digit per plane of ``rng.getrandbits``, bit r of
    each, against the digits ``codes`` of p0 (paths with bit r of ``state`` clear) and p1 (set).
    A path is decided at the first digit where the two differ, U_r < p when p's digit is 1
    there; a path whose digits all agree has U_r >= p.  The draw is exact for any float p0, p1,
    and it stops as soon as every path is decided.
    """
    width, getrandbits = full.bit_length(), rng.getrandbits
    ones = (0, full ^ state, state, full)  # the paths whose p has a 1 digit, by code
    undecided, fired = full, 0
    for code in codes:
        one = ones[code]
        decided = undecided & (getrandbits(width) ^ one)
        fired |= decided & one
        undecided ^= decided
        if not undecided:
            break
    return fired


def _letters(chain: ChainParams, n: int, width: int, rng: random.Random):
    """The states of ``width`` stationary paths, bit r for path r, for each of n letters.

    The first letter is 1 with probability pi1; then a path in state 0 moves to 1 with
    probability a, and one in state 1 to 0 with probability b (see :func:`_flips`).
    """
    full = (1 << width) - 1
    codes = _digit_codes(chain.a, chain.b)
    state = _flips(_digit_codes(chain.pi1, chain.pi1), full, full, rng)
    yield state
    for _ in range(n - 1):
        state ^= _flips(codes, state, full, rng)
        yield state


def sample_trajectory(chain: ChainParams, n: int, seed: int):
    """The states of n letters of the stationary chain, as a uint8 ``ndarray``.

    It is the one path of :func:`_letters` drawn from ``random.Random(seed)``, so the
    sequence is a pure function of (seed, n) and regenerating it is bit-identical.
    """
    import numpy as np

    require_blocklength(n)
    return np.array(list(_letters(chain, n, 1, random.Random(seed))), dtype=np.uint8)


class SimReport(NamedTuple):
    """Empirical summary of one simulation run."""

    emp_mean: float
    emp_var: float
    ks_exact: float
    ks_normal: float


def _count_histogram(
    chain: ChainParams, d: float, n: int, support: list[float], replications: int, seed: int
) -> list[int]:
    """Histogram of the occupation count n1 over the replications, pathwise-checked.

    Each letter's states add into a bit-sliced counter, plane i holding bit i of every
    path's count so far.  The counter is then split plane by plane, from the top, into
    the paths of each count m.  Each block must have had n letters, and the histogram must
    hold every replication.  Every path of count m has n - m letters carrying j0 and m
    carrying j1, so its per-letter sum is (n - m)*j0 + m*j1 with equal letters grouped.
    That sum must match the exact law's atom at m, ``support[m]`` (the one atom on a
    symmetric chain), to max(``PATHWISE_TOL``, 64*eps*n*L) with
    L = max(1, |log2 a|, |log2 b|, |log2 pi0|, |log2 pi1|), since both forms add terms of
    up to about n*L bits and round at eps times that.
    """
    j0, j1 = jtilt(chain, d, 0), jtilt(chain, d, 1)
    bits = max(1.0, *(abs(math.log2(p)) for p in (chain.a, chain.b, chain.pi0, chain.pi1)))
    tol = max(PATHWISE_TOL, 64.0 * _EPS * n * bits)

    histogram = [0] * (n + 1)  # replications per occupation count
    rng = random.Random(seed)
    for first in range(0, replications, _BLOCK_PATHS):
        width = min(_BLOCK_PATHS, replications - first)
        planes = [0] * n.bit_length()  # the counter: bit i of each path's count in planes[i]
        letters = 0
        for state in _letters(chain, n, width, rng):
            letters += 1
            i, carry = 0, state
            while carry:
                planes[i], carry = planes[i] ^ carry, planes[i] & carry
                i += 1
        if letters != n:
            raise RuntimeError(f"sampled paths do not all have n={n} letters")
        groups = [((1 << width) - 1, 0)]  # (paths, their count's bits above this plane)
        for i in reversed(range(len(planes))):
            split = []
            for paths, high in groups:
                ones = paths & planes[i]
                split += [(part, high | bit) for part, bit in ((paths ^ ones, 0), (ones, 1 << i))
                          if part]
            groups = split
        for paths, m in groups:
            histogram[m] += paths.bit_count()
    if sum(histogram) != replications:
        raise RuntimeError(f"the histogram does not hold replications={replications} paths")
    atoms = support * (n + 1) if len(support) == 1 else support  # a symmetric chain's one atom
    err = max(abs((n - m) * j0 + m * j1 - atoms[m]) for m, count in enumerate(histogram) if count)
    if err > tol:
        raise RuntimeError(
            f"pathwise identity violated: per-letter sum and occupation-count "
            f"form differ by {err:.3e} (> {tol:g})"
        )
    return histogram


def simulate(chain: ChainParams, d: float, n: int, replications: int, seed: int) -> SimReport:
    """Simulate the tilted block sum and compare with the exact theory.

    ``ks_exact`` measures the empirical CDF against the exact finite-n law
    and ``ks_normal`` the standardized empirical CDF against the normal;
    standardization uses n*V_sl.
    """
    require_interior(chain, d)
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications={replications} must be >= {MIN_REPLICATIONS}")
    require_blocklength(n)
    if seed < 0:
        raise ValueError(f"seed={seed} must be >= 0")
    if replications * n > MAX_SAMPLE_BUDGET:
        raise ValueError(
            f"replications*n = {replications * n} exceeds the sample budget {MAX_SAMPLE_BUDGET}"
        )
    support, probs = jn_law(chain, d, n)
    histogram = _count_histogram(chain, d, n, support, replications, seed)
    if chain.symmetric:
        # Degenerate law, one atom: standardization is undefined, and a
        # point mass at 0 lies 1/2 from Phi.
        return SimReport(float(support[0]), 0.0, 0.0, 0.5)

    # Shifted moments: deviations from the most observed atom keep the
    # arithmetic well-scaled, and exact when every sample shares one atom.
    shift = support[histogram.index(max(histogram))]
    dev = [s - shift for s in support]
    dev_mean = math.fsum(h * x for h, x in zip(histogram, dev)) / replications
    emp_mean = shift + dev_mean
    emp_var = math.fsum(h * (x - dev_mean) ** 2 for h, x in zip(histogram, dev)) / (
        replications - 1
    )

    # Both laws are step functions on one lattice, so the sup is taken at an atom.
    seen = (c / replications for c in accumulate(_ascending(chain, histogram)))
    ks_exact = max(abs(s - p) for s, p in zip(seen, accumulate(_ascending(chain, probs))))
    ks_normal = _normal_distance(chain, n, [c / replications for c in histogram])
    return SimReport(emp_mean=emp_mean, emp_var=emp_var, ks_exact=ks_exact, ks_normal=ks_normal)
