"""Run sampler and simulation harness: empirical moments and CDF distances against the exact law.

The tilted block sum of a path is an affine image of its occupation count
n1, so a replication only needs n1.  Paths are drawn block by block as runs
(:func:`_runs`), each chunk one (k, rows) buffer of run ends built in
place, and each path's letters n0, n1 in state 0 and 1 come from
alternating-row sums of those ends.  Two checks run on every path: n0 + n1
must be n, and the per-letter sum j0*n0 + j1*n1 must match the exact law's
atom at n1.  Only the histogram of n1 is kept; the report, the named tuple
:class:`SimReport`, comes from it, so nothing of the replication count's
size is stored or sorted.  Both distances read the histogram in ``exact``'s
atom order, and ``ks_normal`` is ``exact``'s normal distance of the
empirical law.  Every stream is numpy's default generator, PCG64, and
block generators are seeded from (seed, block-index), so the report is a
pure function of its inputs no matter how blocks would be scheduled.
:func:`sample_trajectory` turns the runs of one path into its letters.
numpy serves the sampler, its checks and the two moment sums.  Each
chunk's run ends are summed down its columns one row at a time, or by
``np.cumsum`` where the chunk has more runs than paths.
"""

import math
import sys
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .exact import _ascending, _normal_distance, jn_law
from .markov import ChainParams, require_blocklength
from .tilting import jtilt, require_interior

PATHWISE_TOL = 1e-10
MIN_REPLICATIONS = 100
MAX_SAMPLE_BUDGET = 10**8  # replications * n
_BLOCK_ROWS = 4096
_CHUNK_ELEMENTS = 2**16  # runs per sampler chunk, across all of its rows
_EPS = sys.float_info.epsilon


def _runs(chain: ChainParams, n: int, rows: int, rng: np.random.Generator):
    """Run ends of ``rows`` stationary paths of n letters, as chunks ``(first, start, ends)``.

    The first letter is drawn from pi by inverse CDF; runs then alternate states, with
    Geometric(a) lengths in state 0 and Geometric(b) in state 1 (the first run too: the
    chain is memoryless), by inverse CDF 1 + floor(ln(1-U)/ln(1-p)).  ``ends`` is one
    (k, rows) float64 buffer, path r in column r, that is filled with uniforms and turned
    in place into the path's cumulative letter count at the end of each of its next k
    runs, clipped at n.  A wide chunk (k <= rows, as in every block of 256 or more paths)
    is summed down its columns one row at a time: row j adds row j-1 in place, one
    contiguous add of ``rows`` values with no overlap copy, where ``np.cumsum`` along
    axis 0 is a strided loop.  A tall chunk (k > rows, as in the one path of
    ``sample_trajectory``) is summed by ``np.cumsum``, where the row loop would cost a
    call per row.  ``start`` is each path's letter count before the chunk and ``first``
    its state in the chunk's row 0; row j is in state first ^ (j & 1).  The ``ends``
    buffer is overwritten by the next chunk; ``first`` and ``start`` are not.  All
    entries are integers below k*n < 2**53, so they and their sums are exact in any
    order of addition.  A chunk holds k <= n runs per path, with
    k*rows <= ``_CHUNK_ELEMENTS`` and k <= E + 4*sqrt(E) for the expected run count
    E = 1 + (n-1)*2ab/(a+b) of a path.  Every path of a block draws k runs per chunk
    until the block's last path is full, so short paths on a sticky chain leave most
    draws unused: on (0.02, 0.05) at n = 16, k = 7 against E = 1.43, and 80% of the
    uniforms go unused.
    """
    runs = 1.0 + (n - 1) * 2.0 * chain.a * chain.b / (chain.a + chain.b)
    k = min(n, _CHUNK_ELEMENTS // rows, math.ceil(runs + 4.0 * math.sqrt(runs)))
    inv_log_stay = 1.0 / np.log1p(-np.array([chain.a, chain.b]))  # 1/ln(1-p) in state 0, 1
    first = (rng.random(rows) >= chain.pi0).astype(np.uint8)  # each path's next run
    start = np.zeros(rows)
    ends = np.empty((k, rows))
    while start.min() < n:
        rng.random(out=ends)
        np.subtract(1.0, ends, out=ends)
        np.log(ends, out=ends)
        ends[0::2] *= inv_log_stay[first]
        ends[1::2] *= inv_log_stay[first ^ 1]
        np.floor(ends, out=ends)
        ends += 1.0
        ends[0] += start
        if k > rows:
            np.cumsum(ends, axis=0, out=ends)
        else:
            for j in range(1, k):  # row j becomes the sum of rows 0..j
                np.add(ends[j], ends[j - 1], out=ends[j])
        np.minimum(ends, n, out=ends)
        yield first, start, ends
        start = ends[-1].copy()
        first = first ^ (k & 1)


def sample_trajectory(chain: ChainParams, n: int, seed: int) -> np.ndarray:
    """The states of n letters of the stationary chain, sampled run by run (see :func:`_runs`).

    Uniforms come from ``np.random.default_rng(seed)`` (PCG64), so the sequence
    is a pure function of (seed, n) and regenerating it is bit-identical.
    """
    require_blocklength(n)
    rng = np.random.default_rng(seed)
    pieces = [
        np.repeat(
            (np.arange(len(ends)) & 1).astype(np.uint8) ^ first[0],
            np.diff(ends[:, 0], prepend=start[0]).astype(np.int64),
        )
        for first, start, ends in _runs(chain, n, 1, rng)
    ]
    return np.concatenate(pieces)


class SimReport(NamedTuple):
    """Empirical summary of one simulation run."""

    emp_mean: float
    emp_var: float
    ks_exact: float
    ks_normal: float


def _count_histogram(
    chain: ChainParams, d: float, n: int, support: list[float], replications: int, seed: int
) -> np.ndarray:
    """Histogram of the occupation count n1 over the replications, pathwise-checked.

    Within a chunk of run ends e_0..e_{k-1} that starts at f letters, the
    runs in the chunk's first state hold e_0 - e_1 + e_2 - ... - f letters,
    plus e_{k-1} when k is even; the other runs hold the rest of
    e_{k-1} - f.  Each letter of a state-x run carries jx, so the per-letter
    sum is n0*j0 + n1*j1 with equal letters grouped, free of
    summation-order error.  It must match the exact law's atom at m = n1,
    ``support[n1]`` (the one atom on a symmetric chain), to
    max(``PATHWISE_TOL``, 64*eps*n*L) with
    L = max(1, |log2 a|, |log2 b|, |log2 pi0|, |log2 pi1|), since both forms
    add terms of up to about n*L bits and round at eps times that; and
    n0 + n1 must be n.
    """
    j0, j1 = jtilt(chain, d, 0), jtilt(chain, d, 1)
    bits = max(1.0, *(abs(math.log2(p)) for p in (chain.a, chain.b, chain.pi0, chain.pi1)))
    tol = max(PATHWISE_TOL, 64.0 * _EPS * n * bits)
    # A symmetric chain's law is a single atom, shared by every count.
    atoms = np.broadcast_to(support, n + 1)

    histogram = np.zeros(n + 1, dtype=np.int64)  # replications per occupation count
    for block in range(-(-replications // _BLOCK_ROWS)):
        rows = min(_BLOCK_ROWS, replications - block * _BLOCK_ROWS)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        n0 = n1 = 0.0  # each path's letters in state 0 and in state 1
        for first, start, ends in _runs(chain, n, rows, rng):
            last = ends[-1]
            head = ends[0::2].sum(axis=0) - ends[1::2].sum(axis=0) - start
            if len(ends) % 2 == 0:
                head += last
            rest = last - start - head
            n0 = n0 + np.where(first, rest, head)
            n1 = n1 + np.where(first, head, rest)
        if (n0 + n1 != n).any():
            raise RuntimeError(f"sampled paths do not all have n={n} letters")
        counts = n1.astype(np.int64)
        err = np.abs(n0 * j0 + n1 * j1 - atoms[counts])
        if err.max() > tol:
            raise RuntimeError(
                f"pathwise identity violated: per-letter sum and occupation-count "
                f"form differ by {err.max():.3e} (> {tol:g})"
            )
        histogram += np.bincount(counts, minlength=n + 1)
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
    shift = float(support[np.argmax(histogram)])
    dev = np.subtract(support, shift)
    dev_mean = float((histogram * dev).sum()) / replications
    emp_mean = shift + dev_mean
    emp_var = float((histogram * (dev - dev_mean) ** 2).sum()) / (replications - 1)

    # Both laws are step functions on one lattice, so the sup is taken at an atom.
    counts = histogram.tolist()
    seen = (c / replications for c in accumulate(_ascending(chain, counts)))
    ks_exact = max(abs(s - p) for s, p in zip(seen, accumulate(_ascending(chain, probs))))
    ks_normal = _normal_distance(chain, n, [c / replications for c in counts])
    return SimReport(emp_mean=emp_mean, emp_var=emp_var, ks_exact=ks_exact, ks_normal=ks_normal)
