"""Run sampler and simulation harness: empirical moments and CDF distances against the exact law.

The tilted block sum of a path is an affine image of its occupation count
n1, so a replication only needs n1.  Paths are drawn block by block as runs
(:func:`_runs`), each chunk one (k, rows) buffer of run ends built in
place, and each path's letters n0, n1 in state 0 and 1 come from
alternating-row sums of those ends.  Two checks run on every path: n0 + n1
must be n, and the per-letter sum j0*n0 + j1*n1 must match the exact law's
atom at n1.  Only the histogram of n1 is kept; every statistic of the
report is computed from it, so nothing of the size of the replication count
is stored or sorted.  Atom m of the law is n*j0 - ell*m, so both distances
read the count lattice in atom order taken from the sign of ell: n..0 when
ell > 0, else 0..n.  Block generators are derived from (seed, block-index),
so the report is a pure function of its inputs no matter how blocks would
be scheduled.  :func:`exact_normal_distance` gives the normal approximation's
error at one n free of sampling noise; a sweep over n is a loop over it and
:func:`simulate`.  :func:`sample_trajectory` turns the runs of one path into
its letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import jn_law, occupation_pmf
from .markov import ChainParams, require_blocklength
from .tilting import jtilt, require_interior

PATHWISE_TOL = 1e-10
MIN_REPLICATIONS = 100
MAX_SAMPLE_BUDGET = 10**8  # replications * n
_BLOCK_ROWS = 4096
_CHUNK_ELEMENTS = 2**16  # runs per sampler chunk, across all of its rows
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)


def _runs(chain: ChainParams, n: int, rows: int, rng: np.random.Generator):
    """Run ends of ``rows`` stationary paths of n letters, as chunks ``(first, start, ends)``.

    The first letter is drawn from pi by inverse CDF; runs then alternate states, with
    Geometric(a) lengths in state 0 and Geometric(b) in state 1 (the first run too: the
    chain is memoryless), by inverse CDF 1 + floor(ln(1-U)/ln(1-p)).  ``ends`` is one
    (k, rows) float64 buffer, path r in column r, that is filled with uniforms and turned
    in place into the path's cumulative letter count at the end of each of its next k
    runs, clipped at n.  ``start`` is each path's letter count before the chunk and
    ``first`` its state in the chunk's row 0; row j is in state first ^ (j & 1).  The
    ``ends`` buffer is overwritten by the next chunk; ``first`` and ``start`` are not.
    All entries are integers below k*n < 2**53, so they and their sums are exact.  A
    chunk holds k <= n runs per path, with k*rows <= ``_CHUNK_ELEMENTS`` and
    k <= E + 4*sqrt(E) for the expected run count E = 1 + (n-1)*2ab/(a+b) of a path,
    so a short path draws few more runs than it uses.
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
        np.cumsum(ends, axis=0, out=ends)
        np.minimum(ends, n, out=ends)
        yield first, start, ends
        start = ends[-1].copy()
        first = first ^ (k & 1)


def sample_trajectory(chain: ChainParams, n: int, seed: int) -> np.ndarray:
    """The states of n letters of the stationary chain, sampled run by run (see :func:`_runs`).

    Uniforms come from a Philox counter-based generator, so the sequence is
    a pure function of (seed, n) and regenerating it is bit-identical.
    """
    require_blocklength(n)
    rng = np.random.Generator(np.random.Philox(seed))
    pieces = [
        np.repeat(
            (np.arange(len(ends)) & 1).astype(np.uint8) ^ first[0],
            np.diff(ends[:, 0], prepend=start[0]).astype(np.int64),
        )
        for first, start, ends in _runs(chain, n, 1, rng)
    ]
    return np.concatenate(pieces)


@dataclass(frozen=True)
class SimReport:
    """Empirical summary of one simulation run."""

    emp_mean: float
    emp_var: float
    ks_exact: float
    ks_normal: float


def _count_histogram(
    chain: ChainParams, d: float, n: int, support: np.ndarray, replications: int, seed: int
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
        stream = np.random.SeedSequence(seed, spawn_key=(block,))
        n0 = n1 = 0.0  # each path's letters in state 0 and in state 1
        rng = np.random.Generator(np.random.Philox(stream))
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


def _ascending(chain: ChainParams, values: np.ndarray) -> np.ndarray:
    """Count-indexed ``values`` in ascending-atom order: atom m is offset - ell*m."""
    return values[::-1] if chain.ell > 0 else values


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5*erfc(-z/sqrt(2)), elementwise.

    erfc keeps relative accuracy in the lower tail, where 1 + erf(z/sqrt(2))
    would round to 0; the relative error stays below 1e-14 for |z| <= 10.
    """
    return np.array([0.5 * math.erfc(-x / _SQRT2) for x in z.tolist()])


def _normal_distance(chain: ChainParams, n: int, probs: np.ndarray) -> float:
    """Sup-distance from Phi of the standardized sum whose count m has mass probs[m].

    The count m sits at -ell*(m - n*pi1)/sqrt(n*V_sl).  Standardizing the
    count, not the rounded atoms offset - ell*m, keeps the distance
    meaningful on chains a few ulps from symmetric, where ell is tiny.  The
    step CDF jumps at each atom and Phi is continuous, so the supremum is
    attained at an atom or at its left limit.
    """
    z = -chain.ell * (np.arange(n + 1) - n * chain.pi1) / math.sqrt(n * chain.v_sl)
    cum = np.cumsum(_ascending(chain, probs))
    phi = _phi(_ascending(chain, z))
    left = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.abs(cum - phi).max(), np.abs(left - phi).max()))


def exact_normal_distance(chain: ChainParams, n: int) -> float:
    """Sup-distance between the exact law, standardized by n*V_sl, and the normal CDF.

    This isolates the CLT approximation error from sampling noise.
    """
    if chain.symmetric:
        raise ValueError("symmetric chain: the centered sum is a point mass")
    return _normal_distance(chain, n, np.asarray(occupation_pmf(chain, n)))


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
    support, probs = map(np.asarray, jn_law(chain, d, n))
    histogram = _count_histogram(chain, d, n, support, replications, seed)
    if chain.symmetric:
        # Degenerate law, one atom: standardization is undefined, and a
        # point mass at 0 lies 1/2 from Phi.
        return SimReport(float(support[0]), 0.0, 0.0, 0.5)

    # Shifted moments: deviations from the most observed atom keep the
    # arithmetic well-scaled, and exact when every sample shares one atom.
    shift = float(support[np.argmax(histogram)])
    dev = support - shift
    dev_mean = float((histogram * dev).sum()) / replications
    emp_mean = shift + dev_mean
    emp_var = float((histogram * (dev - dev_mean) ** 2).sum()) / (replications - 1)

    # Both laws are step functions on one lattice, so the sup is taken at an atom.
    seen = np.cumsum(_ascending(chain, histogram)) / replications
    ks_exact = float(np.abs(seen - np.cumsum(_ascending(chain, probs))).max())
    ks_normal = _normal_distance(chain, n, histogram / replications)
    return SimReport(emp_mean=emp_mean, emp_var=emp_var, ks_exact=ks_exact, ks_normal=ks_normal)
