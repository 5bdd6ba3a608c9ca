"""Simulation harness: empirical moments and CDF distances against the exact law.

Each replication draws a stationary trajectory, computes the tilted block
sum twice (once by summing the per-letter closed form along the path, once
through the occupation-count reduction), and enforces their pathwise
agreement.  Replications are partitioned into fixed-size blocks whose
generators are derived from (seed, block-index), so the report is a pure
function of its inputs no matter how blocks would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import JnLaw, jn_law, occupation_pmf, variance_exact
from .markov import ChainParams
from .tilting import binary_entropy, require_interior

PATHWISE_TOL = 1e-10
MIN_REPLICATIONS = 100
MAX_SAMPLE_BUDGET = 10**8  # replications * n
_BLOCK_ROWS = 4096
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SimReport:
    """Empirical summary of one simulation run."""

    n: int
    replications: int
    seed: int
    emp_mean: float
    emp_var: float
    ks_exact: float
    ks_normal: float


@dataclass(frozen=True)
class CltDistance:
    """Normal-approximation distances at one blocklength.

    ``ks_normal`` is the empirical sup-distance of the standardized
    simulated sums from the standard normal CDF; ``exact_distance`` is the
    same sup-distance for the exact law, with no sampling noise in it.
    """

    n: int
    ks_normal: float
    exact_distance: float


def _sample_sums(
    chain: ChainParams, d: float, law: JnLaw, replications: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tilted block sums for each replication, pathwise-checked, and the count histogram.

    Trajectories are generated block by block; within a block the chain
    steps column-wise (inverse CDF per row of P).  Each sample is the atom
    of ``law`` at the path's occupation count, so it lands exactly on an
    atom of the law it is later compared with.  The per-letter sum uses
    compensated accumulation so the pathwise identity check is not limited
    by summation order at large n.
    """
    n = law.n
    j0 = -math.log2(chain.pi0) - binary_entropy(d)
    j1 = -math.log2(chain.pi1) - binary_entropy(d)
    # A symmetric chain's law is a single atom, shared by every count.
    atoms = np.broadcast_to(law.support, n + 1)
    stay0 = 1.0 - chain.a
    go0 = chain.b

    sums = np.empty(replications)
    histogram = np.zeros(n + 1, dtype=np.int64)  # replications per occupation count
    streams = np.random.SeedSequence(seed).spawn(-(-replications // _BLOCK_ROWS))
    for block, stream in enumerate(streams):
        start = block * _BLOCK_ROWS
        rows = min(_BLOCK_ROWS, replications - start)
        rng = np.random.Generator(np.random.Philox(stream))
        state = (rng.random(rows) >= chain.pi0).astype(np.int8)
        counts = state.astype(np.int64)
        path_sum = np.where(state == 0, j0, j1)
        comp = np.zeros(rows)
        for _ in range(1, n):
            thresh = np.where(state == 0, stay0, go0)
            state = (rng.random(rows) >= thresh).astype(np.int8)
            counts += state
            # Kahan step, vectorized over replications.
            term = np.where(state == 0, j0, j1) - comp
            tentative = path_sum + term
            comp = (tentative - path_sum) - term
            path_sum = tentative
        affine = atoms[counts]
        err = np.abs(path_sum - affine)
        if err.max() > PATHWISE_TOL:
            raise RuntimeError(
                f"pathwise identity violated: per-letter sum and occupation-count "
                f"form differ by {err.max():.3e} (> {PATHWISE_TOL:g})"
            )
        sums[start : start + rows] = affine
        histogram += np.bincount(counts, minlength=n + 1)
    return sums, histogram


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5*erfc(-z/sqrt(2)), elementwise.

    erfc keeps relative accuracy in the lower tail, where 1 + erf(z/sqrt(2))
    would round to 0; the relative error stays below 1e-14 for |z| <= 10.
    """
    return np.array([0.5 * math.erfc(-x / _SQRT2) for x in z.tolist()])


def _sup_distance(f: np.ndarray, f_left: np.ndarray, g: np.ndarray, g_left: np.ndarray) -> float:
    """Sup-distance between two CDFs given at common sorted atoms.

    Each CDF comes as its values at the atoms and its left limits there.
    Neither jumps between consecutive atoms and both are nondecreasing, so
    the supremum over the line is attained at an atom or its left limit.
    """
    return float(max(np.abs(f - g).max(), np.abs(f_left - g_left).max()))


def _scale(chain: ChainParams, n: int, use_finite_n_variance: bool) -> float:
    """Standardization scale sqrt(n*V_sl), or sqrt(Var(J_n)) when asked."""
    if use_finite_n_variance:
        return math.sqrt(variance_exact(chain, n))
    return math.sqrt(n * chain.v_sl)


def _normal_distance(chain: ChainParams, n: int, probs: np.ndarray, finite_n: bool) -> float:
    """Sup-distance from Phi of the standardized sum whose count m has mass probs[m].

    The count m sits at -ell*(m - n*pi1)/sqrt(n*V).  Standardizing the
    count, not the rounded atoms offset - ell*m, keeps the distance
    meaningful on chains a few ulps from symmetric, where ell is tiny.
    """
    atoms = -chain.ell * (np.arange(n + 1) - n * chain.pi1) / _scale(chain, n, finite_n)
    order = np.argsort(atoms)
    cum = np.cumsum(probs[order])
    phi = _phi(atoms[order])
    return _sup_distance(cum, np.concatenate(([0.0], cum[:-1])), phi, phi)


def exact_normal_distance(
    chain: ChainParams, n: int, use_finite_n_variance: bool = False
) -> float:
    """Sup-distance between the standardized exact law and the normal CDF.

    This isolates the CLT approximation error from sampling noise.
    Standardization uses the limiting variance unless
    ``use_finite_n_variance`` is set.
    """
    if chain.symmetric:
        raise ValueError("symmetric chain: the centered sum is a point mass")
    return _normal_distance(chain, n, occupation_pmf(chain, n).probs, use_finite_n_variance)


def simulate(
    chain: ChainParams,
    d: float,
    n: int,
    replications: int,
    seed: int,
    use_finite_n_variance: bool = False,
    max_budget: int = MAX_SAMPLE_BUDGET,
) -> SimReport:
    """Simulate the tilted block sum and compare with the exact theory.

    ``ks_exact`` measures the empirical CDF against the exact finite-n law
    and ``ks_normal`` the standardized empirical CDF against the normal;
    standardization uses n*V_sl (or the exact finite-n variance when
    ``use_finite_n_variance`` is set, as a diagnostic).
    """
    require_interior(chain, d)
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications={replications} must be >= {MIN_REPLICATIONS}")
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if replications * n > max_budget:
        raise ValueError(
            f"replications*n = {replications * n} exceeds the sample budget {max_budget}"
        )
    law = jn_law(chain, d, n)
    sums, histogram = _sample_sums(chain, d, law, replications, seed)

    # Shifted moments: deviations from the first sample keep the arithmetic
    # exact for the degenerate (constant) case and well-scaled otherwise.
    dev = sums - sums[0]
    emp_mean = sums[0] + float(dev.mean())
    emp_var = float(np.var(dev, ddof=1))

    # Every sample sits on an atom of the law, so both distances need the
    # CDFs at the atoms only: Phi is evaluated at most n+1 times.
    atoms, cum = law.cdf_points()
    ordered = np.sort(sums)
    emp = np.searchsorted(ordered, atoms, side="right") / replications
    emp_left = np.searchsorted(ordered, atoms, side="left") / replications
    ks_exact = _sup_distance(emp, emp_left, cum, np.concatenate(([0.0], cum[:-1])))
    if chain.symmetric:
        # Degenerate law: standardization is undefined; report the distance
        # of a point mass at 0 from Phi, which is 1/2.
        ks_normal = 0.5
    else:
        ks_normal = _normal_distance(chain, n, histogram / replications, use_finite_n_variance)
    return SimReport(
        n=n,
        replications=replications,
        seed=seed,
        emp_mean=emp_mean,
        emp_var=emp_var,
        ks_exact=ks_exact,
        ks_normal=ks_normal,
    )


def clt_distance_sweep(
    chain: ChainParams,
    d: float,
    n_grid,
    replications: int,
    seed: int,
    use_finite_n_variance: bool = False,
) -> list[CltDistance]:
    """Normal-approximation distances along an increasing blocklength grid.

    Each blocklength gets its own derived seed stream, so the sweep is
    deterministic and insensitive to grid slicing.
    """
    require_interior(chain, d)
    if chain.symmetric:
        raise ValueError("symmetric chain: standardized law is degenerate")
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n_grid {n_grid} must be strictly increasing")
    out = []
    for n in n_grid:
        sub_seed = int(np.random.SeedSequence((seed, n)).generate_state(1, np.uint64)[0])
        report = simulate(
            chain, d, n, replications, sub_seed, use_finite_n_variance=use_finite_n_variance
        )
        out.append(
            CltDistance(
                n=n,
                ks_normal=report.ks_normal,
                exact_distance=exact_normal_distance(
                    chain, n, use_finite_n_variance=use_finite_n_variance
                ),
            )
        )
    return out
