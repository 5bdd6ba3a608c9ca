"""Brute-force ground truth by exhaustive path enumeration (n <= 20).

Every length-n binary path is visited through its integer bit pattern and
its stationary probability pi_{x1} * prod_t P[x_t, x_{t+1}] accumulated.
All terms are positive, so plain float64 accumulation carries no
cancellation.  The oracle is part of the shipped artifact (not test-only)
so the command-line ``verify`` subcommand can certify the closed forms at
run time.
"""

from __future__ import annotations

import numpy as np

from .markov import ChainParams
from .tilting import jtilt_generic, require_interior

ENUM_MAX_N = 20  # 2^20 ~ 1e6 paths

# The two variance routes inside oracle_variance share the exact same path
# weights, so any disagreement beyond accumulated rounding is a logic error.
_INTERNAL_AGREEMENT = 1e-9


def _enumerate_paths(chain: ChainParams, n: int, letter_values: np.ndarray | None = None):
    """Probability and occupation count of every length-n path, at once.

    Path i reads its letters off the bits of i.  Given per-letter values,
    each path's sum of them is also accumulated letter by letter; otherwise
    that third result is None.  Refuses n > 20.
    """
    if not 1 <= n <= ENUM_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_MAX_N}, got n={n}")
    index = np.arange(2**n, dtype=np.uint32)
    trans = np.array([1.0 - chain.a, chain.a, chain.b, 1.0 - chain.b])  # flat P, row-major
    prev = (index & 1).astype(np.int64)
    prob = np.where(prev == 0, chain.pi0, chain.pi1)
    path_sum = None if letter_values is None else letter_values[prev]
    counts = prev.copy()
    for t in range(1, n):
        cur = ((index >> t) & 1).astype(np.int64)
        prob = prob * trans[2 * prev + cur]
        if path_sum is not None:
            path_sum = path_sum + letter_values[cur]
        counts += cur
        prev = cur
    return prob, counts, path_sum


def enumerate_pmf(chain: ChainParams, n: int) -> np.ndarray:
    """Occupation-count PMF, entry m for m = 0..n, by summing all 2^n path probabilities.

    Refuses n > 20.
    """
    prob, counts, _ = _enumerate_paths(chain, n)
    # Pairwise sums per bin keep the total within ~1e-14 of 1 even at n = 20;
    # bincount's sequential accumulation drifts past 1e-13 there.
    return np.array([prob[counts == m].sum() for m in range(n + 1)])


def oracle_variance(chain: ChainParams, d: float, n: int) -> float:
    """Var(J_n(D)) from exhaustive enumeration, in bits^2.

    The per-letter values are taken from the defining-sum route
    (:func:`tiltedsum.tilting.jtilt_generic`), never the collapsed closed
    form, and accumulated letter by letter along every path.  The same
    variance is recomputed through the affine image of the enumerated
    count law; the two must agree, which re-verifies the collapse
    pathwise.
    """
    require_interior(chain, d)
    jvals = np.array([jtilt_generic(chain, d, 0), jtilt_generic(chain, d, 1)])
    prob, counts, path_sum = _enumerate_paths(chain, n, jvals)
    mean = float(prob @ path_sum)
    var_paths = float(prob @ (path_sum - mean) ** 2)

    count_mean = float(prob @ counts)
    var_affine = (jvals[1] - jvals[0]) ** 2 * float(prob @ (counts - count_mean) ** 2)

    scale = max(1.0, abs(var_paths))
    if abs(var_paths - var_affine) > _INTERNAL_AGREEMENT * scale:
        raise RuntimeError(
            f"oracle variance routes disagree: {var_paths!r} vs {var_affine!r}"
        )
    return var_paths
