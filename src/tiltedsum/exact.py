"""Exact finite-n laws: the occupation count, the tilted block sum and its tails.

Let N_n count the letters equal to 1 in a block of length n.  The tilted
block sum is an affine image of the occupation count,

    J_n(D) = n*(-log2(pi0) - h2(D)) - ell*N_n,

so its law is two arrays, the atoms n*jtilt(D, 0) - ell*m and the count
probabilities Pr(N_n = m), and its centered law J_n(D) - n*mu_D =
-ell*(N_n - n*pi1) does not depend on the distortion level at all.  The
law of N_n comes from the polynomial transfer matrix

    pi^T D(z) (P D(z))^{n-1} 1,    D(z) = diag(1, z),

raised to the power n-1 by the binary powering of ``cgf``, whose entries
are coefficient arrays multiplied by np.convolve: the coefficient of z^m
is Pr(N_n = m).  This module imports numpy, so the package loads it on
first use; the generating function, the finite-n CGF, the cumulants and
the exact variance are float work in ``cgf`` and ``markov``.
"""

from __future__ import annotations

import math

import numpy as np

from .cgf import _power
from .markov import ChainParams, require_blocklength
from .tilting import jtilt, require_interior, tilted_mean

# The count law costs O(n^2) flops in its polynomial products, so it is
# capped; larger blocklengths must go through the generating-function / CGF
# routes, which cost O(log n) matrix products per evaluation.
DP_MAX_N = 32768

# Count probabilities below the smallest normal float are flushed to 0:
# subnormals carry no relative accuracy, and 0.7*5e-324 rounds back up to
# 5e-324, so mass that should keep shrinking would stick there instead.
_TINY = np.finfo(float).tiny


def _poly_mul(x, y):
    """Product of polynomial matrices, given as rows of coefficient arrays.

    Every coefficient is a sum of nonnegative products, so np.convolve has
    no cancellation; results below the smallest normal float become 0.
    """
    out = []
    for row in x:
        entries = [np.convolve(row[0], y[0][j]) + np.convolve(row[1], y[1][j]) for j in (0, 1)]
        for entry in entries:
            entry[entry < _TINY] = 0.0
        out.append(entries)
    return out


def occupation_pmf(chain: ChainParams, n: int) -> np.ndarray:
    """Exact PMF of N_n from the polynomial transfer matrix [[p00, p01 z], [p10, p11 z]].

    Entry m of the returned array, the coefficient of z^m in
    pi^T D(z) (P D(z))^{n-1} 1, is Pr(N_n = m), for m = 0..n.
    Every entry is either a normal float or exactly 0; probabilities below
    the smallest normal float (about 2.2e-308) are flushed to 0.

    Raises
    ------
    ValueError
        If n < 1 or n exceeds ``DP_MAX_N``.
    """
    require_blocklength(n)
    if n > DP_MAX_N:
        raise ValueError(
            f"blocklength n={n} exceeds the DP cap {DP_MAX_N}; use the "
            f"generating-function routes for large n"
        )
    # Coefficient arrays of equal length in each matrix keep the sums aligned.
    step = [
        [np.array([1.0 - chain.a, 0.0]), np.array([0.0, chain.a])],
        [np.array([chain.b, 0.0]), np.array([0.0, 1.0 - chain.b])],
    ]
    start = [[np.array([chain.pi0, 0.0]), np.array([0.0, chain.pi1])]]
    ((in_state0, in_state1),) = _power(start, step, n - 1, _poly_mul)
    return in_state0 + in_state1


def jn_law(chain: ChainParams, d: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the tilted block sum at distortion d and blocklength n, as (support, probs).

    Atom m of ``support`` is n*jtilt(d, 0) - ell*m and carries probs[m] = Pr(N_n = m), for
    m = 0..n.  For a symmetric chain (a == b) the slope -ell vanishes and the law is a single
    point mass at n*mu_D: both arrays then have length one.
    """
    require_interior(chain, d)
    require_blocklength(n)
    if chain.symmetric:
        return np.array([n * tilted_mean(chain, d)]), np.array([1.0])
    probs = occupation_pmf(chain, n)  # checks the DP cap before any O(n) array is built
    return n * jtilt(chain, d, 0) - chain.ell * np.arange(n + 1), probs


def centered_tail_probability(chain: ChainParams, n: int, x: float) -> float:
    """Exact Pr(J_n(D) - n*mu_D >= n*x), computed without any distortion level.

    The centered sum equals -ell*(N_n - n*pi1), so the tail is a sum of
    count probabilities; the distortion cancels and never enters.
    Raises ValueError if n < 1 or x is not finite.
    """
    require_blocklength(n)
    if not math.isfinite(x):
        raise ValueError(f"threshold x={x!r} must be finite")
    if chain.symmetric:
        return 1.0 if n * x <= 0.0 else 0.0
    probs = occupation_pmf(chain, n)  # before the O(n) atoms, as in jn_law
    return float(probs[-chain.ell * (np.arange(n + 1) - n * chain.pi1) >= n * x].sum())

