"""Exact finite-n laws: occupation count, tilted block sum, variance, cumulants.

Let N_n count the letters equal to 1 in a block of length n.  The tilted
block sum is an affine image of the occupation count,

    J_n(D) = n*(-log2(pi0) - h2(D)) - ell*N_n,

so its centered law J_n(D) - n*mu_D = -ell*(N_n - n*pi1) does not depend on
the distortion level at all.  This module computes the exact PMF of N_n by
dynamic programming over (state, count), evaluates the probability
generating function G_n(u) = pi^T D(u) (P D(u))^{n-1} 1 by a rescaled
transfer-matrix product, and exposes the variance in both its double-sum
and closed forms:

    Var(J_n) = ell^2*pi0*pi1 * [ n + 2*sum_{k=1}^{n-1} (n-k)*lambda2^k ]
             = ell^2*pi0*pi1 * [ n(1+lambda2)/(1-lambda2)
                                 - 2*lambda2*(1-lambda2^n)/(1-lambda2)^2 ].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .markov import ChainParams
from .tilting import binary_entropy, require_interior

# The O(n^2) count DP is capped; larger blocklengths must go through the
# generating-function / CGF routes, which are O(n) per evaluation.
DP_MAX_N = 32768


@dataclass(frozen=True)
class OccupationPMF:
    """Exact law of the occupation count N_n on {0, ..., n}."""

    n: int
    probs: np.ndarray = field(repr=False)

    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.probs)

    def variance(self) -> float:
        m = np.arange(self.n + 1, dtype=float)
        mu = self.mean()
        return float(((m - mu) ** 2) @ self.probs)

    def central_moments(self, max_order: int) -> np.ndarray:
        """Central moments of orders 1..max_order about the PMF's own mean."""
        m = np.arange(self.n + 1, dtype=float)
        dev = m - self.mean()
        return np.array([(dev**k) @ self.probs for k in range(1, max_order + 1)])


@dataclass(frozen=True)
class JnLaw:
    """Law of the tilted block sum: atoms offset + slope*m with the count PMF.

    For a symmetric chain (a == b) the slope vanishes and the law is a
    single point mass at n*mu_D; ``support`` and ``probs`` then have
    length one.
    """

    n: int
    offset: float
    slope: float
    support: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)

    def mean(self) -> float:
        return float(self.support @ self.probs)

    def cdf_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct atoms ascending with their cumulative probabilities.

        Atoms that coincide in floating point, as on a nearly symmetric
        chain, count as one point of the CDF.
        """
        order = np.argsort(self.support)
        atoms, cum = self.support[order], np.cumsum(self.probs[order])
        last = np.append(atoms[1:] != atoms[:-1], True)
        return atoms[last], cum[last]


class VarianceCorrection(NamedTuple):
    """n*V_sl - Var(J_n) and its n -> infinity limit."""

    correction: float
    constant: float


def occupation_pmf(chain: ChainParams, n: int, max_n: int = DP_MAX_N) -> OccupationPMF:
    """Exact PMF of N_n by forward DP over (state, count).

    alpha_1(x, 1{x=1}) = pi_x and alpha_{t+1}(y, m + 1{y=1}) accumulates
    alpha_t(x, m) * P[x, y].  All terms are nonnegative, so there is no
    cancellation; cost is O(n^2) scalar work and O(n) space per state.

    Raises
    ------
    ValueError
        If n < 1 or n exceeds ``max_n``.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if n > max_n:
        raise ValueError(
            f"blocklength n={n} exceeds the DP cap {max_n}; use the "
            f"generating-function routes for large n"
        )
    p00, p01 = 1.0 - chain.a, chain.a
    p10, p11 = chain.b, 1.0 - chain.b
    # in_state0[m] / in_state1[m]: mass with count m, currently in state 0 / 1.
    in_state0 = np.zeros(n + 1)
    in_state1 = np.zeros(n + 1)
    in_state0[0] = chain.pi0
    in_state1[1] = chain.pi1
    for _ in range(1, n):
        to0 = in_state0 * p00 + in_state1 * p10
        to1 = in_state0 * p01 + in_state1 * p11
        shifted = np.empty(n + 1)
        shifted[0] = 0.0
        shifted[1:] = to1[:-1]  # entering state 1 raises the count by one
        in_state0, in_state1 = to0, shifted
    return OccupationPMF(n=n, probs=in_state0 + in_state1)


def occupation_log2_pgf(chain: ChainParams, n: int, u: float) -> float:
    """log2 of G_n(u) = pi^T D(u) (P D(u))^{n-1} 1, for u > 0.

    The two-entry row vector is renormalized to unit sum after every
    transfer-matrix step and the log2 scale factors are accumulated, so
    the result neither overflows nor underflows for any finite u > 0.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if not u > 0.0:
        raise ValueError(f"generating-function argument u={u!r} must be positive")
    p00, p01 = 1.0 - chain.a, chain.a
    p10, p11 = chain.b, 1.0 - chain.b
    v0 = chain.pi0
    v1 = chain.pi1 * u
    log2_g = 0.0
    s = v0 + v1
    log2_g += math.log2(s)
    v0 /= s
    v1 /= s
    for _ in range(n - 1):
        w0 = v0 * p00 + v1 * p10
        w1 = (v0 * p01 + v1 * p11) * u
        s = w0 + w1
        log2_g += math.log2(s)
        v0 = w0 / s
        v1 = w1 / s
    return log2_g


def occupation_pgf(chain: ChainParams, n: int, u: float) -> float:
    """G_n(u) = E[u^{N_n}] as a real number (2**occupation_log2_pgf).

    Values beyond float range come back as inf; use
    :func:`occupation_log2_pgf` when the magnitude itself is the point.
    """
    log2_g = occupation_log2_pgf(chain, n, u)
    if log2_g >= 1024.0:
        return math.inf
    return 2.0**log2_g


def jn_law(chain: ChainParams, d: float, n: int, max_n: int = DP_MAX_N) -> JnLaw:
    """Exact law of the tilted block sum at distortion d and blocklength n."""
    require_interior(chain, d)
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    offset = n * (-math.log2(chain.pi0) - binary_entropy(d))
    if chain.symmetric:
        # Slope -ell vanishes: the affine map is constant and the law is a
        # point mass (the count law is irrelevant).
        mu_d = binary_entropy(chain.pi1) - binary_entropy(d)
        return JnLaw(
            n=n,
            offset=offset,
            slope=0.0,
            support=np.array([n * mu_d]),
            probs=np.array([1.0]),
        )
    pmf = occupation_pmf(chain, n, max_n=max_n)
    slope = -chain.ell
    support = offset + slope * np.arange(n + 1)
    return JnLaw(n=n, offset=offset, slope=slope, support=support, probs=pmf.probs)


def centered_tail_probability(
    chain: ChainParams, n: int, x: float, max_n: int = DP_MAX_N
) -> float:
    """Exact Pr(J_n(D) - n*mu_D >= n*x), computed without any distortion level.

    The centered sum equals -ell*(N_n - n*pi1), so the tail is a sum of
    count probabilities; the distortion cancels and never enters.
    """
    if chain.symmetric:
        return 1.0 if n * x <= 0.0 else 0.0
    pmf = occupation_pmf(chain, n, max_n=max_n)
    atoms = -chain.ell * (np.arange(n + 1) - n * chain.pi1)
    return float(pmf.probs[atoms >= n * x].sum())


def variance_exact(
    chain: ChainParams,
    n: int,
    method: Literal["double_sum", "closed_form"] = "closed_form",
) -> float:
    """Var(J_n(D)) in bits^2; identical for every valid distortion level.

    ``double_sum`` evaluates ell^2*pi0*pi1*[n + 2*sum_{k<n} (n-k)*lambda2^k]
    term by term; ``closed_form`` evaluates the geometric-sum reduction.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    amp = chain.ell**2 * chain.pi0 * chain.pi1
    r = chain.lambda2
    if method == "double_sum":
        k = np.arange(1, n)
        bracket = n + 2.0 * float((n - k) @ (r**k))
    elif method == "closed_form":
        bracket = n * (1.0 + r) / (1.0 - r) - 2.0 * r * (1.0 - r**n) / (1.0 - r) ** 2
    else:
        raise ValueError(f"unknown method {method!r}")
    return amp * bracket


def variance_correction(chain: ChainParams, n: int) -> VarianceCorrection:
    """Finite-n variance deficit n*V_sl - Var(J_n) and its limiting constant.

    The deficit equals 2*ell^2*pi0*pi1*lambda2*(1-lambda2^n)/(1-lambda2)^2,
    which increases to the returned constant as n grows (positive for
    positively correlated chains, negative for anti-correlated ones).
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    r = chain.lambda2
    constant = 2.0 * chain.ell**2 * chain.pi0 * chain.pi1 * r / (1.0 - r) ** 2
    return VarianceCorrection(correction=constant * (1.0 - r**n), constant=constant)


def centered_cumulants(
    chain: ChainParams,
    d: float,
    n: int,
    max_order: int = 6,
    max_n: int = DP_MAX_N,
) -> np.ndarray:
    """Cumulants kappa_2..kappa_max_order of J_n(D) - n*mu_D.

    Computed exactly from the count PMF's central moments via the standard
    moment-to-cumulant recursion, then scaled by (-ell)^m.  The result
    carries no dependence on d (which is validated but otherwise unused):
    centering removes the only place the distortion appears.
    """
    require_interior(chain, d)
    if not 2 <= max_order <= 6:
        raise ValueError(f"max_order={max_order} must lie in [2, 6]")
    if chain.symmetric:
        return np.zeros(max_order - 1)
    pmf = occupation_pmf(chain, n, max_n=max_n)
    moments = np.concatenate(([1.0], pmf.central_moments(max_order)))  # index by order
    kappa = np.zeros(max_order + 1)  # kappa[1] = 0: moments are central
    for r in range(2, max_order + 1):
        acc = moments[r]
        for j in range(1, r):
            acc -= math.comb(r - 1, j - 1) * kappa[j] * moments[r - j]
        kappa[r] = acc
    scale = (-chain.ell) ** np.arange(2, max_order + 1)
    return scale * kappa[2:]
