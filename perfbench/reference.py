"""Independent references for the benchmark's output checks.

Nothing here imports tiltedsum.  Every value is rebuilt from the chain's
closed forms, from exact rational arithmetic, from compensated sums, from
powers of the 2x2 polynomial transfer matrix, or from numpy's own 2x2
eigendecomposition, so a check never compares a function with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

EPS = 2.0**-52
LN2 = math.log(2.0)


class Chain(NamedTuple):
    """Binary chain with 0->1 probability a and 1->0 probability b."""

    a: float
    b: float

    @property
    def pi0(self) -> float:
        return self.b / (self.a + self.b)

    @property
    def pi1(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def lam(self) -> float:
        return 1.0 - self.a - self.b

    @property
    def ell(self) -> float:
        return math.log(self.a / self.b) / LN2

    @property
    def v_iid(self) -> float:
        return self.ell**2 * self.pi0 * self.pi1

    @property
    def v_sl(self) -> float:
        return self.v_iid * (1.0 + self.lam) / (1.0 - self.lam)

    def slope_range(self) -> tuple[float, float]:
        """Range of the centered per-letter value -ell*(x - pi1), x in {0, 1}."""
        ends = (self.ell * self.pi1, -self.ell * self.pi0)
        return min(ends), max(ends)


def h2(p: float) -> float:
    """Binary entropy in bits."""
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def jtilt(chain: Chain, d: float, x: int) -> float:
    """Tilted information of state x: -log2(pi_x) - h2(d)."""
    return -math.log2(chain.pi1 if x else chain.pi0) - h2(d)


# ---------------------------------------------------------------------------
# exact finite-n laws


@lru_cache(maxsize=64)
def count_law_exact(a: float, b: float, n: int) -> tuple[Fraction, ...]:
    """Occupation-count law of n letters in exact rational arithmetic."""
    fa, fb = Fraction(a), Fraction(b)
    in0 = [fb / (fa + fb)] + [Fraction(0)] * n
    in1 = [Fraction(0), fa / (fa + fb)] + [Fraction(0)] * (n - 1)
    for _ in range(n - 1):
        to0 = [x * (1 - fa) + y * fb for x, y in zip(in0, in1)]
        to1 = [x * fa + y * (1 - fb) for x, y in zip(in0, in1)]
        in0, in1 = to0, [Fraction(0)] + to1[:-1]
    return tuple(x + y for x, y in zip(in0, in1))


def variance_bracket_exact(a: float, b: float, n: int) -> Fraction:
    """n + 2*sum_{k<n} (n-k)*lambda2^k in exact rational arithmetic."""
    lam = 1 - Fraction(a) - Fraction(b)
    power, acc = Fraction(1), Fraction(0)
    for k in range(1, n):
        power *= lam
        acc += (n - k) * power
    return n + 2 * acc


def variance_exact_small(chain: Chain, n: int) -> float:
    """Var(J_n) from the exact rational double sum (small n)."""
    fa, fb = Fraction(chain.a), Fraction(chain.b)
    pi_prod = fa * fb / (fa + fb) ** 2
    return chain.ell**2 * float(pi_prod * variance_bracket_exact(chain.a, chain.b, n))


@lru_cache(maxsize=4096)
def variance_double_sum(chain: Chain, n: int) -> float:
    """Var(J_n) = ell^2*pi0*pi1*[n + 2*sum_{k<n} (n-k)*lambda2^k], by fsum."""
    lam = chain.lam
    bracket = math.fsum([float(n)] + [2.0 * (n - k) * lam**k for k in range(1, n)])
    return chain.v_iid * bracket


def _poly_mat_mul(x, y):
    return [
        [np.convolve(x[i][0], y[0][j]) + np.convolve(x[i][1], y[1][j]) for j in range(2)]
        for i in range(2)
    ]


@lru_cache(maxsize=16)
def count_law_powered(a: float, b: float, n: int) -> np.ndarray:
    """Occupation-count law from binary powers of [[p00, p01 z], [p10, p11 z]].

    Every coefficient is a sum of nonnegative products, so there is no
    cancellation; this is a different algorithm from a step-by-step DP.
    """
    step = [
        [np.array([1.0 - a, 0.0]), np.array([0.0, a])],
        [np.array([b, 0.0]), np.array([0.0, 1.0 - b])],
    ]
    power = [[np.array([1.0]), np.array([0.0])], [np.array([0.0]), np.array([1.0])]]
    e = n - 1
    while e:
        if e & 1:
            power = _poly_mat_mul(power, step)
        e >>= 1
        if e:
            step = _poly_mat_mul(step, step)
    chain = Chain(a, b)
    row0 = power[0][0] + power[0][1]
    row1 = power[1][0] + power[1][1]
    law = np.zeros(n + 1)
    law[: len(row0)] += chain.pi0 * row0
    law[1 : len(row1) + 1] += chain.pi1 * row1
    return law


# ---------------------------------------------------------------------------
# Perron root and the limiting CGF, from numpy's eigendecomposition
#
# lambda(u) is the largest eigenvalue of M(u) = [[1-a, a*u], [b, (1-b)*u]].
# Its u-derivatives follow from the characteristic polynomial
# lambda^2 - t*lambda + det = 0 with t = (1-a) + (1-b)*u, det = (1-a-b)*u.


def _tilted(chain: Chain, u: float) -> np.ndarray:
    return np.array([[1.0 - chain.a, chain.a * u], [chain.b, (1.0 - chain.b) * u]])


def _perron_derivatives(chain: Chain, u: float) -> tuple[float, float, float]:
    """(lambda, dlambda/du, d2lambda/du2) at u."""
    eig = np.linalg.eigvals(_tilted(chain, u)).real
    lam, other = max(eig), min(eig)
    dt = 1.0 - chain.b
    root = lam - other  # = 2*lambda - t, the square root of the discriminant
    d1 = (dt * lam - (1.0 - chain.a - chain.b)) / root
    d2 = 2.0 * d1 * (dt - d1) / root
    return lam, d1, d2


def cgf_limit(chain: Chain, theta: float) -> float:
    """L(theta) = theta*pi1*ell + log2 lambda(2^(-theta*ell))."""
    lam, _, _ = _perron_derivatives(chain, 2.0 ** (-theta * chain.ell))
    return theta * chain.pi1 * chain.ell + math.log2(lam)


def cgf_limit_derivatives(chain: Chain, theta: float) -> tuple[float, float]:
    """(L'(theta), L''(theta)) from the eigenvalue's u-derivatives."""
    u = 2.0 ** (-theta * chain.ell)
    lam, d1, d2 = _perron_derivatives(chain, u)
    g = u * d1 / lam  # d log lambda / d log u
    dg = (d1 + u * d2) / lam - u * (d1 / lam) ** 2
    return chain.ell * (chain.pi1 - g), chain.ell**2 * LN2 * u * dg


def cgf_finite(chain: Chain, n: int, theta: float) -> float:
    """L_n(theta) from G_n(u) = pi^T D(u) V diag(lambda_i^(n-1)) V^-1 1."""
    u = 2.0 ** (-theta * chain.ell)
    eig, vecs = np.linalg.eig(_tilted(chain, u))
    eig = eig.real
    vecs = vecs.real
    top = int(np.argmax(eig))
    weights = (np.array([chain.pi0, chain.pi1 * u]) @ vecs) * np.linalg.solve(vecs, np.ones(2))
    ratio = eig[1 - top] / eig[top]
    log2_g = (n - 1) * math.log2(eig[top]) + math.log2(
        weights[top] + weights[1 - top] * ratio ** (n - 1)
    )
    return theta * chain.pi1 * chain.ell + log2_g / n


def saddlepoint(chain: Chain, n: int, x: float, theta: float, rate: float) -> float:
    """First-order saddlepoint tail 2^(-n*I) / (theta*ln2*sigma*sqrt(2*pi*n))."""
    _, curvature = cgf_limit_derivatives(chain, theta)
    sigma = math.sqrt(curvature / LN2)
    return 2.0 ** (-n * rate) / (theta * LN2 * sigma * math.sqrt(2.0 * math.pi * n))


# ---------------------------------------------------------------------------
# sampling bounds


def bernstein_halfwidth(var: float, bound: float, reps: int, fail_prob: float) -> float:
    """t with Pr(|mean of reps draws - true mean| >= t) <= fail_prob.

    Bernstein's inequality for independent draws with variance ``var`` and
    |draw - mean| <= ``bound``.
    """
    log_term = math.log(2.0 / fail_prob)
    lin = 2.0 * log_term * bound / 3.0
    return (lin + math.sqrt(lin * lin + 8.0 * reps * log_term * var)) / (2.0 * reps)


def dkw_halfwidth(reps: int, fail_prob: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz-Massart bound on the empirical CDF's sup error."""
    return math.sqrt(math.log(2.0 / fail_prob) / (2.0 * reps))
