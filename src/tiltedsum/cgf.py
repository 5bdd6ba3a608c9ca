"""Cumulant generating functions, Perron root, rate function, saddlepoint tails.

Everything here concerns the centered tilted sum, whose law is free of the
distortion level, so no operation in this module takes one.  The base-2
finite-n cumulant generating function and its limit are

    L_n(theta) = theta*pi1*ell + (1/n)*log2 G_n(u_theta),
    L(theta)   = theta*pi1*ell + log2 lambda_plus(u_theta),

with u_theta = 2^(-theta*ell) and lambda_plus(u) the Perron root of the
tilted transition matrix

    [[1-a, a*u], [b, (1-b)*u]].

The rate function I(x) is the Legendre-Fenchel transform of L, computed by
solving L'(theta*) = x.  (Parameterizing the transform by theta rather
than by u is a monotone change of variable: u and theta are in strictly
monotone correspondence through u_theta.)  theta carries units 1/bits and
L, I are in bits, so tail probabilities decay like 2^(-n*I(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .exact import _log2_pgf
from .markov import ChainParams, derive_chain
from .tilting import LN2

RATE_DEFAULT_TOL = 1e-10
RATE_MAX_ITER = 200
# theta*ell = +/-50 puts the tilt at u = 2^(+/-50); the occupancy fraction
# is then within ~1e-15 of its extreme, so these slopes bound achievable x.
THETA_BIG_TIMES_ELL = 50.0
# |theta*| below this leaves the large-deviation regime; the saddlepoint
# estimate degrades toward the Gaussian bulk and is flagged.
GAUSSIAN_REGIME_THETA = 0.05


@dataclass(frozen=True)
class CGFCurve:
    """Finite-n and limiting CGF values sampled on a theta grid."""

    thetas: np.ndarray
    lambda_n: np.ndarray
    lambda_inf: np.ndarray
    n: int


@dataclass(frozen=True)
class RatePoint:
    """A point of the rate function: I(x) with its optimal tilt."""

    x: float
    theta_star: float
    rate: float


@dataclass(frozen=True)
class SaddlepointTail:
    """First-order saddlepoint estimate of an upper tail probability.

    ``probability`` approximates Pr(J_n - n*mu_D >= n*x).  ``sigma_star``
    is the standard deviation of the tilted per-letter increment (the
    square root of the natural-log CGF curvature at theta_star).  The
    estimate ignores the lattice structure of the sum (span |ell|) and
    carries no continuity correction; ``near_gaussian`` flags tilts
    |theta_star| < 0.05 where the formula leaves its regime of strength.
    """

    probability: float
    theta_star: float
    rate: float
    sigma_star: float
    near_gaussian: bool


def perron_root(chain: ChainParams, u: float) -> float:
    """Largest eigenvalue of [[1-a, a*u], [b, (1-b)*u]] for u > 0.

    Evaluated as ((1-a) + (1-b)*u + sqrt(((1-a) - (1-b)*u)^2 + 4*a*b*u))/2;
    every term is nonnegative, so the sum never cancels even when the two
    diagonal entries are close.
    """
    if not u > 0.0:
        raise ValueError(f"tilt argument u={u!r} must be positive")
    a, b = chain.a, chain.b
    diag0 = 1.0 - a
    diag1 = (1.0 - b) * u
    gap = diag0 - diag1
    disc = math.sqrt(gap * gap + 4.0 * a * b * u)
    return 0.5 * (diag0 + diag1 + disc)


def _swap(chain: ChainParams) -> ChainParams:
    """Chain with the state labels exchanged (a <-> b)."""
    return derive_chain(chain.b, chain.a)


def _log2_perron(chain: ChainParams, log2_u: float) -> float:
    """log2 lambda_plus(2^log2_u), safe for any finite log2_u.

    Relabeling the states shows lambda_plus(u; a, b) = u * lambda_plus(1/u; b, a),
    so tilts above u = 1 reduce to tilts below it and nothing overflows.
    """
    if log2_u > 0.0:
        return log2_u + _log2_perron(_swap(chain), -log2_u)
    u = max(2.0**log2_u, 5e-324)  # floor keeps u > 0 after underflow
    return math.log2(perron_root(chain, u))


def _tilted_occupancy(chain: ChainParams, log2_u: float) -> tuple[float, float]:
    """Occupancy fraction g = d log lambda_plus / d log u and its log-slope.

    Returns (g, c) at u = 2^log2_u, where c = u * g'(u) is the curvature of
    log lambda_plus in log u.  g runs from 0 (u -> 0) to 1 (u -> inf); the
    same relabeling as in :func:`_log2_perron` maps g(u) to 1 - g(1/u) and
    leaves c invariant, which keeps large tilts exact.
    """
    if log2_u > 0.0:
        g, c = _tilted_occupancy(_swap(chain), -log2_u)
        return 1.0 - g, c
    u = max(2.0**log2_u, 5e-324)
    a, b = chain.a, chain.b
    diag0 = 1.0 - a
    diag1 = (1.0 - b) * u
    gap = diag0 - diag1
    s = math.sqrt(gap * gap + 4.0 * a * b * u)
    s1 = (2.0 * a * b - (1.0 - b) * gap) / s  # d s / d u
    lam = 0.5 * (diag0 + diag1 + s)
    lam1 = 0.5 * ((1.0 - b) + s1)
    lam2 = 0.5 * ((1.0 - b) ** 2 - s1 * s1) / s
    g = u * lam1 / lam
    g_prime = (lam1 + u * lam2) / lam - u * (lam1 / lam) ** 2
    return g, u * g_prime


def cgf_limit(chain: ChainParams, theta: float) -> float:
    """Limiting base-2 CGF of the centered tilted sum, in bits."""
    if chain.symmetric:
        return 0.0
    return theta * chain.pi1 * chain.ell + _log2_perron(chain, -theta * chain.ell)


def cgf_limit_derivative(chain: ChainParams, theta: float) -> float:
    """dL/dtheta, analytic: ell * (pi1 - g(u_theta))."""
    if chain.symmetric:
        return 0.0
    g, _ = _tilted_occupancy(chain, -theta * chain.ell)
    return chain.ell * (chain.pi1 - g)


def cgf_limit_second_derivative(chain: ChainParams, theta: float) -> float:
    """d^2 L / dtheta^2, analytic: ell^2 * ln 2 * u g'(u) at u_theta."""
    if chain.symmetric:
        return 0.0
    _, c = _tilted_occupancy(chain, -theta * chain.ell)
    return chain.ell**2 * LN2 * c


def _cgf_finite_batch(chain: ChainParams, n: int, thetas: np.ndarray) -> np.ndarray:
    """L_n at every theta of a 1-D array, one batched kernel call per branch.

    Uses the rescaled transfer-matrix power; for extreme tilts where
    u_theta itself is not representable, the state-relabeling identity
    G_n(u; a, b) = u^n * G_n(1/u; b, a) takes over.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if chain.symmetric:
        return np.zeros_like(thetas)
    log2_u = -thetas * chain.ell
    swap = log2_u > 512.0
    log2_g = np.empty_like(log2_u)
    if not swap.all():
        direct = log2_u[~swap]
        log2_g[~swap] = _log2_pgf(chain, n, np.maximum(2.0**direct, 5e-324))
    if swap.any():
        swapped = log2_u[swap]
        log2_g[swap] = n * swapped + _log2_pgf(
            _swap(chain), n, np.maximum(2.0**-swapped, 5e-324)
        )
    return thetas * chain.pi1 * chain.ell + log2_g / n


def cgf_finite(chain: ChainParams, n: int, theta: float) -> float:
    """Finite-n base-2 CGF of the centered tilted sum, in bits.

    Costs O(log n) products of 2x2 matrices, at any tilt.
    """
    return float(_cgf_finite_batch(chain, n, np.array([float(theta)]))[0])


def cgf_curve(chain: ChainParams, n: int, thetas) -> CGFCurve:
    """Sample the finite-n and limiting CGFs on a theta grid.

    The finite-n values come from one batched kernel call per branch; the
    limit is the closed-form Perron root at each theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    lam_n = _cgf_finite_batch(chain, n, thetas)
    lam_inf = np.array([cgf_limit(chain, float(t)) for t in thetas])
    return CGFCurve(thetas=thetas, lambda_n=lam_n, lambda_inf=lam_inf, n=n)


def achievable_interval(chain: ChainParams) -> tuple[float, float]:
    """Open interval of centered per-letter values with a finite tilt.

    Endpoints are the CGF slopes at theta = -/+ 50/|ell|, which sit within
    ~1e-15 of the true extreme slopes; only x strictly inside is accepted
    by :func:`rate_function`.
    """
    if chain.symmetric:
        raise ValueError("symmetric chain: the centered sum is a point mass at 0")
    theta_big = THETA_BIG_TIMES_ELL / abs(chain.ell)
    lo = cgf_limit_derivative(chain, -theta_big)
    hi = cgf_limit_derivative(chain, theta_big)
    return lo, hi


def rate_function(chain: ChainParams, x: float, tol: float = RATE_DEFAULT_TOL) -> RatePoint:
    """Legendre-Fenchel rate I(x) = theta*x - L(theta*) with L'(theta*) = x.

    Solves the stationarity condition by Newton steps on the analytic
    derivative, safeguarded by bisection on a bracket grown by doubling.
    ``tol`` bounds |L'(theta*) - x|.

    Raises
    ------
    ValueError
        If the chain is symmetric or x lies outside the achievable open
        interval of slopes.
    ConvergenceError
        If the safeguarded iteration exceeds its cap (200).
    """
    if tol <= 0.0:
        raise ValueError(f"tol={tol!r} must be positive")
    lo_x, hi_x = achievable_interval(chain)
    if not lo_x < x < hi_x:
        raise ValueError(
            f"x={x!r} outside the achievable open interval ({lo_x!r}, {hi_x!r})"
        )
    if x == 0.0:
        return RatePoint(x=0.0, theta_star=0.0, rate=0.0)

    theta_big = THETA_BIG_TIMES_ELL / abs(chain.ell)
    # L' is increasing and L'(0) = 0, so the root has the sign of x.
    if x > 0.0:
        lo, hi = 0.0, 1.0 / abs(chain.ell)
        while cgf_limit_derivative(chain, hi) < x:
            hi = min(2.0 * hi, theta_big)
    else:
        lo, hi = -1.0 / abs(chain.ell), 0.0
        while cgf_limit_derivative(chain, lo) > x:
            lo = max(2.0 * lo, -theta_big)

    theta = 0.5 * (lo + hi)
    for _ in range(RATE_MAX_ITER):
        resid = cgf_limit_derivative(chain, theta) - x
        if abs(resid) <= tol:
            rate = theta * x - cgf_limit(chain, theta)
            return RatePoint(x=x, theta_star=theta, rate=max(rate, 0.0))
        if resid < 0.0:
            lo = theta
        else:
            hi = theta
        curv = cgf_limit_second_derivative(chain, theta)
        step = theta - resid / curv if curv > 0.0 else math.nan
        theta = step if lo < step < hi else 0.5 * (lo + hi)
    raise ConvergenceError(
        f"rate_function did not reach |L'(theta)-x| <= {tol:g} in {RATE_MAX_ITER} steps"
    )


def saddlepoint_tail(chain: ChainParams, n: int, x: float) -> SaddlepointTail:
    """First-order saddlepoint estimate of Pr(J_n - n*mu_D >= n*x), x > 0.

    Tilting to theta_star with L'(theta_star) = x gives

        Pr ~ 2^(-n*I(x)) / (theta_star * ln2 * sigma_star * sqrt(2*pi*n)),

    where sigma_star^2 = L''(theta_star)/ln2 is the natural-log CGF
    curvature.  This is an approximation, not an exact quantity; the test
    suite holds it to a factor-two envelope against exact tail sums.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if not x > 0.0:
        raise ValueError(f"upper-tail estimate requires x > 0, got x={x!r}")
    point = rate_function(chain, x)
    sigma_star = math.sqrt(cgf_limit_second_derivative(chain, point.theta_star) / LN2)
    prob = 2.0 ** (-n * point.rate) / (
        point.theta_star * LN2 * sigma_star * math.sqrt(2.0 * math.pi * n)
    )
    return SaddlepointTail(
        probability=prob,
        theta_star=point.theta_star,
        rate=point.rate,
        sigma_star=sigma_star,
        near_gaussian=abs(point.theta_star) < GAUSSIAN_REGIME_THETA,
    )
