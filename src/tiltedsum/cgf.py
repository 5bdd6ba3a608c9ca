"""Cumulant generating functions, Perron root, rate function, saddlepoint tails.

Everything here concerns the centered tilted sum, whose law is free of the
distortion level, so no operation in this module takes one.  The base-2
finite-n cumulant generating function and its limit are

    L_n(theta) = theta*pi1*ell + (1/n)*log2 G_n(u_theta),
    L(theta)   = theta*pi1*ell + log2 lambda_plus(u_theta),

with u_theta = 2^(-theta*ell) and lambda_plus(u) the Perron root of the
tilted transition matrix

    [[1-a, a*u], [b, (1-b)*u]].

G_n and lambda_plus follow one tilt rule, that of ``exact``: max(1, u) is
factored out and only weights <= 1 are formed, so no finite tilt overflows.
L_n needs the array kernel, so it is ``exact.cgf_finite``, one batched call
of that kernel at a whole array of theta; every function in this module is
a float closed form, and the module imports no numpy.  Each
tilt is checked once, where it enters: theta*ell in ``_log2_tilt`` and
``exact.cgf_finite``, u in ``perron_root``.

The rate function I(x) is the Legendre-Fenchel transform of L, with the
optimal tilt theta* in closed form from the contraction of the pair
empirical measure.  (Parameterizing the transform by theta rather than by
u is a monotone change of variable: u and theta are in strictly monotone
correspondence through u_theta.)  theta carries units 1/bits and L, I are
in bits, so tail probabilities decay like 2^(-n*I(x)).
"""

from __future__ import annotations

import math

from .markov import LN2, ChainParams


def _tilted(chain: ChainParams, log2_u: float) -> tuple[float, float, float]:
    """(lambda~, g, c) at u = 2^log2_u for any finite log2_u, by the tilt rule.

    lambda~ = lambda_plus(u)/max(1, u) is the Perron root of [[d0, a*w1], [b*w0, d1]]
    with d0 = (1-a)*w0 and d1 = (1-b)*w1; g = d log lambda_plus / d log u is the
    tilted occupancy of state 1 and c = u*g'(u).  With gap = d0 - d1 and
    s = sqrt(gap^2 + 4*a*b*w0*w1), mu = (s - gap)/2 and nu = (s + gap)/2 give the
    tilted chain's p01 = mu/lambda~ and p10 = nu/lambda~, so lambda~ = d0 + mu,
    g = mu/s and c = a*b*w0*w1*(d0 + d1)/s^3.  The smaller of mu, nu is
    a*b*w0*w1 over the larger and near u = 1 gap comes from expm1, so nothing cancels.
    """
    a, b = chain.a, chain.b
    log2_w0, log2_w1 = min(0.0, -log2_u), min(0.0, log2_u)
    w0, w1 = 2.0**log2_w0, 2.0**log2_w1
    d0, d1 = (1.0 - a) * w0, (1.0 - b) * w1
    if abs(log2_u) > 1.0:
        gap = d0 - d1
    else:  # d0 - d1 with each weight's distance from 1 taken from expm1
        gap = (b - a) + (1.0 - a) * math.expm1(log2_w0 * LN2)
        gap -= (1.0 - b) * math.expm1(log2_w1 * LN2)
    off = a * b * w0 * w1
    s = math.sqrt(gap * gap + 4.0 * off)
    larger = 0.5 * (s + abs(gap))
    mu = off / larger if gap > 0.0 else larger
    return d0 + mu, mu / s, off * (d0 + d1) / s**3


def perron_root(chain: ChainParams, u: float) -> float:
    """Largest eigenvalue of [[1-a, a*u], [b, (1-b)*u]] for finite u > 0.

    Evaluated as max(1, u) * lambda~ from :func:`_tilted`.
    """
    if not 0.0 < u < math.inf:
        raise ValueError(f"tilt argument u={u!r} must be positive and finite")
    lam, _, _ = _tilted(chain, math.log2(u))
    return max(u, 1.0) * lam


def _log2_tilt(chain: ChainParams, theta: float) -> float:
    """log2 u_theta = -theta*ell; ValueError if theta is not finite or the product overflows.

    In Python floats both show in the product (inf*0.0 reads nan), and neither warns.
    """
    log2_u = -theta * chain.ell
    if not math.isfinite(log2_u):
        raise ValueError(f"tilt theta={theta!r} must be finite, and so must theta*ell")
    return log2_u


def cgf_limit(chain: ChainParams, theta: float) -> float:
    """Limiting base-2 CGF of the centered tilted sum, in bits."""
    log2_u = _log2_tilt(chain, theta)
    lam, _, _ = _tilted(chain, log2_u)
    return theta * chain.pi1 * chain.ell + (max(log2_u, 0.0) + math.log2(lam))


def cgf_limit_derivative(chain: ChainParams, theta: float) -> float:
    """dL/dtheta, analytic: ell * (pi1 - g(u_theta))."""
    _, g, _ = _tilted(chain, _log2_tilt(chain, theta))
    return chain.ell * (chain.pi1 - g)


def cgf_limit_second_derivative(chain: ChainParams, theta: float) -> float:
    """d^2 L / dtheta^2, analytic: ell^2 * ln 2 * u g'(u) at u_theta."""
    _, _, c = _tilted(chain, _log2_tilt(chain, theta))
    return chain.ell**2 * LN2 * c


def achievable_interval(chain: ChainParams) -> tuple[float, float]:
    """Open interval of centered per-letter values x with a finite optimal tilt.

    x = ell*(pi1 - q) for the tilted occupancy q of state 1, which any
    finite tilt puts in (0, 1): the ends are ell*pi1 and -ell*pi0, sorted.
    """
    if chain.symmetric:
        raise ValueError("symmetric chain: the centered sum is a point mass at 0")
    lo, hi = sorted((chain.ell * chain.pi1, -chain.ell * chain.pi0))
    return lo, hi


def _log_share(share: float, r: float, total: float) -> float:
    """ln(share/total) for share = total - r, in the form that keeps more digits."""
    return math.log1p(-r / total) if 2.0 * r < total else math.log(share / total)


def rate_function(chain: ChainParams, x: float) -> tuple[float, float]:
    """(theta*, I(x)): the Legendre-Fenchel rate I(x) = theta*x - L(theta*) with L'(theta*) = x.

    Closed form by contraction of the pair empirical measure (Dembo and
    Zeitouni, Large Deviations Techniques and Applications, sec. 3.1).  The
    optimal tilt puts the occupancy of state 1 at q = pi1 - x/ell and the
    pair masses at (1-q-r, r, r, q-r), where r^2 = kappa*(q-r)*(1-q-r) and
    kappa = a*b/((1-a)*(1-b)).  Hence

        r      = 2*kappa*q*(1-q) / (kappa + sqrt(kappa^2*(1-2q)^2 + 4*kappa*q*(1-q))),
        theta* = -ln[(q-r)*(1-q)*(1-a) / ((1-q-r)*q*(1-b))] / (ell*ln2),

    and L(theta*) comes from the Perron root.  x is accepted when q and
    1 - q are positive; the smaller of q-r and 1-q-r is taken from their
    product r^2/kappa and difference 1-2q, so it never reaches log(0).

    Against a 50-digit evaluation on 20,000 x over 2,000 log-uniform chains,
    theta* is within 1e-8 relative and the rate within 1e-14*max(1, |theta*x|)
    of theta*x - L(theta*), also on slow-mixing chains (a+b -> 0, theta*
    shrinks like sqrt(a*b), so (q-r)/q is read through log1p) and nearly
    alternating ones (a+b -> 2, q-r and 1-q-r shrink like 1/sqrt(kappa), so
    1-2q comes from (b-a)/(a+b), not the rounded q).  The rounding of q
    itself remains: a relative error in theta* of up to about
    eps*max(pi0, pi1)/min(q, 1-q) near the interval ends and eps*pi1*|ell/x|
    as x -> 0.  Raises ValueError for a symmetric chain or x outside the
    open interval of :func:`achievable_interval`.
    """
    lo_x, hi_x = achievable_interval(chain)
    a, b = chain.a, chain.b
    y = x / chain.ell
    q, p = chain.pi1 - y, chain.pi0 + y  # tilted occupancies of states 1 and 0
    if not (q > 0.0 and p > 0.0):
        raise ValueError(f"x={x!r} outside the achievable open interval ({lo_x!r}, {hi_x!r})")
    if x == 0.0:
        return 0.0, 0.0
    kappa = a * b / ((1.0 - a) * (1.0 - b))
    gap = (b - a) / (a + b) + 2.0 * y  # p - q
    r = 2.0 * kappa * q * p / (kappa + math.sqrt((kappa * gap) ** 2 + 4.0 * kappa * q * p))
    product = r * r / kappa
    larger = 0.5 * (abs(gap) + math.sqrt(gap * gap + 4.0 * product))
    stay1, stay0 = (larger, product / larger) if gap < 0.0 else (product / larger, larger)
    log_u = _log_share(stay1, r, q) - _log_share(stay0, r, p) + math.log1p(-a) - math.log1p(-b)
    theta = -log_u / (chain.ell * LN2)
    return theta, max(theta * x - cgf_limit(chain, theta), 0.0)


def saddlepoint_tail(chain: ChainParams, n: int, x: float) -> float:
    """First-order saddlepoint estimate of Pr(J_n - n*mu_D >= n*x), x > 0.

    Tilting to theta_star with L'(theta_star) = x gives

        Pr ~ 2^(-n*I(x)) / (theta_star * ln2 * sigma_star * sqrt(2*pi*n)),

    where sigma_star^2 = L''(theta_star)/ln2 is the natural-log CGF
    curvature.  This is an approximation, not an exact quantity: it ignores
    the lattice structure of the sum (span |ell|).  The test suite holds it
    to a factor-two envelope against exact tail sums only on fast- and
    moderate-mixing chains; on slowly relaxing ones it can be far off (at
    a = 0.00972356736242579, b = 6.3573332322043285e-12, n = 100,
    x = 20.65778673353927 it is 5.2e6 times the exact tail).
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if not x > 0.0:
        raise ValueError(f"upper-tail estimate requires x > 0, got x={x!r}")
    theta_star, rate = rate_function(chain, x)
    sigma_star = math.sqrt(cgf_limit_second_derivative(chain, theta_star) / LN2)
    return 2.0 ** (-n * rate) / (theta_star * LN2 * sigma_star * math.sqrt(2.0 * math.pi * n))
