"""Generating functions and CGFs, the Perron root, the rate function, saddlepoint tails.

Everything here concerns the centered tilted sum, whose law is free of the
distortion level, so no operation in this module takes one.  The base-2
finite-n cumulant generating function and its limit are

    L_n(theta) = theta*pi1*ell + (1/n)*log2 G_n(u_theta),
    L(theta)   = theta*pi1*ell + log2 lambda_plus(u_theta),

with u_theta = 2^(-theta*ell), G_n(u) = pi^T D(u) (P D(u))^{n-1} 1 the
probability generating function of the occupation count N_n, D(u) =
diag(1, u), and lambda_plus(u) the Perron root of the tilted transition
matrix

    P D(u) = [[1-a, a*u], [b, (1-b)*u]].

G_n and lambda_plus follow one tilt rule: max(1, u) is factored out and
only weights <= 1 are formed, so no finite tilt overflows.  G_n comes from
the jet kernel ``_log2_mgf``: P D(u) is raised to the power n-1 by binary
powering, O(log n) products of 2x2 matrices of plain floats, each product
rescaled by an exact power of two.  Its entries are jets, truncated Taylor
series in t of E[u^N_n e^{t(N_n - n*pi1)}]; order 0 gives G_n and L_n, and
at u = 1 the higher orders give the cumulants of ``centered_cumulants`` at
any n.  Every function in this module is float arithmetic, one tilt at a
time, and the module imports no numpy; in the package only
``montecarlo.sample_trajectory`` does, for the array it returns.  Each
tilt is checked once, where it enters: theta*ell in ``_log2_tilt``, u in
``perron_root`` and ``occupation_log2_pgf``; n by
``markov.require_blocklength``, in the kernel and in each function that
may return without running it.

The rate function I(x) is the Legendre-Fenchel transform of L, with the
optimal tilt theta* in closed form from the contraction of the pair
empirical measure.  (Parameterizing the transform by theta rather than by
u is a monotone change of variable: u and theta are in strictly monotone
correspondence through u_theta.)  theta carries units 1/bits and L, I are
in bits, so tail probabilities decay like 2^(-n*I(x)).
"""

import math

from .markov import LN2, ChainParams, require_blocklength

__all__ = [
    "centered_cumulants", "cgf_finite", "cgf_limit", "occupation_log2_pgf", "perron_root",
    "rate_function", "saddlepoint_tail",
]


def _series_log(q: list[float]) -> list[float]:
    """Taylor coefficients of ln q, for a series q with q[0] == 1."""
    log_q = [0.0] * len(q)
    for k in range(1, len(q)):
        log_q[k] = q[k] - sum(j * log_q[j] * q[k - j] for j in range(1, k)) / k
    return log_q


def _rescale(coeffs: list, log2_scale: list[float], pi: tuple[float, float]):
    """Divide a jet (one matrix per order) by a scalar jet T and add log2 T to its log2 scale.

    T0 is a power of two near the largest order-0 entry, so order 0 is divided exactly.  T/T0 is
    S/S0 for S the pi-weighted sum over rows of the entry sums (one row: its weight cancels).
    """
    _, shift = math.frexp(max(max(row) for row in coeffs[0]))
    coeffs = [[(math.ldexp(c0, -shift), math.ldexp(c1, -shift)) for c0, c1 in m] for m in coeffs]
    if len(coeffs) == 1:
        return coeffs, [log2_scale[0] + shift]
    total = [sum(p * (c0 + c1) for p, (c0, c1) in zip(pi, m)) for m in coeffs]
    q = [t / total[0] for t in total]
    for k in range(1, len(q)):
        for j in range(k):
            c, lower = -q[k - j], coeffs[j]
            coeffs[k] = [(x0 + c * y0, x1 + c * y1) for (x0, x1), (y0, y1) in zip(coeffs[k], lower)]
    log2_t = [c / LN2 for c in _series_log(q)]
    log2_t[0] = shift
    return coeffs, [s + t for s, t in zip(log2_scale, log2_t)]


def _jet_mul(x, y, pi: tuple[float, float]):
    """Cauchy product of jets, each (matrices per order, log2 scales per order), then rescaled.

    A matrix is a list of (c0, c1) rows: one or two in x, two in y.
    """
    (xs, x_scale), (ys, y_scale) = x, y
    prod = []
    for k in range(len(ys)):
        for p in range(k + 1):
            (y00, y01), (y10, y11) = ys[k - p]
            term = [(x0 * y00 + x1 * y10, x0 * y01 + x1 * y11) for x0, x1 in xs[p]]
            acc = [(a0 + t0, a1 + t1) for (a0, a1), (t0, t1) in zip(acc, term)] if p else term
        prod.append(acc)
    return _rescale(prod, [s + t for s, t in zip(x_scale, y_scale)], pi)


def _log2_mgf(chain: ChainParams, n: int, log2_u: float, order: int = 0) -> list[float]:
    """Taylor coefficients in t, orders 0..order, of log2 E[u^N_n e^{t(N_n - n*pi1)}].

    The one entry to the jet kernel, at one finite log2 u, with n*max(0, log2 u) taken off
    order 0.  Its loop applies the jet of P D(u) n-1 times to the start jet pi^T D(u) by
    binary powering, in at most 2*log2(n-1) calls of :func:`_jet_mul`.  The weights, the
    tilt rule's (w0, w1) = 2^min(0, (-log2 u, log2 u)) times the centered jets
    (-pi1, pi0)^r/r!, are rescaled after every product, so no finite log2 u over- or
    underflows; a weight w that underflows to 0 drops a share of order n*w/min(1-a, 1-b)^2
    of the sum.  Order 0 does no series work.  Against 50-digit decimals, order 0 is within
    3e-16*max(1, |log2 u|) in L_n at n up to 10**6 and |log2 u| up to 1100.  Orders >= 1 are
    certified only at u = 1, by the tests of :func:`centered_cumulants`.  Raises ValueError
    if n < 1 or n exceeds float range.
    """
    require_blocklength(n)
    w0, w1 = 2.0 ** min(0.0, -log2_u), 2.0 ** min(0.0, log2_u)
    weights = [
        (w0 * ((-chain.pi1) ** r / math.factorial(r)), w1 * (chain.pi0**r / math.factorial(r)))
        for r in range(order + 1)
    ]
    pi = (chain.pi0, chain.pi1)
    rows = ((1.0 - chain.a, chain.a), (chain.b, 1.0 - chain.b))
    zeros = [0.0] * (order + 1)
    acc = _rescale([[(pi[0] * v0, pi[1] * v1)] for v0, v1 in weights], zeros, pi)
    step = _rescale([[(p0 * v0, p1 * v1) for p0, p1 in rows] for v0, v1 in weights], zeros, pi)
    e = n - 1
    while e:
        if e & 1:
            acc = _jet_mul(acc, step, pi)
        e >>= 1
        if e:
            step = _jet_mul(step, step, pi)
    coeffs, log2_series = acc
    total = [sum(c0 + c1 for c0, c1 in m) for m in coeffs]
    log2_total = [c / LN2 for c in _series_log([t / total[0] for t in total])]
    log2_total[0] = math.log2(total[0])
    return [s + t for s, t in zip(log2_series, log2_total)]


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


def occupation_log2_pgf(chain: ChainParams, n: int, u: float) -> float:
    """log2 of G_n(u) = pi^T D(u) (P D(u))^{n-1} 1, for finite u > 0.

    The matrix power is formed by binary powering with an exact power-of-two
    rescaling after every product, so the result neither overflows nor
    underflows for any finite u > 0 and costs O(log n).
    """
    if not 0.0 < u < math.inf:
        raise ValueError(f"generating-function argument u={u!r} must be positive and finite")
    log2_u = math.log2(u)
    return _log2_mgf(chain, n, log2_u)[0] + n * max(log2_u, 0.0)  # the kernel checks n first


def cgf_finite(chain: ChainParams, n: int, theta: float) -> float:
    """Finite-n base-2 CGF L_n of the centered sum, in bits.

    L_n(theta) = theta*pi1*ell + (1/n)*log2 G_n(u_theta) with u_theta = 2^(-theta*ell), from
    O(log n) products of 2x2 matrices at any theta with a finite theta*ell.  theta is checked
    first, then n; a symmetric chain, whose L_n is identically 0, runs no kernel but must pass
    both checks.
    """
    log2_u = _log2_tilt(chain, theta)
    require_blocklength(n)
    if chain.symmetric:
        return 0.0
    log2_g = _log2_mgf(chain, n, log2_u)[0]  # log2 G_n(u_theta) - n*max(0, log2 u_theta)
    return theta * chain.pi1 * chain.ell + (max(log2_u, 0.0) + log2_g / n)


def centered_cumulants(chain: ChainParams, n: int, max_order: int = 6) -> list[float]:
    """Cumulants kappa_2..kappa_max_order of J_n(D) - n*mu_D = -ell*(N_n - n*pi1), any n >= 1.

    kappa_r = r!*[s^r]K*(-ell)^r for K(s) = ln E[e^{s(N_n - n*pi1)}], the kernel entry's series
    at u = 1, on jets of the centered state weights (e^{-s*pi1}, e^{s*pi0}).  Against an 80-digit
    count-law DP at n in {2, 20, 300} on seven chains, kappa_2..kappa_6 were within 7.4e-14
    relative, but 5.1e-13 at lambda2 = -0.85; kappa_7..kappa_10 within 6.5e-14 for lambda2 > 0,
    but 8.9e-14 at lambda2 = -0.3, 5.4e-13 at lambda2 = -0.5 and 3.1e-11 at lambda2 = -0.85.
    """
    if not 2 <= max_order <= 10:
        raise ValueError(f"max_order={max_order} must lie in [2, 10]")
    series = _log2_mgf(chain, n, 0.0, max_order)
    return [math.factorial(r) * (LN2 * c) * (-chain.ell) ** r for r, c in enumerate(series)][2:]


def cgf_limit(chain: ChainParams, theta: float) -> float:
    """Limiting base-2 CGF of the centered tilted sum, in bits."""
    log2_u = _log2_tilt(chain, theta)
    lam, _, _ = _tilted(chain, log2_u)
    return theta * chain.pi1 * chain.ell + (max(log2_u, 0.0) + math.log2(lam))


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
    as x -> 0.

    Raises ValueError for a symmetric chain, whose centered sum is a point
    mass at 0, and for x outside the open interval of achievable values: any
    finite tilt puts q in (0, 1), so x = ell*(pi1 - q) lies strictly between
    ell*pi1 and -ell*pi0, the two ends the message names in ascending order.
    """
    if chain.symmetric:
        raise ValueError("symmetric chain: the centered sum is a point mass at 0")
    a, b = chain.a, chain.b
    y = x / chain.ell
    q, p = chain.pi1 - y, chain.pi0 + y  # tilted occupancies of states 1 and 0
    if not (q > 0.0 and p > 0.0):
        lo_x, hi_x = sorted((chain.ell * chain.pi1, -chain.ell * chain.pi0))
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
    curvature, with L'' = ell^2*ln2*u*g'(u) at u_theta from the tilted chain
    of :func:`_tilted`.  This is an approximation, not an exact quantity: it
    ignores the lattice structure of the sum (span |ell|).  The test suite holds it
    to a factor-two envelope against exact tail sums only on fast- and
    moderate-mixing chains; on slowly relaxing ones it can be far off (at
    a = 0.00972356736242579, b = 6.3573332322043285e-12, n = 100,
    x = 20.65778673353927 it is 5.2e6 times the exact tail).  Raises ValueError for an x > 0
    so close to 0 that theta_star rounds to 0 (on a = 0.1, b = 0.3, any x below about 8.8e-17).
    """
    require_blocklength(n)
    if not x > 0.0:
        raise ValueError(f"upper-tail estimate requires x > 0, got x={x!r}")
    theta_star, rate = rate_function(chain, x)
    if theta_star == 0.0:
        raise ValueError(f"x={x!r} is too close to 0: its optimal tilt rounds to 0")
    _, _, c = _tilted(chain, _log2_tilt(chain, theta_star))
    curvature = chain.ell**2 * LN2 * c  # L''(theta_star)
    sigma_star = math.sqrt(curvature / LN2)
    return 2.0 ** (-n * rate) / (theta_star * LN2 * sigma_star * math.sqrt(2.0 * math.pi * n))
