import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from tiltedsum import derive_chain
from tiltedsum.oracle import _enumerate_paths, jtilt_generic


@pytest.fixture
def moderate():
    """The running asymmetric example: pi = (3/4, 1/4), lambda2 = 0.6."""
    return derive_chain(0.1, 0.3)


@pytest.fixture
def symmetric():
    return derive_chain(0.5, 0.5)


@pytest.fixture
def iid_quarter():
    """i.i.d. Bernoulli(1/4): a + b = 1 so lambda2 = 0."""
    return derive_chain(0.25, 0.75)


# (a, b) pairs spanning both correlation signs, used by grid-style checks.
PAIR_GRID = [
    (0.05, 0.15),
    (0.1, 0.3),
    (0.3, 0.1),
    (0.25, 0.75),
    (0.4, 0.2),
    (0.45, 0.55),
    (0.6, 0.7),
    (0.7, 0.9),
    (0.95, 0.85),
]

# Chains a few ulps to 1e-6 from symmetric, whose ell is tiny against their letter values.
NEAR_SYMMETRIC_PAIRS = [
    (0.3, 0.30000000000000004), (0.2, 0.20000000000000004), (0.3, 0.3000000001),
    (0.999999, 0.999998), (1e-9, 1.0000001e-9),
]


with localcontext() as _ctx:
    _ctx.prec = 60
    LN2_DECIMAL = Decimal(2).ln()


def decimal_tilted(chain, log2_u):
    """lambda~, g, c, L and L' at u = 2^log2_u, as 60-digit Decimals.

    lambda~ = lambda_plus/max(1, u), g = u*lambda'/lambda and c = u*g'(u),
    from the Perron root formula differentiated directly, whose
    cancellations near u = 1 cost digits that 60 afford.  u > 1 is relabeled
    to 1/u: lambda_plus(u; a, b) = u*lambda_plus(1/u; b, a), which maps g to
    1 - g and keeps c.  The limit CGF and its slope at theta = -log2_u/ell
    follow as L = theta*ell*pi1 + max(0, log2 u) + log2 lambda~ and
    L' = ell*(pi1 - g).  The chain's float a, b and ell are taken as exact,
    pi1 is a/(a+b).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        log2_u = Decimal(log2_u)
        a, b = Decimal(chain.a), Decimal(chain.b)
        pi1 = a / (a + b)
        if log2_u > 0:
            a, b = b, a
        u = (-abs(log2_u) * LN2_DECIMAL).exp()
        gap = (1 - a) - (1 - b) * u
        disc = (gap * gap + 4 * a * b * u).sqrt()
        ddisc = (2 * a * b - (1 - b) * gap) / disc
        lam = ((1 - a) + (1 - b) * u + disc) / 2
        dlam = ((1 - b) + ddisc) / 2
        d2lam = ((1 - b) ** 2 - ddisc * ddisc) / (2 * disc)
        g = u * dlam / lam
        c = u * ((dlam + u * d2lam) / lam - u * (dlam / lam) ** 2)
        if log2_u > 0:
            g = 1 - g
        limit = -log2_u * pi1 + max(log2_u, 0) + lam.ln() / LN2_DECIMAL
        return lam, g, c, limit, Decimal(chain.ell) * (pi1 - g)


def count_law_dp(a, b, n, dtype=object):
    """Pr(N_n = m) for m = 0..n by the forward DP over the transfer matrix.

    It runs in the arithmetic that a and b carry: Fractions for an exact
    law, Decimals in the caller's context, or float64 with dtype=float.
    Entry m of in0 (in1) is the probability of m ones with the path in
    state 0 (1); each step applies P and shifts what lands in state 1.
    """
    in0, in1 = np.zeros(n + 1, dtype), np.zeros(n + 1, dtype)
    in0[0], in1[1] = b / (a + b), a / (a + b)
    for _ in range(n - 1):
        in0, to1 = (1 - a) * in0 + b * in1, a * in0 + (1 - b) * in1
        in1[1:] = to1[:-1]
    return in0 + in1


def exact_cumulants(weights, values, max_order):
    """kappa_2..kappa_max_order, as Fractions, of the law with these weights on these values.

    Weights and values are exact rationals and the weights are normalized
    here.  The raw moments go through the moment-to-cumulant recursion
    kappa_r = m_r - sum_{j<r} C(r-1, j-1)*kappa_j*m_{r-j}, which cancels in
    floating point but is exact in Fraction.  Values near 0 keep it fast.
    """
    total = sum(weights)
    terms, moments = list(weights), []
    for _ in range(max_order + 1):
        moments.append(sum(terms) / total)
        terms = [t * x for t, x in zip(terms, values)]
    kappa = [0] * (max_order + 1)
    for r in range(1, max_order + 1):
        kappa[r] = moments[r] - sum(
            math.comb(r - 1, j - 1) * kappa[j] * moments[r - j] for j in range(1, r)
        )
    return kappa[2:]


def path_cumulants(chain, d, n):
    """kappa_2..kappa_6 of J_n(D), the same as of J_n(D) - n*mu_D, from every path's probability.

    The letter values come from the defining sum (jtilt_generic).  In exact
    rationals every path with m ones sums to (n - m)*j0 + m*j1, so each
    count's value is weighed by the exact sum of its paths' probabilities,
    and the only rounding is in the letter values and path probabilities.
    """
    j0, j1 = (Fraction(jtilt_generic(chain, d, x)) for x in (0, 1))
    weights = [sum(map(Fraction, ps)) for ps in _enumerate_paths(chain, n)]
    kappa = exact_cumulants(weights, [(n - m) * j0 + m * j1 for m in range(n + 1)], 6)
    return np.array([float(k) for k in kappa])
