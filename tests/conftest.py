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


with localcontext() as _ctx:
    _ctx.prec = 60
    LN2_DECIMAL = Decimal(2).ln()


def decimal_limit(chain, theta):
    """L(theta) and L'(theta) from the Perron root in 50-digit decimals.

    The chain's float a, b and ell are taken as exact, pi1 is a/(a+b);
    L'(theta) = ell*(pi1 - u*lambda'(u)/lambda(u)) at u = 2^(-theta*ell).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, ell = Decimal(chain.a), Decimal(chain.b), Decimal(chain.ell)
        log2_u = -Decimal(theta) * ell
        u = (log2_u * LN2_DECIMAL).exp()
        gap = (1 - a) - (1 - b) * u
        disc = (gap * gap + 4 * a * b * u).sqrt()
        lam = ((1 - a) + (1 - b) * u + disc) / 2
        dlam = ((1 - b) + (2 * a * b - (1 - b) * gap) / disc) / 2
        pi1 = a / (a + b)
        return -log2_u * pi1 + lam.ln() / LN2_DECIMAL, ell * (pi1 - u * dlam / lam)


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
    """kappa_2..kappa_6 of J_n(D), the same as of J_n(D) - n*mu_D, from every path's sum.

    The letter values come from the defining sum (jtilt_generic), and each
    path's sum and the cumulants are formed in exact rationals, so the only
    rounding is in the letter values and path probabilities.
    """
    letters = [Fraction(jtilt_generic(chain, d, x)) for x in (0, 1)]
    probs, sums = _enumerate_paths(chain, n, letters)
    weights = [Fraction(p) for ps in probs for p in ps]
    kappa = exact_cumulants(weights, [s for ss in sums for s in ss], 6)
    return np.array([float(k) for k in kappa])
