from decimal import Decimal, localcontext

import pytest

from tiltedsum import derive_chain


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
