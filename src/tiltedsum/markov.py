"""Two-state Markov chain parameters, spectral quantities, and the exact variance.

The chain lives on {0, 1} with transition matrix

    P = [[1-a, a],
         [b, 1-b]],       0 < a, b < 1,

stationary distribution pi = (b/(a+b), a/(a+b)), second eigenvalue
lambda2 = 1 - a - b, and log-ratio ell = log2(a/b).  All logarithms
exposed by this package are base 2.  Every per-letter quantity free of the
distortion level is a property of the named tuple :class:`ChainParams`.

Var(J_n(D)) depends on the chain and n alone, so it lives here too, as the
geometric-sum reduction of the double sum over lags whose term-by-term form
is the check route in ``oracle``:

    Var(J_n) = ell^2*pi0*pi1 * [ n + 2*sum_{k=1}^{n-1} (n-k)*lambda2^k ]
             = ell^2*pi0*pi1 * [ n(1+lambda2)/(1-lambda2)
                                 - 2*lambda2*(1-lambda2^n)/(1-lambda2)^2 ].

Everything here is a float closed form; this module holds no array code.
"""

import math
import sys
from typing import NamedTuple

__all__ = [
    "ChainParams", "binary_entropy", "derive_chain", "variance_exact",
]

# Parameters this close to {0, 1} are rejected: the closed forms divide by
# a, b, a+b and 1-lambda2, so clamping would silently destroy precision.
BOUNDARY_MARGIN = 1e-12
LN2 = math.log(2.0)
# Below this n*(a+b) the closed-form variance bracket cancels; its power
# series in a+b is used instead.
_SERIES_MAX_NS = 0.5


class ChainParams(NamedTuple):
    """Transition parameters (a, b) with derived stationary/spectral fields.

    a is the 0->1 transition probability, b the 1->0 probability.
    Construct via :func:`derive_chain`, which validates and fills the
    derived fields.
    """

    a: float
    b: float
    pi0: float
    pi1: float
    lambda2: float
    ell: float

    @property
    def symmetric(self) -> bool:
        """True when a == b, i.e. the log-ratio ell vanishes."""
        return self.a == self.b

    @property
    def v_iid(self) -> float:
        """Single-letter variance of the tilted information, ell^2*pi0*pi1."""
        return self.ell**2 * self.pi0 * self.pi1

    @property
    def v_sl(self) -> float:
        """Asymptotic variance per letter, v_iid*(1+lambda2)/(1-lambda2)."""
        return self.v_iid * (1.0 + self.lambda2) / (1.0 - self.lambda2)

    @property
    def amplification(self) -> float:
        """Memory amplification v_sl/v_iid = (1+lambda2)/(1-lambda2).

        Taken from the closed form, so it is defined when a == b too.
        """
        return (1.0 + self.lambda2) / (1.0 - self.lambda2)

    @property
    def h_rate(self) -> float:
        """Entropy rate pi0*h2(a) + pi1*h2(b), in bits per letter."""
        return self.pi0 * binary_entropy(self.a) + self.pi1 * binary_entropy(self.b)

    @property
    def gap(self) -> float:
        """Excess h2(pi1) - h_rate of the mean tilted information over the entropy rate.

        The mean is h2(pi1) - h2(D) and the memory-aware rate at the same D is
        h_rate - h2(D), so the gap does not depend on D.  In bits per letter.
        """
        return binary_entropy(self.pi1) - self.h_rate

    @property
    def deficit_constant(self) -> float:
        """Limit as n -> infinity of the variance deficit n*v_sl - Var(J_n).

        Equal to 2*v_iid*lambda2/s^2 with s = a + b: positive for positively
        correlated chains, negative for anti-correlated ones.  In bits^2.
        """
        s = self.a + self.b
        return 2.0 * self.v_iid * self.lambda2 / (s * s)


def binary_entropy(p: float) -> float:
    """Binary entropy -p*log2(p) - (1-p)*log2(1-p) in bits, with h2(0)=h2(1)=0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    # log1p keeps the (1-p) term accurate near the boundary.
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / LN2)


def derive_chain(a: float, b: float) -> ChainParams:
    """Validate (a, b) and derive the stationary/spectral quantities.

    ell = log2(a/b) has one rule.  Where b/2 <= a <= 2b, a - b is exact
    (Sterbenz), so ell = log1p((a - b)/b)/ln 2 keeps its relative accuracy
    as a -> b, and ell == 0 only when a == b; elsewhere |ell| >= 1 and it is
    log2 a - log2 b.  Against 50-digit decimals, on log-uniform pairs, ell
    was within 1.4 eps relative inside the window, and within
    eps*max(|log2 a|, |log2 b|) absolute outside it.

    Raises
    ------
    ValueError
        If a or b lies outside the open unit interval (a margin of
        ``BOUNDARY_MARGIN`` from {0, 1} is enforced).
    """
    for name, p in (("a", a), ("b", b)):
        if not (BOUNDARY_MARGIN < p < 1.0 - BOUNDARY_MARGIN):
            raise ValueError(
                f"transition probability {name}={p!r} must lie strictly inside "
                f"(0, 1) with margin {BOUNDARY_MARGIN:g}"
            )
    if 0.5 * b <= a <= 2.0 * b:
        ell = math.log1p((a - b) / b) / LN2
    else:
        ell = math.log2(a) - math.log2(b)
    return ChainParams(a=a, b=b, pi0=b / (a + b), pi1=a / (a + b), lambda2=1.0 - a - b, ell=ell)


def require_blocklength(n: int) -> None:
    """Reject blocklengths below 1 or beyond float range, where n*x overflows."""
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if n > sys.float_info.max:
        raise ValueError(f"blocklength n={n} exceeds float range")


def _one_minus_power(chain: ChainParams, n: int) -> float:
    """1 - lambda2^n without cancellation, also as lambda2 -> +1 or -1.

    Near +1, lambda2 = 1 - s with s = a + b; near -1, lambda2 = -(1 - t)
    with t = (1-a) + (1-b).  Either small quantity is formed without
    subtracting from 1, and |lambda2|^n goes through log1p and expm1.
    """
    r = chain.lambda2
    if abs(r) <= 0.5:
        return 1.0 - r**n
    if r > 0.0:
        return -math.expm1(n * math.log1p(-(chain.a + chain.b)))
    log_magnitude = n * math.log1p(-((1.0 - chain.a) + (1.0 - chain.b)))
    return 1.0 + math.exp(log_magnitude) if n % 2 else -math.expm1(log_magnitude)


def _variance_bracket(chain: ChainParams, n: int) -> float:
    """n + 2*sum_{k<n} (n-k)*lambda2^k in closed form, in terms of s = a + b.

    The closed form n*(1+lambda2)/s - 2*lambda2*(1-lambda2^n)/s^2 is a
    difference of two terms near 2n/s when n*s is small, so there the
    bracket comes from its expansion in s instead,

        n^2 + 2*sum_{j>=1} (-s)^j * C(n+1, j+2),

    whose terms shrink by a factor below n*s/4 each.
    """
    s = chain.a + chain.b
    if n * s < _SERIES_MAX_NS:
        total, term, j = float(n) * n, -s * (n + 1) * n * (n - 1) / 3.0, 1
        while abs(term) > 1e-17 * total:
            total += term
            term *= -s * (n - j - 1) / (j + 3)
            j += 1
        return total
    one_plus_r = (1.0 - chain.a) + (1.0 - chain.b)
    return n * one_plus_r / s - 2.0 * chain.lambda2 * _one_minus_power(chain, n) / (s * s)


def variance_exact(chain: ChainParams, n: int) -> float:
    """Var(J_n(D)) in bits^2; identical for every valid distortion level.

    Evaluates ell^2*pi0*pi1 times the geometric-sum reduction of the
    bracket, written in s = a + b so that it keeps its relative accuracy on
    slow-mixing chains.
    """
    require_blocklength(n)
    return chain.ell**2 * chain.pi0 * chain.pi1 * _variance_bracket(chain, n)
