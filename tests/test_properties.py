"""Invariant checks over the whole parameter space, one test per invariant.

Each test runs on the corners of its parameter box, then on uniform draws
from the box, all drawn once at import from ``random.Random(SEED)``, so
every run checks the same cases.  After the draws come fixed grid cases:
``PAIR_GRID`` chains at set n, u or fractions of the distortion bound, and
for ``jtilt`` a grid of a and b from 0.05 to 0.95.  Worst deviation over
both sets of cases, against the tolerance of the assertion:

    test_...                                      deviation                    worst    bound
    stationary_distribution_fixed_point           max |pi P - pi|              1.1e-16  1e-14
                                                  max |row sum of P - 1|       0        1e-15
                                                  |pi0 + pi1 - 1|              2.2e-16  1e-15
                                                  |char. poly. at 1, lambda2|  1.7e-16  1e-14
                                                  numpy eigenvalue gap         1.7e-16  1e-14
    jtilt_routes_agree                            |jtilt - jtilt_generic|      8.9e-16  1e-12
    distortion_shift_is_state_free                shift less h2(hi) - h2(lo)   5.8e-16  1e-13
    dp_matches_enumeration                        total variation              3.8e-16  1e-12
    pgf_positive_and_consistent                   relative PGF gap             2.3e-14  1e-10
    perron_root_solves_characteristic_polynomial  |residual| / max(1, lam^2)   4.0e-16  1e-12
                                                  relative Vieta sum gap       3.2e-15  1e-12
    variance_forms_and_cgf_origin                 relative variance gap        9.3e-16  1e-10
                                                  |cgf_finite(chain, n, 0)|    1.6e-16  1e-12
    letter_gap_is_the_log_ratio                   relative gap from log2(b/a)  2.0e-15  1e-14

To widen a test's domain, widen its box or append grid cases, and record the
new worst deviation.
"""

import itertools
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from tiltedsum import (
    binary_entropy,
    cgf_finite,
    derive_chain,
    enumerate_pmf,
    jtilt,
    jtilt_generic,
    occupation_log2_pgf,
    occupation_pmf,
    perron_root,
    variance_double_sum,
    variance_exact,
)
from tiltedsum.oracle import _letter_gap

from conftest import LN2_DECIMAL, NEAR_SYMMETRIC_PAIRS, PAIR_GRID

SEED = 20261020
_draw = random.Random(SEED)


def cases(*box, count=100):
    """The corners of ``box``, a (lo, hi) pair per argument, then uniform draws up to ``count``.

    An int pair draws integers from lo to hi inclusive, a float pair floats.
    """
    corners = list(itertools.product(*box))
    return corners + [
        tuple(_draw.randint(lo, hi) if isinstance(lo, int) else _draw.uniform(lo, hi)
              for lo, hi in box)
        for _ in range(count - len(corners))
    ]


probabilities = (0.02, 0.98)
tilts = (0.05, 20.0)
# The grid of a and of b on which the two jtilt routes are compared, 0.05 to 0.95.
JTILT_GRID = [float(p) for p in np.arange(0.05, 0.96, 0.15)]


@pytest.mark.parametrize("a, b", cases(probabilities, probabilities) + PAIR_GRID)
def test_stationary_distribution_fixed_point(a, b):
    chain = derive_chain(a, b)
    P = np.array([[1.0 - a, a], [b, 1.0 - b]])
    pi = np.array([chain.pi0, chain.pi1])
    assert np.max(np.abs(pi @ P - pi)) < 1e-14
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-15
    assert abs(chain.pi0 + chain.pi1 - 1.0) <= 1e-15
    # Both eigenvalues, through the characteristic polynomial of P and through numpy.
    for lam in (1.0, chain.lambda2):
        assert abs(lam**2 - np.trace(P) * lam + np.linalg.det(P)) < 1e-14
    eig = np.sort(np.linalg.eigvals(P).real)
    assert np.max(np.abs(eig - np.sort([1.0, 1.0 - a - b]))) <= 1e-14


@pytest.mark.parametrize(
    "a, b, frac",
    cases(probabilities, probabilities, (0.1, 0.9))
    + [(a, b, frac) for a in JTILT_GRID for b in JTILT_GRID for frac in (0.25, 0.5, 0.75)],
)
def test_jtilt_routes_agree(a, b, frac):
    chain = derive_chain(a, b)
    d = frac * min(chain.pi0, chain.pi1)
    for x in (0, 1):
        assert abs(jtilt(chain, d, x) - jtilt_generic(chain, d, x)) < 1e-12


@pytest.mark.parametrize(
    "a, b, d1, d2",
    cases(probabilities, probabilities, (0.1, 0.45), (0.5, 0.9)) + [(0.1, 0.3, 0.2, 0.8)],
)
def test_distortion_shift_is_state_free(a, b, d1, d2):
    chain = derive_chain(a, b)
    bound = min(chain.pi0, chain.pi1)
    lo, hi = d1 * bound, d2 * bound
    want = binary_entropy(hi) - binary_entropy(lo)
    for x in (0, 1):
        assert abs((jtilt(chain, lo, x) - jtilt(chain, hi, x)) - want) < 1e-13


@pytest.mark.parametrize(
    "a, b, n",
    cases(probabilities, probabilities, (1, 12))
    + [(a, b, n) for a, b in PAIR_GRID for n in (1, 2, 3, 5, 8, 12, 16)],
)
def test_dp_matches_enumeration(a, b, n):
    chain = derive_chain(a, b)
    tv = 0.5 * np.abs(np.subtract(occupation_pmf(chain, n), enumerate_pmf(chain, n))).sum()
    assert tv < 1e-12


@pytest.mark.parametrize(
    "a, b, n, u",
    cases(probabilities, probabilities, (1, 60), tilts, count=60)
    + [(a, b, n, u) for a, b in PAIR_GRID for n in (1, 2, 17, 200) for u in (0.5, 1.0, 2.0)],
)
def test_pgf_positive_and_consistent(a, b, n, u):
    chain = derive_chain(a, b)
    direct = float(occupation_pmf(chain, n) @ (u ** np.arange(n + 1)))
    assert math.isclose(2.0 ** occupation_log2_pgf(chain, n, u), direct, rel_tol=1e-10)


@pytest.mark.parametrize(
    "a, b, u",
    cases(probabilities, probabilities, tilts)
    + [(a, b, u) for a, b in PAIR_GRID for u in (0.01, 0.5, 1.0, 3.0, 40.0)],
)
def test_perron_root_solves_characteristic_polynomial(a, b, u):
    chain = derive_chain(a, b)
    lam = perron_root(chain, u)
    trace = (1 - a) + (1 - b) * u
    residual = lam**2 - trace * lam + u * (1 - a - b)
    assert abs(residual) < 1e-12 * max(1.0, lam**2)
    # Vieta: with the cofactor root from the determinant, the sum must reproduce the trace.
    assert math.isclose(lam + u * chain.lambda2 / lam, trace, rel_tol=1e-12)


@pytest.mark.parametrize(
    "a, b, n",
    cases(probabilities, probabilities, (1, 500), count=60)
    + [(a, b, n) for a, b in PAIR_GRID for n in (1, 2, 10, 16, 100, 256, 10_000)],
)
def test_variance_forms_and_cgf_origin(a, b, n):
    chain = derive_chain(a, b)
    assert math.isclose(
        variance_double_sum(chain, n),
        variance_exact(chain, n),
        rel_tol=1e-10,
        abs_tol=1e-12,
    )
    assert abs(cgf_finite(chain, n, 0.0)) < 1e-12


# Chains near symmetry, b = a(1 +- 10^e) for a log-uniform a = 10^t.
NEAR_SYMMETRIC = [(10.0**t, 10.0**t + (2 * up - 1) * 10.0**(t + e))
                  for t, e, up in cases((-11.0, -0.05), (-16.0, -1.0), (0, 1))]


@pytest.mark.parametrize(
    "a, b", NEAR_SYMMETRIC + cases(probabilities, probabilities) + NEAR_SYMMETRIC_PAIRS
)
def test_letter_gap_is_the_log_ratio(a, b):
    # The oracle's j1 - j0 from the defining sums is log2(pi0/pi1) = log2(b/a), taken here to
    # 60 digits, at D = 0.1, 0.5 and 0.9 of the regime's bound.
    chain = derive_chain(a, b)
    with localcontext() as ctx:
        ctx.prec = 60
        want = (Decimal(b) / Decimal(a)).ln() / LN2_DECIMAL
        for frac in (0.1, 0.5, 0.9):
            gap = Decimal(_letter_gap(chain, frac * min(chain.pi0, chain.pi1)))
            assert gap == want if not want else abs(gap - want) <= Decimal("1e-14") * abs(want)
