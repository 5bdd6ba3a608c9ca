"""Randomized invariant checks over the whole parameter space."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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

probabilities = st.floats(min_value=0.02, max_value=0.98)
tilts = st.floats(min_value=0.05, max_value=20.0)


@given(a=probabilities, b=probabilities)
def test_stationary_distribution_fixed_point(a, b):
    chain = derive_chain(a, b)
    P = np.array([[1.0 - a, a], [b, 1.0 - b]])
    pi = np.array([chain.pi0, chain.pi1])
    assert np.max(np.abs(pi @ P - pi)) < 1e-14


@given(a=probabilities, b=probabilities, frac=st.floats(min_value=0.1, max_value=0.9))
def test_jtilt_routes_agree(a, b, frac):
    chain = derive_chain(a, b)
    d = frac * min(chain.pi0, chain.pi1)
    for x in (0, 1):
        assert abs(jtilt(chain, d, x) - jtilt_generic(chain, d, x)) < 1e-12


@given(
    a=probabilities,
    b=probabilities,
    d1=st.floats(min_value=0.1, max_value=0.45),
    d2=st.floats(min_value=0.5, max_value=0.9),
)
def test_distortion_shift_is_state_free(a, b, d1, d2):
    chain = derive_chain(a, b)
    bound = min(chain.pi0, chain.pi1)
    lo, hi = d1 * bound, d2 * bound
    want = binary_entropy(hi) - binary_entropy(lo)
    for x in (0, 1):
        assert abs((jtilt(chain, lo, x) - jtilt(chain, hi, x)) - want) < 1e-12


@given(a=probabilities, b=probabilities, n=st.integers(min_value=1, max_value=12))
def test_dp_matches_enumeration(a, b, n):
    chain = derive_chain(a, b)
    tv = 0.5 * np.abs(np.subtract(occupation_pmf(chain, n), enumerate_pmf(chain, n))).sum()
    assert tv < 1e-12


@given(a=probabilities, b=probabilities, n=st.integers(min_value=1, max_value=60), u=tilts)
@settings(max_examples=60)
def test_pgf_positive_and_consistent(a, b, n, u):
    chain = derive_chain(a, b)
    pmf = occupation_pmf(chain, n)
    direct = float(pmf @ (u ** np.arange(n + 1)))
    assert math.isclose(2.0 ** occupation_log2_pgf(chain, n, u), direct, rel_tol=1e-9)


@given(a=probabilities, b=probabilities, u=tilts)
def test_perron_root_solves_characteristic_polynomial(a, b, u):
    chain = derive_chain(a, b)
    lam = perron_root(chain, u)
    residual = lam**2 - ((1 - a) + (1 - b) * u) * lam + u * (1 - a - b)
    assert abs(residual) < 1e-12 * max(1.0, lam**2)


@given(a=probabilities, b=probabilities, n=st.integers(min_value=1, max_value=500))
@settings(max_examples=60)
def test_variance_forms_and_cgf_origin(a, b, n):
    chain = derive_chain(a, b)
    assert math.isclose(
        variance_double_sum(chain, n),
        variance_exact(chain, n),
        rel_tol=1e-10,
        abs_tol=1e-12,
    )
    assert abs(cgf_finite(chain, n, 0.0)) < 1e-12
