import math
import random
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest

from tiltedsum import (
    achievable_interval,
    centered_tail_probability,
    cgf_curve,
    cgf_finite,
    cgf_limit,
    cgf_limit_derivative,
    cgf_limit_second_derivative,
    derive_chain,
    jn_law,
    perron_root,
    rate_function,
    saddlepoint_tail,
    tilted_stats,
    variance_exact,
)

from conftest import LN2_DECIMAL, PAIR_GRID, decimal_limit

LN2 = math.log(2.0)
EPS = 2.0**-52


def decimal_cgf(chain, n, theta):
    """L_n(theta) from G_n(u) = pi^T D(u) (P D(u))^{n-1} 1 in 50-digit decimals.

    The matrix power is formed by binary powering of unscaled entries; the
    context's exponent range is wide enough that nothing over- or underflows.
    """
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 50, MAX_EMAX, MIN_EMIN
        a, b = Decimal(chain.a), Decimal(chain.b)
        log2_u = -Decimal(theta) * Decimal(chain.ell)
        u = Decimal(2) ** log2_u
        step = [[1 - a, a * u], [b, (1 - b) * u]]
        acc = [b / (a + b), a / (a + b) * u]
        e = n - 1
        while e:
            if e & 1:
                acc = [acc[0] * step[0][j] + acc[1] * step[1][j] for j in (0, 1)]
            e >>= 1
            if e:
                step = [
                    [step[i][0] * step[0][j] + step[i][1] * step[1][j] for j in (0, 1)]
                    for i in (0, 1)
                ]
        log2_g = (acc[0] + acc[1]).ln() / Decimal(2).ln()
        return float(-log2_u * a / (a + b) + log2_g / n)


def decimal_tilt(chain, x):
    """theta* from the closed form, written out plainly, in 50-digit decimals.

    The chain's float a, b and ell are taken as exact and pi1 is a/(a+b);
    q - r and 1 - q - r are formed by subtraction, which 50 digits afford.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, ell = Decimal(chain.a), Decimal(chain.b), Decimal(chain.ell)
        q = a / (a + b) - Decimal(x) / ell
        kappa = a * b / ((1 - a) * (1 - b))
        disc = kappa * kappa + 4 * (1 - kappa) * kappa * q * (1 - q)
        r = 2 * kappa * q * (1 - q) / (kappa + disc.sqrt())
        u = (q - r) * (1 - q) * (1 - a) / ((1 - q - r) * q * (1 - b))
        return float(-u.ln() / (ell * LN2_DECIMAL))


# Fractions of the achievable interval at which the rate is swept; None
# draws a uniform fraction.
SWEEP_FRACTIONS = (1e-8, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-4, 1 - 1e-8, None)


def sweep_points(chain, rng):
    lo, hi = achievable_interval(chain)
    for fraction in SWEEP_FRACTIONS:
        yield lo + (rng.random() if fraction is None else fraction) * (hi - lo)


class TestPerronRoot:
    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_stochastic_fixed_point(self, a, b):
        assert perron_root(derive_chain(a, b), 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    @pytest.mark.parametrize("u", [0.01, 0.5, 1.0, 3.0, 40.0])
    def test_characteristic_polynomial(self, a, b, u):
        # Vieta: with the cofactor root from the determinant, sum and product
        # must reproduce the trace and determinant of the tilted matrix.
        chain = derive_chain(a, b)
        lam_plus = perron_root(chain, u)
        lam_minus = u * chain.lambda2 / lam_plus
        assert lam_plus + lam_minus == pytest.approx((1 - a) + (1 - b) * u, rel=1e-12)

    @pytest.mark.parametrize("u", [0.25, 1.0, 7.0])
    def test_matches_eigensolver(self, moderate, u):
        tilted = np.array(
            [[1 - moderate.a, moderate.a * u], [moderate.b, (1 - moderate.b) * u]]
        )
        assert perron_root(moderate, u) == pytest.approx(
            np.linalg.eigvals(tilted).real.max(), rel=1e-12
        )

    def test_rejects_nonpositive(self, moderate):
        with pytest.raises(ValueError):
            perron_root(moderate, 0.0)


class TestFiniteCGF:
    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_zero_at_origin(self, a, b):
        chain = derive_chain(a, b)
        for n in (1, 16, 256):
            assert abs(cgf_finite(chain, n, 0.0)) < 1e-12

    def test_matches_exact_expectation(self, moderate):
        mu = tilted_stats(moderate, 0.1).mu_d
        for n in (1, 2, 7, 16):
            law = jn_law(moderate, 0.1, n)
            centered = law.support - n * mu
            for theta in (-1.0, -0.3, 0.3, 1.0):
                direct = math.log2(float(law.probs @ np.exp2(theta * centered))) / n
                assert cgf_finite(moderate, n, theta) == pytest.approx(direct, abs=1e-10)

    def test_second_derivative_is_variance(self, moderate):
        h = 1e-4
        for n in (5, 50):
            num = (
                cgf_finite(moderate, n, h)
                - 2 * cgf_finite(moderate, n, 0.0)
                + cgf_finite(moderate, n, -h)
            ) / h**2
            assert num == pytest.approx(LN2 * variance_exact(moderate, n) / n, rel=1e-4)

    def test_symmetric_identically_zero(self, symmetric):
        for theta in (-2.0, 0.0, 3.0):
            assert cgf_finite(symmetric, 20, theta) == 0.0

    def test_extreme_tilt_finite(self, moderate):
        for theta in (1e6, -1e6, 1e300):
            assert math.isfinite(cgf_finite(moderate, 30, theta))


class TestPoweredKernel:
    @pytest.mark.parametrize("a,b", [(0.1, 0.3), (0.6, 0.7), (2e-12, 0.3)])
    def test_matches_decimal_reference(self, a, b):
        chain = derive_chain(a, b)
        for n in (1, 2, 3, 1000, 10**6):
            for tilt in (-60.0, -20.0, -1.0, 0.0, 0.5, 3.0, 20.0, 60.0):
                theta = tilt / chain.ell
                assert abs(cgf_finite(chain, n, theta) - decimal_cgf(chain, n, theta)) <= 1e-13

    @pytest.mark.parametrize("a,b", [(0.02, 0.05), (1e-3, 2e-3), (2e-12, 0.3)])
    def test_tilts_near_the_state_swap(self, a, b):
        # log2_u up to 511.99 runs the direct branch with u near 2^512, whose
        # first squaring would overflow unless rescaled; 512.01 runs the
        # state-swapped branch.
        chain = derive_chain(a, b)
        for n in (2, 1000, 10**6):
            for log2_u in (500.0, 511.99, 512.01, -511.99):
                theta = -log2_u / chain.ell
                tol = 8 * EPS * (1.0 + abs(log2_u))
                assert abs(cgf_finite(chain, n, theta) - decimal_cgf(chain, n, theta)) <= tol

    def test_billion_letters(self, moderate):
        # O(log n) matrix products: a letter-by-letter product could not
        # finish this in any reasonable time.
        for theta in (-1.0, 0.5, 2.0):
            assert abs(cgf_finite(moderate, 10**9, theta) - cgf_limit(moderate, theta)) <= 1e-6

    @pytest.mark.parametrize("a,b", [(0.1, 0.3), (0.02, 0.05), (0.6, 0.7)])
    def test_curve_is_cgf_finite_on_each_theta(self, a, b):
        chain = derive_chain(a, b)
        thetas = np.array([-900.0, -3.0, 0.0, 0.5, 7.0, 900.0]) / chain.ell
        curve = cgf_curve(chain, 10_000, thetas)
        for theta, value in zip(thetas, curve.lambda_n):
            assert value == pytest.approx(cgf_finite(chain, 10_000, theta), rel=1e-15, abs=1e-15)


class TestLimitCGF:
    def test_zero_at_origin(self, moderate):
        assert cgf_limit(moderate, 0.0) == 0.0

    def test_finite_n_converges(self, moderate):
        for theta in (-1.0, 0.5, 1.0):
            lam = cgf_limit(moderate, theta)
            diffs = [abs(cgf_finite(moderate, n, theta) - lam) for n in (256, 1024, 4096)]
            assert diffs[0] > diffs[1] > diffs[2]
            scaled = [n * d for n, d in zip((256, 1024, 4096), diffs)]
            assert max(scaled) < 3 * min(scaled) + 1e-12  # O(1/n) rate

    def test_curvature_at_origin_is_v_sl(self, moderate):
        h = 1e-4
        num = (cgf_limit(moderate, h) - 2 * cgf_limit(moderate, 0.0) + cgf_limit(moderate, -h)) / h**2
        v_sl = tilted_stats(moderate, 0.1).v_sl
        assert v_sl == pytest.approx(1.884, abs=5e-4)
        assert num == pytest.approx(LN2 * v_sl, rel=1e-6)

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_convexity_and_centered_slope(self, a, b):
        chain = derive_chain(a, b)
        if chain.a == chain.b:
            return
        thetas = np.linspace(-2, 2, 41)
        curve = cgf_curve(chain, 64, thetas)
        for values in (curve.lambda_n, curve.lambda_inf):
            second = values[:-2] - 2 * values[1:-1] + values[2:]
            assert np.min(second) > -1e-9
        h = 1e-5
        slope0 = (cgf_limit(chain, h) - cgf_limit(chain, -h)) / (2 * h)
        assert abs(slope0) < 1e-8

    def test_analytic_derivatives_match_differences(self, moderate):
        # Central differences are the cross-check only; the second-difference
        # quotient carries ~eps/h^2 rounding noise, hence the wider band.
        h1, h2 = 1e-5, 1e-4
        for theta in (-1.2, -0.3, 0.4, 1.5):
            numeric1 = (cgf_limit(moderate, theta + h1) - cgf_limit(moderate, theta - h1)) / (2 * h1)
            assert cgf_limit_derivative(moderate, theta) == pytest.approx(numeric1, rel=1e-8)
            numeric2 = (
                cgf_limit(moderate, theta + h2)
                - 2 * cgf_limit(moderate, theta)
                + cgf_limit(moderate, theta - h2)
            ) / h2**2
            assert cgf_limit_second_derivative(moderate, theta) == pytest.approx(
                numeric2, rel=1e-4
            )


class TestRateFunction:
    def test_zero_at_center(self, moderate):
        point = rate_function(moderate, 0.0)
        assert point.theta_star == 0.0
        assert point.rate == 0.0

    def test_positive_and_convex(self, moderate):
        lo, hi = achievable_interval(moderate)
        xs = np.linspace(0.8 * lo, 0.8 * hi, 33)
        rates = np.array([rate_function(moderate, float(x)).rate for x in xs])
        assert all(r > 0 for x, r in zip(xs, rates) if abs(x) > 1e-9)
        second = rates[:-2] - 2 * rates[1:-1] + rates[2:]
        assert np.min(second) > -1e-9

    def test_legendre_inversion(self, moderate):
        # I(L'(theta)) + L(theta) = theta * L'(theta) across the tilt grid.
        for theta in np.linspace(-2.0, 2.0, 17):
            if theta == 0.0:
                continue
            x = cgf_limit_derivative(moderate, float(theta))
            point = rate_function(moderate, x)
            resid = abs(point.rate + cgf_limit(moderate, float(theta)) - float(theta) * x)
            assert resid < 1e-8
            assert cgf_limit_derivative(moderate, point.theta_star) == pytest.approx(
                x, abs=1e-10
            )

    def test_closed_form_sweep(self):
        # 1,000 log-uniform draws of (a, b) in [2e-12, 1) and their mirrors
        # (1-a, 1-b): slow-mixing, nearly alternating and in-between chains.
        rng = random.Random(20261018)
        worst_rate = worst_theta = (0.0, None)
        for _ in range(1000):
            a, b = (math.exp(rng.uniform(math.log(2e-12), 0.0)) for _ in range(2))
            for chain in (derive_chain(a, b), derive_chain(1.0 - a, 1.0 - b)):
                for x in sweep_points(chain, rng):
                    point = rate_function(chain, x)
                    if x == 0.0:
                        continue
                    legendre, _ = decimal_limit(chain, point.theta_star)
                    legendre = Decimal(point.theta_star) * Decimal(x) - legendre
                    dev = abs(point.rate - float(legendre)) / max(1.0, abs(point.theta_star * x))
                    worst_rate = max(worst_rate, (dev, (chain.a, chain.b, x)))
                    theta = decimal_tilt(chain, x)
                    dev = abs(point.theta_star - theta) / abs(theta)
                    worst_theta = max(worst_theta, (dev, (chain.a, chain.b, x)))
        assert worst_rate[0] <= 1e-13, worst_rate
        assert worst_theta[0] <= 1e-7, worst_theta

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_slope_at_optimal_tilt(self, a, b):
        chain = derive_chain(a, b)
        for x in sweep_points(chain, random.Random(3)):
            point = rate_function(chain, x)
            assert abs(cgf_limit_derivative(chain, point.theta_star) - x) <= 1e-10

    def test_interval_is_exact(self, moderate):
        # q = pi1 - x/ell runs over (0, 1): x in (ell*pi1, -ell*pi0).
        lo, hi = achievable_interval(moderate)
        assert lo == pytest.approx(-0.25 * math.log2(3.0), rel=1e-15)
        assert hi == pytest.approx(0.75 * math.log2(3.0), rel=1e-15)

    def test_outside_interval_rejected(self, moderate):
        lo, hi = achievable_interval(moderate)
        for x in (lo - 0.1, hi + 0.1, 5.0):
            with pytest.raises(ValueError):
                rate_function(moderate, x)

    def test_symmetric_rejected(self, symmetric):
        with pytest.raises(ValueError):
            rate_function(symmetric, 0.1)

    def test_chernoff_exponent_converges(self, moderate):
        # Exact tail exponents decrease monotonically toward I(x).
        rate = rate_function(moderate, 0.2).rate
        exponents = [
            -math.log2(centered_tail_probability(moderate, n, 0.2)) / n
            for n in (500, 1000, 2000)
        ]
        assert exponents[0] > exponents[1] > exponents[2] > rate
        gaps = [e - rate for e in exponents]
        assert gaps[2] < gaps[0]
        assert gaps[2] < 0.01


class TestSaddlepointTail:
    def test_factor_two_envelope(self, moderate):
        estimate = saddlepoint_tail(moderate, 200, 0.2)
        exact = centered_tail_probability(moderate, 200, 0.2)
        assert 0.5 * exact <= estimate.probability <= 2.0 * exact

    def test_improves_with_n(self, moderate):
        r200 = saddlepoint_tail(moderate, 200, 0.2).probability / centered_tail_probability(
            moderate, 200, 0.2
        )
        r800 = saddlepoint_tail(moderate, 800, 0.2).probability / centered_tail_probability(
            moderate, 800, 0.2
        )
        assert abs(r800 - 1.0) < abs(r200 - 1.0)

    def test_mirrored_chain_same_envelope(self):
        # Swapping the state labels mirrors the centered law, so the
        # estimate behaves identically for ell > 0.
        chain = derive_chain(0.3, 0.1)
        r200 = saddlepoint_tail(chain, 200, 0.2).probability / centered_tail_probability(
            chain, 200, 0.2
        )
        r800 = saddlepoint_tail(chain, 800, 0.2).probability / centered_tail_probability(
            chain, 800, 0.2
        )
        assert 0.5 <= r200 <= 2.0
        assert abs(r800 - 1.0) < abs(r200 - 1.0)

    def test_anticorrelated_moderate_deviation(self):
        # Within the envelope for moderate x; no improvement claim here, the
        # lattice-span error saturates for this narrow-support chain.
        chain = derive_chain(0.7, 0.6)
        for n in (200, 800):
            estimate = saddlepoint_tail(chain, n, 0.02).probability
            exact = centered_tail_probability(chain, n, 0.02)
            assert 0.5 * exact <= estimate <= 2.0 * exact

    def test_gaussian_regime_flag(self, moderate):
        small_x = 0.01  # theta* ~ x / L''(0), well under the 0.05 threshold
        assert saddlepoint_tail(moderate, 100, small_x).near_gaussian
        assert not saddlepoint_tail(moderate, 100, 0.2).near_gaussian

    def test_rejects_nonpositive_x(self, moderate):
        with pytest.raises(ValueError):
            saddlepoint_tail(moderate, 100, 0.0)
