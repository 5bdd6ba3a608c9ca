import math
import random
import re
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest

from tiltedsum import (
    centered_tail_probability,
    cgf_finite,
    cgf_limit,
    derive_chain,
    jn_law,
    perron_root,
    rate_function,
    saddlepoint_tail,
    tilted_mean,
    variance_exact,
)

from tiltedsum.cgf import _log2_tilt, _tilted
from tiltedsum.oracle import cgf_limit_derivative

from conftest import LN2_DECIMAL, PAIR_GRID, decimal_tilted

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


def curvature(chain, theta):
    """L''(theta) = ell^2 * ln2 * u*g'(u) at u_theta, from the tilted chain's c."""
    _, _, c = _tilted(chain, _log2_tilt(chain, theta))
    return chain.ell**2 * LN2 * c


def achievable_interval(chain):
    """The open interval of x with a finite optimal tilt: x = ell*(pi1 - q), q in (0, 1)."""
    return sorted((chain.ell * chain.pi1, -chain.ell * chain.pi0))


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

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    @pytest.mark.parametrize("u", [1e200, 1e300])
    def test_huge_u_matches_decimal_root(self, a, b, u):
        with localcontext() as ctx:
            ctx.prec = 50
            a_, b_, u_ = Decimal(a), Decimal(b), Decimal(u)
            gap = (1 - a_) - (1 - b_) * u_
            root = ((1 - a_) + (1 - b_) * u_ + (gap * gap + 4 * a_ * b_ * u_).sqrt()) / 2
            got = Decimal(perron_root(derive_chain(a, b), u))
            assert abs(got / root - 1) <= Decimal("1e-14")


class TestFiniteCGF:
    def test_matches_exact_expectation(self, moderate):
        mu = tilted_mean(moderate, 0.1)
        for n in (1, 2, 7, 16):
            support, probs = map(np.asarray, jn_law(moderate, 0.1, n))
            centered = support - n * mu
            for theta in (-1.0, -0.3, 0.3, 1.0):
                direct = math.log2(float(probs @ np.exp2(theta * centered))) / n
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

    @pytest.mark.parametrize("a", [2e-12, 0.1, 0.5, 1 - 2e-12])
    def test_symmetric_limit_identically_zero(self, a):
        # ell = 0 makes the general path exact: the Perron root is (1 - a) + a = 1.
        # repr tells +0.0, which the CLI writes, from -0.0.
        chain = derive_chain(a, a)
        for theta in (-1e308, -2.0, -1e-9, 0.0, 1e-9, 2.0, 1e308):
            for func in (cgf_limit, cgf_limit_derivative, curvature):
                assert repr(func(chain, theta)) == "0.0"

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
    def test_extreme_and_near_unit_tilts(self, a, b):
        # The kernel weights the states by (1, u) or (1/u, 1): near
        # log2_u = +-512 the small weight's first squaring leaves float range
        # unless rescaled, at +-1100 the small weight rounds to 0, and +-0.5
        # and +-1e-9 lie on either side of u = 1, where the rule switches.
        chain = derive_chain(a, b)
        tilts = (500.0, 511.99, 512.01, -511.99, -1100.0, -0.5, -1e-9, 1e-9, 0.5, 1100.0)
        for n in (2, 1000, 10**6):
            for log2_u in tilts:
                theta = -log2_u / chain.ell
                tol = 8 * EPS * (1.0 + abs(log2_u))
                assert abs(cgf_finite(chain, n, theta) - decimal_cgf(chain, n, theta)) <= tol

    def test_billion_letters(self, moderate):
        # O(log n) matrix products: a letter-by-letter product could not
        # finish this in any reasonable time.
        for theta in (-1.0, 0.5, 2.0):
            assert abs(cgf_finite(moderate, 10**9, theta) - cgf_limit(moderate, theta)) <= 1e-6

    @pytest.mark.parametrize("a,b", [(0.1, 0.3), (0.02, 0.05), (0.6, 0.7), (0.5, 0.5)])
    def test_each_theta_gives_a_builtin_float(self, a, b):
        chain = derive_chain(a, b)
        tilts = (-900.0, -3.0, 0.0, 0.5, 7.0, 900.0)
        thetas = tuple(tilt / chain.ell for tilt in tilts) if chain.ell else tilts
        for n in (1, 7, 10_000):
            singles = [cgf_finite(chain, n, theta) for theta in thetas]
            assert all(type(value) is float for value in singles)


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
        v_sl = moderate.v_sl
        assert v_sl == pytest.approx(1.884, abs=5e-4)
        assert num == pytest.approx(LN2 * v_sl, rel=1e-6)

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_convexity_and_centered_slope(self, a, b):
        chain = derive_chain(a, b)
        if chain.a == chain.b:
            return
        thetas = np.linspace(-2, 2, 41)
        finite = np.array([cgf_finite(chain, 64, float(theta)) for theta in thetas])
        limit = np.array([cgf_limit(chain, float(theta)) for theta in thetas])
        for values in (finite, limit):
            second = values[:-2] - 2 * values[1:-1] + values[2:]
            assert np.min(second) > -1e-9
        h = 1e-5
        slope0 = (cgf_limit(chain, h) - cgf_limit(chain, -h)) / (2 * h)
        assert abs(slope0) < 1e-8

    def test_nonfinite_tilt_rejected(self, moderate, symmetric):
        # theta*ell is checked as formed: inf*0.0 reads nan on the symmetric chain, and a finite
        # theta of 1e308 overflows against ell ~ -28.9, without a numpy RuntimeWarning.
        cases = [(theta, chain) for theta in (math.inf, -math.inf, math.nan)
                 for chain in (moderate, symmetric)]
        cases += [(theta, derive_chain(1e-9, 0.5)) for theta in (1e308, -1e308)]
        for theta, chain in cases:
            for func in (cgf_limit, cgf_limit_derivative, curvature):
                with pytest.raises(ValueError, match="theta"):
                    func(chain, theta)
            with pytest.raises(ValueError, match="theta"):
                cgf_finite(chain, 5, theta)
        with pytest.raises(ValueError):
            perron_root(moderate, math.inf)

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
            assert curvature(moderate, theta) == pytest.approx(numeric2, rel=1e-4)


class TestRateFunction:
    def test_zero_at_center(self, moderate):
        assert rate_function(moderate, 0.0) == (0.0, 0.0)

    def test_positive_and_convex(self, moderate):
        lo, hi = achievable_interval(moderate)
        xs = np.linspace(0.8 * lo, 0.8 * hi, 33)
        rates = np.array([rate_function(moderate, float(x))[1] for x in xs])
        assert all(r > 0 for x, r in zip(xs, rates) if abs(x) > 1e-9)
        second = rates[:-2] - 2 * rates[1:-1] + rates[2:]
        assert np.min(second) > -1e-9

    def test_legendre_inversion(self, moderate):
        # I(L'(theta)) + L(theta) = theta * L'(theta) across the tilt grid.
        for theta in np.linspace(-2.0, 2.0, 17):
            if theta == 0.0:
                continue
            x = cgf_limit_derivative(moderate, float(theta))
            theta_star, rate = rate_function(moderate, x)
            resid = abs(rate + cgf_limit(moderate, float(theta)) - float(theta) * x)
            assert resid < 1e-8
            assert cgf_limit_derivative(moderate, theta_star) == pytest.approx(
                x, abs=1e-10
            )

    def test_closed_form_sweep(self):
        # 1,000 log-uniform draws of (a, b) in [2e-12, 1) and their mirrors
        # (1-a, 1-b): slow-mixing, nearly alternating and in-between chains.
        rng = random.Random(20261018)
        worst_rate = worst_theta = worst_root = worst_occupancy = (0.0, ())
        for _ in range(1000):
            a, b = (math.exp(rng.uniform(math.log(2e-12), 0.0)) for _ in range(2))
            for chain in (derive_chain(a, b), derive_chain(1.0 - a, 1.0 - b)):
                for x in sweep_points(chain, rng):
                    theta_star, rate = rate_function(chain, x)
                    if x == 0.0:
                        continue
                    # log2_u rounds theta*ell, which moves the Legendre value
                    # by |theta*x|*eps/2 at most.
                    log2_u = -theta_star * chain.ell
                    lam_want, *want, limit, _ = decimal_tilted(chain, log2_u)
                    legendre = Decimal(theta_star) * Decimal(x) - limit
                    dev = abs(rate - float(legendre)) / max(1.0, abs(theta_star * x))
                    worst_rate = max(worst_rate, (dev, (chain.a, chain.b, x)))
                    theta = decimal_tilt(chain, x)
                    dev = abs(theta_star - theta) / abs(theta)
                    worst_theta = max(worst_theta, (dev, (chain.a, chain.b, x)))
                    # The factored Perron root behind L, and the tilted
                    # occupancy and its log-slope behind L' and L''.
                    lam, *got = _tilted(chain, log2_u)
                    dev = abs(lam / float(lam_want) - 1.0)
                    worst_root = max(worst_root, (dev, (chain.a, chain.b, x)))
                    dev = max(abs(g / float(w) - 1.0) for g, w in zip(got, want))
                    worst_occupancy = max(worst_occupancy, (dev, (chain.a, chain.b, x)))
        assert worst_rate[0] <= 1e-13, worst_rate
        assert worst_theta[0] <= 1e-7, worst_theta
        assert worst_root[0] <= 4 * EPS, worst_root
        assert worst_occupancy[0] <= 1e-7, worst_occupancy

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_slope_at_optimal_tilt(self, a, b):
        chain = derive_chain(a, b)
        for x in sweep_points(chain, random.Random(3)):
            theta_star, _ = rate_function(chain, x)
            assert abs(cgf_limit_derivative(chain, theta_star) - x) <= 1e-10

    def test_interval_is_exact(self, moderate):
        # q = pi1 - x/ell runs over (0, 1): x in (ell*pi1, -ell*pi0), the ends the error names.
        with pytest.raises(ValueError, match="outside the achievable open interval") as error:
            rate_function(moderate, 5.0)
        lo, hi = map(float, re.search(r"\((\S+), (\S+)\)$", str(error.value)).groups())
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
        _, rate = rate_function(moderate, 0.2)
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
        assert 0.5 * exact <= estimate <= 2.0 * exact

    def test_improves_with_n(self, moderate):
        r200 = saddlepoint_tail(moderate, 200, 0.2) / centered_tail_probability(
            moderate, 200, 0.2
        )
        r800 = saddlepoint_tail(moderate, 800, 0.2) / centered_tail_probability(
            moderate, 800, 0.2
        )
        assert abs(r800 - 1.0) < abs(r200 - 1.0)

    def test_mirrored_chain_same_envelope(self):
        # Swapping the state labels mirrors the centered law, so the
        # estimate behaves identically for ell > 0.
        chain = derive_chain(0.3, 0.1)
        r200 = saddlepoint_tail(chain, 200, 0.2) / centered_tail_probability(
            chain, 200, 0.2
        )
        r800 = saddlepoint_tail(chain, 800, 0.2) / centered_tail_probability(
            chain, 800, 0.2
        )
        assert 0.5 <= r200 <= 2.0
        assert abs(r800 - 1.0) < abs(r200 - 1.0)

    def test_anticorrelated_moderate_deviation(self):
        # Within the envelope for moderate x; no improvement claim here, the
        # lattice-span error saturates for this narrow-support chain.
        chain = derive_chain(0.7, 0.6)
        for n in (200, 800):
            estimate = saddlepoint_tail(chain, n, 0.02)
            exact = centered_tail_probability(chain, n, 0.02)
            assert 0.5 * exact <= estimate <= 2.0 * exact

    def test_rejects_nonpositive_x(self, moderate):
        with pytest.raises(ValueError):
            saddlepoint_tail(moderate, 100, 0.0)

    @pytest.mark.parametrize(
        "a, b, x",
        [(0.1, 0.3, 1e-17), (0.1, 0.3, 1e-300), (0.1, 0.3, 5e-324), (0.02, 0.05, 1e-17),
         (0.3, 0.30000000000000004, 1e-300), (0.3, 0.30000000000000004, 5e-324)],
    )
    def test_rejects_x_whose_tilt_rounds_to_zero(self, a, b, x):
        # x > 0 is achievable, but theta* rounds to 0 and the estimate would divide by it.
        chain = derive_chain(a, b)
        assert rate_function(chain, x)[0] == 0.0
        with pytest.raises(ValueError, match=f"x={x!r} is too close to 0"):
            saddlepoint_tail(chain, 5, x)
