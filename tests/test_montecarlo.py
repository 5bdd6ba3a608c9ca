import math
from statistics import NormalDist

import numpy as np
import pytest

from tiltedsum import (
    DP_MAX_N,
    centered_cumulants,
    clt_distance_sweep,
    derive_chain,
    exact_normal_distance,
    jn_law,
    simulate,
    tilted_stats,
    variance_exact,
)
from tiltedsum import montecarlo


def variance_standard_error(chain, d, n, replications):
    """Exact standard error of the sample variance, from exact moments."""
    kappa = centered_cumulants(chain, d, n, max_order=4)
    sigma2 = variance_exact(chain, n)
    mu4 = kappa[2] + 3 * sigma2**2
    return math.sqrt((mu4 - (replications - 3) / (replications - 1) * sigma2**2) / replications)


class TestSimulate:
    def test_deterministic(self, moderate):
        r1 = simulate(moderate, 0.1, 30, 500, 42)
        r2 = simulate(moderate, 0.1, 30, 500, 42)
        assert r1 == r2

    def test_mean_and_variance_within_bands(self, moderate):
        n, reps = 50, 20_000
        report = simulate(moderate, 0.1, n, reps, 1)
        exact_var = variance_exact(moderate, n)
        mu = n * tilted_stats(moderate, 0.1).mu_d
        se_mean = math.sqrt(exact_var / reps)
        assert abs(report.emp_mean - mu) < 4 * se_mean
        se_var = variance_standard_error(moderate, 0.1, n, reps)
        assert abs(report.emp_var - exact_var) < 3 * se_var
        assert 0.0 <= report.ks_exact <= 1.0
        assert 0.0 <= report.ks_normal <= 1.0

    def test_symmetric_chain_degenerate(self, symmetric):
        report = simulate(symmetric, 0.2, 10, 500, 3)
        assert report.emp_var == 0.0
        law = jn_law(symmetric, 0.2, 10)
        assert report.emp_mean == law.support[0]
        assert report.ks_exact == 0.0

    @pytest.mark.parametrize(
        "a, b, d",
        # The last pair is one ulp from symmetric: its atoms coincide in floating point.
        [(0.1, 0.3, 0.1), (0.6, 0.7, 0.2), (0.02, 0.05, 0.1), (0.3, 0.30000000000000004, 0.1)],
    )
    def test_ks_exact_shrinks_with_replications(self, a, b, d):
        chain = derive_chain(a, b)
        small = simulate(chain, d, 20, 1000, 11).ks_exact
        large = simulate(chain, d, 20, 100_000, 11).ks_exact
        assert large < small
        # DKW: Pr(ks > eps) <= 2*exp(-2*reps*eps^2); failure probability 1e-9.
        assert large <= math.sqrt(math.log(2 / 1e-9) / (2 * 100_000))

    @pytest.mark.parametrize(
        "a, b",
        # The first pair is one ulp from symmetric, where ell is about 4e-16.
        [(0.3, 0.30000000000000004), (0.1, 0.3), (0.3, 0.1), (0.6, 0.7)],
    )
    def test_ks_normal_within_dkw_of_exact_distance(self, a, b):
        # sup|F_emp - Phi| <= sup|F_emp - F| + sup|F - Phi|, and DKW bounds
        # the first term at failure probability 1e-9.
        chain = derive_chain(a, b)
        ks_normal = simulate(chain, 0.1, 200, 20_000, 1).ks_normal
        dkw = math.sqrt(math.log(2 / 1e-9) / (2 * 20_000))
        assert ks_normal <= exact_normal_distance(chain, 200) + dkw

    def test_dp_cap_checked_before_sampling(self, moderate, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking the DP cap")

        monkeypatch.setattr(montecarlo, "_sample_sums", no_sampling)
        with pytest.raises(ValueError, match="DP cap"):
            simulate(moderate, 0.1, DP_MAX_N + 1, 100, 1)

    def test_input_validation(self, moderate):
        with pytest.raises(ValueError):
            simulate(moderate, 0.1, 10, 50, 1)  # too few replications
        with pytest.raises(ValueError):
            simulate(moderate, 0.1, 10, 200, 1, max_budget=1000)
        from tiltedsum import RegimeError

        with pytest.raises(RegimeError):
            simulate(moderate, 0.4, 10, 200, 1)

    def test_finite_n_standardization_flag(self, moderate):
        default = simulate(moderate, 0.1, 40, 2000, 5)
        finite = simulate(moderate, 0.1, 40, 2000, 5, use_finite_n_variance=True)
        # Same samples, different scale: distances differ but both are KS-valid.
        assert default.ks_normal != finite.ks_normal
        assert 0.0 <= finite.ks_normal <= 1.0


class TestDistanceReference:
    """The distances against the per-sample formulas, evaluated at every draw."""

    @pytest.mark.parametrize("a, b", [(0.1, 0.3), (0.3, 0.1), (0.6, 0.7), (0.02, 0.05)])
    def test_matches_per_sample_formulas(self, a, b):
        chain = derive_chain(a, b)
        d, n, reps, seed = 0.1, 40, 3000, 21
        report = simulate(chain, d, n, reps, seed)
        law = jn_law(chain, d, n)
        sums, histogram = montecarlo._sample_sums(chain, d, law, reps, seed)
        counts = np.repeat(np.arange(n + 1), histogram)
        atoms, cum = law.cdf_points()
        cdf = dict(zip(atoms.tolist(), zip(cum.tolist(), [0.0, *cum[:-1].tolist()])))
        # ks_normal standardizes each sample's count, not its rounded atom.
        scale = math.sqrt(n * tilted_stats(chain, d).v_sl)
        standardized = np.sort(-chain.ell * (counts - n * chain.pi1) / scale)
        phi = NormalDist().cdf
        ks_exact = ks_normal = 0.0
        # The i-th order statistic: the empirical CDF is i/reps there and
        # (i-1)/reps just below it.
        pairs = zip(np.sort(sums).tolist(), standardized.tolist())
        for i, (x, count_z) in enumerate(pairs, start=1):
            value, left = cdf[x]
            z = phi(count_z)
            ks_exact = max(ks_exact, i / reps - value, left - (i - 1) / reps)
            ks_normal = max(ks_normal, i / reps - z, z - (i - 1) / reps)
        assert report.ks_exact == pytest.approx(ks_exact, rel=0, abs=1e-15)
        assert report.ks_normal == pytest.approx(ks_normal, rel=0, abs=1e-15)

    def test_phi_deep_tail(self):
        # Phi to 20 significant digits, from a 40-digit evaluation.
        z = np.array([-10.0, -8.0, -5.0, -3.0, -1.0, 0.0, 3.0])
        want = [
            7.619853024160526066e-24,
            6.2209605742717841235e-16,
            2.8665157187919391167e-7,
            0.0013498980316300945267,
            0.15865525393145705141,
            0.5,
            0.99865010196836990547,
        ]
        assert montecarlo._phi(z) == pytest.approx(want, rel=1e-14, abs=0)


class TestCltDistanceSweep:
    def test_exact_distance_decays(self, moderate):
        points = clt_distance_sweep(moderate, 0.1, [100, 400], 500, 9)
        assert points[0].exact_distance > points[1].exact_distance

    def test_exact_distance_scaling(self, moderate):
        values = [
            exact_normal_distance(moderate, n) * math.sqrt(n) for n in (100, 400, 1600)
        ]
        center = sum(values) / len(values)
        assert all(abs(v - center) <= 0.2 * center for v in values)

    def test_distortion_free(self, moderate):
        # The standardized exact law is built without the distortion, so
        # distances agree bit for bit between any two valid levels.
        lo = clt_distance_sweep(moderate, 0.05, [50, 100], 500, 4)
        hi = clt_distance_sweep(moderate, 0.2, [50, 100], 500, 4)
        for p, q in zip(lo, hi):
            assert p.exact_distance == q.exact_distance

    def test_grid_must_increase(self, moderate):
        with pytest.raises(ValueError):
            clt_distance_sweep(moderate, 0.1, [100, 100], 500, 1)

    def test_symmetric_rejected(self, symmetric):
        with pytest.raises(ValueError):
            clt_distance_sweep(symmetric, 0.2, [10, 20], 500, 1)


class TestPathwiseIdentity:
    def test_large_n_still_holds(self, moderate):
        # The per-letter sum is compensated, so the identity check inside
        # simulate stays under its 1e-10 budget even at longer blocks.
        report = simulate(moderate, 0.1, 1600, 200, 8)
        assert report.replications == 200

    def test_anticorrelated_chain(self):
        chain = derive_chain(0.7, 0.6)
        report = simulate(chain, 0.2, 100, 1000, 13)
        exact_var = variance_exact(chain, 100)
        se = variance_standard_error(chain, 0.2, 100, 1000)
        assert abs(report.emp_var - exact_var) < 4 * se
