import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from tiltedsum import derive_chain, sample_trajectory


EPS = 2.0**-52


class TestDeriveChain:
    def test_running_example(self, moderate):
        assert moderate.pi0 == pytest.approx(0.75, abs=1e-15)
        assert moderate.pi1 == pytest.approx(0.25, abs=1e-15)
        assert moderate.lambda2 == pytest.approx(0.6, abs=1e-15)
        assert moderate.ell == pytest.approx(math.log2(1 / 3), abs=1e-12)

    def test_iid_case(self, iid_quarter):
        assert iid_quarter.lambda2 == pytest.approx(0.0, abs=1e-15)

    def test_symmetric(self, symmetric):
        assert symmetric.pi0 == 0.5
        assert symmetric.pi1 == 0.5
        assert symmetric.lambda2 == pytest.approx(0.0, abs=1e-15)
        assert symmetric.ell == 0.0

    def test_logs_that_round_equal(self):
        # log2 a - log2 b is exactly 0 here while a != b; ell then comes from log1p.
        a, b = 0.2, 0.20000000000000004
        with localcontext() as ctx:
            ctx.prec = 50
            want = float((Decimal(a) / Decimal(b)).ln() / Decimal(2).ln())
        assert math.log2(a) == math.log2(b)
        assert math.isclose(derive_chain(a, b).ell, want, rel_tol=1e-15)

    def test_ell_near_symmetric_matches_decimal(self):
        # b = a*(1 + delta), a log-uniform over the domain and delta log-uniform from one ulp
        # to 1, in both orders, so every pair lies in the log1p window b/2 <= a <= 2b.  The
        # bound, set before the first run: (a - b) is exact and the quotient rounds once, which
        # log1p's condition number (at most 1.45 on the window) carries into ell; log1p, ln 2
        # and the last division add at most an ulp and two roundings, about 2.7 eps in all.
        # The run reached 1.2 eps over its 4,000 pairs.
        bound = 4 * EPS
        rng = random.Random(20261020)
        worst = (0.0, ())
        for _ in range(2000):
            a = math.exp(rng.uniform(math.log(2e-12), math.log(1.0 - 2e-12)))
            b = a * (1.0 + 2.0 ** rng.uniform(-52.0, 0.0))
            if not b < 1.0 - 2e-12 or a == b:
                continue
            for x, y in ((a, b), (b, a)):
                with localcontext() as ctx:
                    ctx.prec = 50
                    want = (Decimal(x) / Decimal(y)).ln() / Decimal(2).ln()
                    dev = float(abs(Decimal(derive_chain(x, y).ell) / want - 1))
                worst = max(worst, (dev, (x, y)))
        assert worst[0] <= bound, worst

    def test_record_is_immutable(self):
        chain = derive_chain(0.1, 0.3)
        with pytest.raises(AttributeError):
            chain.a = 0.2
        assert chain.a == 0.1

    def test_equal_records_hash_equal(self):
        assert derive_chain(0.1, 0.3) == derive_chain(0.1, 0.3)
        assert hash(derive_chain(0.1, 0.3)) == hash(derive_chain(0.1, 0.3))

    def test_repr(self):
        assert repr(derive_chain(0.1, 0.3)) == (
            "ChainParams(a=0.1, b=0.3, pi0=0.7499999999999999, pi1=0.25, "
            "lambda2=0.6000000000000001, ell=-1.5849625007211559)"
        )

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.5),
                                     (1e-13, 0.5), (0.5, 1 - 1e-13)])
    def test_rejects_boundary(self, a, b):
        with pytest.raises(ValueError):
            derive_chain(a, b)


class TestIndicatorAutocov:
    def test_matches_simulation(self, moderate):
        # 1e6-step empirical autocovariances against pi0*pi1*lambda2^k; the standard
        # error of the mean is inflated by the chain's integrated autocorrelation factor.
        x = sample_trajectory(moderate, 1_000_000, 20250809).astype(float)
        inflation = math.sqrt((1 + moderate.lambda2) / (1 - moderate.lambda2))
        for k in (0, 1, 2, 5):
            y = (x[: len(x) - k] - moderate.pi1) * (x[k:] - moderate.pi1)
            se = y.std(ddof=1) / math.sqrt(len(y)) * inflation
            autocov = moderate.pi0 * moderate.pi1 * moderate.lambda2**k
            assert abs(y.mean() - autocov) < 4 * se


class TestSampleTrajectory:
    def test_deterministic(self, moderate):
        t1 = sample_trajectory(moderate, 10, 42)
        t2 = sample_trajectory(moderate, 10, 42)
        assert np.array_equal(t1, t2)

    def test_frozen_sequences(self, moderate):
        # Golden sequences pin the generator convention: default_rng
        # (PCG64), the first letter by inverse CDF on pi, then Geometric
        # holding times by inverse CDF.
        assert sample_trajectory(moderate, 10, 42).tolist() == [
            1, 1, 0, 0, 0, 0, 0, 0, 0, 0,
        ]
        assert sample_trajectory(moderate, 10, 7).tolist() == [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]

    def test_states_binary(self, moderate):
        states = sample_trajectory(moderate, 500, 1)
        assert set(np.unique(states)) <= {0, 1}
        assert len(states) == 500

    def test_marginal_frequency(self, moderate):
        frac = sample_trajectory(moderate, 1_000_000, 20250809).mean()
        bound = (
            3
            * math.sqrt(moderate.pi0 * moderate.pi1 / 1e6)
            * math.sqrt((1 + moderate.lambda2) / (1 - moderate.lambda2))
        )
        assert abs(frac - moderate.pi1) < bound

    def test_symmetric_pairs_uniform(self, symmetric):
        s = sample_trajectory(symmetric, 400_000, 99)
        pairs = s[:-1] * 2 + s[1:]
        freq = np.bincount(pairs, minlength=4) / (len(s) - 1)
        assert np.abs(freq - 0.25).max() < 4 * math.sqrt(0.25 * 0.75 / len(s))

    def test_mean_run_lengths(self):
        # Completed runs (neither the first nor the clipped last) are
        # Geometric(a) in state 0 and Geometric(b) in state 1.
        chain = derive_chain(0.02, 0.05)
        states = sample_trajectory(chain, 2_000_000, 31)
        starts = np.flatnonzero(np.diff(states)) + 1
        lengths = np.diff(starts)
        run_states = states[starts[:-1]]
        for state, p in ((0, chain.a), (1, chain.b)):
            runs = lengths[run_states == state]
            se = math.sqrt((1 - p) / p**2 / len(runs))
            assert abs(runs.mean() - 1 / p) < 4 * se

    def test_rejects_bad_length(self, moderate):
        with pytest.raises(ValueError):
            sample_trajectory(moderate, 0, 1)
