import hashlib
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from tiltedsum import (
    DP_MAX_N,
    SimReport,
    centered_cumulants,
    derive_chain,
    exact_normal_distance,
    jn_law,
    occupation_pmf,
    sample_trajectory,
    simulate,
    tilted_mean,
    variance_exact,
)
from tiltedsum import montecarlo
from tiltedsum.exact import _phi


def variance_standard_error(chain, n, replications):
    """Exact standard error of the sample variance, from exact moments."""
    kappa = centered_cumulants(chain, n, max_order=4)
    sigma2 = variance_exact(chain, n)
    mu4 = kappa[2] + 3 * sigma2**2
    return math.sqrt((mu4 - (replications - 3) / (replications - 1) * sigma2**2) / replications)


def dkw_halfwidth(replications, fail_prob=1e-9):
    """DKW: Pr(sup|F_emp - F| > eps) <= 2*exp(-2*replications*eps^2) = fail_prob."""
    return math.sqrt(math.log(2 / fail_prob) / (2 * replications))


KS_CHAINS = [(0.1, 0.3, 0.1), (0.6, 0.7, 0.2), (0.02, 0.05, 0.1), (0.3, 0.30000000000000004, 0.1)]


class TestSimulate:
    def test_deterministic(self, moderate):
        r1 = simulate(moderate, 0.1, 30, 500, 42)
        r2 = simulate(moderate, 0.1, 30, 500, 42)
        assert r1 == r2

    def test_mean_and_variance_within_bands(self, moderate):
        n, reps = 50, 20_000
        report = simulate(moderate, 0.1, n, reps, 1)
        exact_var = variance_exact(moderate, n)
        mu = n * tilted_mean(moderate, 0.1)
        se_mean = math.sqrt(exact_var / reps)
        assert abs(report.emp_mean - mu) < 4 * se_mean
        se_var = variance_standard_error(moderate, n, reps)
        assert abs(report.emp_var - exact_var) < 3 * se_var
        assert 0.0 <= report.ks_exact <= 1.0
        assert 0.0 <= report.ks_normal <= 1.0

    def test_symmetric_chain_degenerate(self, symmetric):
        report = simulate(symmetric, 0.2, 10, 500, 3)
        assert report.emp_var == 0.0
        support, _ = jn_law(symmetric, 0.2, 10)
        assert report.emp_mean == support[0]
        assert report.ks_exact == 0.0
        assert report.ks_normal == 0.5

    def test_positional_fields(self):
        # simulate's symmetric branch builds its report positionally.
        assert SimReport(1.0, 2.0, 3.0, 4.0).ks_normal == 4.0

    @pytest.mark.parametrize(
        "a, b, d, n",
        # The last pair is one ulp from symmetric: its atoms coincide in
        # floating point.  At n = 1 and 2 a path is one run or two; ids
        # without an n are the n = 20 cases.
        [pytest.param(a, b, d, 20, id=f"{a}-{b}-{d}") for a, b, d in KS_CHAINS]
        + [
            pytest.param(a, b, d, n, id=f"{a}-{b}-{d}-n{n}")
            for n in (1, 2)
            for a, b, d in KS_CHAINS
        ],
    )
    def test_ks_exact_shrinks_with_replications(self, a, b, d, n):
        chain = derive_chain(a, b)
        small = simulate(chain, d, n, 1000, 11).ks_exact
        large = simulate(chain, d, n, 100_000, 11).ks_exact
        assert large < small
        # The DKW half-width at failure probability 1e-9.
        assert large <= dkw_halfwidth(100_000)

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
        assert ks_normal <= exact_normal_distance(chain, 200) + dkw_halfwidth(20_000)

    def test_dp_cap_checked_before_sampling(self, moderate, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking the DP cap")

        monkeypatch.setattr(montecarlo, "_count_histogram", no_sampling)
        with pytest.raises(ValueError, match="DP cap"):
            simulate(moderate, 0.1, DP_MAX_N + 1, 100, 1)

    def test_pathwise_check_scales_with_the_atoms(self):
        # The atom offset - ell*m is formed from terms near n*|log2 pi0| =
        # 1.2e6 bits, whose rounding alone passes an absolute 1e-10.
        chain = derive_chain(0.5, 1.1e-12)
        report = simulate(chain, 5e-13, 30_000, 200, 5)
        assert report.ks_exact <= dkw_halfwidth(200)

    def test_input_validation(self, moderate):
        with pytest.raises(ValueError):
            simulate(moderate, 0.1, 10, 50, 1)  # too few replications
        with pytest.raises(ValueError):
            simulate(moderate, 0.1, 10_000, 10_001, 1)  # replications*n > 10^8
        with pytest.raises(ValueError, match="seed=-1"):
            simulate(moderate, 0.1, 10, 200, -1)
        from tiltedsum import RegimeError

        with pytest.raises(RegimeError):
            simulate(moderate, 0.4, 10, 200, 1)


class TestRuns:
    @pytest.mark.parametrize(
        "a, b, n, rows, k",
        # k, the runs per path in a chunk, is pinned, so that it takes values
        # that are and are not powers of two.  At n = 300 and 2000 a block of
        # 4096 paths spans chunks; the last case is one path of 6784 runs.
        [
            (0.6, 0.7, 1, 4096, 1),
            (0.6, 0.7, 2, 5, 2),
            (0.6, 0.7, 7, 1, 7),
            (0.1, 0.3, 16, 5, 11),
            (0.6, 0.7, 300, 4096, 16),
            (0.02, 0.05, 2000, 4096, 16),
            (0.6, 0.7, 300, 5, 250),
            (0.6, 0.7, 10_000, 1, 6784),
        ],
    )
    def test_scan_matches_cumsum(self, a, b, n, rows, k):
        # Reference route: the same Philox uniforms, drawn again, turned into
        # run lengths and summed down each column by np.cumsum.
        chain, seed = derive_chain(a, b), 29
        uniforms = np.random.Generator(np.random.Philox(seed))
        inv_log_stay = 1.0 / np.log1p(-np.array([chain.a, chain.b]))
        first = (uniforms.random(rows) >= chain.pi0).astype(np.uint8)
        start = np.zeros(rows)
        rng = np.random.Generator(np.random.Philox(seed))
        for got_first, got_start, ends in montecarlo._runs(chain, n, rows, rng):
            assert ends.shape == (k, rows)
            assert np.array_equal(got_first, first) and np.array_equal(got_start, start)
            states = first ^ (np.arange(k)[:, None] & 1)
            lengths = np.floor(np.log(1.0 - uniforms.random((k, rows))) * inv_log_stay[states])
            lengths += 1.0
            lengths[0] += start
            want = np.minimum(np.cumsum(lengths, axis=0), n)
            assert np.array_equal(ends, want)
            start, first = want[-1], first ^ (k & 1)
        assert start.min() == n

    def test_long_trajectory_is_frozen(self, moderate):
        # 10^5 letters, one chunk of 15491 runs; the digest was recorded with
        # np.cumsum as the scan.
        states = sample_trajectory(moderate, 100_000, 5)
        assert int(states.sum()) == 25_100
        assert hashlib.sha256(states.tobytes()).hexdigest() == (
            "69b5122ea7cc6cd471edc9a3ec9fe775db14856af7dd870d01a85dcb790722ad"
        )


class TestCountHistogram:
    def test_alternating_sums_match_run_lengths(self):
        # Reference route: expand each chunk's run ends into run lengths and
        # their states, and count the letters in state 1 path by path.
        chain, d, n, reps, seed = derive_chain(0.6, 0.7), 0.2, 300, 5000, 3
        support, _ = jn_law(chain, d, n)
        want = np.zeros(n + 1, dtype=np.int64)
        for block in range(-(-reps // montecarlo._BLOCK_ROWS)):
            rows = min(montecarlo._BLOCK_ROWS, reps - block * montecarlo._BLOCK_ROWS)
            stream = np.random.SeedSequence(seed).spawn(block + 1)[block]
            rng = np.random.Generator(np.random.Philox(stream))
            ones = np.zeros(rows, dtype=np.int64)
            for first, start, ends in montecarlo._runs(chain, n, rows, rng):
                lengths = np.diff(ends, axis=0, prepend=start[None, :]).astype(np.int64)
                states = first ^ (np.arange(len(ends))[:, None] & 1)
                ones += (states * lengths).sum(axis=0)
            want += np.bincount(ones, minlength=n + 1)
        got = montecarlo._count_histogram(chain, d, n, support, reps, seed)
        assert np.array_equal(got, want)

    def test_moved_atom_trips_the_pathwise_check(self, moderate):
        d, n = 0.1, 40
        support, probs = jn_law(moderate, d, n)
        support[np.argmax(probs)] += 1e-6  # the most likely count's atom
        with pytest.raises(RuntimeError, match="pathwise identity violated"):
            montecarlo._count_histogram(moderate, d, n, support, 1000, 5)

    def test_short_paths_trip_the_length_check(self, moderate, monkeypatch):
        # A sampler that stops one letter short must be caught before any count is used.
        runs = montecarlo._runs
        monkeypatch.setattr(montecarlo, "_runs", lambda chain, n, *rest: runs(chain, n - 1, *rest))
        d, n = 0.1, 40
        support, _ = jn_law(moderate, d, n)
        with pytest.raises(RuntimeError, match=f"sampled paths do not all have n={n} letters"):
            montecarlo._count_histogram(moderate, d, n, support, 1000, 5)

    @pytest.mark.parametrize("a, b", [(0.02, 0.05), (0.6, 0.7)])
    @pytest.mark.parametrize("n", [40, 2000])
    def test_columns_are_independent_paths(self, a, b, n):
        # 20,000 paths end in a partial block.  A full block's chunk holds 16
        # runs per path, fewer than a path expects at n = 2000 (58 and 1293
        # runs) and on (0.6, 0.7) at n = 40 (26), so those paths span chunks.
        # The count CDF must still lie within the DKW half-width of the law.
        chain, reps = derive_chain(a, b), 20_000
        assert reps % montecarlo._BLOCK_ROWS
        support, _ = jn_law(chain, 0.01, n)
        histogram = montecarlo._count_histogram(chain, 0.01, n, support, reps, 17)
        emp = np.cumsum(histogram) / reps
        exact = np.cumsum(occupation_pmf(chain, n))
        assert np.abs(emp - exact).max() <= dkw_halfwidth(reps)

    def test_memory_does_not_grow_with_replications(self, moderate):
        # The sampler holds one chunk of _CHUNK_ELEMENTS float64 run ends and
        # per-path vectors of one block, whatever the replication count.  The
        # scan's overlapping `+=` adds numpy's temporary copy of its input:
        # the peak of this call measured 2.02 MB in a fresh process and 1.26 MB
        # on a second call (1.77 and 1.00 MB with np.cumsum), under the 2.10 MB
        # bound (CPython 3.11.7, numpy 2.4.6).
        bound = 4 * 8 * montecarlo._CHUNK_ELEMENTS
        tracemalloc.start()
        try:
            simulate(moderate, 0.1, 16, 400_000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestDistanceReference:
    """The distances against the per-sample formulas, evaluated at every draw."""

    @pytest.mark.parametrize(
        "a, b",
        # The last pair is one ulp from symmetric: its float atoms tie, while
        # its real atoms -ell*(m - n*pi1) stay distinct.
        [
            pytest.param(a, b, id=f"{a}-{b}")
            for a, b in [
                (0.1, 0.3), (0.3, 0.1), (0.6, 0.7), (0.02, 0.05), (0.3, 0.30000000000000004)
            ]
        ],
    )
    def test_matches_per_sample_formulas(self, a, b):
        chain = derive_chain(a, b)
        d, n, reps, seed = 0.1, 40, 3000, 21
        report = simulate(chain, d, n, reps, seed)
        support, probs = jn_law(chain, d, n)
        histogram = montecarlo._count_histogram(chain, d, n, support, reps, seed)
        # Each sample is keyed by its count m, ordered by the real atom.
        atom = {m: -chain.ell * (m - n * chain.pi1) for m in range(n + 1)}
        cdf, below = {}, 0.0  # the exact CDF at each count's atom and its left limit
        for m in sorted(atom, key=atom.get):
            cdf[m] = (below + probs[m], below)
            below += probs[m]
        samples = sorted(np.repeat(np.arange(n + 1), histogram).tolist(), key=atom.get)
        scale = math.sqrt(n * chain.v_sl)
        phi = NormalDist().cdf
        ks_exact = ks_normal = 0.0
        # The i-th order statistic: the empirical CDF is i/reps there and
        # (i-1)/reps just below it.
        for i, m in enumerate(samples, start=1):
            value, left = cdf[m]
            z = phi(atom[m] / scale)
            ks_exact = max(ks_exact, i / reps - value, left - (i - 1) / reps)
            ks_normal = max(ks_normal, i / reps - z, z - (i - 1) / reps)
        assert report.ks_exact == pytest.approx(ks_exact, rel=0, abs=1e-15)
        assert report.ks_normal == pytest.approx(ks_normal, rel=0, abs=1e-15)

    def test_phi_deep_tail(self):
        # Phi to 20 significant digits, from a 40-digit evaluation.
        z = (-10.0, -8.0, -5.0, -3.0, -1.0, 0.0, 3.0)
        want = [
            7.619853024160526066e-24,
            6.2209605742717841235e-16,
            2.8665157187919391167e-7,
            0.0013498980316300945267,
            0.15865525393145705141,
            0.5,
            0.99865010196836990547,
        ]
        assert [_phi(x) for x in z] == pytest.approx(want, rel=1e-14, abs=0)


class TestCltDistanceSweep:
    def test_exact_distance_scaling(self, moderate):
        values = [
            exact_normal_distance(moderate, n) * math.sqrt(n) for n in (100, 400, 1600)
        ]
        center = sum(values) / len(values)
        assert all(abs(v - center) <= 0.2 * center for v in values)

    @pytest.mark.parametrize("a, b", [(0.1, 0.3), (0.6, 0.7), (0.02, 0.05)])
    @pytest.mark.parametrize("n", [20, 200, 2000])
    def test_mirrored_chain_same_distance(self, a, b, n):
        # Swapping a and b negates ell and mirrors the count, leaving the
        # centered law -ell*(N_n - n*pi1) unchanged; ell > 0 reads the
        # counts in reverse.
        mirrored = exact_normal_distance(derive_chain(b, a), n)
        assert mirrored == pytest.approx(exact_normal_distance(derive_chain(a, b), n), abs=1e-14)

    def test_symmetric_rejected(self, symmetric):
        with pytest.raises(ValueError):
            exact_normal_distance(symmetric, 20)


class TestPathwiseIdentity:
    def test_large_n_still_holds(self, moderate):
        # The per-letter sum groups equal letters, so the identity check
        # inside simulate stays under its 1e-10 budget at longer blocks.
        n, reps = 1600, 200
        report = simulate(moderate, 0.1, n, reps, 8)
        se = math.sqrt(variance_exact(moderate, n) / reps)
        assert abs(report.emp_mean - n * tilted_mean(moderate, 0.1)) < 5 * se

    def test_anticorrelated_chain(self):
        chain = derive_chain(0.7, 0.6)
        report = simulate(chain, 0.2, 100, 1000, 13)
        exact_var = variance_exact(chain, 100)
        se = variance_standard_error(chain, 100, 1000)
        assert abs(report.emp_var - exact_var) < 4 * se
