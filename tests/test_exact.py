import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from tiltedsum import (
    DP_MAX_N,
    binary_entropy,
    centered_cumulants,
    centered_tail_probability,
    cgf_finite,
    derive_chain,
    enumerate_pmf,
    exact_normal_distance,
    jn_law,
    jtilt,
    occupation_log2_pgf,
    occupation_pmf,
    saddlepoint_tail,
    sample_trajectory,
    simulate,
    tilted_mean,
    variance_double_sum,
    variance_exact,
)

from tiltedsum.markov import _one_minus_power
from tiltedsum.oracle import _enumerate_paths, jtilt_generic

from conftest import PAIR_GRID, count_law_dp, exact_cumulants, path_cumulants

VAR_PER_LETTER_MODERATE = {
    1: 0.4710198991297989,
    2: 0.7536318386076783,
    5: 1.2324895088589971,
    10: 1.5329507300808679,
    50: 1.813426611650297,
}
DEFICIT_CONSTANT_MODERATE = 3.532649243473492
TINY = np.finfo(float).tiny
# The innermost chains derive_chain accepts, and chains near them.
EDGE_LO, EDGE_HI = math.nextafter(1e-12, 1.0), math.nextafter(1.0 - 1e-12, 0.0)
EDGE_CHAINS = [
    (EDGE_LO, EDGE_LO),
    (EDGE_HI, EDGE_HI),
    (EDGE_HI, 0.5),
    (0.3, 1.0 - 1e-9),
    (2e-12, 0.3),
    (0.9, 0.95),
]
# Fast, slow, boundary and anti-correlated chains for the cumulant checks.
CUMULANT_GRID = [
    (0.1, 0.3),
    (0.6, 0.7),
    (0.02, 0.05),
    (1e-6, 0.5),
    (0.5, 1e-6),
    (0.999, 0.5),
    (0.9, 0.95),
]


def decimal_count_law(chain, n):
    """Pr(N_n = m) for m = 0..n as 80-digit Decimals, the chain's float a and b taken as exact.

    At the n used here, 80 digits leave each entry's float conversion
    correctly rounded.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        return count_law_dp(Decimal(chain.a), Decimal(chain.b), n)


def decimal_cumulants(chain, n, max_order):
    """kappa_2..kappa_max_order of J_n - n*mu_D from the 80-digit count law.

    The chain's float ell is taken as exact.  The cumulant step is exact,
    taken about the integer nearest n*pi1 so that the rationals stay small.
    """
    law = [Fraction(p) for p in decimal_count_law(chain, n)]
    center = round(n * chain.pi1)
    kappa = exact_cumulants(law, range(-center, n + 1 - center), max_order)
    return np.array([float(k * Fraction(-chain.ell) ** r) for r, k in enumerate(kappa, start=2)])


def _dyadic(x):
    """(R, E) with x == R / 2**E exactly."""
    q = Fraction(x)
    return q.numerator, q.denominator.bit_length() - 1


def exact_variance_bracket(chain, n):
    """n + 2*sum_{k<n} (n-k)*lambda2^k, summed exactly and rounded once.

    lambda2 = R/2^E; Horner's rule runs on integer numerators, so no term
    is rounded and no gcd is taken.
    """
    num, e = _dyadic(1 - Fraction(chain.a) - Fraction(chain.b))
    acc = 0  # sum_{k>=j} (n-k) * lambda2^(k-j), scaled by 2^(e*(n-1-j))
    for j in range(n - 1, 0, -1):
        acc = ((n - j) << (e * (n - 1 - j))) + num * acc
    return ((n << (e * (n - 1))) + 2 * num * acc) / (1 << (e * (n - 1)))


def exact_closed_form_brackets(chain, n):
    """The variance bracket and the deficit 2*lambda2*(1-lambda2^n)/(1-lambda2)^2.

    Both come from the closed forms evaluated exactly on integer numerators
    (cheap at any n, unlike the double sum) and are rounded once.
    """
    num, e = _dyadic(1 - Fraction(chain.a) - Fraction(chain.b))
    one = 1 << e
    den = (1 << (e * (n - 1))) * (one - num) ** 2
    deficit = 2 * num * ((1 << (e * n)) - num**n)
    total = n * (one + num) * (one - num) * (1 << (e * (n - 1))) - deficit
    return total / den, deficit / den


# Every public function that takes a blocklength, called at n.
BLOCKLENGTH_CALLS = {
    "occupation_pmf": lambda chain, n: occupation_pmf(chain, n),
    "jn_law": lambda chain, n: jn_law(chain, 0.1, n),
    "variance_exact": lambda chain, n: variance_exact(chain, n),
    "saddlepoint_tail": lambda chain, n: saddlepoint_tail(chain, n, 0.1),
    "simulate": lambda chain, n: simulate(chain, 0.1, n, 200, 1),
    "variance_double_sum": lambda chain, n: variance_double_sum(chain, n),
    "centered_tail_probability": lambda chain, n: centered_tail_probability(chain, n, 0.1),
    "cgf_finite": lambda chain, n: cgf_finite(chain, n, 0.5),
    "occupation_log2_pgf": lambda chain, n: occupation_log2_pgf(chain, n, 2.0),
    "centered_cumulants": lambda chain, n: centered_cumulants(chain, n),
    "exact_normal_distance": lambda chain, n: exact_normal_distance(chain, n),
    "sample_trajectory": lambda chain, n: sample_trajectory(chain, n, 1),
    # A symmetric chain's L_n is 0 without the kernel, but n is still checked.
    "cgf_finite-symmetric": lambda chain, n: cgf_finite(derive_chain(0.5, 0.5), n, 0.5),
    # A symmetric chain's law is one atom at n*mu_D, but n is still checked.
    "jn_law-symmetric": lambda chain, n: jn_law(derive_chain(0.5, 0.5), 0.1, n),
}


@pytest.mark.parametrize("call", BLOCKLENGTH_CALLS.values(), ids=BLOCKLENGTH_CALLS)
def test_zero_blocklength_rejected(moderate, call):
    with pytest.raises(ValueError, match="blocklength n=0"):
        call(moderate, 0)


@pytest.mark.parametrize("call", BLOCKLENGTH_CALLS.values(), ids=BLOCKLENGTH_CALLS)
def test_blocklength_beyond_float_range_rejected(moderate, call):
    # float(n) overflows, and so would n*x.
    with pytest.raises(ValueError, match=f"blocklength n={10**400} exceeds float range"):
        call(moderate, 10**400)


@pytest.mark.parametrize(
    "call",
    [
        lambda chain, n: jn_law(chain, 0.1, n),
        lambda chain, n: centered_tail_probability(chain, n, 0.1),
    ],
    ids=["jn_law", "centered_tail_probability"],
)
def test_dp_cap_checked_before_any_array(moderate, call):
    # No list of 10**21 + 1 entries can be built; the cap must speak first.
    with pytest.raises(ValueError, match="DP cap"):
        call(moderate, 10**21)


class TestOccupationPMF:
    def test_n1_is_marginal(self, moderate):
        assert np.allclose(occupation_pmf(moderate, 1), [0.75, 0.25], atol=1e-15)

    def test_n2_paths(self, moderate):
        # Four paths enumerated by hand: 00, 01/10, 11.
        assert np.allclose(
            occupation_pmf(moderate, 2), [0.675, 0.15, 0.175], atol=1e-15
        )

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_normalization_and_mean(self, a, b):
        chain = derive_chain(a, b)
        for n in (1, 7, 64, 300):
            pmf = np.asarray(occupation_pmf(chain, n))
            assert np.all(pmf >= 0)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.arange(n + 1) @ pmf == pytest.approx(n * chain.pi1, abs=1e-9)

    @pytest.mark.parametrize("a,b", [(0.1, 0.3), (0.6, 0.7), (0.02, 0.05), (2e-12, 0.3)])
    def test_matches_exact_rational_law(self, a, b):
        chain = derive_chain(a, b)
        for n in (33, 200):
            exact = decimal_count_law(chain, n).astype(float)
            probs = np.asarray(occupation_pmf(chain, n))
            kept = exact >= 1e-250
            assert np.all(np.abs(probs[kept] - exact[kept]) <= 1e-12 * exact[kept])

    @pytest.mark.parametrize(
        "a,b,n", [(0.1, 0.3, 6000), (0.6, 0.7, 4000), (0.02, 0.05, 2048), (2e-12, 0.3, 300)]
    )
    def test_no_subnormal_entries(self, a, b, n):
        probs = np.asarray(occupation_pmf(derive_chain(a, b), n))
        assert not np.any((probs > 0.0) & (probs < TINY))

    def test_deep_tail_is_zero_not_stuck_at_subnormal(self, moderate):
        # The true last entry is about 1e-930, far below float range.
        assert occupation_pmf(moderate, 6000)[-1] == 0.0

    def test_cap_enforced(self, moderate):
        with pytest.raises(ValueError):
            occupation_pmf(moderate, DP_MAX_N + 1)

    @pytest.mark.parametrize("a,b", EDGE_CHAINS)
    def test_matches_exact_law_at_domain_edges(self, a, b):
        chain = derive_chain(a, b)
        for n in (2, 3, 4, 5, 33, 60):
            exact = decimal_count_law(chain, n).astype(float)
            probs = np.asarray(occupation_pmf(chain, n))
            kept = exact >= TINY
            assert np.all(probs[~kept] == 0.0)
            assert np.all(np.abs(probs[kept] - exact[kept]) <= 1e-13 * exact[kept])

    @pytest.mark.parametrize(
        "a,b", [(0.1, 0.3), (0.6, 0.7), (0.9, 0.95), (0.02, 0.05), (EDGE_HI, 0.5), (1e-5, 1e-11)]
    )
    def test_matches_powered_kernel_at_large_n(self, a, b):
        # The kernel is the transfer matrix applied n-1 times in float64.
        # (1e-5, 1e-11) has kappa near the unit roundoff, where the recurrences
        # lose kappa's share of F and G unless they run on their steps.
        chain = derive_chain(a, b)
        for n in (2048, 8192):
            kernel = count_law_dp(chain.a, chain.b, n, float)
            probs = np.asarray(occupation_pmf(chain, n))
            kept = kernel >= 1e-280
            bound = 8 * n * np.finfo(float).eps
            assert np.all(np.abs(probs[kept] - kernel[kept]) <= bound * kernel[kept])

    @pytest.mark.parametrize(
        "a,b",
        [
            *EDGE_CHAINS,
            (0.1, 0.3),
            (0.5, 0.5),
            (0.3, 0.30000000000000004),
            (9.56e-6, 1.33e-11),
            (1.0 - 1e-9, 1.0 - 2e-9),
        ],
    )
    def test_mirrored_chain_reverses_the_law(self, a, b):
        # Both orientations run the same float operations up to operand order.
        for n in (1, 2, 3, 8, 33, 2000, 2001, DP_MAX_N):
            law = occupation_pmf(derive_chain(a, b), n)
            assert occupation_pmf(derive_chain(b, a), n) == law[::-1]


def _f(n, m, kappa):
    return sum(math.comb(n - m - 1, k) * math.comb(m - 1, k) * kappa**k for k in range(n))


def _g(n, m, kappa):
    if not 1 <= m <= n - 2:
        return 0
    return sum(math.comb(n - m - 1, k + 1) * math.comb(m - 1, k) * kappa**k for k in range(n))


def _h(n, m, kappa):
    return sum(
        Fraction(math.comb(n - m - 2, k) * math.comb(m - 1, k), k + 1) * kappa**k for k in range(n)
    )


class TestCountLawIdentity:
    """The run-count identity and the recurrences of ``exact``, in exact rationals."""

    CHAINS = [(Fraction(1, 10), Fraction(3, 10)), (Fraction(9, 10), Fraction(19, 20)),
              (Fraction(1, 7), Fraction(5, 11)), (Fraction(1, 10**6), Fraction(1, 2))]

    @pytest.mark.parametrize("a,b", CHAINS, ids=lambda q: f"{float(q):g}")
    def test_identity_equals_dp(self, a, b):
        kappa, c = a * b / ((1 - a) * (1 - b)), a * b / (a + b)
        for n in range(1, 41):
            law = count_law_dp(a, b, n)
            assert law[0] == b / (a + b) * (1 - a) ** (n - 1)
            assert law[n] == a / (a + b) * (1 - b) ** (n - 1)
            for m in range(1, n):
                bracket = 2 * _f(n, m, kappa) + b / (1 - a) * _g(n, m, kappa) \
                    + a / (1 - b) * _g(n, n - m, kappa)
                assert law[m] == c * (1 - a) ** (n - m - 1) * (1 - b) ** (m - 1) * bracket

    def test_reference_dp(self):
        # The DP behind every reference law here: exact mass and mean in
        # Fractions, and float64 within 8*n*eps of its 80-digit form.
        a, b = self.CHAINS[0]
        for n in (1, 2, 5, 17):
            law = count_law_dp(a, b, n)
            assert sum(law) == 1
            assert sum(m * p for m, p in enumerate(law)) == n * a / (a + b)
        n = 200
        for chain in (derive_chain(0.1, 0.3), derive_chain(2e-12, 0.3)):
            want = decimal_count_law(chain, n).astype(float)
            got = count_law_dp(chain.a, chain.b, n, float)
            assert np.all(np.abs(got - want) <= 8 * n * np.finfo(float).eps * want)

    @pytest.mark.parametrize("a,b", CHAINS, ids=lambda q: f"{float(q):g}")
    def test_recurrences_and_seeds(self, a, b):
        kappa = a * b / ((1 - a) * (1 - b))
        for n in range(3, 41):
            assert _f(n, 1, kappa) == 1 and _f(n, 2, kappa) == 1 + (n - 3) * kappa
            assert _h(n, 1, kappa) == 1
            assert n < 4 or _h(n, 2, kappa) == 1 + Fraction(n - 4, 2) * kappa
            assert _g(n, 1, kappa) == n - 2 and _g(n, n - 2, kappa) == 1
            if n >= 4:
                assert _g(n, 2, kappa) == (n - 3) + Fraction((n - 3) * (n - 4), 2) * kappa
                assert _g(n, n - 3, kappa) == 2 + (n - 4) * kappa
            for m in range(1, n - 1):
                assert _g(n, m, kappa) == (n - m - 1) * _h(n, m, kappa)
                assert _h(n, m, kappa) == _h(n, n - 1 - m, kappa)
                assert _f(n, m, kappa) == _f(n, n - m, kappa)
            for m in range(1, n - 2):  # F, and its step form below n/2
                t = 2 * m - n
                f0, f1, f2 = (_f(n, m + i, kappa) for i in range(3))
                bracket = kappa * (t + 1) * (t + 3) + 2 * m * (n - m - 2) + n - 1
                p0, p2 = m * (m - n + 1) * (t + 3), (m + 1) * (m - n + 2) * (t + 1)
                assert p0 * f0 + (t + 2) * bracket * f1 + p2 * f2 == 0
                if t + 1 < 0:
                    step = m * (n - m - 1) * (t + 3) * (f1 - f0)
                    step += kappa * (t + 1) * (t + 2) * (t + 3) * f1
                    assert (f2 - f1) * (m + 1) * (n - m - 2) * (t + 1) == step
            for m in range(1, n - 3):  # G, and the step form of H below n/2
                t = 2 * m - n
                g0, g1, g2 = (_g(n, m + i, kappa) for i in range(3))
                bracket = kappa * (t + 2) * (t + 4) + 2 * m * (n - m - 3) + 2 * (n - 2)
                p0, p2 = m * (m - n + 2) * (t + 4), (m + 2) * (m - n + 2) * (t + 2)
                assert p0 * g0 + (t + 3) * bracket * g1 + p2 * g2 == 0
                if t + 2 < 0:
                    h0, h1, h2 = (_h(n, m + i, kappa) for i in range(3))
                    step = m * (n - m - 1) * (t + 4) * (h1 - h0)
                    step += kappa * (t + 2) * (t + 3) * (t + 4) * h1
                    assert (h2 - h1) * (m + 2) * (n - m - 3) * (t + 2) == step


class TestOccupationPGF:
    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_unit_argument(self, a, b):
        chain = derive_chain(a, b)
        for n in (1, 10, 100, 512):
            assert 2.0 ** occupation_log2_pgf(chain, n, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_n2_value(self, moderate):
        assert 2.0 ** occupation_log2_pgf(moderate, 2, 2.0) == pytest.approx(1.675, rel=1e-13)

    def test_small_u_limit(self, moderate):
        # Only the all-zeros path survives as u -> 0+.
        n = 6
        want = moderate.pi0 * (1 - moderate.a) ** (n - 1)
        assert 2.0 ** occupation_log2_pgf(moderate, n, 1e-8) == pytest.approx(want, rel=1e-6)

    def test_rejects_nonpositive_u(self, moderate):
        with pytest.raises(ValueError):
            occupation_log2_pgf(moderate, 5, 0.0)

    def test_rejects_nonfinite_u(self, moderate):
        for u in (math.inf, math.nan):
            with pytest.raises(ValueError):
                occupation_log2_pgf(moderate, 5, u)

    def test_huge_values_stay_finite_in_log2(self, moderate):
        # G_5000(4) lies beyond float range, and its log2 stays finite.
        log2_g = occupation_log2_pgf(moderate, 5000, 4.0)
        assert math.isfinite(log2_g) and log2_g > 1024.0


class TestJnLaw:
    def test_symmetric_point_mass(self, symmetric):
        support, probs = jn_law(symmetric, 0.2, 10)
        assert support == [10 * (1.0 - binary_entropy(0.2))]
        assert probs == [1.0]

    def test_n1_atoms(self, moderate):
        support, probs = jn_law(moderate, 0.1, 1)
        assert np.allclose(probs, [0.75, 0.25], atol=1e-15)
        assert support[0] == pytest.approx(jtilt(moderate, 0.1, 0), abs=1e-14)
        assert support[1] == pytest.approx(jtilt(moderate, 0.1, 1), abs=1e-14)

    def test_uniform_spacing(self, moderate):
        support = np.asarray(jn_law(moderate, 0.1, 20)[0])
        gaps = support[:-1] - support[1:]
        assert np.allclose(gaps, moderate.ell, atol=1e-12)

    def test_mean(self, moderate):
        support, probs = map(np.asarray, jn_law(moderate, 0.1, 50))
        assert support @ probs == pytest.approx(50 * tilted_mean(moderate, 0.1), abs=1e-9)

    def test_support_shift_between_distortions(self, moderate):
        n = 20
        support_lo, probs_lo = map(np.asarray, jn_law(moderate, 0.05, n))
        support_hi, probs_hi = map(np.asarray, jn_law(moderate, 0.2, n))
        shift = n * (binary_entropy(0.2) - binary_entropy(0.05))
        assert np.allclose(support_lo - support_hi, shift, atol=1e-12)
        assert np.array_equal(probs_lo, probs_hi)

    def test_regime_checked(self, moderate):
        from tiltedsum import RegimeError

        with pytest.raises(RegimeError):
            jn_law(moderate, 0.3, 5)


class TestCenteredTailProbability:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.1, 0.3)])
    @pytest.mark.parametrize("n,x", [(0, 0.1), (-5, 0.1), (10, math.nan), (10, math.inf)])
    def test_invalid_input_rejected(self, a, b, n, x):
        # The symmetric chain's point-mass shortcut must not skip the checks.
        with pytest.raises(ValueError):
            centered_tail_probability(derive_chain(a, b), n, x)

    def test_symmetric_point_mass(self, symmetric):
        # The centered sum is 0 with probability one.
        for x, want in ((-0.1, 1.0), (0.0, 1.0), (0.1, 0.0)):
            assert centered_tail_probability(symmetric, 10, x) == want

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_matches_enumeration(self, a, b):
        # The tail as the mass of every path whose count's atom (n - m)*j0 + m*j1, from the
        # defining-sum values, less n*mu_D reaches n*x.  Each x lies halfway between two atoms,
        # so no rounding moves a path across it.  Tolerance 1e-13 relative, set before the run.
        chain = derive_chain(a, b)
        d = min(chain.pi0, chain.pi1) / 4
        j0, j1 = jtilt_generic(chain, d, 0), jtilt_generic(chain, d, 1)
        for n in (1, 2, 7, 12):
            probs = _enumerate_paths(chain, n)
            center = n * tilted_mean(chain, d)
            atoms = [(n - m) * j0 + m * j1 - center for m in range(n + 1)]
            for k in range(-1, n + 1):
                x = -chain.ell * (k + 0.5 - n * chain.pi1) / n
                want = math.fsum(p for s, ps in zip(atoms, probs) if s >= n * x for p in ps)
                assert math.isclose(centered_tail_probability(chain, n, x), want, rel_tol=1e-13)


class TestExactNormalDistance:
    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_matches_enumeration(self, a, b):
        # The sup of |F - Phi| over the enumerated law's atoms, sorted, and their left limits,
        # with Phi from the standard library.  Tolerance 1e-14 absolute, set before the run.
        chain, phi = derive_chain(a, b), NormalDist().cdf
        for n in (1, 2, 7, 12):
            scale = math.sqrt(n * chain.v_sl)
            law = enumerate_pmf(chain, n)
            atoms = sorted((-chain.ell * (m - n * chain.pi1) / scale, p) for m, p in enumerate(law))
            want = 0.0
            for k, (z, p) in enumerate(atoms):
                left = math.fsum(q for _, q in atoms[:k])
                want = max(want, abs(left - phi(z)), abs(left + p - phi(z)))
            assert exact_normal_distance(chain, n) == pytest.approx(want, rel=0, abs=1e-14)


class TestVarianceExact:
    def test_reference_table_values(self, moderate):
        for n, want in VAR_PER_LETTER_MODERATE.items():
            assert variance_exact(moderate, n) / n == pytest.approx(want, rel=1e-12)
            # published to three decimals
            assert variance_exact(moderate, n) / n == pytest.approx(round(want, 3), abs=5e-4)

    def test_symmetric_zero(self, symmetric):
        for n in (1, 5, 100):
            assert variance_exact(symmetric, n) == 0.0

    def test_matches_exact_rational_sum(self):
        # Log-uniform a, b down to 2e-12 reach the slow-mixing chains where
        # n*(a+b) is small and the closed form's two terms nearly cancel
        # (at (1e-9, 2e-9) and n=10 it used to be 8.7% off); 1 - a, 1 - b
        # reach lambda2 near -1.
        rng = random.Random(2024)
        pairs = [(1e-9, 2e-9), (1.5e-12, 2e-12)]
        pairs += [tuple(10 ** rng.uniform(math.log10(2e-12), 0.0) for _ in "ab") for _ in range(40)]
        for a, b in pairs:
            for chain in (derive_chain(a, b), derive_chain(1.0 - a, 1.0 - b)):
                for n in (1, 2, 3, 10, 137, 1000, 10_000):
                    bracket, _ = exact_closed_form_brackets(chain, n)
                    if n <= 1000:
                        assert exact_variance_bracket(chain, n) == bracket
                    want = chain.v_iid * bracket
                    assert variance_exact(chain, n) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_per_letter_monotone_below_limit(self, moderate):
        v_sl = moderate.v_sl
        values = [variance_exact(moderate, n) / n for n in range(1, 200)]
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(v <= v_sl for v in values)


class TestDeficitConstant:
    # The deficit n*V_sl - Var(J_n) = deficit_constant*(1 - lambda2^n) that variance_exact's
    # bracket subtracts from n*V_sl.
    def test_constant(self, moderate):
        assert moderate.deficit_constant == pytest.approx(
            DEFICIT_CONSTANT_MODERATE, rel=1e-12
        )

    def test_iid_no_correction(self, iid_quarter):
        assert iid_quarter.deficit_constant == 0.0
        for n in (1, 10, 1000):
            assert variance_exact(iid_quarter, n) == n * iid_quarter.v_sl

    def test_geometric_approach(self, moderate):
        want = moderate.deficit_constant * (1.0 - 0.6**200)
        assert abs(200 * moderate.v_sl - variance_exact(moderate, 200) - want) < 1e-6

    def test_consistent_with_variance(self, moderate):
        for n in (1, 7, 40):
            deficit = moderate.deficit_constant * (1.0 - moderate.lambda2**n)
            assert variance_exact(moderate, n) == pytest.approx(
                n * moderate.v_sl - deficit, rel=1e-10
            )

    def test_matches_exact_rational_deficit(self):
        # The deficit term of variance_exact's bracket, 1 - lambda2^n from _one_minus_power,
        # against the rational deficit, also where it cancels (lambda2 near +-1).
        rng = random.Random(7)
        for _ in range(20):
            a, b = (10 ** rng.uniform(math.log10(2e-12), 0.0) for _ in "ab")
            for chain in (derive_chain(a, b), derive_chain(1.0 - a, 1.0 - b)):
                for n in (1, 2, 10, 1000, 10_000):
                    want = chain.v_iid * exact_closed_form_brackets(chain, n)[1]
                    got = chain.deficit_constant * _one_minus_power(chain, n)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_negative_for_anticorrelated(self):
        chain = derive_chain(0.7, 0.6)  # a + b > 1, lambda2 < 0
        assert variance_exact(chain, 10) > 10 * chain.v_sl
        assert chain.deficit_constant < 0.0


class TestCenteredCumulants:
    def test_second_cumulant_is_variance(self, moderate):
        for n in (1, 2, 5, 10, 50):
            kappa = centered_cumulants(moderate, n)
            assert kappa[0] == pytest.approx(variance_exact(moderate, n), rel=1e-10)

    @pytest.mark.parametrize("a,b", CUMULANT_GRID)
    def test_second_cumulant_at_large_n(self, a, b):
        # Far beyond DP_MAX_N: the kernel costs O(log n).
        chain = derive_chain(a, b)
        for n in (10**6, 10**12):
            kappa = centered_cumulants(chain, n, max_order=2)
            assert kappa[0] == pytest.approx(variance_exact(chain, n), rel=1e-12, abs=0)

    def test_distortion_invariance(self, moderate):
        # Path sums at each D against each other and the distortion-free kernel.
        lo = path_cumulants(moderate, 0.05, 10)
        hi = path_cumulants(moderate, 0.2, 10)
        assert lo == pytest.approx(hi, rel=1e-12, abs=0)
        assert lo == pytest.approx(centered_cumulants(moderate, 10), rel=1e-12, abs=0)

    def test_symmetric_all_zero(self, symmetric):
        assert all(k == 0.0 for k in centered_cumulants(symmetric, 15))

    def test_small_n_against_enumeration(self, moderate):
        # kappa_2 and kappa_3 for n = 2 from the three-atom law directly.
        pmf = enumerate_pmf(moderate, 2)
        m = np.arange(3)
        mean = pmf @ m
        m2 = pmf @ (m - mean) ** 2
        m3 = pmf @ (m - mean) ** 3
        kappa = centered_cumulants(moderate, 2, max_order=3)
        assert kappa[0] == pytest.approx(moderate.ell**2 * m2, rel=1e-12)
        assert kappa[1] == pytest.approx((-moderate.ell) ** 3 * m3, rel=1e-12)

    @pytest.mark.parametrize("a,b", CUMULANT_GRID)
    def test_matches_decimal_count_law(self, a, b):
        # Orders 7..10 keep fewer digits on strongly anti-correlated chains,
        # where the per-product normalizations are far larger than the
        # cumulants they sum to: kappa_10 at (0.9, 0.95), n = 300, is
        # 3.1e-11 off.
        chain = derive_chain(a, b)
        high_order_rel = 1e-10 if chain.lambda2 < -0.4 else 1e-12
        for n in (2, 20, 300):
            want = decimal_cumulants(chain, n, 10)
            got = centered_cumulants(chain, n, max_order=10)
            assert got[:5] == pytest.approx(want[:5], rel=1e-12, abs=0)
            assert got[5:] == pytest.approx(want[5:], rel=high_order_rel, abs=0)

    @pytest.mark.parametrize("order", [0, 1, 11])
    def test_order_validated(self, moderate, order):
        with pytest.raises(ValueError):
            centered_cumulants(moderate, 5, max_order=order)

    @pytest.mark.parametrize("n", [0, -5])
    def test_blocklength_validated(self, moderate, n):
        with pytest.raises(ValueError):
            centered_cumulants(moderate, n)
