import math
import sys

import numpy as np
import pytest

from tiltedsum import (
    centered_cumulants,
    derive_chain,
    enumerate_pmf,
    oracle_variance,
    variance_exact,
    verify_suites,
)
from tiltedsum import oracle
from tiltedsum.oracle import SUITES, VERIFY_D_GRID, VERIFY_PAIRS

from conftest import NEAR_SYMMETRIC_PAIRS, PAIR_GRID, path_cumulants


class TestEnumeratePMF:
    def test_n1(self, moderate):
        assert np.allclose(enumerate_pmf(moderate, 1), [0.75, 0.25], atol=1e-15)

    def test_n2_explicit_products(self, moderate):
        # 0.75*0.9, 0.75*0.1 + 0.25*0.3, 0.25*0.7
        assert np.allclose(enumerate_pmf(moderate, 2), [0.675, 0.15, 0.175], atol=1e-15)

    def test_total_probability(self, moderate):
        for n in (1, 5, 12, 20):
            assert math.fsum(enumerate_pmf(moderate, n)) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n", [0, 21, 64])
    def test_size_limited(self, moderate, n):
        with pytest.raises(ValueError):
            enumerate_pmf(moderate, n)


class TestOracleVariance:
    def test_n1_reference_value(self, moderate):
        assert oracle_variance(moderate, 0.1, 1) == pytest.approx(0.4710, abs=5e-5)

    def test_n5_reference_value(self, moderate):
        assert oracle_variance(moderate, 0.1, 5) / 5 == pytest.approx(1.232, abs=5e-4)

    def test_symmetric_zero(self, symmetric):
        assert oracle_variance(symmetric, 0.2, 4) == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_per_path_route_matches_closed_form(self, a, b):
        # Strongest cross-check in the suite: the letter values come from the
        # defining sum at the operating point, never the collapsed form, and
        # the count law from every path's probability.
        chain = derive_chain(a, b)
        for d in (0.05, 0.1, 0.2):
            if not 0 < d < min(chain.pi0, chain.pi1):
                continue
            for n in (1, 2, 5, 9, 14, 16):
                enumerated = oracle_variance(chain, d, n)
                closed = variance_exact(chain, n)
                assert enumerated == pytest.approx(closed, rel=1e-10, abs=1e-12)


class TestDistortionInvariance:
    @pytest.mark.parametrize(
        "a, b, distortions",
        [
            (0.1, 0.3, (0.01, 0.1, 0.2)),
            (0.6, 0.7, (0.01, 0.1, 0.3)),
            (0.02, 0.05, (0.01, 0.1, 0.25)),
        ],
    )
    def test_path_cumulants_do_not_depend_on_d(self, a, b, distortions):
        # Each distortion gives other letter values and so other atoms
        # (n - m)*j0 + m*j1, weighed by every path's probability; only their
        # centered cumulants must agree, across D and with the
        # transfer-matrix kernel, to criterion 06's 1e-12.
        chain, n = derive_chain(a, b), 10
        reference = centered_cumulants(chain, n)
        kappas = [path_cumulants(chain, d, n) for d in distortions]
        for kappa in kappas:
            assert kappa == pytest.approx(kappas[0], rel=1e-12, abs=0)
            assert kappa == pytest.approx(reference, rel=1e-12, abs=0)


class TestVerifySuites:
    @pytest.mark.parametrize("pair", [(0.1, 0.3), (0.05, 0.5), (0.5, 0.5)])
    @pytest.mark.parametrize("distortion", [None, 0.04])
    def test_case_counts(self, pair, distortion):
        # Cases per chain of each suite, in suite order.  oracle-variance takes
        # 10 blocklengths at each level of the distortion grid inside the
        # chain's regime, or at the given one; it and cgf-expectation skip a
        # symmetric chain.
        chain = derive_chain(*pair)
        grid = VERIFY_D_GRID if distortion is None else (distortion,)
        admissible = sum(0.0 < d < min(chain.pi0, chain.pi1) for d in grid)
        asymmetric = pair[0] != pair[1]
        want = {
            "oracle-pmf-tv": 12,
            "variance-forms": 5,
            "oracle-variance": 10 * admissible if asymmetric else 0,
            "pgf-pmf": 15,
            "cgf-zeros": 6,
            "cgf-expectation": 12 if asymmetric else 0,
            "d-invariance": 1,
        }
        suites = verify_suites([pair], distortion)
        assert [s["name"] for s in suites] == [name for name, _, _ in SUITES] == list(want)
        assert {s["name"]: s["cases"] for s in suites} == want
        assert all(s["pass"] for s in suites)

    @pytest.mark.parametrize("pair", NEAR_SYMMETRIC_PAIRS)
    def test_near_symmetric_chains_pass(self, pair):
        # ell is tiny against each letter value, so j1 - j0 cannot be the difference of the two.
        assert all(s["pass"] for s in verify_suites([pair]))

    def test_variance_deviations_are_relative_at_any_scale(self):
        # Var(J_n) on this chain is below 1e-30, so a floored denominator would
        # misstate the deviation, here reported relative to the variance itself.
        # Equal values deviate by 0, as on a symmetric chain, where both variances are 0.
        pair = (0.3, 0.30000000000000004)
        chain = derive_chain(*pair)
        want = max(
            abs(oracle_variance(chain, d, n) - variance_exact(chain, n)) / variance_exact(chain, n)
            for d in VERIFY_D_GRID
            for n in range(1, 11)
        )
        suite = next(s for s in verify_suites([pair]) if s["name"] == "oracle-variance")
        assert suite["max_deviation"] == want <= suite["tolerance"]
        symmetric = {s["name"]: s["max_deviation"] for s in verify_suites([(0.5, 0.5)])}
        assert symmetric["variance-forms"] == 0.0


# Small mutants of production functions, each with the verify suites that must fail on it: a
# suite that no wrong answer can fail certifies nothing.  verify still misses cgf_limit,
# perron_root, rate_function, saddlepoint_tail, centered_cumulants, jtilt(., 1) + 1e-6,
# centered_tail_probability and exact_normal_distance; a suite that catches one adds its row.
# Of these, centered_tail_probability*(1+1e-3) and exact_normal_distance + 1e-3 fail the
# test_matches_enumeration tests of tests/test_exact.py; verify cannot take them on yet, since
# perfbench's check_verify pins its suite names and case counts.
MUTANTS = {  # id: (name, the mutant's value from the true value and the arguments, suites)
    "variance_exact*(1+1e-6)": ("variance_exact", lambda v, chain, n: v * (1 + 1e-6),
                                {"variance-forms", "oracle-variance"}),
    "occupation_pmf 1e-6 of m=0 to m=n": (
        "occupation_pmf", lambda p, chain, n: [p[0] * (1 - 1e-6), *p[1:-1], p[-1] + p[0] * 1e-6],
        {"oracle-pmf-tv", "pgf-pmf", "cgf-expectation"}),
    "cgf_finite+1e-6*theta^2": ("cgf_finite", lambda v, chain, n, theta: v + 1e-6 * theta**2,
                                {"cgf-expectation"}),
    "occupation_log2_pgf+1e-6*(u-1)": (
        "occupation_log2_pgf", lambda v, chain, n, u: v + 1e-6 * (u - 1), {"pgf-pmf"}),
    "ba_operating_point q+-1e-6": (
        "ba_operating_point", lambda p, chain, d: p._replace(q0=p.q0 + 1e-6, q1=p.q1 - 1e-6),
        {"oracle-variance"}),
    "tilted_mean+1e-6": ("tilted_mean", lambda v, chain, d: v + 1e-6, {"cgf-expectation"}),
    "jtilt+1e-6*D*x": ("jtilt", lambda v, chain, d, x: v + 1e-6 * d * x, {"d-invariance"}),
    "derive_chain ell*(1+1e-9)": (
        "derive_chain", lambda chain, a, b: chain._replace(ell=chain.ell * (1 + 1e-9)),
        {"oracle-variance", "cgf-expectation"}),
}


@pytest.mark.parametrize("name, mutate, failing", MUTANTS.values(), ids=MUTANTS)
def test_mutant_fails_its_suites(monkeypatch, name, mutate, failing):
    # The mutant replaces the name in every module of the package that holds it.
    original = getattr(oracle, name)
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "tiltedsum" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, lambda *args: mutate(original(*args), *args))
    failed = {suite["name"] for suite in verify_suites(VERIFY_PAIRS) if not suite["pass"]}
    assert failing <= failed, failed
