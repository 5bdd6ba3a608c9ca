import math

import pytest

from tiltedsum import (
    BAOperatingPoint,
    ConvergenceError,
    RegimeError,
    ba_fixed_point_iterate,
    ba_operating_point,
    binary_entropy,
    derive_chain,
    jtilt,
    jtilt_generic,
    tilted_mean,
)
from tiltedsum import oracle
from tiltedsum.oracle import _alternating_updates

from conftest import PAIR_GRID

# Frozen with an independent 40-digit evaluation of the defining formulas.
H2_QUARTER = 0.8112781244591328
JTILT0_MODERATE = -0.0539580943104374  # chain (0.1, 0.3), D = 0.1, state 0
JTILT1_MODERATE = 1.5310044064107188
MU_D_MODERATE = 0.3422825308698516
V_IID_SHARED = 0.4710198991297989  # all three pi1 = 1/4 sources
GAP_MODERATE = 0.2392087044594988
V_SL_MODERATE = 1.8840795965191958
GAP_STRONG = 0.7020853080793054
V_SL_STRONG = 23.079975057360148


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_boundary_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, rel=1e-15)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), rel=1e-14)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)


class TestOperatingPoint:
    def test_closed_form_marginals(self, moderate):
        point = ba_operating_point(moderate, 0.1)
        assert point.q0 == pytest.approx(0.8125, abs=1e-14)
        assert point.q1 == pytest.approx(0.1875, abs=1e-14)
        assert point.beta == pytest.approx(math.log(9), rel=1e-15)

    def test_symmetric(self, symmetric):
        point = ba_operating_point(symmetric, 0.2)
        assert point.q0 == point.q1 == 0.5

    def test_positional_fields(self):
        assert BAOperatingPoint(1.0, 0.25, 0.75).q1 == 0.75

    @pytest.mark.parametrize("d", [0.0, -0.1, 0.25, 0.3, 0.9])
    def test_regime_rejected(self, moderate, d):
        with pytest.raises(RegimeError):
            ba_operating_point(moderate, d)


class TestFixedPointIteration:
    def test_reaches_closed_form(self, moderate):
        closed = ba_operating_point(moderate, 0.1)
        iterated = ba_fixed_point_iterate(moderate, 0.1)
        assert iterated.q0 == pytest.approx(closed.q0, abs=1e-10)
        assert iterated.q1 == pytest.approx(closed.q1, abs=1e-10)

    def test_symmetric_one_iteration(self, symmetric, monkeypatch):
        # The start point is already the fixed point, so one update suffices.
        monkeypatch.setattr(oracle, "BA_MAX_ITER", 1)
        point = ba_fixed_point_iterate(symmetric, 0.2)
        assert point.q0 == point.q1 == 0.5

    def test_nonconvergence_raises(self, moderate, monkeypatch):
        monkeypatch.setattr(oracle, "BA_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            ba_fixed_point_iterate(moderate, 0.1)

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_update_preserves_normalization(self, a, b):
        chain = derive_chain(a, b)
        d = min(chain.pi0, chain.pi1) / 2
        updates = _alternating_updates(chain, d)
        for _ in range(10):
            q0, q1 = next(updates)
            assert q0 + q1 == pytest.approx(1.0, abs=1e-14)
            assert q0 > 0 and q1 > 0


class TestJtilt:
    def test_value_state0(self, moderate):
        assert jtilt(moderate, 0.1, 0) == pytest.approx(JTILT0_MODERATE, abs=1e-14)
        assert jtilt(moderate, 0.1, 1) == pytest.approx(JTILT1_MODERATE, rel=1e-14)

    def test_matches_generic_definition(self, moderate):
        for x in (0, 1):
            assert jtilt(moderate, 0.1, x) == pytest.approx(
                jtilt_generic(moderate, 0.1, x), abs=1e-12
            )

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_state_difference_is_log_ratio(self, a, b):
        chain = derive_chain(a, b)
        d = min(chain.pi0, chain.pi1) / 2
        diff = jtilt(chain, d, 0) - jtilt(chain, d, 1)
        assert diff == pytest.approx(math.log2(a / b), abs=1e-12)

    def test_symmetric_constant(self, symmetric):
        for d in (0.05, 0.2, 0.4):
            want = 1.0 - binary_entropy(d)
            assert jtilt(symmetric, d, 0) == want
            assert jtilt(symmetric, d, 1) == want

    def test_expectation_is_mu(self, moderate):
        mean = moderate.pi0 * jtilt(moderate, 0.1, 0) + moderate.pi1 * jtilt(moderate, 0.1, 1)
        assert mean == pytest.approx(tilted_mean(moderate, 0.1), abs=1e-14)

    def test_bad_state(self, moderate):
        for tilt in (jtilt, jtilt_generic):
            with pytest.raises(ValueError, match="state x=2"):
                tilt(moderate, 0.1, 2)


class TestTiltedStats:
    # The distortion-free statistics are chain properties; only mu_D takes a D.
    def test_moderate_memory(self, moderate):
        assert tilted_mean(moderate, 0.1) == pytest.approx(MU_D_MODERATE, rel=1e-12)
        assert moderate.gap == pytest.approx(GAP_MODERATE, rel=1e-12)
        assert moderate.v_iid == pytest.approx(V_IID_SHARED, rel=1e-12)
        assert moderate.v_sl == pytest.approx(V_SL_MODERATE, rel=1e-12)
        assert moderate.amplification == pytest.approx(4.0, abs=1e-9)

    def test_strong_memory(self):
        chain = derive_chain(0.01, 0.03)
        assert chain.gap == pytest.approx(GAP_STRONG, rel=1e-12)
        assert chain.v_sl == pytest.approx(V_SL_STRONG, rel=1e-12)
        assert chain.v_iid == pytest.approx(V_IID_SHARED, rel=1e-12)
        assert chain.amplification == pytest.approx(49.0, abs=1e-9)

    def test_iid(self, iid_quarter):
        assert iid_quarter.gap == pytest.approx(0.0, abs=1e-14)
        assert iid_quarter.v_sl == pytest.approx(V_IID_SHARED, rel=1e-12)

    @pytest.mark.parametrize("a, amplification", [(0.5, 1.0), (0.3, 7.0 / 3.0)])
    def test_symmetric_chain(self, a, amplification):
        # Both variances vanish, so the factor comes from (1+lambda2)/(1-lambda2).
        chain = derive_chain(a, a)
        assert chain.v_iid == 0.0 and chain.v_sl == 0.0
        assert chain.amplification == pytest.approx(amplification, rel=1e-15)

    def test_mean_regime_checked(self, moderate):
        for d in (0.0, 0.25, math.nan):
            with pytest.raises(RegimeError):
                tilted_mean(moderate, d)

    @pytest.mark.parametrize("a,b", PAIR_GRID)
    def test_v_sl_closed_form(self, a, b):
        # Spectral form vs the explicit rational expression in (a, b).
        chain = derive_chain(a, b)
        direct = a * b * (2 - a - b) / (a + b) ** 3 * math.log2(a / b) ** 2
        assert chain.v_sl == pytest.approx(direct, abs=1e-12, rel=1e-12)
