"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single ``criterion NN [PASS]`` line; a failed assertion
leaves the corresponding ``[FAIL]`` line instead.  Run with ``pytest -s``
(or read captured output) to see the roster.
"""

import math
import time

import numpy as np
import pytest

from tiltedsum import (
    binary_entropy,
    centered_cumulants,
    centered_tail_probability,
    cgf_finite,
    cgf_limit,
    derive_chain,
    enumerate_pmf,
    exact_normal_distance,
    jn_law,
    jtilt,
    occupation_pmf,
    oracle_variance,
    perron_root,
    rate_function,
    saddlepoint_tail,
    sample_trajectory,
    simulate,
    tilted_mean,
    variance_double_sum,
    variance_exact,
)

from conftest import path_cumulants


def _report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num}: {description}"


MODERATE = derive_chain(0.1, 0.3)


def test_criterion_01_variance_table():
    start = time.perf_counter()
    golden = {1: 0.471, 2: 0.754, 5: 1.232, 10: 1.533, 50: 1.813}
    deviations = [
        abs(variance_exact(MODERATE, n) / n - want) for n, want in golden.items()
    ]
    deviations.append(abs(MODERATE.v_sl - 1.884))
    elapsed = time.perf_counter() - start
    ok = max(deviations) <= 5e-4 and elapsed < 1.0
    _report(1, f"variance table max dev {max(deviations):.2e}, {elapsed:.3f}s", ok)


def test_criterion_02_three_source_table():
    start = time.perf_counter()
    rows = [
        (0.25, 0.75, 0.0, 0.471, 1.0),
        (0.1, 0.3, 0.239, 1.884, 4.0),
        (0.01, 0.03, 0.702, 23.08, 49.0),
    ]
    value_dev, ratio_dev = 0.0, 0.0
    for a, b, want_gap, want_vsl, want_amp in rows:
        chain = derive_chain(a, b)
        value_dev = max(value_dev, abs(chain.gap - want_gap), abs(chain.v_sl - want_vsl))
        ratio_dev = max(ratio_dev, abs(chain.amplification - want_amp))
    elapsed = time.perf_counter() - start
    ok = value_dev <= 5e-4 and ratio_dev <= 1e-9 and elapsed < 1.0
    _report(
        2,
        f"three sources: values dev {value_dev:.2e}, ratios dev {ratio_dev:.2e}, {elapsed:.3f}s",
        ok,
    )


def test_criterion_03_correction_constant():
    constant = MODERATE.deficit_constant
    ok = abs(constant - 3.53) <= 5e-3
    _report(3, f"variance deficit constant {constant:.5f} vs 3.53", ok)


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst_tv, worst_var = 0.0, 0.0
    for a in grid:
        for b in grid:
            if a == b:
                continue
            chain = derive_chain(a, b)
            for n in range(1, 17):
                tv = 0.5 * float(
                    np.abs(np.subtract(enumerate_pmf(chain, n), occupation_pmf(chain, n))).sum()
                )
                worst_tv = max(worst_tv, tv)
            for d in (0.05, 0.1, 0.2):
                if not 0.0 < d < min(chain.pi0, chain.pi1):
                    continue
                for n in range(1, 17):
                    per_path = oracle_variance(chain, d, n)
                    closed = variance_exact(chain, n)
                    worst_var = max(
                        worst_var, abs(per_path - closed) / max(abs(closed), 1e-300)
                    )
    elapsed = time.perf_counter() - start
    ok = worst_tv <= 1e-12 and worst_var <= 1e-10 and elapsed < 60.0
    _report(
        4,
        f"oracle: max TV {worst_tv:.2e}, max variance rel dev {worst_var:.2e}, {elapsed:.1f}s",
        ok,
    )


def test_criterion_05_variance_form_agreement():
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst = 0.0
    for a in grid:
        for b in grid:
            if a == b:
                continue
            chain = derive_chain(a, b)
            for n in (1, 2, 10, 100, 10_000):
                double = variance_double_sum(chain, n)
                closed = variance_exact(chain, n)
                worst = max(worst, abs(double - closed) / max(abs(double), 1e-300))
    ok = worst <= 1e-10
    _report(5, f"double sum vs closed form, max rel dev {worst:.2e}", ok)


def test_criterion_06_distortion_invariance():
    # The cumulants at each D come from the per-letter sums along every
    # path, so they can differ; they must agree with each other and with
    # the distortion-free kernel, relative to their size.
    kappa_lo = path_cumulants(MODERATE, 0.05, 10)
    kappa_hi = path_cumulants(MODERATE, 0.2, 10)
    kernel = centered_cumulants(MODERATE, 10)
    kappa_dev = float(
        max(np.max(np.abs(kappa_lo / kappa_hi - 1.0)), np.max(np.abs(kappa_lo / kernel - 1.0)))
    )
    support_lo = np.asarray(jn_law(MODERATE, 0.05, 20)[0])
    support_hi = np.asarray(jn_law(MODERATE, 0.2, 20)[0])
    shift = 20 * (binary_entropy(0.2) - binary_entropy(0.05))
    shift_dev = float(np.max(np.abs((support_lo - support_hi) - shift)))
    ok = kappa_dev <= 1e-12 and shift_dev <= 1e-12
    _report(
        6,
        f"cumulant rel dev {kappa_dev:.2e}, support shift dev {shift_dev:.2e}",
        ok,
    )


def test_criterion_07_cgf_identities():
    zero_dev = max(
        abs(cgf_finite(MODERATE, n, 0.0)) for n in (1, 16, 256)
    )
    zero_dev = max(zero_dev, abs(cgf_limit(MODERATE, 0.0)))
    perron_dev = abs(perron_root(MODERATE, 1.0) - 1.0)
    decreasing = True
    for theta in (-1.0, 0.5, 1.0):
        lam = cgf_limit(MODERATE, theta)
        diffs = [abs(cgf_finite(MODERATE, n, theta) - lam) for n in (256, 1024, 4096)]
        decreasing &= diffs[0] > diffs[1] > diffs[2]
    mu = tilted_mean(MODERATE, 0.1)
    expect_dev = 0.0
    for n in (1, 4, 9, 16):
        support, probs = map(np.asarray, jn_law(MODERATE, 0.1, n))
        centered = support - n * mu
        for theta in (-1.0, -0.3, 0.3, 1.0):
            direct = math.log2(float(probs @ np.exp2(theta * centered))) / n
            expect_dev = max(expect_dev, abs(cgf_finite(MODERATE, n, theta) - direct))
    ok = (
        zero_dev <= 1e-12
        and perron_dev <= 1e-14
        and decreasing
        and expect_dev <= 1e-10
    )
    _report(
        7,
        f"CGF: zeros {zero_dev:.1e}, perron {perron_dev:.1e}, "
        f"decay {decreasing}, expectation dev {expect_dev:.1e}",
        ok,
    )


def test_criterion_08_rate_function():
    theta_at_zero, rate_at_zero = rate_function(MODERATE, 0.0)
    inversion_dev = 0.0
    from tiltedsum import cgf_limit_derivative

    for theta in np.linspace(-2.0, 2.0, 17):
        if theta == 0.0:
            continue
        x = cgf_limit_derivative(MODERATE, float(theta))
        _, rate = rate_function(MODERATE, x)
        inversion_dev = max(
            inversion_dev,
            abs(rate + cgf_limit(MODERATE, float(theta)) - float(theta) * x),
        )
    _, rate = rate_function(MODERATE, 0.2)
    exponents = [
        -math.log2(centered_tail_probability(MODERATE, n, 0.2)) / n
        for n in (500, 1000, 2000)
    ]
    monotone = (
        exponents[0] > exponents[1] > exponents[2] > rate
    )
    ok = (
        rate_at_zero == 0.0
        and theta_at_zero == 0.0
        and inversion_dev <= 1e-8
        and monotone
    )
    _report(
        8,
        f"rate: I(0)={rate_at_zero}, inversion dev {inversion_dev:.1e}, "
        f"exponents {['%.5f' % e for e in exponents]} -> I={rate:.5f}",
        ok,
    )


def test_criterion_09_saddlepoint_envelope():
    ratios = {}
    for n in (200, 800):
        estimate = saddlepoint_tail(MODERATE, n, 0.2)
        exact = centered_tail_probability(MODERATE, n, 0.2)
        ratios[n] = estimate / exact
    ok = 0.5 <= ratios[200] <= 2.0 and abs(ratios[800] - 1.0) < abs(ratios[200] - 1.0)
    _report(9, f"saddlepoint/exact ratios {ratios[200]:.4f} (n=200), {ratios[800]:.4f} (n=800)", ok)


def test_criterion_10_monte_carlo():
    n, reps = 50, 100_000
    report = simulate(MODERATE, 0.1, n, reps, seed=1)
    exact_var = variance_exact(MODERATE, n)
    kappa = centered_cumulants(MODERATE, n, max_order=4)
    mu4 = kappa[2] + 3 * exact_var**2
    se = math.sqrt((mu4 - (reps - 3) / (reps - 1) * exact_var**2) / reps)
    var_ok = abs(report.emp_var / n - 1.813) <= 3 * se / n

    # Pathwise identity, checked here independently of the enforcement
    # inside simulate (which already raises beyond 1e-10 per replication).
    j0, j1 = jtilt(MODERATE, 0.1, 0), jtilt(MODERATE, 0.1, 1)
    offset, slope = n * j0, j1 - j0
    worst = 0.0
    for seed in range(200):
        states = sample_trajectory(MODERATE, n, seed)
        per_letter = float(np.where(states == 0, j0, j1).sum())
        affine = offset + slope * int(states.sum())
        worst = max(worst, abs(per_letter - affine))
    path_ok = worst <= 1e-10

    symmetric = simulate(derive_chain(0.5, 0.5), 0.2, 25, 1000, seed=4)
    sym_ok = symmetric.emp_var == 0.0

    ok = var_ok and path_ok and sym_ok
    _report(
        10,
        f"MC: emp_var/n {report.emp_var / n:.4f} (3SE band {3 * se / n:.4f}), "
        f"pathwise dev {worst:.1e}, symmetric var {symmetric.emp_var}",
        ok,
    )


def test_criterion_11_clt_distance():
    grid = (100, 400, 1600)
    distances = [exact_normal_distance(MODERATE, n) for n in grid]
    scaled = [d * math.sqrt(n) for d, n in zip(distances, grid)]
    center = sum(scaled) / len(scaled)
    decreasing = distances[0] > distances[1] > distances[2]
    banded = all(abs(v - center) <= 0.2 * center for v in scaled)
    ok = decreasing and banded
    _report(
        11,
        f"CLT: distances {['%.5f' % d for d in distances]}, "
        f"sqrt(n)-scaled {['%.4f' % v for v in scaled]}",
        ok,
    )
