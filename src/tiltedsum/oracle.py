"""Independent check routes, one per closed form, and the ``verify`` suites built on them.

The routes share none of the algebra of the closed forms they check: the
tilted information from its defining sum over reproduction letters, the
operating point from the alternating update (to ``BA_TOL`` within
``BA_MAX_ITER`` steps), the variance from its double sum over lags, the
count law and the variance from exhaustive enumeration (n <= 20), and the
rate function's optimal tilt from the slope x = L'(theta*) of the limiting
CGF, which comes from the tilted Perron root, not from the pair-measure
contraction that ``cgf.rate_function`` solves.  Enumeration extends
every path letter by letter and accumulates its stationary probability
pi_{x1} * prod_t P[x_t, x_{t+1}]; all terms are positive, so float64
carries no cancellation, and each count bin and moment is summed with
``math.fsum``.  :func:`verify_suites` runs the seven ``SUITES`` that hold
the production routes to these.

The module is plain Python floats and lists and imports no numpy; in the
package only ``montecarlo`` does.
"""

import math

from .cgf import _log2_tilt, _tilted, cgf_finite, cgf_limit, occupation_log2_pgf, perron_root
from .exact import jn_law, occupation_pmf
from .markov import (
    LN2, ChainParams, binary_entropy, derive_chain, require_blocklength, variance_exact,
)
from .tilting import BAOperatingPoint, ba_operating_point, jtilt, require_interior, tilted_mean

ENUM_MAX_N = 20  # 2^20 ~ 1e6 paths
BA_TOL = 1e-12
BA_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


def _alternating_updates(chain: ChainParams, d: float):
    """Yield successive output marginals (q0, q1) of the alternating update.

    The slope beta is held fixed at its closed-form value; the update is

        q(xh) <- sum_x pi_x * q(xh) e^{-beta d(x, xh)} / Z(x),
        Z(x)   = sum_xh q(xh) e^{-beta d(x, xh)},

    started from the symmetric point (1/2, 1/2).  Each yielded pair sums
    to one up to rounding.
    """
    w = d / (1.0 - d)  # e^{-beta}
    q0, q1 = 0.5, 0.5
    while True:
        z0 = q0 + q1 * w
        z1 = q1 + q0 * w
        q0, q1 = (
            q0 * (chain.pi0 / z0 + chain.pi1 * w / z1),
            q1 * (chain.pi0 * w / z0 + chain.pi1 / z1),
        )
        yield q0, q1


def ba_fixed_point_iterate(chain: ChainParams, d: float) -> BAOperatingPoint:
    """Operating point via the generic alternating update at fixed slope.

    Iterates until the sup-norm change in the output marginal drops below
    ``BA_TOL``.  Agrees with :func:`tiltedsum.tilting.ba_operating_point` at
    the fixed point; the closed form is never consulted here, which is what
    makes the agreement a meaningful check.

    Raises
    ------
    ConvergenceError
        If ``BA_MAX_ITER`` updates do not reach ``BA_TOL``.
    """
    require_interior(chain, d)
    prev0, prev1 = 0.5, 0.5
    updates = _alternating_updates(chain, d)
    for _ in range(BA_MAX_ITER):
        q0, q1 = next(updates)
        if max(abs(q0 - prev0), abs(q1 - prev1)) < BA_TOL:
            return BAOperatingPoint(beta=math.log((1.0 - d) / d), q0=q0, q1=q1)
        prev0, prev1 = q0, q1
    raise ConvergenceError(
        f"alternating update did not reach tol={BA_TOL:g} within {BA_MAX_ITER} "
        f"iterations (D={d!r} may be too close to the regime boundary)"
    )


def _letter_totals(chain: ChainParams, d: float) -> tuple[float, float, float]:
    """(T0, T1, e^{beta D} - e^{-beta (1-D)}) at the closed-form operating point.

    T_x = sum_xh q(xh) e^{-beta (d(x,xh) - D)} = q_x e^{beta D} + q_{1-x} e^{-beta (1-D)}, the
    defining sum whose -log2 is the tilted information of state x.
    """
    point = ba_operating_point(chain, d)
    match, other = math.exp(point.beta * d), math.exp(-point.beta * (1.0 - d))
    return point.q0 * match + point.q1 * other, point.q1 * match + point.q0 * other, match - other


def jtilt_generic(chain: ChainParams, d: float, x: int) -> float:
    """Tilted information evaluated from its defining sum, not the closed form.

    Computes -log2( sum_xh q(xh) e^{-beta (d(x,xh) - D)} ) at the closed-form
    operating point.  Used as the independent route in cross-checks.  Rounded
    near |j| bits, j1 - j0 taken as a difference of two calls cannot resolve an
    ell of a few ulps: on (0.3, 0.30000000000000004) it reads 2.2e-16 against
    ell = -2.67e-16.  The exhaustive oracle takes the gap from ``_letter_gap``.
    """
    totals = _letter_totals(chain, d)
    if x not in (0, 1):
        raise ValueError(f"state x={x!r} must be 0 or 1")
    return -math.log2(totals[x])


def _letter_gap(chain: ChainParams, d: float) -> float:
    """j1 - j0 = log2(T0/T1) from the defining sums, accurate also as the chain nears symmetry.

    Where T0 and T1 differ by more than T1/2 the gap is at least 0.58 bits and is the difference
    of the two logs.  Otherwise it is log1p((T0 - T1)/T1)/ln 2, with T0 - T1 taken as
    (q0 - q1)(e^{beta D} - e^{-beta (1-D)}) and q0 - q1 = ((b - a)/(a + b))/(1 - 2D); b/a lies
    near T0/T1 there, so b - a is exact.  Against a 60-digit log2(b/a) it is within 1e-14
    relative for D <= 0.9 min(pi0, pi1); nearer the regime's edge the rounding of q shows.
    """
    t0, t1, spread = _letter_totals(chain, d)
    if abs(t0 - t1) > 0.5 * t1:
        return math.log2(t0) - math.log2(t1)
    q_gap = ((chain.b - chain.a) / (chain.a + chain.b)) / (1.0 - 2.0 * d)
    return math.log1p(q_gap * spread / t1) / LN2


def variance_double_sum(chain: ChainParams, n: int) -> float:
    """Var(J_n(D)) in bits^2, as ell^2*pi0*pi1*[n + 2*sum_{k<n} (n-k)*lambda2^k] term by term.

    Lags k and k+1 enter as one term, lambda2^k*((n-k)(1+lambda2) - lambda2)
    with 1+lambda2 formed as (1-a)+(1-b), so the alternating terms of a chain
    near lambda2 = -1 do not cancel each other.  What remains is the leading
    n cancelling the sum: the relative error grows like eps/(2-a-b), about
    2e-8 at 2-a-b = 3e-9.
    """
    require_blocklength(n)
    lam, one_plus = chain.lambda2, (1.0 - chain.a) + (1.0 - chain.b)
    # At k = n-1 the pair's second lag carries weight n-k-1 = 0.
    pairs = math.fsum([lam**k * ((n - k) * one_plus - lam) for k in range(1, n, 2)])
    return chain.ell**2 * chain.pi0 * chain.pi1 * (n + 2.0 * pairs)


def cgf_limit_derivative(chain: ChainParams, theta: float) -> float:
    """dL/dtheta of the limiting CGF, analytic: ell*(pi1 - g(u_theta)).

    g is the tilted occupancy of state 1 from ``cgf._tilted``; at the optimal tilt of
    :func:`tiltedsum.cgf.rate_function` the slope must equal x.  Raises ValueError if theta or
    theta*ell is not finite.
    """
    _, g, _ = _tilted(chain, _log2_tilt(chain, theta))
    return chain.ell * (chain.pi1 - g)


def _enumerate_paths(chain: ChainParams, n: int) -> list[list[float]]:
    """Probability of every length-n path, as lists grouped by occupation count.

    Entry m lists the probabilities of the paths with m ones.  The paths grow letter by letter,
    those ending in state 0 and those ending in state 1 held apart, so each step applies one
    transition probability to a whole list.  Refuses n > 20.
    """
    if not 1 <= n <= ENUM_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_MAX_N}, got n={n}")
    stay0, leave0, leave1, stay1 = 1.0 - chain.a, chain.a, chain.b, 1.0 - chain.b
    prob0, prob1 = [[chain.pi0], []], [[], [chain.pi1]]
    for _ in range(1, n):
        # A 0 keeps a path's count and a 1 raises it, so the lists grow by one entry.
        prob0, prob1 = (
            [[p * stay0 for p in x] + [p * leave1 for p in y] for x, y in zip(prob0, prob1)] + [[]],
            [[]] + [[p * leave0 for p in x] + [p * stay1 for p in y] for x, y in zip(prob0, prob1)],
        )
    return [x + y for x, y in zip(prob0, prob1)]


def enumerate_pmf(chain: ChainParams, n: int) -> list[float]:
    """Occupation-count PMF as a list, entry m for m = 0..n, by summing all 2^n path probabilities.

    Each entry is one ``math.fsum``, the correctly rounded sum of its paths'
    float probabilities.  Refuses n > 20.
    """
    return [math.fsum(ps) for ps in _enumerate_paths(chain, n)]


def oracle_variance(chain: ChainParams, d: float, n: int) -> float:
    """Var(J_n(D)) in bits^2 by exhaustive enumeration, as (j1 - j0)^2 * Var(N_n).

    A path with m ones sums to (n - m)*j0 + m*j1, so J_n(D) is an affine image of the count N_n.
    j1 - j0 comes from the defining sums (``_letter_gap``), to a few eps relative also on a chain
    a few ulps from symmetric, and the law of N_n from every path's probability.
    """
    gap = _letter_gap(chain, d)
    law = [math.fsum(ps) for ps in _enumerate_paths(chain, n)]
    count_mean = math.fsum(m * q for m, q in enumerate(law))
    return gap**2 * math.fsum(q * (m - count_mean) ** 2 for m, q in enumerate(law))


# ---------------------------------------------------------------------------
# verify: each suite yields one deviation per case for one chain, at the
# given distortion, or at its own default levels when that is None


VERIFY_PAIRS = [(0.1, 0.3), (0.3, 0.1), (0.25, 0.75), (0.6, 0.7), (0.45, 0.35), (0.5, 0.5)]
VERIFY_D_GRID = (0.05, 0.1, 0.2)


def _oracle_pmf_tv(chain, distortion, perturb):
    for n in range(1, 13):
        pairs = zip(enumerate_pmf(chain, n), occupation_pmf(chain, n))
        yield 0.5 * math.fsum(abs(e - p) for e, p in pairs)


def _relative_deviation(value, reference):
    """|value - reference| / |reference|; 0 if the two are equal, inf if only the reference is 0."""
    if value == reference:
        return 0.0
    return abs(value - reference) / abs(reference) if reference else math.inf


def _variance_forms(chain, distortion, perturb):
    for n in (1, 2, 10, 100, 10_000):
        double = variance_double_sum(chain, n)
        closed = variance_exact(chain, n) * (1.0 + perturb)
        yield _relative_deviation(closed, double)


def _oracle_variance(chain, distortion, perturb):
    if chain.symmetric:
        return
    for d in VERIFY_D_GRID if distortion is None else (distortion,):
        if not 0.0 < d < min(chain.pi0, chain.pi1):
            continue  # only the default grid: a given distortion was checked up front
        for n in range(1, 11):
            enumerated = oracle_variance(chain, d, n)
            closed = variance_exact(chain, n) * (1.0 + perturb)
            deviation = _relative_deviation(enumerated, closed)
            # An overflowed closed form is off by inf, where inf/inf would read nan.
            yield deviation if math.isfinite(closed) else math.inf


def _pgf_pmf(chain, distortion, perturb):
    for n in (1, 2, 10, 50, 200):
        pmf = occupation_pmf(chain, n)
        for u in (0.5, 1.0, 2.0):
            direct = math.fsum(p * u**m for m, p in enumerate(pmf))
            yield abs(2.0 ** occupation_log2_pgf(chain, n, u) - direct) / direct


def _cgf_zeros(chain, distortion, perturb):
    yield abs(perron_root(chain, 1.0) - 1.0)
    yield abs(cgf_limit(chain, 0.0))
    for n in (1, 4, 16, 200):
        yield abs(cgf_finite(chain, n, 0.0))


def _cgf_expectation(chain, distortion, perturb):
    if chain.symmetric:
        return
    d = min(chain.pi0, chain.pi1) / 2 if distortion is None else distortion
    mu = tilted_mean(chain, d)
    for n in (1, 4, 16):
        support, probs = jn_law(chain, d, n)
        centered = [s - n * mu for s in support]
        for theta in (-1.0, -0.3, 0.3, 1.0):
            mgf = math.fsum(p * 2.0 ** (theta * c) for p, c in zip(probs, centered))
            direct = math.log2(mgf) / n
            yield abs(cgf_finite(chain, n, theta) - direct)


def _d_invariance(chain, distortion, perturb):
    """One case per chain: the atoms' shift error or the change of j1 - j0, whichever is larger.

    Both are taken between two distortions: two default levels, or the given one and the upper
    one.  The atoms read only j0, since ell carries no D, so the paper's claim that j1 - j0 does
    not depend on D is checked on ``jtilt`` itself.
    """
    d_lo, d_hi = 0.05, 0.2
    if not d_hi < min(chain.pi0, chain.pi1):
        d_lo, d_hi = min(chain.pi0, chain.pi1) / 4, min(chain.pi0, chain.pi1) / 2
    if distortion is not None:
        d_lo = distortion
    n = 20
    shift = n * (binary_entropy(d_hi) - binary_entropy(d_lo))
    atoms = zip(jn_law(chain, d_lo, n)[0], jn_law(chain, d_hi, n)[0])
    atom_error = max(abs(lo - hi - shift) for lo, hi in atoms) / n
    gap_lo, gap_hi = (jtilt(chain, d, 1) - jtilt(chain, d, 0) for d in (d_lo, d_hi))
    yield max(atom_error, abs(gap_lo - gap_hi))


# (suite name, tolerance on its largest deviation, deviation generator)
SUITES = [
    ("oracle-pmf-tv", 1e-12, _oracle_pmf_tv),
    ("variance-forms", 1e-10, _variance_forms),
    ("oracle-variance", 1e-10, _oracle_variance),
    ("pgf-pmf", 1e-10, _pgf_pmf),
    ("cgf-zeros", 1e-13, _cgf_zeros),
    ("cgf-expectation", 1e-10, _cgf_expectation),
    ("d-invariance", 1e-12, _d_invariance),
]


def verify_suites(pairs, distortion: float | None = None, perturb: float = 0.0) -> list[dict]:
    """One row per suite over the chains of the (a, b) ``pairs``, as ``verify`` prints it.

    ``perturb`` scales the closed-form variance by 1 + perturb.  A given
    distortion outside the interior regime of any chain raises RegimeError
    before any suite runs.
    """
    chains = [derive_chain(a, b) for a, b in pairs]
    if distortion is not None:
        for chain in chains:
            require_interior(chain, distortion)
    suites = []
    for name, tolerance, deviations in SUITES:
        found = [dev for chain in chains for dev in deviations(chain, distortion, perturb)]
        # max() would pass over a NaN; a NaN deviation is the worst case and fails the suite.
        worst = math.nan if any(map(math.isnan, found)) else max(found, default=0.0)
        suites.append({"name": name, "cases": len(found),
                       "max_deviation": worst,
                       "tolerance": tolerance, "pass": worst <= tolerance})
    return suites
