"""Exact finite-n laws: the occupation count, the tilted block sum and its tails.

Let N_n count the letters equal to 1 in a block of length n.  The tilted
block sum is an affine image of the occupation count,

    J_n(D) = n*(-log2(pi0) - h2(D)) - ell*N_n,

so its law is two lists, the atoms n*jtilt(D, 0) - ell*m and the count
probabilities Pr(N_n = m), and its centered law J_n(D) - n*mu_D =
-ell*(N_n - n*pi1) does not depend on the distortion level at all.

The law of N_n is classical (Gabriel 1959, Biometrika 46).  Counting the
paths with m ones by their runs gives, for 1 <= m <= n-1, with
kappa = ab/((1-a)(1-b)) and c = ab/(a+b),

    Pr(N_n = m) = c (1-a)^(n-m-1) (1-b)^(m-1) [2F(m) + b/(1-a) G(m) + a/(1-b) G(n-m)],
    F(m) = sum_k C(n-m-1, k) C(m-1, k) kappa^k,
    G(m) = sum_k C(n-m-1, k+1) C(m-1, k) kappa^k = (n-m-1) H(m),
    H(m) = sum_k C(n-m-2, k) C(m-1, k) kappa^k / (k+1),

with G = 0 outside 1..n-2.  2F counts the paths that start and end in
different states, the G terms those that start and end in state 0 and in
state 1.  The end entries are pi0 (1-a)^(n-1) and pi1 (1-b)^(n-1).  Every
term is positive, so nothing cancels.  F is symmetric, F(m) = F(n-m), and
so is H, H(m) = H(n-1-m), so G(n-m) = (m-1) H(m-1) and one forward sweep
of F and H to n/2 gives the whole law.  Each satisfies a three-term
recurrence in m, and is its dominant solution on the way to n/2 (Gautschi
1967, SIAM Review 9).  ``_count_law`` runs both, in a form that never
cancels, in one loop that writes Pr(N_n = m) and Pr(N_n = n-m) as it
reaches each m.  That costs O(n) float operations, with a power-of-two
exponent beside every value, so nothing under- or overflows before the
last step.  Swapping (a, pi0) with (b, pi1) only swaps operands, so the
law of (b, a) is exactly the reverse of that of (a, b).  The module imports
no numpy; in the package only ``montecarlo`` does.

The centered sum puts count m at -ell*(m - n*pi1), so the atoms ascend over
m = n..0 when ell > 0, else 0..n; :func:`exact_normal_distance` reads the
law in that order for its sup-distance from the normal CDF.
"""

import math
import operator
import sys
from itertools import accumulate, pairwise, repeat

from .markov import ChainParams, require_blocklength
from .tilting import jtilt, require_interior, tilted_mean

# The count law is capped; larger blocklengths go through the
# generating-function / CGF routes, which cost O(log n) per evaluation.
DP_MAX_N = 32768

# Count probabilities below the smallest normal float are flushed to 0:
# subnormals carry no relative accuracy.
_TINY = sys.float_info.min

# A sweep value past this is scaled down by a power of two, which is exact.
_BIG = 2.0**600
_SQRT2 = math.sqrt(2.0)


def _powers(x: float, count: int) -> tuple[list[float], list[int]]:
    """(mant, expo) with x^k == mant[k] * 2**expo[k] for k = 0..count-1.

    Each x^k is x^(k-1) times x, rounded once, so the rounding errors add up
    like a random walk; binary powering would double the error of x^(2^j)
    at each squaring, and measured 10 to 30 times further off by k = 4000.
    The powers come in blocks that share an exponent.  Each block starts
    from the last power renormalized by frexp, which is exact, and is short
    enough that its mantissas stay above 2^-401, so none underflows.
    """
    block = 400 // (1 - math.frexp(x)[1])  # x >= 2^(e-1), so x^block >= 2^-400
    mant, expo, m, e = [], [], 1.0, 0
    while len(mant) < count:
        steps = repeat(x, min(block, count - len(mant)) - 1)
        run = list(accumulate(steps, operator.mul, initial=m))
        mant += run
        expo += [e] * len(run)
        m, k = math.frexp(run[-1] * x)
        e += k
    return mant, expo


def _count_law(chain: ChainParams, n: int) -> list[float]:
    """Pr(N_n = m) for m = 0..n, from one sweep of F and H over m = 1..n/2.

    F and H run forward from F(1) = H(1) = 1, F(2) = 1 + (n-3)*kappa and
    H(2) = 1 + (n-4)*kappa/2, carrying their steps dF(m) = F(m) - F(m-1)
    and dH(m) = H(m) - H(m-1), with t = 2m - n:

        dF(m+2) = [m(n-m-1)(t+3) dF(m+1) + kappa(t+1)(t+2)(t+3) F(m+1)] / [(m+1)(n-m-2)(t+1)],
        dH(m+2) = [m(n-m-1)(t+4) dH(m+1) + kappa(t+2)(t+3)(t+4) H(m+1)] / [(m+2)(n-m-3)(t+2)].

    These are the three-term recurrences of F and G = (n-m-1)H rewritten in
    their steps, which removes the part that holds for kappa = 0.  Swept
    toward n/2 every factor in t is at most 0 and no divisor vanishes, so
    the two terms of each numerator share the sign of the denominator and
    no step cancels, however small kappa is.  At m = n/2 the H step is 0,
    as H(m) = H(n-1-m) requires, so both writes of the middle entry agree.
    H never exceeds F and falls at most about a factor n^2*kappa below it,
    so F's exponent e keeps both in range.
    """
    a, b = chain.a, chain.b
    a_mant, a_expo = _powers(1.0 - a, n)
    b_mant, b_expo = _powers(1.0 - b, n)
    law = [0.0] * (n + 1)
    law[0] = math.ldexp(chain.pi0 * a_mant[-1], a_expo[-1])
    law[n] = math.ldexp(chain.pi1 * b_mant[-1], b_expo[-1])
    kappa = a * b / ((1.0 - a) * (1.0 - b))
    c, beta, alpha = a * b / (a + b), b / (1.0 - a), a / (1.0 - b)
    f, h, h_prev, e = 1.0, 1.0, 0.0, 0  # F(m), H(m), H(m-1) times 2**-e; H(0) is never used
    nf = float(n)  # every integer factor is below 2^53, so exact as a float
    df, dh = (nf - 3.0) * kappa, (nf - 4.0) * kappa / 2.0  # dF(2), dH(2)
    half = n // 2
    for m in range(1, half + 1):
        i, j = m - 1, n - m - 1
        f2, g, g_mirror = 2.0 * f, j * h, i * h_prev  # 2F(m), G(m), G(n-m)
        law[m] = math.ldexp(c * (f2 + (beta * g + alpha * g_mirror))
                            * (a_mant[j] * b_mant[i]), e + a_expo[j] + b_expo[i])
        law[n - m] = math.ldexp(c * (f2 + (beta * g_mirror + alpha * g))
                                * (a_mant[i] * b_mant[j]), e + a_expo[i] + b_expo[j])
        if m == half:
            break
        if i:  # from m = 2 on, the recurrences at m-1 give dF(m+1) and dH(m+1)
            x, t = float(i), 2.0 * i - nf
            df = (x * (nf - x - 1.0) * (t + 3.0) * df + kappa * ((t + 1.0) * (t + 2.0) * (t + 3.0)) * f
                  ) / ((x + 1.0) * (nf - x - 2.0) * (t + 1.0))
            dh = (x * (nf - x - 1.0) * (t + 4.0) * dh + kappa * ((t + 2.0) * (t + 3.0) * (t + 4.0)) * h
                  ) / ((x + 2.0) * (nf - x - 3.0) * (t + 2.0))
        h_prev, f, h = h, f + df, h + dh
        if f > _BIG:
            _, k = math.frexp(f)
            f, df, h, dh, h_prev = (math.ldexp(v, -k) for v in (f, df, h, dh, h_prev))
            e += k
    return [p if p >= _TINY else 0.0 for p in law]


def occupation_pmf(chain: ChainParams, n: int) -> list[float]:
    """Exact PMF of N_n: entry m of the returned list is Pr(N_n = m), for m = 0..n.

    Every entry is either a normal float or exactly 0; probabilities below
    the smallest normal float (about 2.2e-308) are flushed to 0.
    occupation_pmf of (b, a) is exactly the reverse of that of (a, b).

    Raises
    ------
    ValueError
        If n < 1 or n exceeds ``DP_MAX_N``.
    """
    require_blocklength(n)
    if n > DP_MAX_N:
        raise ValueError(
            f"blocklength n={n} exceeds the DP cap {DP_MAX_N}; use the "
            f"generating-function routes for large n"
        )
    return _count_law(chain, n)


def jn_law(chain: ChainParams, d: float, n: int) -> tuple[list[float], list[float]]:
    """Exact law of the tilted block sum at distortion d and blocklength n, as (support, probs).

    Atom m of ``support`` is n*jtilt(d, 0) - ell*m and carries probs[m] = Pr(N_n = m), for
    m = 0..n.  For a symmetric chain (a == b) the slope -ell vanishes and the law is a single
    point mass at n*mu_D: both lists then have length one.
    """
    require_interior(chain, d)
    require_blocklength(n)
    if chain.symmetric:
        return [n * tilted_mean(chain, d)], [1.0]
    probs = occupation_pmf(chain, n)  # checks the DP cap before any O(n) list is built
    offset, ell = n * jtilt(chain, d, 0), chain.ell
    return [offset - ell * m for m in range(n + 1)], probs


def centered_tail_probability(chain: ChainParams, n: int, x: float) -> float:
    """Exact Pr(J_n(D) - n*mu_D >= n*x), computed without any distortion level.

    The centered sum equals -ell*(N_n - n*pi1), so the tail is a sum of
    count probabilities; the distortion cancels and never enters.
    Raises ValueError if n < 1 or x is not finite.
    """
    require_blocklength(n)
    if not math.isfinite(x):
        raise ValueError(f"threshold x={x!r} must be finite")
    if chain.symmetric:
        return 1.0 if n * x <= 0.0 else 0.0
    probs = occupation_pmf(chain, n)
    slope, center, level = -chain.ell, n * chain.pi1, n * x
    return math.fsum(p for m, p in enumerate(probs) if slope * (m - center) >= level)


def _ascending(chain: ChainParams, values: list) -> list:
    """Count-indexed ``values`` in ascending-atom order: atom m is offset - ell*m."""
    return values[::-1] if chain.ell > 0 else values


def _phi(z: float) -> float:
    """Standard normal CDF 0.5*erfc(-z/sqrt(2)).

    erfc keeps relative accuracy in the lower tail, where 1 + erf(z/sqrt(2))
    would round to 0; the relative error stays below 1e-14 for |z| <= 10.
    """
    return 0.5 * math.erfc(-z / _SQRT2)


def _normal_distance(chain: ChainParams, n: int, probs: list[float]) -> float:
    """Sup-distance from Phi of the standardized sum whose count m has mass probs[m].

    The count m sits at -ell*(m - n*pi1)/sqrt(n*V_sl).  Standardizing the count,
    not the rounded atoms offset - ell*m, keeps the distance meaningful on chains
    a few ulps from symmetric, where ell is tiny.  The step CDF jumps at each atom
    and Phi is continuous, so the supremum is at an atom or at its left limit.
    """
    slope, center, scale = -chain.ell, n * chain.pi1, math.sqrt(n * chain.v_sl)
    phi = map(_phi, _ascending(chain, [slope * (m - center) / scale for m in range(n + 1)]))
    steps = pairwise(accumulate(_ascending(chain, probs), initial=0.0))  # (left limit, CDF)
    return max(max(abs(cdf - p), abs(left - p)) for (left, cdf), p in zip(steps, phi))


def exact_normal_distance(chain: ChainParams, n: int) -> float:
    """Sup-distance between the exact law, standardized by n*V_sl, and the normal CDF.

    This isolates the CLT approximation error from sampling noise.
    """
    if chain.symmetric:
        raise ValueError("symmetric chain: the centered sum is a point mass")
    return _normal_distance(chain, n, occupation_pmf(chain, n))
