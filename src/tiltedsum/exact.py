"""Exact finite-n laws: occupation count, tilted block sum, PGF, finite-n CGF, cumulants.

Let N_n count the letters equal to 1 in a block of length n.  The tilted
block sum is an affine image of the occupation count,

    J_n(D) = n*(-log2(pi0) - h2(D)) - ell*N_n,

so its law is two arrays, the atoms n*jtilt(D, 0) - ell*m and the count
probabilities Pr(N_n = m), and its centered law J_n(D) - n*mu_D =
-ell*(N_n - n*pi1) does not depend on the distortion level at all.  Both
the law of N_n and its probability generating function come from one
transfer matrix,

    G_n(u) = pi^T D(u) (P D(u))^{n-1} 1,    D(u) = diag(1, u),

raised to the power n-1 by binary powering.  With u a formal variable z the
entries are polynomials whose coefficients give the PMF of N_n.  Otherwise
they are rescaled jets, truncated Taylor series in t, which one entry,
``_log2_mgf``, forms for a batch of u at any order: the log2 series of
E[u^N_n e^{t(N_n - n*pi1)}] / max(1, u)^n, under one tilt rule that ``cgf``
shares: D(u) = max(1, u)*diag(w0, w1) with (w0, w1) = (1, u) for u <= 1
and (1/u, 1) for u > 1, never above 1.  Order 0 gives G_n(u); at u = 1 the
higher orders give the cumulants of N_n - n*pi1 at any n, and order 0 at a
whole array of tilts gives the finite-n CGF L_n of ``cgf``.  Each caller
checks the tilt where it enters, the entry only n.  All of these need
arrays, so this module imports numpy and the package loads it on first
use; the exact variance, a float closed form in the chain and n, is in
``markov``.
"""

from __future__ import annotations

import math

import numpy as np

from .markov import LN2, ChainParams
from .tilting import jtilt, require_interior, tilted_mean

# The count law costs O(n^2) flops in its polynomial products, so it is
# capped; larger blocklengths must go through the generating-function / CGF
# routes, which cost O(log n) matrix products per evaluation.
DP_MAX_N = 32768

# Count probabilities below the smallest normal float are flushed to 0:
# subnormals carry no relative accuracy, and 0.7*5e-324 rounds back up to
# 5e-324, so mass that should keep shrinking would stick there instead.
_TINY = np.finfo(float).tiny
# r! for the jet orders that ``centered_cumulants`` accepts.
_FACTORIALS = np.array([math.factorial(r) for r in range(11)], dtype=float)


def _power(acc, step, e: int, mul):
    """acc * step**e by binary powering under the associative product ``mul``.

    Both element types of the transfer matrix go through here: rescaled jet
    stacks for the generating function and the cumulants, and polynomial
    matrices for the count law.  At most 2*log2(e) products are formed.
    """
    while e:
        if e & 1:
            acc = mul(acc, step)
        e >>= 1
        if e:
            step = mul(step, step)
    return acc


def _series_log(q: np.ndarray) -> np.ndarray:
    """Taylor coefficients of ln q along axis 1, for series q with q[:, 0] == 1."""
    log_q = np.zeros_like(q)
    for k in range(1, q.shape[1]):
        log_q[:, k] = q[:, k] - (np.arange(1, k) * log_q[:, 1:k] * q[:, k - 1 : 0 : -1]).sum(1) / k
    return log_q


def _rescale(coeffs: np.ndarray, log2_scale: np.ndarray, pi: np.ndarray):
    """Divide each matrix of a jet stack by a scalar jet T and add log2 T to the log2 scale.

    T0 is a power of two near the largest order-0 entry, so order 0 is divided exactly.  T/T0 is
    S/S0 for S the pi-weighted sum over rows of the entry sums (one row: its weight cancels).
    """
    _, shift = np.frexp(coeffs[:, 0].max(axis=(1, 2)))
    coeffs = np.ldexp(coeffs, -shift[:, None, None, None])
    if coeffs.shape[1] == 1:
        return coeffs, log2_scale + shift[:, None]
    total = coeffs.sum(axis=-1) @ pi[: coeffs.shape[2]]
    q = total / total[:, :1]
    for k in range(1, q.shape[1]):
        coeffs[:, k] -= np.einsum("tj,tjrc->trc", q[:, k:0:-1], coeffs[:, :k])
    log2_t = _series_log(q) / math.log(2.0)
    log2_t[:, 0] = shift
    return coeffs, log2_scale + log2_t


def _jet_mul(x, y, pi: np.ndarray):
    """Cauchy product of jet stacks (batch, order, rows, 2), then rescaled."""
    prod = x[0][:, :1] @ y[0]
    for p in range(1, y[0].shape[1]):
        prod[:, p:] += x[0][:, p : p + 1] @ y[0][:, :-p]
    return _rescale(prod, x[1] + y[1], pi)


def _poly_mul(x, y):
    """Product of polynomial matrices, given as rows of coefficient arrays.

    Every coefficient is a sum of nonnegative products, so np.convolve has
    no cancellation; results below the smallest normal float become 0.
    """
    out = []
    for row in x:
        entries = [np.convolve(row[0], y[0][j]) + np.convolve(row[1], y[1][j]) for j in (0, 1)]
        for entry in entries:
            entry[entry < _TINY] = 0.0
        out.append(entries)
    return out


def _log2_mgf(chain: ChainParams, n: int, log2_u: np.ndarray, order: int = 0) -> np.ndarray:
    """Taylor coefficients in t, orders 0..order <= 10, of log2 E[u^N_n e^{t(N_n - n*pi1)}].

    The one entry to the jet kernel, batched over the 1-D array log2_u, with n*max(0, log2 u)
    taken off order 0.  Its weights, the tilt rule's times the centered jets (-pi1, pi0)^r/r!,
    are rescaled after every product, so no finite log2 u over- or underflows; a weight w that
    underflows to 0 drops a share of order n*w/min(1-a, 1-b)^2 of the sum.  Orders >= 1 are
    certified only at u = 1, by the tests of ``centered_cumulants``.  Raises ValueError if n < 1.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    weights = 2.0 ** np.minimum(0.0, np.stack([-log2_u, log2_u], axis=-1))[:, None, None, :]
    if order:
        r = np.arange(order + 1)
        jets = np.array([-chain.pi1, chain.pi0]) ** r[:, None] / _FACTORIALS[r, None]
        weights = weights * jets[:, None, :]
    pi = chain.stationary
    start = _rescale(pi * weights, np.zeros(weights.shape[:2]), pi)
    step = _rescale(chain.transition_matrix * weights, np.zeros(weights.shape[:2]), pi)
    coeffs, log2_series = _power(start, step, n - 1, lambda x, y: _jet_mul(x, y, pi))
    total = coeffs.sum(axis=(2, 3))
    log2_series[:, 0] += np.log2(total[:, 0])
    if order:
        log2_series[:, 1:] += _series_log(total / total[:, :1])[:, 1:] / LN2
    return log2_series


def occupation_pmf(chain: ChainParams, n: int) -> np.ndarray:
    """Exact PMF of N_n from the polynomial transfer matrix [[p00, p01 z], [p10, p11 z]].

    Entry m of the returned array, the coefficient of z^m in
    pi^T D(z) (P D(z))^{n-1} 1, is Pr(N_n = m), for m = 0..n.
    Every entry is either a normal float or exactly 0; probabilities below
    the smallest normal float (about 2.2e-308) are flushed to 0.

    Raises
    ------
    ValueError
        If n < 1 or n exceeds ``DP_MAX_N``.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if n > DP_MAX_N:
        raise ValueError(
            f"blocklength n={n} exceeds the DP cap {DP_MAX_N}; use the "
            f"generating-function routes for large n"
        )
    # Coefficient arrays of equal length in each matrix keep the sums aligned.
    step = [
        [np.array([1.0 - chain.a, 0.0]), np.array([0.0, chain.a])],
        [np.array([chain.b, 0.0]), np.array([0.0, 1.0 - chain.b])],
    ]
    start = [[np.array([chain.pi0, 0.0]), np.array([0.0, chain.pi1])]]
    ((in_state0, in_state1),) = _power(start, step, n - 1, _poly_mul)
    return in_state0 + in_state1


def occupation_log2_pgf(chain: ChainParams, n: int, u: float) -> float:
    """log2 of G_n(u) = pi^T D(u) (P D(u))^{n-1} 1, for finite u > 0.

    The matrix power is formed by binary powering with an exact power-of-two
    rescaling after every product, so the result neither overflows nor
    underflows for any finite u > 0 and costs O(log n).
    """
    if not 0.0 < u < math.inf:
        raise ValueError(f"generating-function argument u={u!r} must be positive and finite")
    log2_u = math.log2(u)
    return n * max(log2_u, 0.0) + float(_log2_mgf(chain, n, np.array([log2_u]))[0, 0])


def cgf_finite(chain: ChainParams, n: int, theta):
    """Finite-n base-2 CGF L_n of the centered sum, in bits, at a float or a 1-D array of theta.

    L_n(theta) = theta*pi1*ell + (1/n)*log2 G_n(u_theta) with u_theta = 2^(-theta*ell), from one
    batched kernel call of O(log n) products of 2x2 matrices at any tilt with a finite theta*ell;
    a float theta gives a float.  Every theta*ell must be finite, also on a symmetric chain, whose
    L_n is identically 0; the kernel validates n.
    """
    thetas = np.array(theta, dtype=float, ndmin=1)
    with np.errstate(over="ignore", invalid="ignore"):
        log2_u = -thetas * chain.ell
    finite = np.isfinite(log2_u)
    if not finite.all():
        bad = float(thetas[~finite][0])
        raise ValueError(f"tilt theta={bad!r} must be finite, and so must theta*ell")
    log2_g = _log2_mgf(chain, n, log2_u)[:, 0]  # log2 G_n(u_theta) - n*max(0, log2 u_theta)
    if chain.symmetric:
        values = np.zeros_like(thetas)
    else:
        values = thetas * chain.pi1 * chain.ell + (np.maximum(log2_u, 0.0) + log2_g / n)
    return values if np.ndim(theta) else float(values[0])


def jn_law(chain: ChainParams, d: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the tilted block sum at distortion d and blocklength n, as (support, probs).

    Atom m of ``support`` is n*jtilt(d, 0) - ell*m and carries probs[m] = Pr(N_n = m), for
    m = 0..n.  For a symmetric chain (a == b) the slope -ell vanishes and the law is a single
    point mass at n*mu_D: both arrays then have length one.
    """
    require_interior(chain, d)
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if chain.symmetric:
        return np.array([n * tilted_mean(chain, d)]), np.array([1.0])
    return n * jtilt(chain, d, 0) - chain.ell * np.arange(n + 1), occupation_pmf(chain, n)


def centered_tail_probability(chain: ChainParams, n: int, x: float) -> float:
    """Exact Pr(J_n(D) - n*mu_D >= n*x), computed without any distortion level.

    The centered sum equals -ell*(N_n - n*pi1), so the tail is a sum of
    count probabilities; the distortion cancels and never enters.
    Raises ValueError if n < 1 or x is not finite.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    if not math.isfinite(x):
        raise ValueError(f"threshold x={x!r} must be finite")
    if chain.symmetric:
        return 1.0 if n * x <= 0.0 else 0.0
    atoms = -chain.ell * (np.arange(n + 1) - n * chain.pi1)
    return float(occupation_pmf(chain, n)[atoms >= n * x].sum())


def centered_cumulants(chain: ChainParams, n: int, max_order: int = 6) -> np.ndarray:
    """Cumulants kappa_2..kappa_max_order of J_n(D) - n*mu_D = -ell*(N_n - n*pi1), any n >= 1.

    kappa_r = r!*[s^r]K*(-ell)^r for K(s) = ln E[e^{s(N_n - n*pi1)}], the kernel entry's series
    at u = 1, on jets of the centered state weights (e^{-s*pi1}, e^{s*pi0}).  Against an 80-digit
    count-law DP at n <= 300, kappa_2..kappa_6 were within 3e-13 relative; kappa_7..kappa_10
    within 8e-14 for lambda2 > 0, but 1.2e-13 at lambda2 = -0.3 and 2e-11 at lambda2 = -0.85.
    """
    if not 2 <= max_order <= 10:
        raise ValueError(f"max_order={max_order} must lie in [2, 10]")
    r = np.arange(max_order + 1)
    cgf = LN2 * _log2_mgf(chain, n, np.zeros(1), max_order)[0]
    return (_FACTORIALS[r] * cgf * (-chain.ell) ** r)[2:]
