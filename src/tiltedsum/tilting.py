"""Single-letter operating point and tilted information for binary Hamming distortion.

For a binary source with marginal pi and Hamming distortion at level D in
the interior regime 0 < D < min(pi0, pi1), the alternating-minimization
fixed point at slope beta = ln((1-D)/D) has output marginal

    q_x = (pi_x - D) / (1 - 2D)

and partition values Z(x) = pi_x / (1 - D).  The tilted information of
state x collapses to

    jtilt(x, D) = -log2(pi_x) - h2(D),

so the distortion level enters only through the additive constant h2(D),
and so does the mean mu_D = h2(pi1) - h2(D) (:func:`tilted_mean`).  The
per-letter statistics free of D are properties of ``ChainParams``.
Both the closed form and the defining sum over reproduction letters are
implemented; they agree to rounding and the test suite holds them to it.
The alternating update runs to the fixed ``BA_TOL`` within ``BA_MAX_ITER``
steps.  Both exception types of the package are defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .markov import ChainParams, binary_entropy

BA_TOL = 1e-12
BA_MAX_ITER = 100_000


class RegimeError(ValueError):
    """Distortion level outside the interior regime 0 < D < min(pi0, pi1)."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


@dataclass(frozen=True)
class BAOperatingPoint:
    """Slope, output marginals, and partition values at distortion D."""

    beta: float
    q0: float
    q1: float
    z0: float
    z1: float


def require_interior(chain: ChainParams, d: float) -> None:
    """Reject distortion levels outside the open interval (0, min(pi0, pi1))."""
    bound = min(chain.pi0, chain.pi1)
    if not 0.0 < d < bound:
        raise RegimeError(
            f"distortion D={d!r} outside the interior regime (0, {bound!r}) "
            f"for chain (a={chain.a}, b={chain.b})"
        )


def ba_operating_point(chain: ChainParams, d: float) -> BAOperatingPoint:
    """Closed-form operating point at distortion d."""
    require_interior(chain, d)
    beta = math.log((1.0 - d) / d)
    q0 = (chain.pi0 - d) / (1.0 - 2.0 * d)
    q1 = (chain.pi1 - d) / (1.0 - 2.0 * d)
    z0 = chain.pi0 / (1.0 - d)
    z1 = chain.pi1 / (1.0 - d)
    return BAOperatingPoint(beta=beta, q0=q0, q1=q1, z0=z0, z1=z1)


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
    ``BA_TOL``.  Agrees with :func:`ba_operating_point` at the fixed point;
    the closed form is never consulted here, which is what makes the
    agreement a meaningful check.

    Raises
    ------
    ConvergenceError
        If ``BA_MAX_ITER`` updates do not reach ``BA_TOL``.
    """
    require_interior(chain, d)
    beta = math.log((1.0 - d) / d)
    prev0, prev1 = 0.5, 0.5
    updates = _alternating_updates(chain, d)
    for _ in range(BA_MAX_ITER):
        q0, q1 = next(updates)
        if max(abs(q0 - prev0), abs(q1 - prev1)) < BA_TOL:
            return BAOperatingPoint(
                beta=beta, q0=q0, q1=q1, z0=q0 + q1 * d / (1.0 - d), z1=q1 + q0 * d / (1.0 - d)
            )
        prev0, prev1 = q0, q1
    raise ConvergenceError(
        f"alternating update did not reach tol={BA_TOL:g} within {BA_MAX_ITER} "
        f"iterations (D={d!r} may be too close to the regime boundary)"
    )


def jtilt(chain: ChainParams, d: float, x: int) -> float:
    """Tilted information of state x at distortion d: -log2(pi_x) - h2(d)."""
    require_interior(chain, d)
    if x not in (0, 1):
        raise ValueError(f"state x={x!r} must be 0 or 1")
    pi_x = chain.pi0 if x == 0 else chain.pi1
    return -math.log2(pi_x) - binary_entropy(d)


def jtilt_generic(chain: ChainParams, d: float, x: int) -> float:
    """Tilted information evaluated from its defining sum, not the closed form.

    Computes -log2( sum_xh q(xh) e^{-beta (d(x,xh) - D)} ) at the closed-form
    operating point.  Used as the independent route in cross-checks and by
    the exhaustive oracle.
    """
    point = ba_operating_point(chain, d)
    if x not in (0, 1):
        raise ValueError(f"state x={x!r} must be 0 or 1")
    q_match, q_other = (point.q0, point.q1) if x == 0 else (point.q1, point.q0)
    total = q_match * math.exp(point.beta * d) + q_other * math.exp(-point.beta * (1.0 - d))
    return -math.log2(total)


def tilted_mean(chain: ChainParams, d: float) -> float:
    """Mean tilted information mu_D = h2(pi1) - h2(d) at distortion d, in bits per letter."""
    require_interior(chain, d)
    return binary_entropy(chain.pi1) - binary_entropy(d)
