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
per-letter statistics free of D are properties of ``ChainParams``.  Only
the closed forms and the named tuple :class:`BAOperatingPoint` live here;
their check routes (defining sum, alternating update) are in ``oracle``.
"""

import math
from typing import NamedTuple

from .markov import ChainParams, binary_entropy

__all__ = ["BAOperatingPoint", "RegimeError", "ba_operating_point", "jtilt", "tilted_mean"]


class RegimeError(ValueError):
    """Distortion level outside the interior regime 0 < D < min(pi0, pi1)."""


class BAOperatingPoint(NamedTuple):
    """Slope and output marginals at distortion D."""

    beta: float
    q0: float
    q1: float


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
    return BAOperatingPoint(beta=beta, q0=q0, q1=q1)


def jtilt(chain: ChainParams, d: float, x: int) -> float:
    """Tilted information of state x at distortion d: -log2(pi_x) - h2(d)."""
    require_interior(chain, d)
    if x not in (0, 1):
        raise ValueError(f"state x={x!r} must be 0 or 1")
    pi_x = chain.pi0 if x == 0 else chain.pi1
    return -math.log2(pi_x) - binary_entropy(d)


def tilted_mean(chain: ChainParams, d: float) -> float:
    """Mean tilted information mu_D = h2(pi1) - h2(d) at distortion d, in bits per letter."""
    require_interior(chain, d)
    return binary_entropy(chain.pi1) - binary_entropy(d)
