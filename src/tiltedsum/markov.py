"""Two-state Markov chain parameters, spectral quantities, and sampling.

The chain lives on {0, 1} with transition matrix

    P = [[1-a, a],
         [b, 1-b]],       0 < a, b < 1,

stationary distribution pi = (b/(a+b), a/(a+b)), second eigenvalue
lambda2 = 1 - a - b, and log-ratio ell = log2(a/b).  All logarithms
exposed by this package are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Parameters this close to {0, 1} are rejected: the closed forms divide by
# a, b, a+b and 1-lambda2, so clamping would silently destroy precision.
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class ChainParams:
    """Transition parameters (a, b) with derived stationary/spectral fields.

    a is the 0->1 transition probability, b the 1->0 probability.
    Construct via :func:`derive_chain`, which validates and fills the
    derived fields.
    """

    a: float
    b: float
    pi0: float
    pi1: float
    lambda2: float
    ell: float

    @property
    def transition_matrix(self) -> np.ndarray:
        return np.array([[1.0 - self.a, self.a], [self.b, 1.0 - self.b]])

    @property
    def stationary(self) -> np.ndarray:
        return np.array([self.pi0, self.pi1])

    @property
    def symmetric(self) -> bool:
        """True when a == b, i.e. the log-ratio ell vanishes."""
        return self.a == self.b

    @property
    def v_iid(self) -> float:
        """Single-letter variance of the tilted information, ell^2*pi0*pi1."""
        return self.ell**2 * self.pi0 * self.pi1

    @property
    def v_sl(self) -> float:
        """Asymptotic variance per letter, v_iid*(1+lambda2)/(1-lambda2)."""
        return self.v_iid * (1.0 + self.lambda2) / (1.0 - self.lambda2)


@dataclass(frozen=True)
class Trajectory:
    """A sampled state sequence, reproducible from (seed, n)."""

    states: np.ndarray = field(repr=False)
    seed: int
    n: int


def derive_chain(a: float, b: float) -> ChainParams:
    """Validate (a, b) and derive the stationary/spectral quantities.

    Raises
    ------
    ValueError
        If a or b lies outside the open unit interval (a margin of
        ``BOUNDARY_MARGIN`` from {0, 1} is enforced).
    """
    for name, p in (("a", a), ("b", b)):
        if not (BOUNDARY_MARGIN < p < 1.0 - BOUNDARY_MARGIN):
            raise ValueError(
                f"transition probability {name}={p!r} must lie strictly inside "
                f"(0, 1) with margin {BOUNDARY_MARGIN:g}"
            )
    pi0 = b / (a + b)
    pi1 = a / (a + b)
    lambda2 = 1.0 - a - b
    ell = math.log2(a) - math.log2(b)
    return ChainParams(a=a, b=b, pi0=pi0, pi1=pi1, lambda2=lambda2, ell=ell)


def indicator_autocov(chain: ChainParams, k: int) -> float:
    """Lag-k autocovariance of the state-1 indicator: pi0*pi1*lambda2^k."""
    if k < 0:
        raise ValueError(f"lag k={k} must be nonnegative")
    return chain.pi0 * chain.pi1 * chain.lambda2**k


def sample_trajectory(chain: ChainParams, n: int, seed: int) -> Trajectory:
    """Sample n letters of the stationary chain.

    The initial state is drawn from pi by inverse CDF; each subsequent
    state by inverse CDF on its row of P.  Uniforms come from a Philox
    counter-based generator, so the sequence is a pure function of
    (seed, n) and regenerating with the same arguments is bit-identical.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(n)
    states = np.empty(n, dtype=np.uint8)
    x = 0 if u[0] < chain.pi0 else 1
    states[0] = x
    # P(x -> 0) is 1-a from state 0 and b from state 1.
    stay0 = 1.0 - chain.a
    go0 = chain.b
    for t in range(1, n):
        thresh = stay0 if x == 0 else go0
        x = 0 if u[t] < thresh else 1
        states[t] = x
    return Trajectory(states=states, seed=seed, n=n)
