"""Two-state Markov chain parameters, spectral quantities, and sampling.

The chain lives on {0, 1} with transition matrix

    P = [[1-a, a],
         [b, 1-b]],       0 < a, b < 1,

stationary distribution pi = (b/(a+b), a/(a+b)), second eigenvalue
lambda2 = 1 - a - b, and log-ratio ell = log2(a/b).  All logarithms
exposed by this package are base 2.  Every per-letter quantity that does
not depend on the distortion level is a property of :class:`ChainParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Parameters this close to {0, 1} are rejected: the closed forms divide by
# a, b, a+b and 1-lambda2, so clamping would silently destroy precision.
BOUNDARY_MARGIN = 1e-12
LN2 = math.log(2.0)
_CHUNK_ELEMENTS = 2**16  # runs per sampler chunk, across all of its rows


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

    @property
    def amplification(self) -> float:
        """Memory amplification v_sl/v_iid = (1+lambda2)/(1-lambda2).

        Taken from the closed form, so it is defined when a == b too.
        """
        return (1.0 + self.lambda2) / (1.0 - self.lambda2)

    @property
    def h_rate(self) -> float:
        """Entropy rate pi0*h2(a) + pi1*h2(b), in bits per letter."""
        return self.pi0 * binary_entropy(self.a) + self.pi1 * binary_entropy(self.b)

    @property
    def gap(self) -> float:
        """Excess h2(pi1) - h_rate of the mean tilted information over the entropy rate.

        The mean is h2(pi1) - h2(D) and the memory-aware rate at the same D is
        h_rate - h2(D), so the gap does not depend on D.  In bits per letter.
        """
        return binary_entropy(self.pi1) - self.h_rate

    @property
    def deficit_constant(self) -> float:
        """Limit as n -> infinity of the variance deficit n*v_sl - Var(J_n).

        Equal to 2*v_iid*lambda2/s^2 with s = a + b: positive for positively
        correlated chains, negative for anti-correlated ones.  In bits^2.
        """
        s = self.a + self.b
        return 2.0 * self.v_iid * self.lambda2 / (s * s)


def binary_entropy(p: float) -> float:
    """Binary entropy -p*log2(p) - (1-p)*log2(1-p) in bits, with h2(0)=h2(1)=0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    # log1p keeps the (1-p) term accurate near the boundary.
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / LN2)


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


def _runs(chain: ChainParams, n: int, rows: int, rng: np.random.Generator):
    """Run ends of ``rows`` stationary paths of n letters, as chunks ``(first, start, ends)``.

    The first letter is drawn from pi by inverse CDF; runs then alternate states, with
    Geometric(a) lengths in state 0 and Geometric(b) in state 1 (the first run too: the
    chain is memoryless), by inverse CDF 1 + floor(ln(1-U)/ln(1-p)).  ``ends`` is one
    (k, rows) float64 buffer, path r in column r, that is filled with uniforms and turned
    in place into the path's cumulative letter count at the end of each of its next k
    runs, clipped at n.  ``start`` is each path's letter count before the chunk and
    ``first`` its state in the chunk's row 0; row j is in state first ^ (j & 1).  The
    ``ends`` buffer is overwritten by the next chunk; ``first`` and ``start`` are not.
    All entries are integers below k*n < 2**53, so they and their sums are exact.  A
    chunk holds k <= n runs per path, with k*rows <= ``_CHUNK_ELEMENTS`` and
    k <= E + 4*sqrt(E) for the expected run count E = 1 + (n-1)*2ab/(a+b) of a path,
    so a short path draws few more runs than it uses.
    """
    runs = 1.0 + (n - 1) * 2.0 * chain.a * chain.b / (chain.a + chain.b)
    k = min(n, _CHUNK_ELEMENTS // rows, math.ceil(runs + 4.0 * math.sqrt(runs)))
    inv_log_stay = 1.0 / np.log1p(-np.array([chain.a, chain.b]))  # 1/ln(1-p) in state 0, 1
    first = (rng.random(rows) >= chain.pi0).astype(np.uint8)  # each path's next run
    start = np.zeros(rows)
    ends = np.empty((k, rows))
    while start.min() < n:
        rng.random(out=ends)
        np.subtract(1.0, ends, out=ends)
        np.log(ends, out=ends)
        ends[0::2] *= inv_log_stay[first]
        ends[1::2] *= inv_log_stay[first ^ 1]
        np.floor(ends, out=ends)
        ends += 1.0
        ends[0] += start
        np.cumsum(ends, axis=0, out=ends)
        np.minimum(ends, n, out=ends)
        yield first, start, ends
        start = ends[-1].copy()
        first = first ^ (k & 1)


def sample_trajectory(chain: ChainParams, n: int, seed: int) -> np.ndarray:
    """The states of n letters of the stationary chain, sampled run by run (see :func:`_runs`).

    Uniforms come from a Philox counter-based generator, so the sequence is
    a pure function of (seed, n) and regenerating it is bit-identical.
    """
    if n < 1:
        raise ValueError(f"blocklength n={n} must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    pieces = [
        np.repeat(
            (np.arange(len(ends)) & 1).astype(np.uint8) ^ first[0],
            np.diff(ends[:, 0], prepend=start[0]).astype(np.int64),
        )
        for first, start, ends in _runs(chain, n, 1, rng)
    ]
    return np.concatenate(pieces)
