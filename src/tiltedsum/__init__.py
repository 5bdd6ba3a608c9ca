"""Exact fluctuation theory of tilted-information sums for binary Markov sources.

The library computes, for a stationary two-state Markov chain under
Hamming distortion, the per-letter tilted information at the single-letter
operating point, the exact finite-n law of its block sum (an affine image
of the chain's occupation count), closed-form variances, cumulants, both
finite-n and limiting cumulant generating functions, large-deviation rate
functions, saddlepoint tail estimates, a Monte Carlo harness, and an
exhaustive-enumeration oracle that, with the other independent check
routes of ``oracle``, certifies the closed forms.

The float closed forms (``markov``, ``tilting``, ``cgf``) import no numpy
and load with the package; ``cgf`` also holds the O(log n) kernel of the
PGF, the finite-n CGF and the cumulants, which needs no arrays.  The other
modules load on first access to one of their names: ``exact``, the O(n)
count law, its tails and its normal distance, so that a command that never
builds the law does not compile it; ``oracle``, the check routes; both in
plain floats.  Only ``montecarlo``, the sampler, imports numpy, so every
CLI command but ``simulate`` runs without numpy's start-up.  The three closed-form modules
declare their public names in their own ``__all__``; the package's
``__all__`` is the union of those and the keys of ``_LAZY``.
"""

import importlib

from . import cgf, markov, tilting
from .cgf import *
from .markov import *
from .tilting import *

# Public names of the modules imported on first access (PEP 562) -> their module.
_LAZY = {
    **dict.fromkeys(("DP_MAX_N", "centered_tail_probability", "exact_normal_distance", "jn_law",
                     "occupation_pmf"), "exact"),
    **dict.fromkeys(("SimReport", "sample_trajectory", "simulate"), "montecarlo"),
    **dict.fromkeys(("ENUM_MAX_N", "ConvergenceError", "ba_fixed_point_iterate",
                     "cgf_limit_derivative", "enumerate_pmf", "jtilt_generic", "oracle_variance",
                     "variance_double_sum", "verify_suites"), "oracle"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = sorted([*cgf.__all__, *markov.__all__, *tilting.__all__, *_LAZY])

__version__ = "0.1.0"
