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
and load with the package; ``cgf`` also holds the O(log n) generating-
function kernel, so the PGF and the finite-n CGF need no arrays.  The array
modules (``exact``, ``montecarlo``, ``oracle``) are imported, with numpy,
on first access to one of their names, so a caller that needs only closed
forms, such as most CLI commands, never pays numpy's start-up.
"""

import importlib

from .cgf import (
    achievable_interval,
    cgf_finite,
    cgf_limit,
    cgf_limit_derivative,
    cgf_limit_second_derivative,
    occupation_log2_pgf,
    perron_root,
    rate_function,
    saddlepoint_tail,
)
from .markov import ChainParams, binary_entropy, derive_chain, variance_correction, variance_exact
from .tilting import BAOperatingPoint, RegimeError, ba_operating_point, jtilt, tilted_mean

# Public names of the array modules -> their module, imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(("DP_MAX_N", "centered_cumulants", "centered_tail_probability", "jn_law",
                     "occupation_pmf"), "exact"),
    **dict.fromkeys(("SimReport", "exact_normal_distance", "sample_trajectory", "simulate"),
                    "montecarlo"),
    **dict.fromkeys(("ENUM_MAX_N", "ConvergenceError", "ba_fixed_point_iterate", "enumerate_pmf",
                     "jtilt_generic", "oracle_variance", "variance_double_sum", "verify_suites"),
                    "oracle"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "BAOperatingPoint",
    "ChainParams",
    "ConvergenceError",
    "DP_MAX_N",
    "ENUM_MAX_N",
    "RegimeError",
    "SimReport",
    "achievable_interval",
    "ba_fixed_point_iterate",
    "ba_operating_point",
    "binary_entropy",
    "centered_cumulants",
    "centered_tail_probability",
    "cgf_finite",
    "cgf_limit",
    "cgf_limit_derivative",
    "cgf_limit_second_derivative",
    "derive_chain",
    "enumerate_pmf",
    "exact_normal_distance",
    "jn_law",
    "jtilt",
    "jtilt_generic",
    "occupation_log2_pgf",
    "occupation_pmf",
    "oracle_variance",
    "perron_root",
    "rate_function",
    "saddlepoint_tail",
    "sample_trajectory",
    "simulate",
    "tilted_mean",
    "variance_correction",
    "variance_double_sum",
    "variance_exact",
    "verify_suites",
]

__version__ = "0.1.0"
