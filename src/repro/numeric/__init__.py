"""Pluggable numeric backends for the DP, circuits and sampler.

``exact`` (Fractions, the default), ``float64`` (fast, unguarded) and
``interval`` (directed-rounding float64 enclosures) implement one
protocol (:class:`~repro.numeric.backends.NumericBackend`); ``auto`` is
the guarded policy of :mod:`repro.numeric.guard`: interval evaluation
with exact fallback for decisions the bounds cannot certify.

See ``docs/NUMERIC.md`` for the guarantees table and fallback semantics.
"""

from .backends import (
    BACKEND_NAMES,
    EXACT,
    FLOAT64,
    INTERVAL,
    Interval,
    NumericBackend,
    get_backend,
    maybe_positive,
    surely_zero,
    value_fields,
)
from .guard import (
    GUARD,
    GuardStats,
    exact_bernoulli,
    guarded_bernoulli,
    guarded_values,
)

__all__ = [
    "BACKEND_NAMES",
    "EXACT",
    "FLOAT64",
    "GUARD",
    "GuardStats",
    "INTERVAL",
    "Interval",
    "NumericBackend",
    "exact_bernoulli",
    "get_backend",
    "guarded_bernoulli",
    "guarded_values",
    "maybe_positive",
    "surely_zero",
    "value_fields",
]
