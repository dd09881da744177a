"""Numeric backends: exact rationals, raw float64 and directed-rounding
interval arithmetic behind one tiny protocol.

Every probability the stack computes — signature-distribution weights in
the Theorem 5.3 DP, circuit gate values, sampler posteriors — flows
through a :class:`NumericBackend`.  The protocol is deliberately minimal
(binary ``add``/``mul``/``sub``/``div``, the constants ``zero``/``one``
and ``lift`` from the p-document's exact ``Fraction`` annotations, next
to a handful of *decision* helpers), so the hot loops can bind the
operations to locals and stay backend-generic without a dispatch per
scalar.

Guarantees per backend (see ``docs/NUMERIC.md`` for the full table):

* ``exact``    — today's behavior: every value is the exact rational.
* ``float64``  — one IEEE-754 round-to-nearest double per operation; fast
  and *unguarded* (zero/positivity tests may misfire near ties or after
  underflow).
* ``interval`` — a pair ``(lo, hi)`` of doubles with every operation
  outward-rounded by one ulp (``math.nextafter``), so the exact value is
  **always contained** in the interval.  ``lift`` keeps exactly
  representable rationals as point intervals, which is what makes the
  common dyadic probabilities cost nothing in width.

``interval`` is also the evaluation layer of the guarded ``auto`` mode
(:mod:`repro.numeric.guard`): a decision whose interval straddles its
threshold is re-resolved exactly, every other decision is certified by
the bounds alone.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple

__all__ = [
    "BACKEND_NAMES",
    "Interval",
    "NumericBackend",
    "EXACT",
    "FLOAT64",
    "INTERVAL",
    "get_backend",
    "maybe_positive",
    "surely_zero",
]

_INF = math.inf
_nextafter = math.nextafter


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


class Interval(NamedTuple):
    """A directed-rounding enclosure: the exact value lies in [lo, hi]."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        """A representative point (clamped to the enclosure)."""
        if self.lo == self.hi:
            return self.lo
        mid = (max(self.lo, 0.0) + min(self.hi, 1.0)) / 2.0
        return min(max(mid, self.lo), self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __add__(self, other):  # type: ignore[override]
        other = _as_interval(other)
        return Interval(*_iadd(self, other))

    __radd__ = __add__

    def __mul__(self, other):  # type: ignore[override]
        other = _as_interval(other)
        return Interval(*_imul(self, other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return Interval(*_isub(self, _as_interval(other)))

    def __rsub__(self, other):
        return Interval(*_isub(_as_interval(other), self))

    def __truediv__(self, other):
        return Interval(*_idiv(self, _as_interval(other)))

    def __rtruediv__(self, other):
        return Interval(*_idiv(_as_interval(other), self))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    def contains(self, value) -> bool:
        """Whether the exact ``value`` (Fraction/int/float) is enclosed."""
        return Fraction(self.lo) <= Fraction(value) <= Fraction(self.hi)


def _as_interval(value) -> tuple[float, float]:
    if isinstance(value, tuple):  # Interval or raw (lo, hi) pair
        return value
    return _lift_interval(Fraction(value))


def _lift_interval(value: Fraction) -> tuple[float, float]:
    f = float(value)
    if Fraction(f) == value:
        return (f, f)
    return (_down(f), _up(f))


def _iadd(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    # Adding an exact 0.0 endpoint is exact — skipping the widening there
    # keeps certainly-zero values as [0, 0] point intervals, which is what
    # lets the guard *certify* impossible events instead of falling back.
    alo, ahi = a
    blo, bhi = b
    lo = alo + blo
    hi = ahi + bhi
    if alo != 0.0 and blo != 0.0:
        lo = _down(lo)
    if ahi != 0.0 and bhi != 0.0:
        hi = _up(hi)
    return (lo, hi)


def _isub(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    # x - 0 and 0 - y are exact (negation never rounds): skip the widening.
    alo, ahi = a
    blo, bhi = b
    lo = alo - bhi
    hi = ahi - blo
    if alo != 0.0 and bhi != 0.0:
        lo = _down(lo)
    if ahi != 0.0 and blo != 0.0:
        hi = _up(hi)
    return (lo, hi)


def _imul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    alo, ahi = a
    blo, bhi = b
    if alo >= 0.0 and blo >= 0.0:  # the common all-nonnegative case
        # A 0.0 lower bound needs no widening: the true product is >= 0.
        # The upper bound is exact when a factor is exactly zero; a 0.0
        # from *underflow* of two nonzero factors must still widen up.
        lo = alo * blo
        if lo != 0.0:
            lo = _down(lo)
        hi = ahi * bhi
        if ahi != 0.0 and bhi != 0.0:
            hi = _up(hi)
        return (lo, hi)
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    return (_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))


def _idiv(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """a / b for a nonnegative-denominator interval (probabilities; small
    negative lower bounds are rounding slack and are clamped to 0)."""
    alo, ahi = a
    blo, bhi = b
    if blo < 0.0:
        blo = 0.0
    if bhi <= 0.0:
        raise ZeroDivisionError("interval division by an exactly-zero interval")
    if alo >= 0.0:
        lo = alo / bhi
        if lo != 0.0:  # a 0.0 needs no widening: the true quotient is >= 0
            lo = _down(lo)
    elif blo > 0.0:
        lo = _down(alo / blo)
    else:
        lo = -_INF
    if blo > 0.0:
        hi = ahi / blo
        if ahi != 0.0:  # 0 / x is exactly 0
            hi = _up(hi)
    else:
        hi = _INF if ahi > 0.0 else 0.0
    return (lo, hi)


class NumericBackend:
    """One arithmetic implementation: constants, binary ops, output form.

    ``add``/``mul``/``sub`` are plain binary callables so hot loops can
    bind them to locals; values are whatever the backend works in
    (``Fraction``, ``float`` or ``(lo, hi)`` tuples).
    """

    __slots__ = ("name", "exact", "zero", "one", "add", "mul", "sub", "div", "lift")

    def __init__(
        self,
        name: str,
        exact: bool,
        zero,
        one,
        add: Callable,
        mul: Callable,
        sub: Callable,
        div: Callable,
        lift: Callable[[Fraction], object],
    ):
        self.name = name
        self.exact = exact
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.sub = sub
        self.div = div
        self.lift = lift

    def finalize(self, value):
        """The user-facing form of an internal value (tuples → Interval)."""
        if self.name == "interval" and not isinstance(value, Interval):
            return Interval(*value)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NumericBackend({self.name!r})"


def _exact_lift(value: Fraction) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


EXACT = NumericBackend(
    "exact", True, Fraction(0), Fraction(1),
    operator.add, operator.mul, operator.sub, operator.truediv, _exact_lift,
)

FLOAT64 = NumericBackend(
    "float64", False, 0.0, 1.0,
    operator.add, operator.mul, operator.sub, operator.truediv, float,
)

INTERVAL = NumericBackend(
    "interval", False, (0.0, 0.0), (1.0, 1.0),
    _iadd, _imul, _isub, _idiv, _lift_interval,
)

_BACKENDS = {"exact": EXACT, "float64": FLOAT64, "interval": INTERVAL}

#: All accepted ``backend=`` spellings (``auto`` is the guarded policy on
#: top of ``interval``, resolved by the call sites, not an arithmetic).
BACKEND_NAMES = ("exact", "float64", "interval", "auto")


def get_backend(spec=None) -> NumericBackend:
    """Resolve a backend spec (name, backend instance or None → exact)."""
    if spec is None:
        return EXACT
    if isinstance(spec, NumericBackend):
        return spec
    backend = _BACKENDS.get(spec)
    if backend is None:
        if spec == "auto":
            raise ValueError(
                "'auto' is a guarded evaluation policy, not an arithmetic; "
                "this call path does not support it"
            )
        if spec == "batch":
            raise ValueError(
                "'batch' is the vectorized circuit sweep mode, not a scalar "
                "arithmetic; use PXDB.sweep_probabilities or "
                "Circuit.forward_batch"
            )
        raise ValueError(f"unknown numeric backend {spec!r} (expected one of "
                         f"{', '.join(BACKEND_NAMES)})")
    return backend


# -- type-dispatched decision helpers (work on finalized outputs) --------------

def surely_zero(value) -> bool:
    """Certainly the exact 0: safe to treat as impossible / to reject."""
    if isinstance(value, Interval):
        return value.hi == 0.0
    return value == 0


def maybe_positive(value) -> bool:
    """Possibly > 0 — the sound keep-test for answer tuples."""
    if isinstance(value, Interval):
        return value.hi > 0.0
    return value > 0


def value_fields(value) -> tuple:
    """(string form, float form) of a value from any backend: exact
    ``Fraction``s render as ratios, floats as their shortest repr, and
    intervals as ``[lo, hi]`` with the midpoint as the float view."""
    if isinstance(value, Interval):
        return f"[{value.lo!r}, {value.hi!r}]", value.mid
    if isinstance(value, float):
        return repr(value), value
    return str(value), float(value)
