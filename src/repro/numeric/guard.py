"""The guarded ``auto`` mode: interval evaluation with exact fallback.

Every *decision* the stack takes — CONSTRAINT-SAT positivity, dropping a
zero-probability answer tuple, pruning a top-k branch, a sampler branch
coin — only needs numbers **separated** from a threshold, never their
exact magnitudes.  ``auto`` therefore evaluates in interval arithmetic
(:data:`repro.numeric.backends.INTERVAL`) and re-resolves *exactly* only
the decisions whose interval straddles the threshold.  Decisions are then
identical to the exact backend's by construction: a certified bound and
the exact value can never disagree on which side of the threshold the
true value lies.

:data:`GUARD` counts both kinds of outcomes (certified decisions and
exact fallbacks); the service layer surfaces the counters in ``/metrics``
and ``repro.obs`` attaches the backend name to every ``dp.run`` span.

The Bernoulli coin
------------------

The sampler's branch decisions consume randomness, so "identical
decisions" must also mean "identical RNG consumption" — otherwise one
resolved coin would shift every later draw.  :func:`exact_bernoulli`
implements Bernoulli(p) by lazy bisection: draw a 64-bit chunk ``r``,
which pins the uniform u into the cell [r/2⁶⁴, (r+1)/2⁶⁴); if the cell
lies entirely below p the coin is heads, entirely at/above p it is tails,
otherwise (probability 2⁻⁶⁴ per round) append another chunk.  The
protocol never looks at p before drawing, so its consumption depends only
on *where the cell falls relative to p* — and :func:`guarded_bernoulli`
can run the identical protocol knowing only lo ≤ p ≤ hi: a cell clear of
[lo, hi] is also clear of p (same answer, same chunk count), and a cell
overlapping [lo, hi] triggers the exact fallback *within the same round*,
after which the two protocols are literally the same code path.
"""

from __future__ import annotations

import os
import random
import threading
from fractions import Fraction
from typing import Callable

__all__ = ["GUARD", "GuardStats", "exact_bernoulli", "guarded_bernoulli",
           "guarded_positive"]


class GuardStats:
    """Process-global counters for the guarded mode (thread-safe)."""

    __slots__ = ("_lock", "decisions", "fallbacks")

    def __init__(self):
        self._lock = threading.Lock()
        self.decisions = 0
        self.fallbacks = 0

    def decided(self, n: int = 1) -> None:
        with self._lock:
            self.decisions += n

    def fell_back(self, n: int = 1) -> None:
        with self._lock:
            self.decisions += n
            self.fallbacks += n

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"decisions": self.decisions, "fallbacks": self.fallbacks}

    def reset(self) -> None:
        with self._lock:
            self.decisions = 0
            self.fallbacks = 0


GUARD = GuardStats()


def _fresh_lock_in_child() -> None:
    # A forked child (a pool worker) must not inherit a lock another
    # parent thread held at fork time.
    GUARD._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_in_child)


def guarded_positive(lo, hi, resolve: Callable[[], Fraction]) -> bool:
    """Is the exactly-nonnegative value with enclosure [lo, hi] positive?

    Certified by the bounds when possible (hi == 0 ⟹ the value *is* 0,
    lo > 0 ⟹ positive); otherwise ``resolve()`` supplies the exact value.
    """
    if hi <= 0:
        GUARD.decided()
        return False
    if lo > 0:
        GUARD.decided()
        return True
    GUARD.fell_back()
    return resolve() > 0


def exact_bernoulli(p: Fraction, rng: random.Random) -> bool:
    """An exact Bernoulli(p) coin for rational p (no float rounding).

    Lazy bisection: each 64-bit chunk narrows the uniform's cell until it
    falls entirely on one side of p; the expected number of chunks is
    1 + O(2⁻⁶⁴).  The p ≤ 0 / p ≥ 1 shortcuts consume no randomness.
    """
    if p <= 0:
        return False
    if p >= 1:
        return True
    num = p.numerator
    den = p.denominator
    r = 0
    scale = 1
    while True:
        r = (r << 64) | rng.getrandbits(64)
        scale <<= 64
        threshold = num * scale
        if (r + 1) * den <= threshold:  # cell entirely below p
            return True
        if r * den >= threshold:  # cell entirely at/above p
            return False


def guarded_bernoulli(
    lo, hi, resolve: Callable[[], Fraction], rng: random.Random
) -> bool:
    """Bernoulli(p) knowing only lo ≤ p ≤ hi, with exact fallback.

    Returns the same outcome *and consumes the same randomness* as
    ``exact_bernoulli(p, rng)`` for the true p.  ``resolve()`` is invoked
    (and counted as a fallback) only when the bounds cannot separate the
    current uniform cell from p — including when they straddle the 0/1
    shortcut thresholds, which the exact coin tests before drawing.
    """
    if hi <= 0:
        GUARD.decided()
        return False
    if lo >= 1:
        GUARD.decided()
        return True
    if lo <= 0 or hi >= 1:
        # The exact coin's no-consumption shortcut may or may not trigger:
        # resolve *before* drawing so consumption stays identical.
        GUARD.fell_back()
        return exact_bernoulli(resolve(), rng)
    # Now 0 < lo <= p <= hi < 1: the exact coin would draw, so we draw.
    plo = Fraction(lo)
    phi = Fraction(hi)
    p: Fraction | None = None
    r = 0
    scale = 1
    while True:
        r = (r << 64) | rng.getrandbits(64)
        scale <<= 64
        if p is None:
            if Fraction(r + 1, scale) <= plo:  # cell below lo ≤ p
                GUARD.decided()
                return True
            if Fraction(r, scale) >= phi:  # cell at/above hi ≥ p
                GUARD.decided()
                return False
            GUARD.fell_back()
            p = resolve()
        # Exact protocol on the same cell (identical to exact_bernoulli).
        if Fraction(r + 1, scale) <= p:
            return True
        if Fraction(r, scale) >= p:
            return False
