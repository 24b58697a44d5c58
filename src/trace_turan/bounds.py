"""Bound expressions and the numeric derivation chain.

Every bound here is a leading term only: the suppressed lower-order
contribution grows like o(n^{3/2}) with no explicit constant, so nothing in
this module is ever asserted against finite-n exact values as an upper bound.

Each bound expression -- g(t) = sqrt(t ln t)/7, the main term t^{3/2}/6,
the single formula (t^{3/2} + 55 t sqrt(ln t))/6 and the three-term
coefficients -- is written once, over outward-rounded intervals.  The
derivation check certifies on those intervals that the three-term bound at
g stays below the single formula across a log grid of t values: the
inequality chain behind the headline constant.  The ratio table normalises
exact or constructed values by n^{3/2} and by the main term.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

from .hypergraph import CapExceeded


def epsilon(delta: float) -> float:
    """Loss factor (1 + ln(delta+1))/(delta+1) of the dominated-set bound."""
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    return (1.0 + math.log(delta + 1.0)) / (delta + 1.0)


# -- outward-rounded interval arithmetic -----------------------------------


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    """Closed interval with outward rounding after every operation."""

    lo: float
    hi: float

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(_down(min(prods)), _up(max(prods)))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval division through zero")
        quots = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(_down(min(quots)), _up(max(quots)))

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise ValueError("sqrt of an interval reaching below zero")
        return Interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))

    def log(self) -> "Interval":
        if self.lo <= 0:
            raise ValueError("log of an interval reaching zero")
        # libm log is within 1 ulp; widen twice to stay conservative
        return Interval(_down(_down(math.log(self.lo))), _up(_up(math.log(self.hi))))

    def pow32(self) -> "Interval":
        """x^{3/2} for nonnegative intervals."""
        return self * self.sqrt()


_SIXTH = Interval(_down(1.0 / 6.0), _up(1.0 / 6.0))


def _g(t: Interval) -> Interval:
    """g(t) = sqrt(t ln t)/7, defined for t > 1."""
    if t.lo <= 1.0:
        raise ValueError(f"g(t) = sqrt(t ln t)/7 is defined only for t > 1, got t={t.lo:g}")
    return (t * t.log()).sqrt() / Interval.point(7.0)


def _main_term(t: Interval) -> Interval:
    """t^{3/2}/6, the main term every bound is normalised by."""
    return _SIXTH * t.pow32()


def _single_formula(t: Interval) -> Interval:
    """(t^{3/2} + 55 t sqrt(ln t))/6."""
    log_term = Interval.point(55.0) * t * t.log().sqrt()
    return _SIXTH * (t.pow32() + log_term)


def _three_term(t: Interval, g: Interval) -> Interval:
    """The sum of the sparse, medium and dense coefficients."""
    sparse = Interval.point(0.5) * (t - Interval.point(1.0)).sqrt()
    medium = Interval.point(6.0).sqrt() / Interval.point(2.0) * t.pow32() / g
    dense = _SIXTH * (t + Interval.point(5.0) * g * t.log()).pow32()
    return sparse + medium + dense


@dataclass
class DerivationPoint:
    """Interval comparison of the two upper bounds at one t."""

    t: int
    lhs_hi: float
    rhs_lo: float
    certified: bool


# the most points a log grid takes: more raises CapExceeded
POINTS_CAP = 10_000


def log_grid(lo: float, hi: float, points: int) -> list[int]:
    """At least ``points`` distinct integer t values log-spread over [lo, hi].

    When the range holds no more than ``points`` integers, that is all of
    them.  Otherwise oversamples until rounding collisions no longer shrink
    the grid below ``points``.  Needs 0 < lo <= hi < inf with an integer in
    [lo, hi], and 2 <= points <= ``POINTS_CAP``; raises ValueError
    (CapExceeded above the cap) otherwise.
    """
    if not 0 < lo <= hi < math.inf:
        raise ValueError(f"t range needs 0 < lo <= hi < inf, got {lo}:{hi}")
    if points < 2:
        raise ValueError(f"a log grid needs at least 2 points, got {points}")
    if points > POINTS_CAP:
        raise CapExceeded(f"log grid capped at points <= {POINTS_CAP}, got points={points}")
    ceil_lo, floor_hi = math.ceil(lo), math.floor(hi)
    if ceil_lo > floor_hi:
        raise ValueError(f"no integer t in {lo}:{hi}")
    if points >= floor_hi - ceil_lo + 1:
        return list(range(ceil_lo, floor_hi + 1))
    m = points
    while True:
        raw = (lo * (hi / lo) ** (i / (m - 1)) for i in range(m))
        grid = sorted({min(max(int(round(x)), ceil_lo), floor_hi) for x in raw})
        if len(grid) >= points:
            return grid
        m = m * 13 // 10 + 1


def derivation_check(t_values: Iterable[int]) -> list[DerivationPoint]:
    """Certify three_term(g = sqrt(t ln t)/7) <= single-formula bound per t.

    Compares outward-rounded interval expressions, so a True verdict is a
    rigorous inequality, not a float coincidence.  The common n^{3/2}
    factor cancels; the comparison is between coefficient intervals.
    """
    out = []
    for t in t_values:
        ti = Interval.point(float(t))
        g = _g(ti)
        # Only the lower domain side matters for the comparison; the upper
        # side t/g <= t fails for t <= 17 (t ln t < 49) yet the inequality
        # below still holds with slack there.
        if (ti / g).lo < 14.0:
            raise ValueError(f"t/g(t) dips below 14 at t={t}")
        lhs = _three_term(ti, g)
        rhs = _single_formula(ti)
        out.append(DerivationPoint(t, lhs.hi, rhs.lo, lhs.hi <= rhs.lo))
    return out


# -- ratio reporting --------------------------------------------------------

C4_WINDOW = (0.5, 5.0 / 6.0)


def _n32(n: float) -> float:
    if not 0 < n < math.inf:
        raise ValueError(f"n must be a finite number > 0, got {n!r}")
    return n * math.sqrt(n)


def ratio_table(rows: Iterable[tuple[int, int, int]]) -> str:
    """CSV of exact/constructed values normalized by n^{3/2} scales.

    Rows are (n, t, value) tuples.  For t = 2 the asymptotic window
    [1/2, 5/6] is attached for reference only; finite-n values may
    legitimately fall outside it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n", "t", "value", "value/n^1.5", "value/(t^1.5 n^1.5 / 6)", "window_lo", "window_hi"]
    )
    for n, t, value in rows:
        r1 = value / _n32(n)
        r2 = value / (_main_term(Interval.point(float(t))).hi * _n32(n))
        window = C4_WINDOW if t == 2 else ("", "")
        writer.writerow([n, t, value, f"{r1:.6f}", f"{r2:.6f}", window[0], window[1]])
    return buf.getvalue()
