"""Bound expression and interval derivation tests."""

import math
from decimal import Decimal, localcontext

import pytest

from trace_turan import Interval, derivation_check, epsilon, log_grid
from trace_turan.bounds import _g, _single_formula, _three_term

from helpers import epsilon_interval

REL = 1e-9


def test_epsilon_reference_points():
    assert epsilon(14) == pytest.approx(0.2472033467, rel=1e-8)
    assert epsilon(14) <= 0.25
    assert epsilon(2) == pytest.approx((1 + math.log(3)) / 3, rel=REL)
    assert epsilon(2) == pytest.approx(0.69954, abs=1e-5)


def test_epsilon_rejects_small_delta():
    with pytest.raises(ValueError):
        epsilon(1.9)


def test_epsilon_monotone_decreasing():
    values = [epsilon(d) for d in range(2, 10**6, 997)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_epsilon_interval_contains_float_value():
    iv = epsilon_interval(14)
    assert iv.lo <= epsilon(14) <= iv.hi
    assert iv.hi <= 0.25


def test_float_evaluators_read_the_derivation_intervals():
    # the derivation check reports the ends of the very interval expressions
    for t in log_grid(14, 10**12, 400):
        ti = Interval.point(float(t))
        (point,) = derivation_check([t])
        assert point.rhs_lo == _single_formula(ti).lo
        assert point.lhs_hi == _three_term(ti, _g(ti)).hi


def test_quadratic_root_identity_at_codegree_ceiling():
    t, delta = 14, 14
    eps = epsilon(delta)
    k = (1 + 4 * eps) * t
    c = k * k / 4 * (1 + 4 * eps) * t
    assert math.sqrt(c) == pytest.approx(0.5 * k**1.5, rel=REL)


def test_interval_arithmetic_outward():
    x = Interval.point(2.0)
    s = x.sqrt()
    assert s.lo <= math.sqrt(2) <= s.hi
    assert s.lo < s.hi
    p = x.pow32()
    assert p.lo <= 2 * math.sqrt(2) <= p.hi
    with pytest.raises(ZeroDivisionError):
        x / Interval(-1.0, 1.0)


@pytest.mark.parametrize(
    "evaluate, message",
    [
        (lambda: Interval(-1.0, 4.0).sqrt(), "sqrt of an interval reaching below zero"),
        (lambda: Interval(0.0, 4.0).log(), "log of an interval reaching zero"),
    ],
    ids=["sqrt-below-zero", "log-at-zero"],
)
def test_interval_refuses_a_domain_it_cannot_bound(evaluate, message):
    with pytest.raises(ValueError, match=message):
        evaluate()


def test_log_grid_covers_range_with_enough_points():
    grid = log_grid(14, 10**6, 1000)
    assert len(grid) >= 1000
    assert grid[0] == 14 and grid[-1] == 10**6
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # points that cover the range take all of it, with no oversampling
    assert log_grid(14, 10013, 10_000) == list(range(14, 10014))
    assert log_grid(14, 20, 99) == list(range(14, 21))


@pytest.mark.parametrize("lo, hi", [(14.2, 14.9), (1.5, 1.7), (0.5, 0.9)])
def test_log_grid_refuses_a_range_without_an_integer(lo, hi):
    with pytest.raises(ValueError, match=f"no integer t in {lo}:{hi}"):
        log_grid(lo, hi, 2)


def test_log_grid_stays_inside_a_fractional_range():
    assert log_grid(14.2, 15.9, 5) == [15]
    assert log_grid(13.5, 16.5, 2) == [14, 16]


def test_derivation_check_certifies_sample():
    points = derivation_check(log_grid(14, 10**6, 60))
    assert points and all(p.certified for p in points)
    assert all(p.lhs_hi <= p.rhs_lo for p in points)


def _decimal_slack(t: int) -> Decimal:
    """rhs - lhs of the derivation at t, in 50-digit decimal arithmetic:
    the single formula minus the three-term bound at g = sqrt(t ln t)/7."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(float(t))  # the t the interval check reads
        ln = x.ln()
        g = (x * ln).sqrt() / 7
        x32 = x * x.sqrt()
        sparse = (x - 1).sqrt() / 2
        medium = Decimal(6).sqrt() / 2 * x32 / g
        dense = ((x + 5 * g * ln) ** 3).sqrt() / 6
        return (x32 + 55 * x * ln.sqrt()) / 6 - (sparse + medium + dense)


def test_derivation_verdict_is_the_sign_of_the_inequality():
    # the chain holds up to ln t ~ 50.380 (t ~ 7.584e21) and fails beyond:
    # the relative slack is +4.4e-11 at 5e21 and -4.5e-12 at 8e21, so the
    # verdicts past it are the inequality's own, not the rounding's
    ts = [10**6, 10**21, 5 * 10**21, 8 * 10**21, 10**22, 10**30]
    points = derivation_check(ts)
    assert [p.certified for p in points] == [_decimal_slack(t) > 0 for t in ts]
    assert [p.certified for p in points] == [True, True, True, False, False, False]
