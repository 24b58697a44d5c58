"""Formula evaluator and interval derivation tests."""

import math

import pytest

from trace_turan import (
    Interval,
    default_g,
    derivation_check,
    epsilon,
    k2t_upper_bound,
    log_grid,
    ratio_table,
    three_term_upper_bound,
)
from trace_turan.bounds import _g, _single_formula, _three_term, epsilon_interval

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


def test_k2t_upper_bound_terms():
    n, t = 10**4, 14
    rep = k2t_upper_bound(n, t)
    n32 = n * math.sqrt(n)
    assert rep.terms["main"] == pytest.approx(t**1.5 / 6 * n32, rel=REL)
    assert rep.terms["log_term"] == pytest.approx(55 * t * math.sqrt(math.log(t)) / 6 * n32, rel=REL)
    assert rep.ratio_main_term == pytest.approx(1 + 55 / (math.sqrt(t) / math.sqrt(math.log(t))) , rel=REL)
    assert rep.excludes_lower_order


def test_k2t_upper_bound_boundary_and_refusal():
    k2t_upper_bound(100, 14)
    with pytest.raises(ValueError):
        k2t_upper_bound(100, 13)


def test_k2t_ratio_decreases_toward_one():
    ratios = [k2t_upper_bound(100, t).ratio_main_term for t in (10**2, 10**4, 10**6, 10**8, 10**12)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.001


def test_three_term_with_default_g():
    n, t = 1000, 196
    rep = three_term_upper_bound(n, t, default_g)
    gt = default_g(t)
    n32 = n * math.sqrt(n)
    assert rep.terms["sparse"] == pytest.approx(0.5 * math.sqrt(t - 1) * n32, rel=REL)
    assert rep.terms["medium"] == pytest.approx(math.sqrt(6) / 2 * t**1.5 / gt * n32, rel=REL)
    assert rep.terms["dense"] == pytest.approx((t + 5 * gt * math.log(t)) ** 1.5 / 6 * n32, rel=REL)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: k2t_upper_bound(0, 14),
        lambda: k2t_upper_bound(-5, 14),
        lambda: k2t_upper_bound(float("nan"), 14),
        lambda: k2t_upper_bound(float("inf"), 14),
        lambda: three_term_upper_bound(0, 196, default_g),
        lambda: ratio_table([(0, 2, 0)]),
    ],
    ids=["k2t-0", "k2t-negative", "k2t-nan", "k2t-inf", "three-term-0", "ratio-table-0"],
)
def test_bound_evaluators_refuse_degenerate_n(evaluate):
    with pytest.raises(ValueError, match="finite number > 0"):
        evaluate()


def test_float_evaluators_read_the_derivation_intervals():
    for t in log_grid(14, 10**12, 400):
        ti = Interval.point(float(t))
        g = _g(ti)
        assert default_g(t) == g.hi
        terms, total = _single_formula(ti)
        rep = k2t_upper_bound(1, t)
        assert rep.terms == {name: term.hi for name, term in terms.items()}
        assert rep.total == total.hi
        (point,) = derivation_check([t])
        assert point.rhs_lo == total.lo
        terms, total = _three_term(ti, g)
        assert point.lhs_hi == total.hi
        if t / default_g(t) <= t:  # the float evaluator's upper domain side
            rep = three_term_upper_bound(1, t, default_g)
            assert all(terms[name].lo <= value <= terms[name].hi for name, value in rep.terms.items())
            assert total.lo <= rep.total <= total.hi


def test_three_term_domain_messages():
    with pytest.raises(ValueError, match="lower"):
        three_term_upper_bound(10, 100, lambda t: t)  # t/g = 1 < 14
    with pytest.raises(ValueError, match="upper"):
        three_term_upper_bound(10, 100, lambda t: 1 / 200)  # t/g = 20000 > t


def test_three_term_vs_single_formula_on_valid_domain():
    for t in (20, 100, 10**4, 10**6):
        lhs = three_term_upper_bound(7, t, default_g).total
        rhs = k2t_upper_bound(7, t).total
        assert lhs <= rhs


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


def test_log_grid_covers_range_with_enough_points():
    grid = log_grid(14, 10**6, 1000)
    assert len(grid) >= 1000
    assert grid[0] == 14 and grid[-1] == 10**6
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_derivation_check_certifies_sample():
    points = derivation_check(log_grid(14, 10**6, 60))
    assert points and all(p.certified for p in points)
    assert all(p.lhs_hi <= p.rhs_lo for p in points)


def test_ratio_table_rows():
    table = ratio_table([(4, 2, 4), (5, 3, 10)])
    lines = table.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("4,2,4,0.500000")
    assert ",," not in lines[1]  # t = 2 rows carry the reference window
    assert lines[2].split(",")[5] == ""  # t = 3 rows do not


def test_ratio_table_polarity_lift_row():
    from trace_turan import lift_to_trace_free, polarity_graph

    h = lift_to_trace_free(polarity_graph(7))
    line = ratio_table([(h.n, 2, h.edge_count)]).strip().splitlines()[1]
    ratio = float(line.split(",")[3])
    assert ratio == pytest.approx(0.507, abs=0.001)


def test_ratio_table_empty_is_header_only():
    assert len(ratio_table([]).strip().splitlines()) == 1


def test_ratio_table_accepts_objects(search_table):
    table = ratio_table([search_table[(4, 2)]])
    assert "4,2,4," in table
