"""Dominated-set algorithm tests."""

import hashlib
import itertools
import math
import random

import pytest

from trace_turan import (
    Graph,
    dominated_min_degree,
    dominated_pair_min1,
    epsilon,
    simultaneous_dominated_min_degree,
    star_loop_decomposition,
)
import trace_turan.dominated as dominated
from trace_turan.dominated import _star_union_colouring

from helpers import is_dominated, max_dominated_subset, random_loop_graph


def triangle():
    return Graph(range(3), [(0, 1), (1, 2), (0, 2)])


def check_decomposition(g, stars):
    verts = set()
    for center, leaves in stars.items():
        if not leaves:
            assert g.loops_at(center) >= 1
            assert center not in verts
            verts.add(center)
        else:
            members = {center, *leaves}
            assert not (members & verts)
            verts |= members
            for leaf in leaves:
                assert leaf in g.neighbors(center)
    assert verts == set(g.vertices)


# -- is_dominated ---------------------------------------------------------------


def test_single_edge_one_endpoint_dominated():
    g = Graph([0, 1], [(0, 1)])
    assert is_dominated(g, {0})


def test_single_edge_both_endpoints_not_dominated():
    g = Graph([0, 1], [(0, 1)])
    assert not is_dominated(g, {0, 1})


def test_loop_dominates_itself():
    g = Graph([0], loops={0: 1})
    assert is_dominated(g, {0})


# -- star decomposition ------------------------------------------------------------


def test_path_decomposes_into_single_star():
    g = Graph(range(3), [(0, 1), (1, 2)])
    stars = star_loop_decomposition(g)
    check_decomposition(g, stars)
    assert len(stars) == 1


def test_edge_plus_loop():
    g = Graph(range(3), [(0, 1)], loops={2: 1})
    stars = star_loop_decomposition(g)
    check_decomposition(g, stars)
    assert stars == {0: frozenset({1}), 2: frozenset()}


def test_triangle_greedy_from_lowest_id():
    assert star_loop_decomposition(triangle()) == {0: frozenset({1, 2})}


def test_isolated_vertex_rejected():
    g = Graph(range(2), [], loops={0: 1})
    with pytest.raises(ValueError):
        star_loop_decomposition(g)


def test_decomposition_random_property():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 12)
        g = random_loop_graph(n, rng.choice([0.1, 0.25, 0.5]), rng, min_degree=1)
        check_decomposition(g, star_loop_decomposition(g))


# -- dominated_pair_min1 --------------------------------------------------------------


def test_k3_exception_returns_singleton():
    r = dominated_pair_min1(triangle(), triangle())
    assert len(r) == 1
    assert is_dominated(triangle(), r)


def test_k3_union_across_two_paths():
    # union of two different paths is a triangle: no 2-set is dominated in both
    gx = Graph(range(3), [(0, 1), (1, 2)])
    gy = Graph(range(3), [(1, 0), (0, 2)])
    r = dominated_pair_min1(gx, gy)
    assert len(r) == 1


def test_path_pair_returns_endpoints():
    g = Graph(range(3), [(0, 1), (1, 2)])
    r = dominated_pair_min1(g, g)
    assert r == frozenset({0, 2})


def test_three_vertex_non_triangle_always_size_2():
    # exhaustive over 3-vertex loop-graph pairs with min degree >= 1
    combos = []
    for mask in range(8):
        edges = [e for i, e in enumerate([(0, 1), (0, 2), (1, 2)]) if mask >> i & 1]
        for loops in itertools.product((0, 1), repeat=3):
            g = Graph(range(3), edges, loops={v: m for v, m in enumerate(loops)})
            if g.min_degree() >= 1:
                combos.append(g)
    for gx, gy in itertools.product(combos, repeat=2):
        r = dominated_pair_min1(gx, gy)
        assert is_dominated(gx, r) and is_dominated(gy, r)
        union = {*gx.edges, *gy.edges}
        if len(union) == 3:
            assert len(r) >= 1
        else:
            assert len(r) == 2


def test_two_disjoint_paths_of_three():
    g = Graph(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
    r = dominated_pair_min1(g, g)
    assert len(r) >= 2
    assert is_dominated(g, r)


def test_matching_vs_matching_meets_bound():
    gx = Graph(range(4), [(0, 1), (2, 3)])
    gy = Graph(range(4), [(0, 2), (1, 3)])
    r = dominated_pair_min1(gx, gy)
    assert len(r) >= 2
    assert is_dominated(gx, r) and is_dominated(gy, r)


def shifted_copies(edges, size, copies):
    return [(u + size * k, v + size * k) for k in range(copies) for u, v in edges]


def test_pair_bound_on_three_copies_of_a_seven_vertex_pair():
    # only 6 vertices are a star center in neither graph, under the bound 7;
    # {0, 1, 2} + 7k is dominated in both graphs and has 9
    ex = [(0, 2), (0, 6), (1, 2), (1, 3), (1, 6), (2, 5), (4, 6)]
    ey = [(0, 1), (0, 3), (0, 6), (1, 3), (2, 5), (4, 5)]
    gx = Graph(range(21), shifted_copies(ex, 7, 3))
    gy = Graph(range(21), shifted_copies(ey, 7, 3))
    r = dominated_pair_min1(gx, gy)
    assert len(r) >= 7
    assert is_dominated(gx, r) and is_dominated(gy, r)


def random_pair_corpus(rng, count, max_n, densities):
    for _ in range(count):
        n = rng.randint(1, max_n)
        gx = random_loop_graph(n, rng.choice(densities), rng, min_degree=1)
        gy = random_loop_graph(n, rng.choice(densities), rng, min_degree=1)
        yield n, gx, gy


def test_pair_bound_on_random_corpus():
    rng = random.Random(1717)
    corpus = itertools.chain(
        random_pair_corpus(rng, 400, 14, [0.15, 0.3, 0.5]),
        random_pair_corpus(rng, 400, 40, [0.05, 0.1, 0.15]),
    )
    for n, gx, gy in corpus:
        r = dominated_pair_min1(gx, gy)
        assert len(r) >= math.ceil(n / 3)
        assert is_dominated(gx, r) and is_dominated(gy, r)


def test_star_union_colouring_is_proper_with_three_colours():
    rng = random.Random(1718)
    for n, gx, gy in random_pair_corpus(rng, 300, 40, [0.03, 0.05, 0.1, 0.3]):
        decomps = (star_loop_decomposition(gx), star_loop_decomposition(gy))
        colour = _star_union_colouring(sorted(gx.vertices), decomps)
        assert set(colour) == set(gx.vertices)
        assert set(colour.values()) <= {0, 1, 2}
        for stars in decomps:
            for center, leaves in stars.items():
                assert all(colour[leaf] != colour[center] for leaf in leaves)


def pinned_pair_corpus():
    """500 pairs, n 1-24, with extra loops so that every repair case of the
    decomposition fires, the looped-singleton absorption among them."""
    rng = random.Random(2020)
    for _ in range(500):
        n = rng.randint(1, 24)
        pair = []
        for _ in range(2):
            g = random_loop_graph(n, rng.choice([0.05, 0.1, 0.2, 0.35]), rng, min_degree=1)
            for v in range(n):
                if rng.random() < 0.15:
                    g.add_loop(v)
            pair.append(g)
        yield pair


def test_decompositions_and_pair_answers_are_pinned():
    digest = hashlib.sha256()
    for gx, gy in pinned_pair_corpus():
        for g in (gx, gy):
            stars = sorted((c, sorted(leaves)) for c, leaves in star_loop_decomposition(g).items())
            digest.update(repr(stars).encode())
        digest.update(repr(sorted(dominated_pair_min1(gx, gy))).encode())
    assert digest.hexdigest() == "7779b790196e236fcb675fe1899f3e6beaacb573106da139af700757837dd4f2"


def test_pair_rejects_mismatched_vertex_sets():
    with pytest.raises(ValueError):
        dominated_pair_min1(Graph([0, 1], [(0, 1)]), Graph([0, 2], [(0, 2)]))
    with pytest.raises(ValueError, match="graphs must share a vertex set"):
        simultaneous_dominated_min_degree(complete_graph(5), complete_graph(6), 14)


def test_pair_rejects_degree_zero():
    gx = Graph(range(2), [(0, 1)])
    gy = Graph(range(2))
    with pytest.raises(ValueError):
        dominated_pair_min1(gx, gy)


# -- dominated_min_degree ----------------------------------------------------------------


def complete_graph(n):
    return Graph(range(n), itertools.combinations(range(n), 2))


def test_k5_meets_bound_and_subset_oracle_agrees():
    g = complete_graph(5)
    r = dominated_min_degree(g, 4)
    target = math.ceil((1 - epsilon(4)) * 5)
    assert target == 3
    assert len(r) >= target and is_dominated(g, r)
    assert max_dominated_subset(g) == 4


def test_k16_delta_14():
    g = complete_graph(16)
    r = dominated_min_degree(g, 14)
    assert math.ceil((1 - epsilon(14)) * 16) == 13
    assert len(r) >= 13 and is_dominated(g, r)


def test_star_with_looped_leaves():
    g = Graph(range(3), [(0, 1), (0, 2)], loops={1: 1, 2: 1})
    r = dominated_min_degree(g, 2)
    assert is_dominated(g, r)
    assert {1, 2} <= r or len(r) >= math.ceil((1 - epsilon(2)) * 3)


def test_min_degree_precondition():
    with pytest.raises(ValueError):
        dominated_min_degree(complete_graph(3), 4)
    with pytest.raises(ValueError):
        dominated_min_degree(complete_graph(5), 1)


def test_derandomized_fallback_deterministic_and_bounded(monkeypatch):
    monkeypatch.setattr(dominated, "_MAX_RETRIES", 0)
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(3, 12)
        delta = rng.choice([2, 3, 4])
        g = random_loop_graph(n, 0.4, rng, min_degree=delta)
        a = dominated_min_degree(g, delta)
        assert a == dominated._derandomized_round(g, 1 - math.log(delta + 1) / (delta + 1))
        target = math.ceil((1 - epsilon(delta)) * n)
        assert len(a) >= target and is_dominated(g, a)


def test_randomized_path_bound_on_corpus():
    rng = random.Random(56)
    for _ in range(120):
        n = rng.randint(3, 25)
        delta = rng.choice([2, 3, 4])
        g = random_loop_graph(n, 0.5, rng, min_degree=delta)
        r = dominated_min_degree(g, delta)
        assert len(r) >= math.ceil((1 - epsilon(delta)) * n)
        assert is_dominated(g, r)


# -- simultaneous ----------------------------------------------------------------------


def test_identical_graphs_reduce_to_single():
    g = complete_graph(16)
    r = simultaneous_dominated_min_degree(g, g, 14)
    assert len(r) >= math.ceil((1 - 2 * epsilon(14)) * 16)
    assert is_dominated(g, r)


def test_two_random_regular_graphs():
    nx = pytest.importorskip("networkx")
    gx_nx = nx.random_regular_graph(15, 100, seed=5)
    gy_nx = nx.random_regular_graph(15, 100, seed=6)
    gx = Graph(range(100), gx_nx.edges())
    gy = Graph(range(100), gy_nx.edges())
    r = simultaneous_dominated_min_degree(gx, gy, 14)
    assert len(r) >= 51
    assert is_dominated(gx, r) and is_dominated(gy, r)


def test_simultaneous_requires_delta_14():
    g = complete_graph(5)
    with pytest.raises(ValueError):
        simultaneous_dominated_min_degree(g, g, 4)


def test_empty_vertex_set_gives_empty_result():
    g = Graph([])
    assert dominated_pair_min1(g, g) == frozenset()
    assert dominated_min_degree(g, 2) == frozenset()
    assert simultaneous_dominated_min_degree(g, g, 14) == frozenset()
