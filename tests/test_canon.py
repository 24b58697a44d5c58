"""Canonical form tests, cross-validated against all-permutation minimization."""

import itertools
import random

from trace_turan import Hypergraph3, canonical_form, canonical_index_sequence, is_canonical_labeling
from trace_turan.canon import _twin_classes
from trace_turan.constructions import lift_to_trace_free, polarity_graph
from trace_turan.indexing import all_triples, edge_indices

from helpers import (
    brute_force_min_index_sequence,
    random_hypergraph,
    reference_index_sequence,
    reference_is_canonical,
    relabelled_lift,
)


def test_relabelled_single_edges_agree():
    a = Hypergraph3(4, [(0, 1, 2)])
    b = Hypergraph3(4, [(1, 2, 3)])
    assert canonical_form(a) == canonical_form(b)


def test_shared_pair_shapes_agree():
    a = Hypergraph3(4, [(0, 1, 2), (0, 1, 3)])
    b = Hypergraph3(4, [(0, 1, 2), (0, 2, 3)])
    assert canonical_form(a) == canonical_form(b)


def test_intersection_size_distinguishes():
    shared_pair = Hypergraph3(5, [(0, 1, 2), (0, 1, 3)])
    shared_vertex = Hypergraph3(5, [(0, 1, 2), (0, 3, 4)])
    assert canonical_form(shared_pair) != canonical_form(shared_vertex)


def test_empty_and_complete_are_cheap_fixed_points():
    empty = Hypergraph3(9)
    assert canonical_index_sequence(empty) == ()
    assert is_canonical_labeling(empty)
    comp = Hypergraph3(7, itertools.combinations(range(7), 3))
    assert is_canonical_labeling(comp)
    assert canonical_index_sequence(comp) == edge_indices(comp.edges)


def test_matches_brute_force_on_random_instances():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(3, 6)
        h = random_hypergraph(n, rng.choice([0.15, 0.3, 0.5]), rng)
        assert canonical_index_sequence(h) == brute_force_min_index_sequence(h)


def test_matches_brute_force_n7():
    rng = random.Random(4)
    for _ in range(6):
        h = random_hypergraph(7, 0.25, rng)
        assert canonical_index_sequence(h) == brute_force_min_index_sequence(h)


def test_matches_brute_force_n8():
    rng = random.Random(42)
    for density in (0.1, 0.2, 0.35):
        h = random_hypergraph(8, density, rng)
        assert canonical_index_sequence(h) == brute_force_min_index_sequence(h)


def test_isomorphic_relabelings_share_form():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(4, 7)
        h = random_hypergraph(n, 0.3, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Hypergraph3(n, [tuple(sorted(perm[v] for v in e)) for e in h.edges])
        assert canonical_form(h) == canonical_form(relabeled)


def test_is_canonical_labeling_consistent_with_sequence():
    rng = random.Random(23)
    for _ in range(80):
        h = random_hypergraph(6, 0.3, rng)
        own = edge_indices(h.edges)
        assert is_canonical_labeling(h) == (own == canonical_index_sequence(h))


def test_canonical_parent_property():
    # dropping the largest edge of a canonical sequence stays canonical;
    # this is what makes the orderly search complete
    from trace_turan.indexing import all_triples, triple_index

    rng = random.Random(31)
    by_index = {triple_index(*e): e for e in all_triples(6)}
    for _ in range(60):
        h = random_hypergraph(6, 0.35, rng)
        if not h.edge_count:
            continue
        seq = canonical_index_sequence(h)
        canon = Hypergraph3(6, [by_index[i] for i in seq])
        assert is_canonical_labeling(canon)
        parent = Hypergraph3(6, [by_index[i] for i in seq[:-1]])
        assert is_canonical_labeling(parent)


# -- A/B against the earlier minimizer kept in tests/helpers -----------------------


def _from_sequence(n, seq):
    triples = all_triples(n)
    return Hypergraph3(n, [triples[i] for i in seq])


def _relabel(h, perm):
    return Hypergraph3(h.n, [tuple(sorted(perm[v] for v in e)) for e in h.edges])


def test_matches_reference_on_random_instances_n7_to_n9():
    rng = random.Random(2718)
    for n in (7, 8, 9):
        for density in (0.1, 0.2, 0.3, 0.5, 0.8):
            h = random_hypergraph(n, density, rng)
            assert canonical_index_sequence(h) == reference_index_sequence(h)
            assert is_canonical_labeling(h) == reference_is_canonical(h)


def test_matches_reference_on_canonical_inputs():
    # random inputs are almost never canonical, so relabel each to its
    # canonical sequence; a relabelling that changes the sequence must fail
    rng = random.Random(1618)
    for _ in range(20):
        n = rng.randint(7, 9)
        h = random_hypergraph(n, rng.choice([0.15, 0.3, 0.5]), rng)
        seq = canonical_index_sequence(h)
        assert seq == reference_index_sequence(h)
        canon = _from_sequence(n, seq)
        assert is_canonical_labeling(canon) and reference_is_canonical(canon)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            moved = _relabel(canon, perm)
            if edge_indices(moved.edges) != seq:
                assert not is_canonical_labeling(moved)
                assert not reference_is_canonical(moved)
                break
        else:
            raise AssertionError("no relabelling changed the sequence")


def test_matches_reference_on_empty_and_complete_n9():
    for h in (Hypergraph3(9), Hypergraph3(9, itertools.combinations(range(9), 3))):
        assert canonical_index_sequence(h) == reference_index_sequence(h)
        assert is_canonical_labeling(h) and reference_is_canonical(h)


def test_matches_reference_on_sparse_relabelled_inputs():
    # sparse inputs with isolated vertices leave many tied blocks shorter
    # than the incumbent's, which is where a branch is pruned at its end;
    # a labelling is canonical iff its own sequence is the reference one
    rng = random.Random(314)
    for _ in range(24):
        n = rng.randint(7, 9)
        support = n - rng.randint(1, 3)  # the rest stay isolated
        sparse = random_hypergraph(support, rng.uniform(0.03, 0.15), rng)
        h = Hypergraph3(n, sparse.edges)
        ref = reference_index_sequence(h)
        canon = _from_sequence(n, ref)
        perm = list(range(n))
        rng.shuffle(perm)
        for g in (h, canon, _relabel(canon, perm)):
            assert canonical_index_sequence(g) == ref
            assert is_canonical_labeling(g) == (edge_indices(g.edges) == ref)


def _symmetric_inputs():
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    yield Hypergraph3(7, fano)
    yield Hypergraph3(7, [e for e in all_triples(7) if e not in fano])
    for n in (6, 7, 8, 9):  # tight cycles C_n^(3)
        yield Hypergraph3(n, [tuple(sorted((i, (i + 1) % n, (i + 2) % n))) for i in range(n)])
    two_k4 = [e for part in ((0, 1, 2, 3), (4, 5, 6, 7)) for e in itertools.combinations(part, 3)]
    yield Hypergraph3(8, two_k4)
    for n in (0, 2, 3):
        yield Hypergraph3(n)
    yield Hypergraph3(3, [(0, 1, 2)])


def test_matches_reference_on_symmetric_inputs():
    # large automorphism groups that twin classes leave (nearly) whole: no
    # transposition of the Fano plane or of a tight cycle is an automorphism,
    # and the two K_4^(3) swap as blocks, so many tied branches are searched
    rng = random.Random(1729)
    for h in _symmetric_inputs():
        ref = reference_index_sequence(h)
        canon = _from_sequence(h.n, ref)
        variants = [h, canon]
        for _ in range(10):
            perm = list(range(h.n))
            rng.shuffle(perm)
            variants.append(_relabel(h, perm))
        for g in variants:
            assert canonical_index_sequence(g) == ref
            assert is_canonical_labeling(g) == reference_is_canonical(g)
            assert is_canonical_labeling(g) == (edge_indices(g.edges) == ref)


def test_decide_walk_reports_automorphisms():
    # each leaf the decide-only walk reaches ties h's own sequence, so each
    # permutation it reports maps h's edges onto themselves; a canonical
    # input reports the identity, and an input with no twins reports its
    # whole group: 168 for the Fano plane, 2n for a tight cycle on n >= 7
    rng = random.Random(577)
    inputs = [_from_sequence(h.n, reference_index_sequence(h)) for h in _symmetric_inputs()]
    inputs += [random_hypergraph(rng.randint(5, 8), rng.choice([0.15, 0.3]), rng) for _ in range(30)]
    for h in inputs:
        found = []
        verdict = is_canonical_labeling(h, found)
        assert verdict == reference_is_canonical(h)
        assert all(set(_relabel(h, p).edges) == set(h.edges) for p in found)
        if verdict:
            assert list(range(h.n)) in found
    sizes = []
    for h in inputs[:5]:  # Fano, its complement, tight cycles on 6..8
        found = []
        is_canonical_labeling(h, found)
        sizes.append(len(found))
    assert sizes[0] == 168 and sizes[3:] == [14, 16]


def _brute_force_twin_classes(h):
    """v and w share a class when swapping them maps the edge set onto
    itself; every pair is tested, so no equivalence is assumed."""
    edges = set(h.edges)

    def swap_fixes(v, w):
        swap = {v: w, w: v}
        return all(tuple(sorted(swap.get(u, u) for u in e)) in edges for e in edges)

    return sorted({tuple(w for w in range(h.n) if w == v or swap_fixes(v, w)) for v in range(h.n)})


def test_twin_classes_match_brute_force():
    rng = random.Random(2718)
    inputs = [Hypergraph3(n) for n in range(10)]
    inputs += [Hypergraph3(n, itertools.combinations(range(n), 3)) for n in range(10)]
    # isolated vertices beside a complete part and beside a random part
    inputs += [Hypergraph3(9, itertools.combinations(range(k), 3)) for k in (3, 5, 7)]
    inputs += [Hypergraph3(9, random_hypergraph(6, 0.4, rng).edges) for _ in range(10)]
    inputs += [lift_to_trace_free(polarity_graph(q)) for q in (2, 3)]
    inputs += [relabelled_lift(q) for q in (2, 3)]
    for _ in range(300):
        n = rng.randrange(10)
        inputs.append(random_hypergraph(n, rng.choice([0.05, 0.2, 0.5, 0.8, 0.95]), rng))
    for h in inputs:
        assert [tuple(c) for c in _twin_classes(h)] == _brute_force_twin_classes(h)
