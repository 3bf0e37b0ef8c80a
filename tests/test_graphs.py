import itertools
import random
import sys

import numpy as np
import pytest

from ctxupb.errors import BadOrder, NotPrime, SizeMismatch, TooLarge
from ctxupb.graphs import (EQUIVALENCE_BUDGET, Graph, colored_equivalence,
                           complement, complete, cycle, edge_colored_graph,
                           galois_field, graph, independence_number, is_cycle,
                           max_independent_set, paley, quadratic_residues,
                           smallest_nonresidue)


def brute_force_witness(g):
    """(alpha, lexicographically smallest maximum independent set)."""
    adj = g.adjacency_masks()
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            mask = sum(1 << v for v in sub)
            if all(not adj[v] & mask for v in sub):
                return r, sub
    return 0, ()


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph(n, edges)


class TestBasics:
    def test_cycle3_is_triangle(self):
        assert cycle(3).edges == complete(3).edges

    def test_cycle5_pentagon(self):
        g = cycle(5)
        assert len(g.edges) == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_cycle5_self_complementary_up_to_relabeling(self):
        g = cycle(5)
        h = complement(g)
        relabeled = graph(5, (((2 * i) % 5, (2 * j) % 5) for i, j in h.edges))
        assert relabeled.edges == g.edges

    def test_cycle_rejects_small(self):
        with pytest.raises(BadOrder):
            cycle(2)

    def test_complement_of_complete_is_empty(self):
        assert complement(complete(6)).edges == frozenset()

    def test_complement_involution(self, rng):
        for n in (1, 4, 9):
            g = random_graph(rng, n)
            assert complement(complement(g)).edges == g.edges

    def test_cycle7_complement_counts(self):
        h = complement(cycle(7))
        assert len(h.edges) == 21 - 7
        assert all(h.degree(v) == 4 for v in range(7))

    def test_union_with_complement_is_complete(self, rng):
        g = random_graph(rng, 7)
        assert g.edges | complement(g).edges == complete(7).edges


class TestIsCycle:
    def test_cycles_pass(self):
        for n in (3, 5, 7, 12):
            assert is_cycle(cycle(n))

    def test_two_triangles_fail(self):
        g = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert all(g.degree(v) == 2 for v in range(6))
        assert not is_cycle(g)

    def test_path_fails(self):
        assert not is_cycle(graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_edge_removal_fails(self):
        g = cycle(7)
        edges = list(g.edges)
        for e in edges:
            assert not is_cycle(graph(7, set(edges) - {e}))


class TestIndependence:
    def test_known_values(self):
        assert independence_number(cycle(5)) == 2
        assert independence_number(complete(8)) == 1
        assert independence_number(paley(13)) == 3
        assert independence_number(paley(25)) == 5

    def test_matches_brute_force(self, rng):
        for n in (4, 7, 10, 12):
            for _ in range(4):
                g = random_graph(rng, n, p=rng.uniform(0.1, 0.7))
                assert independence_number(g) == brute_force_witness(g)[0]

    def test_budget(self):
        with pytest.raises(TooLarge):
            independence_number(graph(65, []))

    def test_witness_is_lex_smallest(self, rng):
        for _ in range(6):
            g = random_graph(rng, 8)
            size, witness = max_independent_set(g)
            assert len(witness) == size == independence_number(g)
            assert all(not g.has_edge(i, j)
                       for i, j in itertools.combinations(witness, 2))
            best = min((s for r in [size]
                        for s in itertools.combinations(range(g.n), r)
                        if all(not g.has_edge(i, j)
                               for i, j in itertools.combinations(s, 2))))
            assert tuple(witness) == best

    def test_clique_number_duality(self, rng):
        # alpha of the complement equals the clique number
        for _ in range(4):
            g = random_graph(rng, 9)
            want = max((r for r in range(1, 10)
                        for s in itertools.combinations(range(9), r)
                        if all(g.has_edge(i, j)
                               for i, j in itertools.combinations(s, 2))),
                       default=1)
            assert independence_number(complement(g)) == want


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def random_tree(rng, n):
    return graph(n, [(int(rng.integers(v)), v) for v in range(1, n)])


def disjoint_union(*gs):
    edges, offset = [], 0
    for g in gs:
        edges += [(i + offset, j + offset) for i, j in g.edges]
        offset += g.n
    return graph(offset, edges)


def with_pendants(g, anchors):
    """g plus one new leaf hung on each anchor vertex."""
    return graph(g.n + len(anchors),
                 list(g.edges) + [(a, g.n + k) for k, a in enumerate(anchors)])


def relabeled(g, rng):
    perm = rng.permutation(g.n)
    return graph(g.n, [(int(perm[i]), int(perm[j])) for i, j in g.edges])


def low_degree_graphs():
    rng = np.random.default_rng(20261018)
    cases = {"n0": graph(0, []), "n1": graph(1, []), "empty-9": graph(9, []),
             "star-8": graph(8, [(0, v) for v in range(1, 8)])}
    for n in (2, 3, 4, 7, 12):
        cases[f"path-{n}"] = path(n)
        cases[f"path-{n}-relabeled"] = relabeled(path(n), rng)
    for t in range(6):
        cases[f"tree-{t}"] = relabeled(random_tree(rng, 6 + t), rng)
    cases["cycle-5-pendant"] = with_pendants(cycle(5), [0])
    cases["cycle-6-pendants"] = with_pendants(cycle(6), [0, 3])
    cases["cycle-7-pendants"] = relabeled(
        with_pendants(cycle(7), [1, 2, 4, 4]), rng)
    cases["cycles-3-5"] = disjoint_union(cycle(3), cycle(5))
    cases["cycles-4-4-5"] = relabeled(
        disjoint_union(cycle(4), cycle(4), cycle(5)), rng)
    cases["cycles-7-6"] = relabeled(disjoint_union(cycle(7), cycle(6)), rng)
    for p in (0.05, 0.1, 0.2, 0.3):
        for t in range(4):
            n = int(rng.integers(8, 15))
            cases[f"gnp-{p}-{t}"] = random_graph(rng, n, p)
    return cases


LOW_DEGREE_GRAPHS = low_degree_graphs()


@pytest.mark.parametrize("name", sorted(LOW_DEGREE_GRAPHS))
def test_search_matches_brute_force_oracle(name):
    g = LOW_DEGREE_GRAPHS[name]
    alpha, witness = brute_force_witness(g)
    assert independence_number(g) == alpha
    assert max_independent_set(g) == (alpha, witness)


def _pin_cycle(n, seed):
    # random.Random.random() is the one stream Python keeps across versions
    r = random.Random(seed)
    perm = sorted(range(n), key=lambda v: r.random())
    return graph(n, [(perm[i], perm[(i + 1) % n]) for i in range(n)])


def _pin_gnp(n, p, seed):
    r = random.Random(seed)
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if r.random() < p])


def _pin_graph(name):
    kind, _, arg = name.partition("-")
    if kind == "paley":
        return paley(int(arg))
    if kind == "G48":
        return _pin_gnp(48, 0.1, 4800 + int(arg))
    return _pin_cycle(int(kind[1:]), 1000 * int(kind[1:]) + int(arg))


# (alpha, witness) from the plain branch and bound (candidate-count bound
# only); the reductions and the decision-mode witness search keep them
PINNED_WITNESSES = {
    "C41-0": (20, (0, 1, 2, 3, 5, 6, 8, 10, 12, 14, 17, 18, 19, 21, 23, 27,
                   29, 33, 37, 39)),
    "C41-1": (20, (0, 1, 3, 4, 5, 6, 7, 8, 10, 14, 16, 17, 18, 22, 23, 27,
                   30, 34, 35, 39)),
    "C41-2": (20, (0, 1, 2, 3, 4, 6, 7, 10, 11, 12, 15, 19, 20, 22, 31, 32,
                   33, 34, 35, 37)),
    "C41-3": (20, (0, 1, 2, 3, 6, 7, 8, 10, 12, 14, 19, 20, 21, 26, 29, 30,
                   32, 33, 34, 40)),
    "C41-4": (20, (0, 1, 2, 4, 5, 6, 8, 10, 13, 15, 18, 21, 22, 24, 26, 27,
                   28, 30, 33, 40)),
    "C43-0": (21, (0, 1, 2, 3, 5, 7, 9, 16, 17, 19, 22, 26, 27, 31, 33, 36,
                   37, 39, 40, 41, 42)),
    "C43-1": (21, (0, 1, 2, 3, 5, 10, 11, 14, 15, 16, 17, 18, 19, 26, 28, 30,
                   33, 35, 38, 39, 41)),
    "C43-2": (21, (0, 1, 2, 3, 4, 5, 9, 10, 12, 14, 16, 20, 22, 23, 25, 26,
                   27, 32, 34, 36, 40)),
    "C43-3": (21, (0, 1, 2, 6, 8, 9, 10, 12, 16, 18, 20, 21, 24, 26, 28, 30,
                   31, 36, 37, 40, 42)),
    "C43-4": (21, (0, 1, 2, 4, 7, 8, 12, 15, 16, 18, 19, 25, 26, 27, 29, 30,
                   31, 32, 33, 35, 42)),
    "G48-0": (20, (0, 2, 5, 6, 7, 13, 14, 16, 18, 19, 23, 24, 25, 26, 28, 29,
                   30, 34, 35, 37)),
    "G48-1": (23, (1, 5, 6, 8, 9, 11, 12, 13, 14, 15, 16, 18, 23, 24, 27, 30,
                   33, 34, 35, 36, 40, 42, 43)),
    "G48-2": (20, (0, 1, 3, 4, 5, 6, 7, 11, 13, 25, 26, 28, 30, 34, 36, 40,
                   41, 42, 43, 46)),
    "G48-3": (21, (2, 3, 4, 6, 7, 10, 13, 14, 15, 16, 17, 18, 20, 22, 23, 24,
                   27, 28, 29, 31, 41)),
    "G48-4": (20, (0, 2, 4, 7, 8, 11, 13, 18, 19, 21, 22, 31, 35, 37, 40, 42,
                   43, 45, 46, 47)),
    "G48-5": (21, (0, 1, 2, 3, 4, 5, 9, 10, 14, 17, 19, 20, 21, 24, 25, 28,
                   31, 32, 35, 39, 45)),
    "G48-6": (19, (1, 3, 4, 5, 10, 11, 14, 17, 20, 23, 25, 27, 28, 36, 37,
                   38, 42, 43, 45)),
    "G48-7": (22, (0, 1, 6, 7, 10, 12, 15, 17, 19, 20, 21, 25, 28, 30, 31,
                   32, 35, 36, 38, 41, 42, 43)),
    "paley-29": (4, (0, 2, 10, 12)),
    "paley-37": (4, (0, 2, 8, 22)),
    "paley-41": (5, (0, 3, 6, 17, 30)),
    "paley-49": (7, (0, 8, 16, 24, 32, 40, 48)),
    "paley-53": (5, (0, 2, 5, 23, 35)),
    "paley-61": (5, (0, 2, 8, 10, 31)),
}


@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_pinned_witnesses(name):
    g = _pin_graph(name)
    alpha, witness = PINNED_WITNESSES[name]
    assert independence_number(g) == alpha
    assert max_independent_set(g) == (alpha, witness)


@pytest.mark.parametrize("g", [graph(64, []), path(64)],
                         ids=["empty-64", "path-64"])
def test_search_fits_small_recursion_limit(g):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        alpha, witness = max_independent_set(g)
    finally:
        sys.setrecursionlimit(limit)
    assert alpha == len(witness) == (64 if not g.edges else 32)
    assert witness == tuple(range(0, 64, 1 if not g.edges else 2))


class TestResidues:
    def test_q5(self):
        assert quadratic_residues(5) == {1, 4}

    def test_q13(self):
        assert quadratic_residues(13) == {1, 3, 4, 9, 10, 12}

    def test_cardinality_and_closure(self):
        for p in (5, 13, 17, 29):
            q = quadratic_residues(p)
            assert 1 in q
            assert len(q) == (p - 1) // 2
            assert all((a * b) % p in q for a in q for b in q)

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            quadratic_residues(15)


class TestGaloisField:
    @pytest.mark.parametrize("q", [9, 25])
    def test_field_axioms_exhaustive(self, q):
        gf = galois_field(q)
        els = range(q)

        def add(u, v):   # u + v = u - (0 - v); the field only subtracts
            return gf.sub(u, gf.sub(0, v))

        for a in els:
            assert add(a, 0) == a
            assert gf.mul(a, 1) == a
            assert add(a, gf.sub(0, a)) == 0
        for a in els:
            for b in els:
                assert add(a, b) == add(b, a)
                assert gf.mul(a, b) == gf.mul(b, a)
                if a != 0 and b != 0:
                    assert gf.mul(a, b) != 0  # no zero divisors
        rng = np.random.default_rng(q)
        for _ in range(200):
            a, b, c = rng.integers(0, q, size=3)
            assert gf.mul(int(a), add(int(b), int(c))) == \
                add(gf.mul(int(a), int(b)), gf.mul(int(a), int(c)))
            assert add(int(a), add(int(b), int(c))) == \
                add(add(int(a), int(b)), int(c))
            assert gf.mul(int(a), gf.mul(int(b), int(c))) == \
                gf.mul(gf.mul(int(a), int(b)), int(c))

    def test_multiplicative_inverses(self):
        gf = galois_field(9)
        for a in range(1, 9):
            assert sum(gf.mul(a, b) == 1 for b in range(9)) == 1

    def test_square_counts(self):
        # every nonzero square has exactly two square roots, x and -x
        for q in (9, 25):
            gf = galois_field(q)
            roots = [gf.mul(x, x) for x in range(1, q)]
            assert len(set(roots)) == (q - 1) // 2
            assert all(roots.count(e) == 2 for e in roots)

    @pytest.mark.parametrize("q", [-7, -3, 0, 1])
    def test_order_below_two_rejected(self, q):
        with pytest.raises(BadOrder):
            galois_field(q)


class TestPaley:
    def test_paley5_is_pentagon(self):
        g = paley(5)
        wrap = lambda gg: edge_colored_graph(gg.n,
                                             {e: {0} for e in gg.edges})
        assert colored_equivalence(wrap(g), wrap(cycle(5))) is not None

    def test_paley9_regular(self):
        g = paley(9)
        assert g.n == 9
        assert all(g.degree(v) == 4 for v in range(9))

    def test_paley13_self_complementary_by_search(self):
        g = paley(13)
        wrap = lambda gg: edge_colored_graph(gg.n,
                                             {e: {0} for e in gg.edges})
        assert colored_equivalence(wrap(g), wrap(complement(g))) is not None

    @pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29])
    def test_self_complementary_via_multiplier_witness(self, q):
        # multiplying by a non-square maps edges onto non-edges bijectively
        g = paley(q)
        assert g.n == q
        assert all(g.degree(v) == (q - 1) // 2 for v in range(q))
        gf = galois_field(q)
        squares = {gf.mul(e, e) for e in range(1, q)}
        x = next(e for e in range(1, q) if e not in squares)
        comp = complement(g)
        for (i, j) in g.edges:
            u, v = gf.mul(i, x), gf.mul(j, x)
            assert comp.has_edge(u, v)

    def test_rejects_bad_orders(self):
        for q in (7, 21, 27):
            with pytest.raises(BadOrder):
                paley(q)


class TestColoredEquivalence:
    def wrap_bipartition(self, edges1, n):
        # two-party coloring: edges1 get party 0, the rest party 1
        color = {}
        for i in range(n):
            for j in range(i + 1, n):
                color[(i, j)] = {0} if (i, j) in edges1 else {1}
        return edge_colored_graph(n, color)

    def test_identity(self):
        pent = {(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)}
        a = self.wrap_bipartition(pent, 5)
        perm = colored_equivalence(a, a)
        assert perm is not None
        b = {a.colorset(i, j) for i in range(5) for j in range(i + 1, 5)}
        assert perm == tuple(range(5)) or all(
            a.colorset(i, j) == a.colorset(perm[i], perm[j])
            for i in range(5) for j in range(i + 1, 5))

    def test_pentagon_vs_chorded_four_cycle_absent(self):
        pent = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        chord = {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}
        a = self.wrap_bipartition(pent, 5)
        b = self.wrap_bipartition(chord, 5)
        assert colored_equivalence(a, b) is None
        # oracle: exhaustive search over all 120 permutations
        found = False
        for perm in itertools.permutations(range(5)):
            if all(a.colorset(i, j) == b.colorset(perm[i], perm[j])
                   for i in range(5) for j in range(i + 1, 5)):
                found = True
        assert not found

    def test_size_mismatch_is_distinct_from_absent(self):
        a = self.wrap_bipartition({(0, 1)}, 3)
        b = self.wrap_bipartition({(0, 1)}, 4)
        with pytest.raises(SizeMismatch):
            colored_equivalence(a, b)

    def test_budget(self):
        n = EQUIVALENCE_BUDGET + 1
        color = {(i, i + 1): {0} for i in range(n - 1)}
        a = edge_colored_graph(n, color)
        with pytest.raises(TooLarge):
            colored_equivalence(a, a)

    def test_agrees_with_brute_force_on_random_colorings(self, rng):
        for trial in range(10):
            n = 5
            edges1 = {e for e in itertools.combinations(range(n), 2)
                      if rng.random() < 0.5}
            edges2 = {e for e in itertools.combinations(range(n), 2)
                      if rng.random() < 0.5}
            a = self.wrap_bipartition(edges1, n)
            b = self.wrap_bipartition(edges2, n)
            got = colored_equivalence(a, b)
            oracle = None
            for perm in itertools.permutations(range(n)):
                if all(a.colorset(i, j) == b.colorset(
                        min(perm[i], perm[j]), max(perm[i], perm[j]))
                       for i in range(n) for j in range(i + 1, n)):
                    oracle = perm
                    break
            assert (got is None) == (oracle is None)
            if got is not None:
                assert all(a.colorset(i, j) == b.colorset(got[i], got[j])
                           for i in range(n) for j in range(i + 1, n))


class TestSerialization:
    def test_json_roundtrip_sorted(self):
        g = graph(5, [(3, 0), (2, 4), (0, 2)])
        doc = g.to_json()
        assert doc["edges"] == sorted(doc["edges"])
        assert Graph.from_json(doc).edges == g.edges


def test_smallest_nonresidue():
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(13) == 2
    assert smallest_nonresidue(17) == 3


class TestOrder:
    def test_negative_order_rejected(self):
        with pytest.raises(BadOrder):
            graph(-1, [])

    @pytest.mark.parametrize("doc", [
        {"n": 3, "edges": [[0, 1.5]]},
        {"n": 3, "edges": [[0, True]]},
        {"n": -1, "edges": []},
        {"n": 2.5, "edges": []},
        {"n": "3", "edges": []},
    ], ids=["fractional-endpoint", "bool-endpoint", "negative-n",
            "fractional-n", "string-n"])
    def test_from_json_rejects_non_integers(self, doc):
        with pytest.raises(ValueError):
            Graph.from_json(doc)

    def test_is_cycle_on_irregular_degrees(self):
        # degree sum 2n but not 2-regular: a triangle with a pendant path
        g = graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert not is_cycle(g)
        assert not is_cycle(complement(cycle(7)))
