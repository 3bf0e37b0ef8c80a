"""Graphs, quadratic-residue machinery, Paley graphs, exact independence
numbers, and edge-colored graph equivalence.

Vertices are always 0..n-1. Undirected edges are stored as (i, j) pairs with
i < j. Exact searches carry explicit budgets: independence n <= 64 on the
graph searched, and RELABEL_BUDGET candidates for the one relabeling search
(colored_equivalence), which also maps graphs onto Paley graphs.

The independence search takes every vertex of degree <= 1 before it
branches, which solves paths, trees and cycles almost at once, and keeps
the maximum set it found as a bitmask. The lexicographically smallest
maximum independent set is built vertex by vertex from that known set: a
vertex in it is kept with no search, any other vertex costs a decision
search that stops as soon as the rest of the set is known to fit and,
when it succeeds, replaces the known set. A vertex whose decision fails
can lie in no later maximum set (max_independent_set gives the proof), so
it leaves the candidates. Paley graphs are searched through the common
non-neighbours of one non-edge, (q - 5) / 4 vertices
(paley_independent_set), so the 64-vertex cap admits q <= 257.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import BadOrder, NotPrime, SizeMismatch, TooLarge
from .jsonio import is_int
from .record import Record

INDEPENDENCE_BUDGET = 64
RELABEL_BUDGET = 10 ** 5   # candidates colored_equivalence may try


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    i, j = operator.index(i), operator.index(j)   # numpy ints overflow masks
    return (i, j) if i < j else (j, i)


def _adjacency_masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for (i, j) in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


class Graph(Record):
    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise BadOrder("negative vertex count", n=self.n)
        for (i, j) in self.edges:
            if not (0 <= i < j < self.n):
                raise BadOrder("edge outside vertex range or self-loop",
                               edge=[i, j], n=self.n)

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and _norm_edge(i, j) in self.edges

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def adjacency_masks(self) -> list[int]:
        return _adjacency_masks(self.n, self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def from_json(obj: dict) -> "Graph":
        n, edges = obj["n"], [tuple(e) for e in obj["edges"]]
        if not is_int(n) or n < 0:
            raise ValueError(f"vertex count must be a non-negative integer, "
                             f"not {n!r}")
        for e in edges:
            if not all(is_int(x) for x in e):
                raise ValueError(f"edge endpoints must be integers, not {e!r}")
        return graph(n, edges)


def graph(n: int, edges) -> Graph:
    return Graph(n, frozenset(_norm_edge(i, j) for (i, j) in edges))


def complete(n: int) -> Graph:
    return graph(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadOrder("cycle needs n >= 3", n=n)
    return graph(n, (((i, (i + 1) % n)) for i in range(n)))


def complement(g: Graph) -> Graph:
    all_pairs = frozenset(itertools.combinations(range(g.n), 2))
    return Graph(g.n, all_pairs - g.edges)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    adj = g.adjacency_masks()
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        m = adj[v] & ~seen
        while m:
            w = (m & -m).bit_length() - 1
            seen |= 1 << w
            frontier.append(w)
            m &= m - 1
    return seen == (1 << g.n) - 1


def is_cycle(g: Graph) -> bool:
    """True iff g is 2-regular and 2-connected, i.e. a single n-cycle.

    For a finite 2-regular graph (a disjoint union of cycles), 2-connectedness
    is equivalent to connectedness, so that is what gets checked.
    """
    if g.n < 3:
        return False
    if any(m.bit_count() != 2 for m in g.adjacency_masks()):
        return False
    return is_connected(g)


def _max_independent_branch(adj: list[int], cand: int, size: int, mask: int,
                            best: list[int], stop: int) -> None:
    """Raises best to [size + alpha(cand), mask plus a maximum set of cand]
    if that is larger; returns early once best[0] >= stop.

    A candidate of degree <= 1 inside cand is always taken: some maximum
    independent set contains it. Otherwise the search branches on a vertex
    of largest degree; the include branch recurses and the exclude branch
    continues the loop, so the recursion depth is at most alpha + 1. The
    candidate count bounds every node.
    """
    while True:
        if size + cand.bit_count() <= best[0]:
            return
        if cand == 0:
            best[0], best[1] = size, mask
            return
        v, vdeg = -1, -1
        m = cand
        while m:
            u = (m & -m).bit_length() - 1
            d = (adj[u] & cand).bit_count()
            if d <= 1:
                v, vdeg = u, d
                break
            if d > vdeg:
                v, vdeg = u, d
            m &= m - 1
        if vdeg <= 1:
            size += 1
            mask |= 1 << v
            cand &= ~(adj[v] | (1 << v))
            continue
        _max_independent_branch(adj, cand & ~(adj[v] | (1 << v)), size + 1,
                                mask | 1 << v, best, stop)
        if best[0] >= stop:
            return
        cand &= ~(1 << v)


def _maximum_set(g: Graph) -> tuple[list[int], list[int]]:
    """(adjacency masks, [alpha, a maximum independent set as a bitmask])."""
    if g.n > INDEPENDENCE_BUDGET:
        raise TooLarge("independence search budget exceeded",
                       n=g.n, budget=INDEPENDENCE_BUDGET)
    adj = g.adjacency_masks()
    best = [0, 0]
    _max_independent_branch(adj, (1 << g.n) - 1, 0, 0, best, g.n + 1)
    return adj, best


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size (n <= 64): branch and bound on a
    vertex of largest degree, after taking every vertex of degree <= 1."""
    return _maximum_set(g)[1][0]


def max_independent_set(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Independence number plus the lexicographically smallest witness.

    The search for alpha also yields a maximum set, the known set. Each
    vertex v of cand in turn is kept if the rest of a maximum set still
    fits among its non-neighbours, and the known set is always such a set
    for the vertices chosen so far. A vertex in the known set is kept with
    no search. Any other vertex costs a decision, alpha(sub) >= need - 1,
    searched from an incumbent of need - 2 that stops once it finds
    need - 1; a success makes the set it found the known set.

    A vertex whose decision fails leaves cand for good. Suppose it was
    rejected with cand K and need k, and a later step, with the vertices
    C chosen since, had a maximum set S of its cand holding it. Each vertex
    of C lies in K, and the later cand excludes C and its neighbours, so
    S + C is an independent set of k vertices in K that holds the rejected
    vertex: it would have been kept.
    """
    adj, (alpha, known) = _maximum_set(g)
    chosen: list[int] = []
    cand = (1 << g.n) - 1
    need = alpha
    for v in range(g.n):
        if need == 0:
            break
        if not (cand >> v) & 1:
            continue
        sub = cand & ~(adj[v] | (1 << v))
        if not (known >> v) & 1:
            best = [need - 2, 0]
            _max_independent_branch(adj, sub, 0, 0, best, need - 1)
            if best[0] < need - 1:
                cand &= ~(1 << v)
                continue
            known = best[1]
        chosen.append(v)
        cand = sub
        need -= 1
    return alpha, tuple(chosen)


def paley_independent_set(q: int) -> tuple[int, tuple[int, ...]]:
    """max_independent_set(paley(q)) through one arc's common
    non-neighbours, so the search runs on (q - 5) / 4 vertices.

    Translations make Paley graphs vertex-transitive, so 0 lies in some
    maximum set. Multiplying by the squares fixes 0 and carries any
    non-square onto the smallest one, n0; so a maximum set holding 0 and
    n0 exists, and alpha = 2 + alpha(H), H induced on the common
    non-neighbours of 0 and n0. Those are non-squares, so all exceed n0,
    while 1 .. n0 - 1 are squares, adjacent to 0. The witness 0, n0, then
    H's lex-smallest set (H relabeled in order) is therefore the
    lex-smallest witness of paley(q). The 64-vertex cap applies to H, and
    is checked on q before paley(q) is built.
    """
    _paley_field(q)
    if (q - 5) // 4 > INDEPENDENCE_BUDGET:
        raise TooLarge("independence search budget exceeded",
                       n=(q - 5) // 4, budget=INDEPENDENCE_BUDGET)
    adj = paley(q).adjacency_masks()
    far = ~adj[0] & ((1 << q) - 2)          # the non-squares
    n0 = (far & -far).bit_length() - 1
    rest = far & ~adj[n0] & ~(1 << n0)
    verts = [v for v in range(q) if (rest >> v) & 1]
    h = graph(len(verts), [(a, b) for b, w in enumerate(verts)
                           for a, u in enumerate(verts[:b])
                           if (adj[u] >> w) & 1])
    alpha, witness = max_independent_set(h)
    return alpha + 2, (0, n0) + tuple(verts[i] for i in witness)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


def quadratic_residues(p: int) -> set[int]:
    """Nonzero squares mod an odd prime p; cardinality (p-1)/2."""
    if not is_prime(p) or p == 2:
        raise NotPrime("p must be an odd prime", p=p)
    return {(x * x) % p for x in range(1, p)}


def smallest_nonresidue(p: int) -> int:
    q = quadratic_residues(p)
    return min(x for x in range(2, p) if x not in q)


class GaloisField(Record):
    """GF(p) or GF(p^2) with reduction polynomial x^2 - s (s the smallest
    non-square mod p). Elements are encoded as integers a + b*p with
    a, b in 0..p-1 representing a + b*x."""

    p: int
    degree: int
    s: int = 0

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def sub(self, u: int, v: int) -> int:
        p = self.p
        if self.degree == 1:
            return (u - v) % p
        return (u % p - v % p) % p + (((u // p) - (v // p)) % p) * p

    def mul(self, u: int, v: int) -> int:
        p = self.p
        if self.degree == 1:
            return (u * v) % p
        a1, b1 = u % p, u // p
        a2, b2 = v % p, v // p
        return (a1 * a2 + self.s * b1 * b2) % p + ((a1 * b2 + a2 * b1) % p) * p


def galois_field(q: int) -> GaloisField:
    if is_prime(q) and q % 2 == 1:
        return GaloisField(q, 1)
    r = math.isqrt(q) if q >= 2 else 0
    if r * r == q and is_prime(r) and r % 2 == 1:
        return GaloisField(r, 2, smallest_nonresidue(r))
    raise BadOrder("order must be an odd prime or the square of one", q=q)


def _paley_field(q: int) -> GaloisField:
    if q % 4 != 1:
        raise BadOrder("Paley graph needs q = 1 mod 4", q=q)
    return galois_field(q)


def paley(q: int) -> Graph:
    """Paley graph on GF(q), q = p or p^2 with q = 1 mod 4: edges join pairs
    whose difference is a nonzero square."""
    gf = _paley_field(q)
    squares = {gf.mul(x, x) for x in range(1, q)}
    edges = [(i, j) for i in range(q) for j in range(i + 1, q)
             if gf.sub(j, i) in squares]
    return graph(q, edges)


def paley_relabeling(g: Graph):
    """Map, vertex v of g to perm[v], carrying g onto paley(g.n)
    (colored_equivalence), or None if there is none or the search meets its
    node budget first."""
    try:
        return colored_equivalence(g, paley(g.n))
    except TooLarge:
        return None


class EdgeColoredGraph(Record):
    """Complete orthogonality structure of a product set: each present edge
    maps to the nonempty set of parties realizing it."""

    n: int
    color: dict

    def colorset(self, i: int, j: int):
        return self.color.get(_norm_edge(i, j))

    def to_json(self) -> dict:
        items = sorted((e, sorted(c)) for e, c in self.color.items())
        return {"n": self.n, "edges": [[e[0], e[1], c] for e, c in items]}


def edge_colored_graph(n: int, color: dict) -> EdgeColoredGraph:
    norm = {}
    for (i, j), parties in color.items():
        parties = frozenset(parties)
        if not parties:
            raise BadOrder("colored edge with empty party set", edge=[i, j])
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise BadOrder("edge outside vertex range", edge=[i, j], n=n)
        norm[_norm_edge(i, j)] = parties
    return EdgeColoredGraph(n, norm)


def _color_rows(g) -> list[dict]:
    """Per vertex v, each color at v -> the bitset of the vertices joined to
    v in that color. A Graph's edges share one color, and a missing edge is
    one more color, None."""
    if isinstance(g, EdgeColoredGraph):
        classes: dict = {}
        for e, c in g.color.items():
            classes.setdefault(c, []).append(e)
    else:
        classes = {0: g.edges}
    rows = [{} for _ in range(g.n)]
    for c, edges in classes.items():
        for row, m in zip(rows, _adjacency_masks(g.n, edges)):
            if m:
                row[c] = m
    full = (1 << g.n) - 1
    for v, row in enumerate(rows):
        missing = full & ~(sum(row.values()) | 1 << v)   # classes are disjoint
        if missing:
            row[None] = missing
    return rows


def colored_equivalence(a, b):
    """Permutation pi with color_a(u,v) == color_b(pi(u),pi(v)) for all pairs,
    or None. a and b are EdgeColoredGraphs, or Graphs (one edge color).

    Each vertex v of a starts with the vertices of b that have its
    color-degree signature as candidates. Mapping v to x keeps, for each
    unmapped w, only the candidates in x's color class of color_a(v, w), so
    x leaves every list; a branch where some list empties is pruned. The
    unmapped vertex with the fewest candidates (lowest index on ties) is
    mapped next, trying its candidates lowest first, one node each. Past
    RELABEL_BUDGET nodes the search raises TooLarge.
    """
    if a.n != b.n:
        raise SizeMismatch("vertex counts differ", a=a.n, b=b.n)
    if a.n == 0:
        return ()
    rows_a, rows_b = _color_rows(a), _color_rows(b)

    def signature(row):
        return frozenset((c, m.bit_count()) for c, m in row.items())

    by_signature: dict = {}
    for x, row in enumerate(rows_b):
        s = signature(row)
        by_signature[s] = by_signature.get(s, 0) | 1 << x

    full = (1 << a.n) - 1
    mapped = full | 1 << a.n   # more candidates than any vertex can have

    def narrowed(cands, free, v, x):
        # cands once v maps to x; None if some unmapped vertex has none left
        out = list(cands)
        out[v] = mapped
        for c, m in rows_a[v].items():
            image, m = rows_b[x][c], m & free
            while m:
                w = (m & -m).bit_length() - 1
                out[w] &= image
                if not out[w]:
                    return None
                m &= m - 1
        return out

    def frame(cands, free):
        # [vertex to map, its untried candidates, all candidates, the rest]
        sizes = list(map(int.bit_count, cands))
        v = sizes.index(min(sizes))
        return [v, cands[v], cands, free & ~(1 << v)]

    perm = [0] * a.n
    cands = [by_signature.get(signature(row), 0) for row in rows_a]
    stack, nodes = [frame(cands, full)], 0
    while stack:
        top = stack[-1]
        v, untried, cands, free = top
        if not untried:
            stack.pop()
            continue
        if nodes == RELABEL_BUDGET:
            raise TooLarge("relabeling search budget exceeded",
                           nodes=nodes, budget=RELABEL_BUDGET)
        nodes += 1
        x = (untried & -untried).bit_length() - 1
        top[1] = untried & (untried - 1)
        rest = narrowed(cands, free, v, x)
        if rest is not None:
            perm[v] = x
            if not free:
                return tuple(perm)
            stack.append(frame(rest, free))
    return None
