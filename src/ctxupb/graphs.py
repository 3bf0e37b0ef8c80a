"""Graphs, quadratic-residue machinery, Paley graphs, exact independence
numbers, and edge-colored graph equivalence.

Vertices are always 0..n-1. Undirected edges are stored as (i, j) pairs with
i < j. Exact searches carry explicit budgets (independence: n <= 64,
colored equivalence: n <= 16, relabeling onto a Paley graph:
RELABEL_BUDGET candidates).

The independence search takes every vertex of degree <= 1 before it
branches, which solves paths, trees and cycles almost at once. The
lexicographically smallest maximum independent set is built vertex by
vertex, each step a decision search that stops as soon as the rest of the
set is known to fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import BadOrder, NotPrime, SizeMismatch, TooLarge
from .jsonio import is_int

INDEPENDENCE_BUDGET = 64
EQUIVALENCE_BUDGET = 16
RELABEL_BUDGET = 10 ** 5   # candidates paley_relabeling may try


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
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
        adj = [0] * self.n
        for (i, j) in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

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


def _max_independent_branch(adj: list[int], cand: int, size: int,
                            best: list[int], stop: int) -> None:
    """Raises best[0] to size + alpha(cand) if that is larger; returns early
    once best[0] >= stop.

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
            best[0] = size
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
            cand &= ~(adj[v] | (1 << v))
            continue
        _max_independent_branch(adj, cand & ~(adj[v] | (1 << v)), size + 1,
                                best, stop)
        if best[0] >= stop:
            return
        cand &= ~(1 << v)


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size (n <= 64): branch and bound on a
    vertex of largest degree, after taking every vertex of degree <= 1."""
    if g.n > INDEPENDENCE_BUDGET:
        raise TooLarge("independence search budget exceeded",
                       n=g.n, budget=INDEPENDENCE_BUDGET)
    best = [0]
    _max_independent_branch(g.adjacency_masks(), (1 << g.n) - 1, 0, best,
                            g.n + 1)
    return best[0]


def max_independent_set(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Independence number plus the lexicographically smallest witness.

    Each vertex in turn is kept if the rest of a maximum set still fits among
    its non-neighbours. That is a decision, alpha(sub) >= need - 1, so each
    search starts from an incumbent of need - 2 and stops once it finds
    need - 1.
    """
    alpha = independence_number(g)
    adj = g.adjacency_masks()
    chosen: list[int] = []
    cand = (1 << g.n) - 1
    need = alpha
    for v in range(g.n):
        if need == 0:
            break
        if not (cand >> v) & 1:
            continue
        sub = cand & ~(adj[v] | (1 << v))
        best = [need - 2]
        _max_independent_branch(adj, sub, 0, best, need - 1)
        if best[0] >= need - 1:
            chosen.append(v)
            cand = sub
            need -= 1
    return alpha, tuple(chosen)


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


@dataclass(frozen=True)
class GaloisField:
    """GF(p) or GF(p^2) with reduction polynomial x^2 - s (s the smallest
    non-square mod p). Elements are encoded as integers a + b*p with
    a, b in 0..p-1 representing a + b*x."""

    p: int
    degree: int
    s: int = field(default=0)

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


def paley(q: int) -> Graph:
    """Paley graph on GF(q), q = p or p^2 with q = 1 mod 4: edges join pairs
    whose difference is a nonzero square."""
    if q % 4 != 1:
        raise BadOrder("Paley graph needs q = 1 mod 4", q=q)
    gf = galois_field(q)
    squares = {gf.mul(x, x) for x in range(1, q)}
    edges = [(i, j) for i in range(q) for j in range(i + 1, q)
             if gf.sub(j, i) in squares]
    return graph(q, edges)


def paley_relabeling(g: Graph):
    """Map, vertex v of g to perm[v], carrying g onto paley(g.n), or None
    if there is none or the search tries RELABEL_BUDGET nodes without one.

    Paley graphs are arc-transitive, so when some map exists, one sends the
    first edge of g to the arc (0, 1): the search fixes that arc. It then
    maps the unmapped vertex with the fewest candidates, each candidate in
    turn (one node each). A candidate of v is an unused vertex adjacent to
    the images of v's mapped neighbours and to no image of its mapped
    non-neighbours; a branch where some vertex has none is pruned.
    """
    target = paley(g.n)
    half = (g.n - 1) // 2
    gadj, padj = g.adjacency_masks(), target.adjacency_masks()
    if any(m.bit_count() != half for m in gadj):
        return None
    full = (1 << g.n) - 1
    pnon = [full & ~(m | 1 << x) for x, m in enumerate(padj)]

    def mapped(cands, v, x):
        # cands of the other vertices once v maps to x; None if one has none
        out = {}
        for w, c in cands.items():
            if w != v:
                c &= padj[x] if gadj[v] >> w & 1 else pnon[x]
                if not c:
                    return None
                out[w] = c
        return out

    u, v = min(g.edges)
    cands = mapped(dict.fromkeys(range(g.n), full), u, 0)
    cands = cands and mapped(cands, v, 1)
    stack, nodes = [(cands, {u: 0, v: 1})] if cands else [], 0
    while stack:
        cands, perm = stack.pop()
        if not cands:
            return tuple(perm[w] for w in range(g.n))
        w = min(cands, key=lambda x: cands[x].bit_count())
        m = cands[w]
        while m:
            if nodes == RELABEL_BUDGET:
                return None
            nodes += 1
            x = (m & -m).bit_length() - 1
            m &= m - 1
            rest = mapped(cands, w, x)
            if rest is not None:
                stack.append((rest, {**perm, w: x}))
    return None


@dataclass(frozen=True)
class EdgeColoredGraph:
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


def _color_signature(g: EdgeColoredGraph, v: int):
    sig = {}
    for (i, j), c in g.color.items():
        if v in (i, j):
            sig[c] = sig.get(c, 0) + 1
    return tuple(sorted(sig.items(), key=lambda kv: (sorted(kv[0]), kv[1])))


def colored_equivalence(a: EdgeColoredGraph, b: EdgeColoredGraph):
    """Permutation pi with color_a(u,v) == color_b(pi(u),pi(v)) for all pairs,
    or None. Backtracking with per-vertex color-degree signatures; vertex
    budget 16."""
    if a.n != b.n:
        raise SizeMismatch("vertex counts differ", a=a.n, b=b.n)
    n = a.n
    if n > EQUIVALENCE_BUDGET:
        raise TooLarge("colored equivalence budget exceeded",
                       n=n, budget=EQUIVALENCE_BUDGET)
    sig_a = [_color_signature(a, v) for v in range(n)]
    sig_b = [_color_signature(b, v) for v in range(n)]
    cands = [[w for w in range(n) if sig_b[w] == sig_a[v]] for v in range(n)]
    if any(not c for c in cands):
        return None
    order = sorted(range(n), key=lambda v: len(cands[v]))
    perm = [-1] * n
    used = [False] * n

    def consistent(v: int, w: int) -> bool:
        for u in order:
            x = perm[u]
            if x < 0:
                continue
            if a.colorset(v, u) != b.colorset(w, x):
                return False
        return True

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in cands[v]:
            if used[w] or not consistent(v, w):
                continue
            perm[v] = w
            used[w] = True
            if backtrack(k + 1):
                return True
            perm[v] = -1
            used[w] = False
        return False

    if backtrack(0):
        return tuple(perm)
    return None
