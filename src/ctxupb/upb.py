"""Orthogonal product sets: assembly, (un)extendibility verification,
minimality, bound entangled states, and graph equivalence of product bases.

Verification follows the two graph-theoretic conditions for unextendibility:
(1) the per-party orthogonality graphs (party_graphs) must cover the
complete graph, and
(2) the states must not split into parts S_1, ..., S_n such that the
party-m factors of S_m fail to span party m's space for every m (such a
split exists exactly when some product state is orthogonal to all the
states). One verifier, verify_upb, checks (1) and then (2) from each
party's hyperplane flats: every non-spanning subset lies in one. The
largest flat sizes form a certificate: if they sum below k, (2) holds. A
party whose members are in general position with room to spare, checked
on the null space of its k x d factor matrix (_general_position), has
largest flat d - 1; any other party is walked once (nonspanning_flats),
which lists its flats. If the certificate does not close, the parties not
yet walked are walked too, and a depth-first search gives each party in
turn one of its flats' intersections with the states still left, until
the parts cover every state (an extension), no branch is left, or it has
tried SEARCH_BUDGET flat nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, EmptyFamily, Inconclusive,
                     NotOrthogonalSet, NotUpb, SizeMismatch)
from .families import (VectorFamily, gen_kcbs, is_unit,
                       loor_cycle_complement, one_param_family,
                       orthogonality_graph, quadres_local)
from .graphs import (EdgeColoredGraph, colored_equivalence, complement,
                     edge_colored_graph, graph, smallest_nonresidue)
from .jsonio import is_int
from .linalg import (DEFAULT_TOL, HERM_TOL, Tolerances, as_vector,
                     check_hermitian, hermitian_eig, kron_all,
                     partial_transpose)

SEARCH_BUDGET = 10 ** 6   # flat nodes one extension search may try
# complex elements nonspanning_flats holds at once, temporaries and ids too
SCAN_BUDGET = 1 << 16
METHODS = ("exact", "bound", "auto")

STATUS_COMPLETE = "CompleteBasis"
STATUS_UPB = "UPB"
STATUS_EXTENDIBLE = "Extendible"
STATUS_CERTIFIED = "CertifiedUnextendible"


@dataclass(frozen=True)
class ProductSet:
    party_dims: tuple
    states: tuple  # each state: tuple of per-party unit vectors

    def __post_init__(self):
        if any(d < 1 for d in self.party_dims):
            raise DimensionMismatch("party dimension below 1",
                                    dims=list(self.party_dims))
        if not self.party_dims:
            raise DimensionMismatch("product set has no parties")
        if not self.states:
            raise EmptyFamily("product set has no states")
        for si, st in enumerate(self.states):
            if len(st) != len(self.party_dims):
                raise DimensionMismatch("state has wrong party count", state=si)
            for m, (f, d) in enumerate(zip(st, self.party_dims)):
                if f.shape != (d,):
                    raise DimensionMismatch("local factor has wrong dimension",
                                            state=si, party=m, dim=d)
                if not is_unit(f):
                    raise DimensionMismatch("local factor not unit norm",
                                            state=si, party=m)

    @property
    def k(self) -> int:
        return len(self.states)

    @property
    def n_parties(self) -> int:
        return len(self.party_dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.party_dims)

    def factor(self, state: int, party: int) -> np.ndarray:
        return self.states[state][party]

    def full_vectors(self) -> np.ndarray:
        """The states as vectors of C^total_dim, shape (k, total_dim),
        read-only and built once per set."""
        return self._full_vectors

    @functools.cached_property
    def _full_vectors(self) -> np.ndarray:
        out = kron_all([np.array([st[m] for st in self.states])
                        for m in range(self.n_parties)])
        out.flags.writeable = False
        return out

    def to_json(self) -> dict:
        return {
            "party_dims": list(self.party_dims),
            "states": [[[[float(z.real), float(z.imag)] for z in f]
                        for f in st] for st in self.states],
        }

    @staticmethod
    def from_json(obj: dict) -> "ProductSet":
        dims = obj["party_dims"]
        if not all(is_int(d) for d in dims):
            raise ValueError(f"party dimensions must be integers, not {dims!r}")
        return product_set(dims, [[[complex(re, im) for re, im in f]
                                   for f in st] for st in obj["states"]])


def product_set(party_dims, states) -> ProductSet:
    return ProductSet(tuple(int(d) for d in party_dims),
                      tuple(tuple(np.asarray(f, dtype=complex) for f in st)
                            for st in states))


@dataclass(frozen=True)
class UpbVerdict:
    status: str
    condition1: bool
    witness: tuple | None = None       # product factors of the extension
    certificate: tuple | None = None   # per-party max non-spanning sizes
    # edge-colored orthogonality graph built by the condition-1 check; not
    # part of the verdict's JSON
    colored_graph: EdgeColoredGraph | None = field(default=None, repr=False,
                                                   compare=False)

    def to_json(self) -> dict:
        out = {"status": self.status, "condition1": self.condition1}
        if self.witness is not None:
            out["witness"] = [[[float(z.real), float(z.imag)] for z in f]
                              for f in self.witness]
        if self.certificate is not None:
            out["certificate"] = list(self.certificate)
        return out


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray
    party_dims: tuple

    def __post_init__(self):
        m = self.matrix
        d = math.prod(self.party_dims)
        if m.shape != (d, d):
            raise DimensionMismatch("matrix size does not match party dims",
                                    shape=list(m.shape), dims=list(self.party_dims))
        check_hermitian(m, DimensionMismatch, "density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > HERM_TOL:
            raise DimensionMismatch("density matrix trace differs from 1",
                                    trace=float(np.trace(m).real))

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eig(self.matrix)[0]

    def rank(self, tol: Tolerances = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(self.eigenvalues() > tol.atol))


def assemble_mapped(family: VectorFamily, multipliers) -> ProductSet:
    """Product set with state j built from family vectors at indices
    multiplier * j mod p, one multiplier per party."""
    p = len(family)
    if p == 0:
        raise EmptyFamily("family has no vectors")
    multipliers = tuple(int(c) for c in multipliers)
    if not multipliers:
        raise EmptyFamily("need at least one multiplier")
    states = tuple(
        tuple(family.vectors[(c * j) % p] for c in multipliers)
        for j in range(p))
    return ProductSet((family.dim,) * len(multipliers), states)


def one_param_upb(theta: float) -> ProductSet:
    """One-parameter UPB in C^3 (x) C^3: state j is a_j (x) a_{(2j+2) mod 5}
    for the one_param_family vectors a_0..a_4 at angle theta.

    At theta = 3pi/4 this is the Tiles UPB up to local unitaries, with the
    fixed state a_3 (x) a_3 as its "stopper". The other orthogonal maps
    j -> +-2j + c give UPBs that are not locally equivalent to Tiles, apart
    from the mirror j -> (3j+4) mod 5.
    """
    a = one_param_family(theta).vectors
    return ProductSet((3, 3), tuple((a[j], a[(2 * j + 2) % 5])
                                    for j in range(5)))


def gencontextual_upb(n: int) -> ProductSet:
    """Minimal UPB candidate in C^3 (x) C^{n-2}: cycle LOOR paired with the
    complement LOOR at the same index."""
    u = gen_kcbs(n)
    v = loor_cycle_complement(n)
    states = tuple((u.vectors[j], v.vectors[j]) for j in range(n))
    return ProductSet((3, n - 2), states)


def quadres_upb(p: int) -> ProductSet:
    """QuadRes product set: state i pairs Q(i) with Q(i*x) for the smallest
    non-residue x."""
    fam = quadres_local(p)   # raises BadPrime unless p is a prime = 1 mod 4
    x = smallest_nonresidue(p)
    d = (p + 1) // 2
    states = tuple((fam.vectors[i], fam.vectors[(i * x) % p]) for i in range(p))
    return ProductSet((d, d), states)


def party_graphs(ps: ProductSet, tol: Tolerances = DEFAULT_TOL):
    """Per-party orthogonality graphs (families.orthogonality_graph of each
    party's factors) plus the edge-colored union: each edge colored by the
    parties whose graphs hold it."""
    graphs = [orthogonality_graph([st[m] for st in ps.states], tol)
              for m in range(ps.n_parties)]
    color: dict = {}
    for m, g in enumerate(graphs):
        for e in g.edges:
            color.setdefault(e, set()).add(m)
    return graphs, edge_colored_graph(ps.k, color)


def _check_condition1(ps: ProductSet, tol: Tolerances):
    """Every pair must be orthogonal in at least one party; returns the
    colored graph, raising with the lexicographically first pair it does not
    cover otherwise."""
    _, colored = party_graphs(ps, tol)
    uncovered = complement(graph(ps.k, colored.color)).edges
    if uncovered:
        raise NotOrthogonalSet(
            "pair orthogonal in no party (condition 1 fails)",
            condition=1, pair=list(min(uncovered)))
    return colored


def _validated_witness(ps: ProductSet, factors, tol: Tolerances):
    w = kron_all(factors)
    overlaps = np.abs(ps.full_vectors().conj() @ w)
    worst = float(np.max(overlaps))
    if not worst <= tol.atol:
        raise NotUpb("extension witness fails orthogonality check",
                     max_overlap=worst)  # pragma: no cover
    return tuple(factors)


def _child_residuals(res, ids, parent, cols, w, norms):
    """Residuals at the child nodes that add the member in column cols[c] of
    node parent[c]. res is an array (nodes, m, coords): the residuals of the
    m members outside each node's prefix, in the order of their ids (nodes,
    m). The member's residual w[c], of norm norms[c] > atol, spans the
    new direction: one Householder reflection maps it onto the last
    coordinate, which is dropped together with the member's own column.
    Returns the children's residuals (children, m - 1, coords - 1) and ids."""
    top = w[:, -1]
    mag = np.abs(top)
    phase = np.ones_like(top)
    np.divide(top, mag, out=phase, where=mag > 0)
    # reflector u = w + phase |w| e_last, u^H u = 2 |w| (|w| + |top|); the
    # first coords-1 entries of H x are x - w vx, vx = u^H x / (u^H u / 2)
    v = w.conj()
    v[:, -1] += phase.conj() * norms
    v /= (norms * (norms + mag))[:, None]
    m, coords = res.shape[1:]
    rows = _without(m)[cols]
    rows += (parent * m)[:, None]
    flat = res.reshape(-1, coords)
    child = np.take(flat[:, :-1], rows, axis=0)
    vx = np.take(flat[:, -1], rows)
    vx *= v[:, -1:]
    vx += (child @ v[:, :-1, None])[..., 0]
    for q in range(coords - 1):
        child[:, :, q] -= w[:, q, None] * vx
    return child, np.take(ids, rows)


@functools.lru_cache(maxsize=None)
def _without(m):
    """Row c of this (m, m - 1) array lists 0, ..., m - 1 without c."""
    rows = np.arange(m - 1)
    return rows + (rows >= np.arange(m)[:, None])


def _plane_leaves(res, parent, w, norms, tol):
    """In-span masks (children, m) at the leaves that add the member of
    residual w[c], norm norms[c], to node parent[c] of res (nodes, m, 2):
    x lies in the span of w iff |w0 x1 - w1 x0| <= tol |w|, |w| times the
    norm of x's Householder residual in exact arithmetic. The member's own
    column gives exactly 0."""
    det = np.take(res[:, :, 1], parent, axis=0) * w[:, :1]
    det -= np.take(res[:, :, 0], parent, axis=0) * w[:, 1:]
    return det.real ** 2 + det.imag ** 2 <= ((tol * norms) ** 2)[:, None]


def _norms(z):
    """Norms along the last axis of a C-contiguous complex array."""
    x = z.view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def nonspanning_flats(vectors, dim: int,
                      tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Boolean masks, shape (flats, k), of the hyperplane flats of the given
    vectors: for every r = dim - 1 linearly independent members (up to
    atol), the members lying in their span. Every subset that does not
    span C^dim lies in one of them, since its independent members extend to
    r independent members of the set. Fewer than dim members never span
    C^dim, so when k < dim the one flat holds them all, as it does when no
    r members are independent; if dim is 1, the one flat is empty.

    The walk visits the prefix tree of r-subsets i_1 < ... < i_r of
    independent members. A node at depth t holds the residuals of the k - t
    members outside its prefix against the span of the prefix, shared by
    every subset below it, members-major with their ids. A child adds a
    member j > i_t whose residual norm is above atol; every prefix
    member comes before j, so j sits in column j - t. One Householder
    reflection maps that residual onto the last coordinate, which is
    dropped together with column j, so residuals at depth t have dim - t
    coordinates. A member at or below atol adds no direction, and its
    subtree is skipped: its spans lie inside spans of independent members.
    The last level has two coordinates and builds no residuals: a leaf's
    flat holds its prefix and each member x with |w0 x1 - w1 x0| <= atol
    |w|, w the added member's residual, that is with a residual of norm at
    most atol against the leaf's span. Leaves come in lexicographic
    order of their subsets, and several leaves may give the same flat.

    The tree is walked depth first in runs of each level's nodes, one numpy
    batch per run: a run at depth t has as many nodes as fit their at most
    k - r + 1 children each at depth t + 1 in SCAN_BUDGET complex elements,
    and at least one. A node at depth t counts its k - t columns of dim - t
    residual coordinates, three complex temporaries per column (the
    projection coefficients, one product and the gather index) and its ids,
    kept in the smallest unsigned integer type that holds k - 1. A run's
    subtrees are walked before the next run, so leaves keep their order.
    The walk holds one run's children per level of the current path: at
    most r times SCAN_BUDGET complex elements, plus a lone node's children
    where they alone exceed SCAN_BUDGET.
    """
    k = len(vectors)
    if k < dim or dim == 1:
        return np.full((1, k), dim > 1)
    r = dim - 1
    id_type = np.min_scalar_type(k - 1)
    id_size = id_type.itemsize / 16
    leaves = []

    def node_size(depth):
        return (k - depth) * (dim - depth + 3 + id_size)

    def leaf(ids, inside):
        flats = np.ones((len(ids), k), dtype=bool)
        flats.reshape(-1)[ids + (np.arange(len(ids)) * k)[:, None]] = inside
        leaves.append(flats)

    def expand(level, ids, lasts, depth):
        # (level, ids, lasts) of the children of nodes at `depth`: members
        # j > last that leave room to reach depth r, in column j - depth;
        # None if there are none or they are leaves, which go to leaf()
        m, coords = level.shape[1:]
        parent, cols = np.nonzero(np.arange(k - r + 1)
                                  > (lasts - depth)[:, None])
        w = np.take(level.reshape(-1, coords), parent * m + cols, axis=0)
        norms = _norms(w)
        grow = norms > tol.atol
        if not grow.all():
            if not grow.any():
                return None
            parent, cols, w, norms = (parent[grow], cols[grow], w[grow],
                                      norms[grow])
        if coords == 2:    # depth r - 1
            leaf(np.take(ids, parent, axis=0),
                 _plane_leaves(level, parent, w, norms, tol.atol))
            return None
        level, ids = _child_residuals(level, ids, parent, cols, w, norms)
        return level, ids, cols + depth

    def scan(level, ids, lasts, depth):
        # level: residuals (nodes, k-depth, dim-depth) of nodes at `depth`
        # whose prefixes end with `lasts`, ids: their members (nodes,
        # k-depth); each run of `step` nodes has its subtrees walked in turn
        step = max(1, int(SCAN_BUDGET // ((k - r + 1) * node_size(depth + 1))))
        for s in range(0, len(lasts), step):
            run = slice(s, s + step)
            children = expand(level[run], ids[run], lasts[run], depth)
            if children is not None:
                scan(*children, depth + 1)

    scan(np.array([as_vector(v) for v in vectors])[None],
         np.arange(k, dtype=id_type)[None], np.array([-1]), 0)
    return np.concatenate(leaves) if leaves else np.ones((1, k), dtype=bool)


def _general_position(vectors, dim: int, tol: Tolerances = DEFAULT_TOL):
    """dim - 1, the largest hyperplane flat nonspanning_flats would find,
    when a check on the null space of the k vectors shows every dim of them
    independent with room to spare; None when the check does not apply or
    does not pass.

    It applies to k members of rank dim with corank c = k - dim < dim - 1,
    where the dual's C(k, c) c-subsets are fewer than the walk's
    C(k, dim - 1) leaves. One SVD of the dim x k matrix R of the members
    gives s_min(R) and an orthonormal basis N (k x c) of R's null space,
    and

        beta = s_min(R) * min over c-subsets T of |det N[T]|.

    For every (dim-1)-subset S and member x not in S, dist(x, span S) >=
    beta. Let R' = (R R^H)^(-1/2) R, with the same null space and
    orthonormal rows, so [R'^H | N] is unitary. Jacobi's complementary-minor
    identity for that unitary gives |det R'[:, D]| = |det N[T]| for the
    dim-subset D = S + {x} and its complement T. |det R'[:, D]| is the volume
    of R'S times dist(R'x, span R'S), and by Hadamard's inequality that
    volume is at most 1, since R' has orthonormal rows and so its columns
    have norm at most 1: dist(R'x, span R'S) >= |det N[T]|. Mapping back
    by (R R^H)^(1/2), whose smallest singular value is s_min(R), scales
    distances by at least s_min(R). Every residual the walk tests at a node
    is at least one such distance, so when beta > 2 atol every member
    grows, every leaf's flat is its own dim - 1 members and the largest
    flat is dim - 1, at the walk's margin of atol. The threshold is atol +
    max(atol, k dim eps s_max(R)): 2 atol unless atol is below the
    rounding noise of beta and of the walk.

    The c-subsets are taken in lexicographic runs of at most SCAN_BUDGET
    complex elements of minors, and the first run whose smallest minor puts
    beta at or below the threshold ends the check.
    """
    k = len(vectors)
    c = k - dim
    if not 0 <= c < dim - 1:
        return None
    _, s, vh = np.linalg.svd(np.array([as_vector(v) for v in vectors]).T)
    null = vh[dim:].conj().T
    noise = k * dim * np.finfo(float).eps * s[0]
    threshold = tol.atol + max(tol.atol, noise)
    subsets = itertools.combinations(range(k), c)
    step = max(1, SCAN_BUDGET // max(1, c * c))
    while run := list(itertools.islice(subsets, step)):
        minors = np.linalg.det(null[np.array(run, dtype=np.intp)])
        if not s[-1] * np.abs(minors).min() > threshold:
            return None
    return dim - 1


def _flat_search(flats, k: int):
    """One take per party, bitsets of state indices that cover all k states,
    each inside one of its party's flats (masks from nonspanning_flats), or
    None if there are none. Depth first over the parties in order: a party
    takes its flats' intersections with the states left, distinct ones
    only, largest first and then by bitset value. A node is pruned when the
    largest such intersections of the parties from it on sum below the
    states left. Raises Inconclusive once it has tried SEARCH_BUDGET takes."""
    # Python ints as bitsets: bit j is state j, for any k
    bitsets = [{int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(f, axis=1, bitorder="little")}
               for f in flats]
    nodes = 0

    def rec(m, left):
        nonlocal nodes
        if not left:
            return (0,) * (len(bitsets) - m)
        if sum(max((f & left).bit_count() for f in party)
               for party in bitsets[m:]) < left.bit_count():
            return None
        for take in sorted({f & left for f in bitsets[m]},
                           key=lambda t: (-t.bit_count(), t)):
            if nodes == SEARCH_BUDGET:
                raise Inconclusive("flat search over budget", nodes=nodes,
                                   budget=SEARCH_BUDGET)
            nodes += 1
            found = rec(m + 1, left & ~take)
            if found is not None:
                return (take,) + found
        return None

    return rec(0, (1 << k) - 1)


def _complement(vectors, dim: int, tol: float) -> np.ndarray:
    """First standard-basis vector that survives ordered orthonormalization
    against the vectors, which must not span C^dim."""
    basis = []
    for i, w in enumerate([*vectors, *np.eye(dim, dtype=complex)]):
        for b in basis:
            w = w - np.vdot(b, w) * b
        n = np.linalg.norm(w)
        if n > tol:
            if i >= len(vectors):
                return w / n
            basis.append(w / n)
    raise NotUpb("assigned span has no complement")


def verify_upb(ps: ProductSet, tol: Tolerances = DEFAULT_TOL,
               method: str = "auto") -> UpbVerdict:
    """Verdict on the (un)extendibility of an orthogonal product set.

    Checks condition 1 (raising NotOrthogonalSet with the first pair
    orthogonal in no party), then the certificate: each party's largest
    hyperplane flat, d - 1 where _general_position shows it, and otherwise
    from the walk (nonspanning_flats); both give the same size. If it sums
    below k the verdict is UPB (CompleteBasis when k >= total_dim) under
    "exact" and CertifiedUnextendible with the certificate under "auto" and
    "bound". Otherwise "bound" raises Inconclusive, while "exact" and
    "auto" walk the parties not yet walked and search every party's flats
    (_flat_search). A cover gives Extendible: each party's
    witness factor is the first standard-basis vector left by ordered
    orthonormalization against the factors it took, checked against every
    member. No cover gives UPB/CompleteBasis, and SEARCH_BUDGET flat nodes
    without an answer raise Inconclusive.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, not {method!r}")
    colored = _check_condition1(ps, tol)
    factors = [[ps.factor(j, m) for j in range(ps.k)]
               for m in range(ps.n_parties)]
    flats, cert = [], []
    for vs, d in zip(factors, ps.party_dims):
        largest = _general_position(vs, d, tol)
        flats.append(None if largest else nonspanning_flats(vs, d, tol))
        cert.append(largest or int(flats[-1].sum(axis=1).max()))
    unextendible = STATUS_COMPLETE if ps.k >= ps.total_dim else STATUS_UPB
    if sum(cert) < ps.k:
        if method == "exact":
            return UpbVerdict(unextendible, True, colored_graph=colored)
        return UpbVerdict(STATUS_CERTIFIED, True, certificate=tuple(cert),
                          colored_graph=colored)
    if method == "bound":
        raise Inconclusive("non-spanning certificate does not close",
                           certificate=cert, k=ps.k)
    flats = [nonspanning_flats(vs, d, tol) if f is None else f
             for f, vs, d in zip(flats, factors, ps.party_dims)]
    try:
        takes = _flat_search(flats, ps.k)
    except Inconclusive as e:
        raise Inconclusive(str(e), certificate=cert, k=ps.k,
                           **e.details) from None
    if takes is None:
        return UpbVerdict(unextendible, True, colored_graph=colored)
    witness = [_complement([v for j, v in enumerate(vs) if take >> j & 1], d,
                           tol.atol)
               for vs, d, take in zip(factors, ps.party_dims, takes)]
    return UpbVerdict(STATUS_EXTENDIBLE, True,
                      witness=_validated_witness(ps, witness, tol),
                      colored_graph=colored)


def is_minimal(ps: ProductSet) -> bool:
    """True iff the cardinality meets the lower bound sum(d_m - 1) + 1."""
    return ps.k == sum(d - 1 for d in ps.party_dims) + 1


def bound_entangled_state(ps: ProductSet, verdict: UpbVerdict | None = None) -> DensityMatrix:
    """Normalized projector onto the orthogonal complement of a verified UPB.
    A complete basis (k >= total_dim) leaves no complement, whatever the
    verdict's method called it."""
    if verdict is None:
        raise NotUpb("verification verdict absent; verify the set first")
    status = STATUS_COMPLETE if ps.k >= ps.total_dim else verdict.status
    if status not in (STATUS_UPB, STATUS_CERTIFIED):
        raise NotUpb("set is not a verified UPB", status=status)
    D = ps.total_dim
    k = ps.k
    vs = ps.full_vectors()
    proj = vs.T @ vs.conj()
    rho = (np.eye(D, dtype=complex) - proj) / (D - k)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, ps.party_dims)


def min_pt_eigenvalue(rho: DensityMatrix, party: int = 1) -> float:
    """Smallest eigenvalue of the partial transpose on `party`; the state
    is PPT when it is at least -atol."""
    if len(rho.party_dims) != 2:
        raise DimensionMismatch("PPT check needs bipartite dims",
                                dims=list(rho.party_dims))
    pt = partial_transpose(rho.matrix, rho.party_dims, party)
    return float(hermitian_eig(pt)[0][0])


def upb_graph_equivalent(a: ProductSet, b: ProductSet,
                         tol: Tolerances = DEFAULT_TOL):
    """Permutation matching the party-colored orthogonality structures, or
    None; distinct state counts raise SizeMismatch."""
    if a.k != b.k:
        raise SizeMismatch("state counts differ", a=a.k, b=b.k)
    _, ca = party_graphs(a, tol)
    _, cb = party_graphs(b, tol)
    return colored_equivalence(ca, cb)
