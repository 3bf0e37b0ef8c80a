"""Orthogonal product sets: assembly, (un)extendibility verification,
minimality, bound entangled states, and graph equivalence of product bases.

Verification follows the two graph-theoretic conditions for unextendibility:
(1) the per-party orthogonality graphs must cover the complete graph, and
(2) no assignment of states to parties may leave every party's assigned
local factors short of spanning that party's space. One verifier,
verify_upb, checks (1) and then (2) in two stages. First a certificate
bounds the maximum size of a non-spanning subset per party; if the bounds
sum below k, (2) holds. That bound scans every (d-1)-subset of a party's
factors with numpy, a chunk of subsets at a time: each chunk is
orthonormalized and projected in a few batched array operations, and its
size is set from k*d so that each (chunk, k, d) complex temporary holds
about 4096 elements (one subset per chunk once k*d alone is larger).
Otherwise a depth-first search enumerates assignments in lexicographic
order with saturation pruning, until it finds an extension, exhausts the
assignments, or reaches SEARCH_BUDGET pushes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadPrime, DimensionMismatch, EmptyFamily, Inconclusive,
                     NotOrthogonalSet, NotUpb, SizeMismatch)
from .families import (VectorFamily, gen_kcbs, loor_cycle_complement,
                       one_param_family, quadres_local)
from .graphs import (EdgeColoredGraph, colored_equivalence,
                     edge_colored_graph, graph, is_prime, smallest_nonresidue)
from .linalg import (DEFAULT_TOL, Tolerances, as_vector, hermitian_eig,
                     kron_all, partial_transpose)

SEARCH_BUDGET = 10 ** 6   # _PartySpan.push calls per assignment search
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
        for si, st in enumerate(self.states):
            if len(st) != len(self.party_dims):
                raise DimensionMismatch("state has wrong party count", state=si)
            for m, (f, d) in enumerate(zip(st, self.party_dims)):
                if f.shape != (d,):
                    raise DimensionMismatch("local factor has wrong dimension",
                                            state=si, party=m, dim=d)
                if abs(np.linalg.norm(f) - 1.0) > 1e-9:
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
        return np.array([kron_all(st) for st in self.states])

    def to_json(self) -> dict:
        return {
            "party_dims": list(self.party_dims),
            "states": [[[[float(z.real), float(z.imag)] for z in f]
                        for f in st] for st in self.states],
        }

    @staticmethod
    def from_json(obj: dict) -> "ProductSet":
        dims = tuple(int(d) for d in obj["party_dims"])
        states = tuple(
            tuple(np.array([complex(re, im) for re, im in f]) for f in st)
            for st in obj["states"])
        return ProductSet(dims, states)


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
        if float(np.max(np.abs(m - m.conj().T))) > 1e-12:
            raise DimensionMismatch("density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise DimensionMismatch("density matrix trace differs from 1",
                                    trace=float(np.trace(m).real))

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eig(self.matrix)[0]

    def rank(self, tol: Tolerances = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(self.eigenvalues() > tol.psd_tol))

    def to_json(self) -> dict:
        return {
            "party_dims": list(self.party_dims),
            "matrix": [[[float(z.real), float(z.imag)] for z in row]
                       for row in self.matrix],
        }


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
    fam = quadres_local(p)
    if not is_prime(p) or p % 4 != 1:
        raise BadPrime("need a prime p = 1 mod 4", p=p)
    x = smallest_nonresidue(p)
    d = (p + 1) // 2
    states = tuple((fam.vectors[i], fam.vectors[(i * x) % p]) for i in range(p))
    return ProductSet((d, d), states)


def party_graphs(ps: ProductSet, tol: Tolerances = DEFAULT_TOL):
    """Per-party orthogonality graphs plus the edge-colored union."""
    k = ps.k
    graphs = []
    color: dict = {}
    for m in range(ps.n_parties):
        vecs = np.array([ps.factor(j, m) for j in range(k)])
        g = np.abs(vecs.conj() @ vecs.T)
        edges = []
        for i in range(k):
            for j in range(i + 1, k):
                if g[i, j] <= tol.orth_tol:
                    edges.append((i, j))
                    color.setdefault((i, j), set()).add(m)
        graphs.append(graph(k, edges))
    colored = edge_colored_graph(k, color)
    return graphs, colored


def _check_condition1(ps: ProductSet, tol: Tolerances):
    """Every pair must be orthogonal in at least one party; returns the
    colored graph, raising with the first offending pair otherwise."""
    _, colored = party_graphs(ps, tol)
    for i in range(ps.k):
        for j in range(i + 1, ps.k):
            if colored.colorset(i, j) is None:
                raise NotOrthogonalSet(
                    "pair orthogonal in no party (condition 1 fails)",
                    condition=1, pair=[i, j])
    return colored


class _PartySpan:
    """Incremental orthonormal basis for one party's assigned factors."""

    def __init__(self, dim: int, tol: float):
        self.dim = dim
        self.tol = tol
        self.basis: list[np.ndarray] = []
        self.grew: list[bool] = []

    @property
    def saturated(self) -> bool:
        return len(self.basis) >= self.dim

    def push(self, v: np.ndarray) -> None:
        w = v.astype(complex)
        for b in self.basis:
            w = w - np.vdot(b, w) * b
        n = np.linalg.norm(w)
        if n > self.tol:
            self.basis.append(w / n)
            self.grew.append(True)
        else:
            self.grew.append(False)

    def pop(self) -> None:
        if self.grew.pop():
            self.basis.pop()

    def complement_vector(self) -> np.ndarray:
        # first standard-basis vector surviving ordered orthonormalization
        for idx in range(self.dim):
            w = np.zeros(self.dim, dtype=complex)
            w[idx] = 1.0
            for b in self.basis:
                w = w - np.vdot(b, w) * b
            n = np.linalg.norm(w)
            if n > self.tol:
                return w / n
        raise NotUpb("assigned span has no complement")  # pragma: no cover


def _find_extension(ps: ProductSet, tol: Tolerances):
    """Depth-first search over state-to-party assignments in lexicographic
    order; returns the witness factors of the first assignment that leaves
    every party non-spanning, or None. Raises Inconclusive once it has made
    SEARCH_BUDGET pushes without finishing."""
    n_par = ps.n_parties
    spans = [_PartySpan(d, tol.rank_tol) for d in ps.party_dims]
    nodes = 0

    def rec(state: int):
        nonlocal nodes
        if state == ps.k:
            return tuple(sp.complement_vector() for sp in spans)
        for m in range(n_par):
            if nodes == SEARCH_BUDGET:
                raise Inconclusive("assignment search over budget", k=ps.k,
                                   nodes=nodes, budget=SEARCH_BUDGET)
            nodes += 1
            sp = spans[m]
            sp.push(ps.factor(state, m))
            if not sp.saturated:
                found = rec(state + 1)
                if found is not None:
                    return found
            sp.pop()
        return None

    return rec(0)


def _validated_witness(ps: ProductSet, factors, tol: Tolerances):
    w = kron_all(factors)
    overlaps = np.abs(ps.full_vectors().conj() @ w)
    worst = float(np.max(overlaps))
    if worst > tol.orth_tol:
        raise NotUpb("extension witness fails orthogonality check",
                     max_overlap=worst)  # pragma: no cover
    return tuple(factors)


def max_nonspanning(vectors, dim: int, tol: Tolerances = DEFAULT_TOL) -> int:
    """Largest number of the given vectors lying inside a common proper
    subspace; exact because any non-spanning subset sits inside the span of
    at most dim-1 of its own members.

    Scans every (dim-1)-subset (all k vectors when k < dim) in lexicographic
    chunks. Each chunk is orthonormalized at once by modified Gram-Schmidt in
    subset order, dropping residuals of norm <= rank_tol; then all k vectors
    are projected onto every subset's span with two batched matmuls and the
    residuals <= rank_tol are counted. The chunk holds 4096 // (k*dim)
    subsets (at least one), so each (chunk, k, dim) complex temporary holds
    about 4096 elements whatever the number of subsets.
    """
    k = len(vectors)
    vecs = np.array([as_vector(v) for v in vectors])
    r = min(dim - 1, k)
    if r <= 0:
        return 0
    chunk = max(1, 4096 // (k * dim))
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), r))
    best = 0
    while True:
        subsets = np.fromiter(itertools.islice(flat, chunk * r),
                              dtype=np.intp).reshape(-1, r)
        if not subsets.size:
            return best
        # Modified Gram-Schmidt, one member of every subset per step: once
        # member i is normalized (or dropped as zero), members i+1.. lose
        # their component along it, in the same order as a per-subset loop.
        rest = vecs[subsets]
        basis = np.zeros_like(rest)
        for i in range(r):
            w = rest[:, i]
            n = np.linalg.norm(w, axis=1)
            keep = n > tol.rank_tol
            basis[keep, i] = w[keep] / n[keep, None]
            b = basis[:, i, None]
            tail = rest[:, i + 1:]
            tail -= np.sum(b.conj() * tail, axis=2)[:, :, None] * b
        proj = vecs - (vecs @ basis.conj().transpose(0, 2, 1)) @ basis
        residues = np.linalg.norm(proj, axis=2)
        best = max(best, int(np.count_nonzero(residues <= tol.rank_tol,
                                              axis=1).max()))


def verify_upb(ps: ProductSet, tol: Tolerances = DEFAULT_TOL,
               method: str = "auto") -> UpbVerdict:
    """Verdict on the (un)extendibility of an orthogonal product set.

    Checks condition 1 (raising NotOrthogonalSet with the first pair
    orthogonal in no party), then the per-party certificate max_nonspanning.
    If it sums below k no assignment leaves every party non-spanning: the
    verdict is UPB (CompleteBasis when k >= total_dim) under "exact" and
    CertifiedUnextendible with the certificate under "auto" and "bound".
    Otherwise "bound" raises Inconclusive, while "exact" and "auto" run the
    lexicographic assignment search, returning Extendible with a checked
    witness or UPB/CompleteBasis, and raising Inconclusive after
    SEARCH_BUDGET pushes.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, not {method!r}")
    colored = _check_condition1(ps, tol)
    cert = [max_nonspanning([ps.factor(j, m) for j in range(ps.k)], d, tol)
            for m, d in enumerate(ps.party_dims)]
    unextendible = STATUS_COMPLETE if ps.k >= ps.total_dim else STATUS_UPB
    if sum(cert) < ps.k:
        if method == "exact":
            return UpbVerdict(unextendible, True, colored_graph=colored)
        return UpbVerdict(STATUS_CERTIFIED, True, certificate=tuple(cert),
                          colored_graph=colored)
    if method == "bound":
        raise Inconclusive("non-spanning certificate does not close",
                           certificate=cert, k=ps.k)
    try:
        witness = _find_extension(ps, tol)
    except Inconclusive as e:
        raise Inconclusive(str(e), certificate=cert, **e.details) from None
    if witness is None:
        return UpbVerdict(unextendible, True, colored_graph=colored)
    return UpbVerdict(STATUS_EXTENDIBLE, True,
                      witness=_validated_witness(ps, witness, tol),
                      colored_graph=colored)


def is_minimal(ps: ProductSet) -> bool:
    """True iff the cardinality meets the lower bound sum(d_m - 1) + 1."""
    return ps.k == sum(d - 1 for d in ps.party_dims) + 1


def bound_entangled_state(ps: ProductSet, verdict: UpbVerdict | None = None) -> DensityMatrix:
    """Normalized projector onto the orthogonal complement of a verified UPB."""
    if verdict is None:
        raise NotUpb("verification verdict absent; verify the set first")
    if verdict.status not in (STATUS_UPB, STATUS_CERTIFIED):
        raise NotUpb("set is not a verified UPB", status=verdict.status)
    D = ps.total_dim
    k = ps.k
    vs = ps.full_vectors()
    proj = vs.T @ vs.conj()
    rho = (np.eye(D, dtype=complex) - proj) / (D - k)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, ps.party_dims)


def is_ppt(rho: DensityMatrix, party: int = 1,
           tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the partial transpose has no eigenvalue below -psd_tol."""
    if len(rho.party_dims) != 2:
        raise DimensionMismatch("PPT check needs bipartite dims",
                                dims=list(rho.party_dims))
    pt = partial_transpose(rho.matrix, rho.party_dims, party)
    w, _ = hermitian_eig(pt)
    return bool(w[0] >= -tol.psd_tol)


def upb_graph_equivalent(a: ProductSet, b: ProductSet,
                         tol: Tolerances = DEFAULT_TOL):
    """Permutation matching the party-colored orthogonality structures, or
    None; distinct state counts raise SizeMismatch."""
    if a.k != b.k:
        raise SizeMismatch("state counts differ", a=a.k, b=b.k)
    _, ca = party_graphs(a, tol)
    _, cb = party_graphs(b, tol)
    return colored_equivalence(ca, cb)
