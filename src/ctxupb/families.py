"""Constructors for every contextual vector family in scope, orthogonality
graph extraction, and LOOR certificates.

Families are tuples of unit vectors in a fixed ambient dimension, together
with the parameters that produced them. Constructors evaluate the defining
formulas verbatim; none of them silently renormalizes except quadres_local,
whose defining expression is deliberately unnormalized.

A vector is a unit vector when is_unit holds, | |v| - 1 | <= UNIT_TOL, a
test NaN and inf fail; upb.ProductSet tests its factors with it too.
orthogonality_graph is the one orthogonality test; upb.party_graphs builds
its graphs with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadOrder, BadPrime, BadT, DegenerateParameter, DimensionMismatch
from .graphs import Graph, graph, is_prime, quadratic_residues
from .jsonio import is_int
from .linalg import DEFAULT_TOL, Tolerances, as_vector

UNIT_TOL = 1e-9   # largest | |v| - 1 | of a unit vector


def is_unit(v) -> bool:
    """| |v| - 1 | <= UNIT_TOL; NaN and inf fail, and so do entries whose
    squares overflow, with no warning."""
    with np.errstate(over="ignore"):
        return bool(abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL)


def theta_cycle_value(n: int) -> float:
    """Lovasz number of the odd cycle C_n: n cos(pi/n) / (1 + cos(pi/n))."""
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def theta_cycle_complement_value(n: int) -> float:
    """Lovasz number of the cycle complement: (1 + cos(pi/n)) / cos(pi/n)."""
    c = math.cos(math.pi / n)
    return (1 + c) / c


@dataclass(frozen=True)
class VectorFamily:
    label: str
    params: dict
    dim: int
    vectors: tuple
    notes: tuple = field(default=())

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("family dimension below 1", dim=self.dim)
        for k, v in enumerate(self.vectors):
            if v.shape != (self.dim,):
                raise DimensionMismatch("family vector has wrong dimension",
                                        index=k, dim=self.dim)
            if not is_unit(v):
                raise DegenerateParameter("family vector is not unit norm",
                                          index=k)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "params": dict(self.params),
            "dim": self.dim,
            "vectors": [[[float(z.real), float(z.imag)] for z in v]
                        for v in self.vectors],
        }

    @staticmethod
    def from_json(obj: dict) -> "VectorFamily":
        dim = obj["dim"]
        if not is_int(dim):
            raise ValueError(f"dimension must be an integer, not {dim!r}")
        return _fam(str(obj.get("label", "custom")),
                    dict(obj.get("params", {})), dim,
                    [[complex(re, im) for re, im in v] for v in obj["vectors"]])


def _fam(label, params, dim, vectors, notes=()):
    return VectorFamily(label, params, dim,
                        tuple(np.asarray(v, dtype=complex) for v in vectors),
                        tuple(notes))


def one_param_family(theta: float) -> VectorFamily:
    """One-parameter family of five unit vectors in C^3.

    Orthogonal pairs are {0,2},{2,4},{4,1},{1,3},{3,0} (the pentagon with
    cycle 0->2->4->1->3->0) for every non-degenerate theta.
    """
    s, c = math.sin(theta), math.cos(theta)
    norm = math.sqrt(c * c + s * s * c * c)
    if abs(s) <= DEFAULT_TOL.atol or norm <= DEFAULT_TOL.atol:
        raise DegenerateParameter("family collapses at this angle",
                                  theta=theta, normalization=norm)
    a0 = [s * s, c, -s * c]
    a1 = [1.0, 0.0, 0.0]
    a2 = [c, 0.0, s]
    a3 = [0.0, s * c / norm, c / norm]
    a4 = [0.0, 1.0, 0.0]
    return _fam("one-param", {"theta": theta}, 3, [a0, a1, a2, a3, a4])


def pyramid() -> VectorFamily:
    """Standard Pyramid vectors: unit vectors on a cone over the regular
    pentagon; v_j is orthogonal to v_{j+-2 mod 5}."""
    r = 2.0 / math.sqrt(5.0 + math.sqrt(5.0))
    h = 0.5 * math.sqrt(1.0 + math.sqrt(5.0))
    vecs = [[r * math.cos(2 * math.pi * j / 5),
             r * math.sin(2 * math.pi * j / 5),
             r * h] for j in range(5)]
    return _fam("pyramid", {}, 3, vecs)


def kcbs() -> VectorFamily:
    """KCBS vectors with N = 1 + cos(pi/5); v_j orthogonal to v_{j+-1 mod 5}.

    Identical to the Pyramid set under the relabeling j -> 2j mod 5.
    """
    N = 1.0 + math.cos(math.pi / 5)
    z = math.sqrt(math.cos(math.pi / 5))
    vecs = [[math.cos(4 * math.pi * j / 5) / math.sqrt(N),
             math.sin(4 * math.pi * j / 5) / math.sqrt(N),
             z / math.sqrt(N)] for j in range(5)]
    return _fam("kcbs", {}, 3, vecs)


def genpyramid_local(m: int, t: int) -> VectorFamily:
    """p = 2m+1 cone vectors with apex height set by the angle 2*pi*t/p.

    v_j is orthogonal to v_k iff j - k = +-t mod p. Composite p is accepted,
    because the failing assemblies are themselves verification targets, but
    the assembly with multipliers 1..m is then not a UPB: a multiplier that
    shares a factor with p repeats its party's factors with a short period.
    At p = 15 the assembly fails condition 1; p that is neither prime nor an
    odd perfect square gets a warning note. The odd squares get no note, yet
    at p = 9 and p = 25 the assembly has a product extension, because the
    repeated factors put 6 (or 10) states in one plane.
    """
    if m < 2:
        raise BadOrder("need m >= 2", m=m)
    p = 2 * m + 1
    ang = 2 * math.pi * t / p
    if not (math.pi / 2 <= ang <= math.pi):
        raise BadT("t must satisfy pi/2 <= 2*pi*t/p <= pi", m=m, t=t, p=p)
    c = math.cos(ang)
    h = math.sqrt(-c)
    N = 1.0 / math.sqrt(1.0 + abs(c))
    notes = []
    root = int(round(math.sqrt(p)))
    if not is_prime(p) and root * root != p:
        notes.append("p is neither prime nor an odd perfect square")
    vecs = [[N * math.cos(2 * math.pi * j / p),
             N * math.sin(2 * math.pi * j / p),
             N * h] for j in range(p)]
    return _fam("genpyramid", {"m": m, "t": t, "p": p}, 3, vecs, notes)


def gen_kcbs(n: int) -> VectorFamily:
    """Lovasz-optimal orthogonal representation of the odd cycle C_n in C^3.

    cos^2(phi) = theta(C_n)/n; consecutive vectors are orthogonal.
    """
    if n < 5 or n % 2 == 0:
        raise BadOrder("need odd n >= 5", n=n)
    phi = math.acos(math.sqrt(theta_cycle_value(n) / n))
    vecs = []
    for j in range(n):
        a = j * math.pi * (n - 1) / n
        vecs.append([math.cos(phi),
                     math.sin(phi) * math.cos(a),
                     math.sin(phi) * math.sin(a)])
    return _fam("genkcbs", {"n": n}, 3, vecs)


def loor_cycle_complement(n: int) -> VectorFamily:
    """Lovasz-optimal orthogonal representation of the cycle complement in
    dimension n-2; coordinate 0 is the constant sqrt(theta/n), the rest come
    in cos/sin pairs with signed amplitudes T_{j,m}."""
    if n < 5 or n % 2 == 0:
        raise BadOrder("need odd n >= 5", n=n)
    tb = theta_cycle_complement_value(n)
    cp = math.cos(math.pi / n)
    vecs = []
    for j in range(n):
        v = np.zeros(n - 2)
        v[0] = math.sqrt(tb / n)
        for m in range(1, (n - 3) // 2 + 1):
            r = j * (m + 1) * math.pi / n
            t = (-1.0) ** (j * (m + 1)) * math.sqrt(
                2 * (cp + (-1.0) ** (m + 1) * math.cos((m + 1) * math.pi / n))
                / (n * cp))
            v[2 * m - 1] = t * math.cos(r)
            v[2 * m] = t * math.sin(r)
        vecs.append(v)
    return _fam("loor-complement", {"n": n}, n - 2, vecs)


def quadres_local(p: int) -> VectorFamily:
    """Quadratic-residue states in dimension d = (p+1)/2 for prime p = 1 mod 4.

    Basis labels are 0 and 2q mod p for residues q, mapped to coordinates in
    ascending label order; the defining amplitudes (sqrt(N) on label 0 and
    e^{2 pi i q a / p} on label 2q) are normalized after construction.
    Vectors a, b are orthogonal iff b - a is a non-residue mod p.
    """
    if not is_prime(p) or p % 4 != 1:
        raise BadPrime("need a prime p = 1 mod 4", p=p)
    res = sorted(quadratic_residues(p))
    gauss = sum(np.exp(2j * math.pi * q / p) for q in res)
    N = max(-gauss.real, 1.0 + gauss.real)
    labels = sorted([0] + [(2 * q) % p for q in res])
    coord = {lab: i for i, lab in enumerate(labels)}
    d = (p + 1) // 2
    vecs = []
    for a in range(p):
        v = np.zeros(d, dtype=complex)
        v[coord[0]] = math.sqrt(N)
        for q in res:
            v[coord[(2 * q) % p]] += np.exp(2j * math.pi * q * a / p)
        vecs.append(v / np.linalg.norm(v))
    return _fam("quadres", {"p": p}, d, vecs)


def orthogonality_graph(vectors, tol: Tolerances = DEFAULT_TOL) -> Graph:
    """Graph with an edge wherever |<v_i|v_j>| <= tol.atol, read from the
    strict upper triangle of one Gram product; no vectors give the graph on
    0 vertices. A NaN overlap is no edge."""
    vecs = [as_vector(v) for v in vectors]
    if vecs and any(v.shape != vecs[0].shape for v in vecs):
        raise DimensionMismatch("vectors differ in dimension")
    m = np.array(vecs) if vecs else np.zeros((0, 0), dtype=complex)
    i, j = np.nonzero(np.triu(np.abs(m.conj() @ m.T) <= tol.atol, 1))
    return graph(len(vecs), zip(i.tolist(), j.tolist()))


@dataclass(frozen=True)
class LoorReport:
    graph_match: bool
    max_norm_dev: float
    strength: float
    theta_gap: float
    certificate: bool

    def to_json(self) -> dict:
        return {
            "graph_match": self.graph_match,
            "max_norm_dev": self.max_norm_dev,
            "strength": self.strength,
            "theta_gap": self.theta_gap,
            "certificate": self.certificate,
        }


def verify_loor(family: VectorFamily, expected: Graph, expected_theta: float,
                tol: Tolerances = DEFAULT_TOL) -> LoorReport:
    """Certify a family as a Lovasz-optimal orthogonal representation of the
    expected graph: the orthogonality pattern must match the expected graph
    (exactly, or up to relabeling when the exact match fails) and the family
    strength must be within 1e-6 of the expected Lovasz number."""
    from .contextuality import strength
    from .graphs import colored_equivalence, edge_colored_graph

    got = orthogonality_graph(family.vectors, tol)
    match = (got.n == expected.n and got.edges == expected.edges)
    if not match and got.n == expected.n:
        wrap_got = edge_colored_graph(got.n, {e: {0} for e in got.edges})
        wrap_exp = edge_colored_graph(expected.n,
                                      {e: {0} for e in expected.edges})
        match = colored_equivalence(wrap_got, wrap_exp) is not None
    dev = max(abs(np.linalg.norm(v) - 1.0) for v in family.vectors)
    s = strength(family.vectors, family.label).value
    gap = abs(s - expected_theta)
    return LoorReport(match, float(dev), float(s), float(gap),
                      bool(match and gap <= 1e-6))
