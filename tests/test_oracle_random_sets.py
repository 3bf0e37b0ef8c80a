"""Extendibility cross-validation on randomized orthogonal product sets.

The generator builds each new product state by picking, for every existing
state, a party that will realize their orthogonality, then sampling the new
local factors inside the corresponding orthogonal complements. The oracle
decides extendibility independently of the verifier: it enumerates every
state-to-party assignment, builds candidate extension factors from SVD null
spaces, and accepts purely on directly computed overlaps (plus a random
product-state sampling pass that can only confirm extendibility).
"""

import itertools

import numpy as np
import pytest

from ctxupb.linalg import DEFAULT_TOL, kron_all
from ctxupb.upb import ProductSet, party_graphs, verify_upb

N_SETS = 200


def _random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _unit_in_complement(rng, vectors, d):
    """Random unit vector Hermitian-orthogonal to all of ``vectors``, or
    None when they span. Solves conj(A) w = 0 via SVD."""
    if not vectors:
        return _random_unit(rng, d)
    a = np.array(vectors).conj()
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    if rank >= d:
        return None
    null = vh[rank:].conj()
    coeff = rng.normal(size=null.shape[0]) + 1j * rng.normal(size=null.shape[0])
    w = coeff @ null
    return w / np.linalg.norm(w)


def random_orthogonal_product_set(rng, dims, k, attempts=60):
    states = []
    for _ in range(k):
        for _ in range(attempts):
            assign = rng.integers(0, len(dims), size=len(states))
            factors = []
            ok = True
            for m, d in enumerate(dims):
                anchors = [states[j][m] for j in range(len(states))
                           if assign[j] == m]
                f = _unit_in_complement(rng, anchors, d)
                if f is None:
                    ok = False
                    break
                factors.append(f)
            if ok:
                states.append(tuple(factors))
                break
        else:
            break
    if len(states) < 2:
        return None
    return ProductSet(tuple(dims), tuple(states))


def oracle_extendible(ps, tol=1e-9):
    """Assignment enumeration with SVD null-space candidates, validated by
    direct overlap evaluation only."""
    dims = ps.party_dims
    k = ps.k
    full = ps.full_vectors()
    for assign in itertools.product(range(len(dims)), repeat=k):
        factors = []
        feasible = True
        for m, d in enumerate(dims):
            anchors = np.array([ps.factor(j, m) for j in range(k)
                                if assign[j] == m])
            if anchors.size == 0:
                e0 = np.zeros(d, dtype=complex)
                e0[0] = 1.0
                factors.append(e0)
                continue
            u, s, vh = np.linalg.svd(anchors.conj())
            rank = int(np.sum(s > 1e-10 * s[0])) if s[0] > 0 else 0
            if rank >= d:
                feasible = False
                break
            factors.append(vh[rank].conj())
        if not feasible:
            continue
        w = kron_all(factors)
        if np.max(np.abs(full.conj() @ w)) <= tol:
            return True
    return False


def sampling_finds_witness(rng, ps, n_samples=300, tol=1e-9):
    full = ps.full_vectors()
    for _ in range(n_samples):
        w = kron_all([_random_unit(rng, d) for d in ps.party_dims])
        if np.max(np.abs(full.conj() @ w)) <= tol:
            return True
    return False


def _random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated_pyramid_cases(rng, count):
    """Randomly rotated pyramid UPBs (still UPBs) and dropped-state variants
    (extendible); keeps the oracle honest on the unextendible side too."""
    from ctxupb.families import pyramid
    from ctxupb.upb import assemble_mapped
    base = assemble_mapped(pyramid(), (1, 2))
    cases = []
    for i in range(count):
        ua = _random_unitary(rng, 3)
        ub = _random_unitary(rng, 3)
        states = tuple((ua @ a, ub @ b) for a, b in base.states)
        if i % 2 == 0:
            cases.append(ProductSet((3, 3), states))
        else:
            drop = int(rng.integers(0, 5))
            cases.append(ProductSet(
                (3, 3), tuple(s for j, s in enumerate(states) if j != drop)))
    return cases


def _cases():
    rng = np.random.default_rng(881)
    cases = _rotated_pyramid_cases(rng, 20)
    while len(cases) < N_SETS:
        dims = (2, 2) if len(cases) % 2 == 0 else (3, 3)
        k = int(rng.integers(2, 7))
        ps = random_orthogonal_product_set(rng, dims, k)
        if ps is not None:
            cases.append(ps)
    return cases


CASES = _cases()


def _rotated_qubit_cases(rng, count):
    """The three-qubit Shifts UPB |0,1,+>, |1,+,0>, |+,0,1>, |-,-,->, and
    the three-qubit computational basis, whose certificate does not close,
    under random local unitaries (still unextendible), each alternating
    with a copy that drops one state (extendible)."""
    zero, one = np.eye(2)
    plus, minus = (zero + one) / np.sqrt(2), (zero - one) / np.sqrt(2)
    shifts = ((zero, one, plus), (one, plus, zero), (plus, zero, one),
              (minus, minus, minus))
    basis = tuple(itertools.product((zero, one), repeat=3))
    cases = []
    for i in range(count):
        base = shifts if i % 4 < 2 else basis
        us = [_random_unitary(rng, 2) for _ in range(3)]
        states = [tuple(u @ f for u, f in zip(us, st)) for st in base]
        if i % 2:
            del states[int(rng.integers(0, len(states)))]
        cases.append(ProductSet((2, 2, 2), tuple(states)))
    return cases


def _multipartite_cases():
    rng = np.random.default_rng(577)
    cases = _rotated_qubit_cases(rng, 8)
    while len(cases) < 38:
        dims = ((2, 2, 2), (2, 2, 3), (2, 2, 2, 2))[len(cases) % 3]
        ps = random_orthogonal_product_set(rng, dims, int(rng.integers(3, 8)))
        if ps is not None:
            cases.append(ps)
    return cases


MULTIPARTITE_CASES = _multipartite_cases()


def test_generator_produces_orthogonal_sets():
    from ctxupb.upb import party_graphs
    for ps in CASES[:50]:
        _, colored = party_graphs(ps)
        for i in range(ps.k):
            for j in range(i + 1, ps.k):
                assert colored.colorset(i, j) is not None


def test_party_graphs_match_pairwise_overlaps():
    # each party's edges against one overlap per pair, the colors against
    # the union of the parties' edges
    for ps in CASES + MULTIPARTITE_CASES:
        graphs, colored = party_graphs(ps)
        want = {}
        for m, g in enumerate(graphs):
            edges = {(i, j) for i, j in itertools.combinations(range(ps.k), 2)
                     if abs(np.vdot(ps.factor(i, m), ps.factor(j, m)))
                     <= DEFAULT_TOL.orth_tol}
            assert g.n == ps.k and g.edges == edges
            for e in edges:
                want.setdefault(e, set()).add(m)
        assert colored.color == want


@pytest.mark.parametrize("idx", range(N_SETS))
def test_verifier_agrees_with_oracle(idx):
    ps = CASES[idx]
    verdict = verify_upb(ps, method="exact")
    got_extendible = verdict.status == "Extendible"
    assert got_extendible == oracle_extendible(ps)


@pytest.mark.parametrize("idx", range(len(MULTIPARTITE_CASES)))
def test_multipartite_verifier_agrees_with_oracle(idx):
    ps = MULTIPARTITE_CASES[idx]
    verdict = verify_upb(ps, method="exact")
    assert (verdict.status == "Extendible") == oracle_extendible(ps)


def test_sampling_hits_imply_extendibility():
    rng = np.random.default_rng(4242)
    for ps in CASES[:40]:
        if sampling_finds_witness(rng, ps):
            assert verify_upb(ps, method="exact").status == "Extendible"
