import functools
import itertools
import math

import numpy as np
import pytest

from ctxupb import cli, jsonio, upb
from ctxupb.errors import (BadPrime, DimensionMismatch, EmptyFamily,
                           Inconclusive, NotOrthogonalSet, NotUpb,
                           SizeMismatch)
from ctxupb.families import (genpyramid_local, one_param_family, pyramid,
                             quadres_local)
from ctxupb.graphs import complement, complete, cycle, is_cycle
from ctxupb.linalg import (DEFAULT_TOL, hermitian_eig, kron_all,
                           partial_transpose)
from ctxupb.upb import (ProductSet, _validated_witness, assemble_mapped,
                        bound_entangled_state, gencontextual_upb, is_minimal,
                        min_pt_eigenvalue, nonspanning_flats, one_param_upb,
                        party_graphs, product_set, quadres_upb,
                        upb_graph_equivalent, verify_upb)

from conftest import (genpyramid_25_upb, genpyramid_25_witness, qubit_basis,
                      random_unitary, unit_basis as e, witness_overlap)

PENTAGRAM = frozenset({(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)})


def pyramid_upb():
    return assemble_mapped(pyramid(), (1, 2))


def tiles_rep_upb():
    return one_param_upb(3 * math.pi / 4)


def tiles_upb():
    """Tiles UPB of Bennett et al., PRL 82, 5385 (1999)."""
    def s(*v):
        return np.array(v, dtype=float) / np.linalg.norm(v)
    return product_set((3, 3), [(s(1, 0, 0), s(1, -1, 0)),
                                (s(1, -1, 0), s(0, 0, 1)),
                                (s(0, 0, 1), s(0, 1, -1)),
                                (s(0, 1, -1), s(1, 0, 0)),
                                (s(1, 1, 1), s(1, 1, 1))])


def party_moduli(ps):
    out = []
    for m in range(ps.n_parties):
        vecs = np.array([ps.factor(j, m) for j in range(ps.k)])
        out.append(np.abs(vecs.conj() @ vecs.T))
    return out


def moduli_match(a, b):
    """True if some state permutation maps every per-party overlap-modulus
    matrix of `b` onto that of `a`; local unitaries preserve these moduli."""
    ma, mb = party_moduli(a), party_moduli(b)
    return any(all(np.allclose(x, y[np.ix_(perm, perm)], atol=1e-9)
                   for x, y in zip(ma, mb))
               for perm in itertools.permutations(range(a.k)))


class TestAssembly:
    def test_pyramid_upb_shape_and_orthogonality(self):
        ps = pyramid_upb()
        assert ps.party_dims == (3, 3)
        assert ps.k == 5
        _, colored = party_graphs(ps)
        assert all(colored.colorset(i, j) is not None
                   for i in range(5) for j in range(i + 1, 5))

    def test_genpyramid_9_shape(self):
        ps = assemble_mapped(genpyramid_local(4, 3), (1, 2, 3, 4))
        assert ps.party_dims == (3, 3, 3, 3)
        assert ps.k == 9

    def test_gencontextual_shapes(self):
        assert gencontextual_upb(5).party_dims == (3, 3)
        ps7 = gencontextual_upb(7)
        assert ps7.party_dims == (3, 5)
        assert ps7.k == 7

    def test_one_param_upb_map(self):
        fam = one_param_family(0.9)
        ps = one_param_upb(0.9)
        for j in range(5):
            assert np.array_equal(ps.factor(j, 0), fam.vectors[j])
            assert np.array_equal(ps.factor(j, 1), fam.vectors[(2 * j + 2) % 5])

    def test_tiles_rep_matches_tiles_moduli(self):
        assert moduli_match(tiles_rep_upb(), tiles_upb())
        # the orthogonal map j -> 2j is a UPB but not LU-equivalent to Tiles
        old = assemble_mapped(one_param_family(3 * math.pi / 4), (1, 2))
        assert not moduli_match(old, tiles_upb())

    def test_quadres_upb_smallest_nonresidue_pairing(self):
        ps = quadres_upb(5)
        fam = quadres_local(5)
        for i in range(5):
            assert np.allclose(ps.factor(i, 1), fam.vectors[(2 * i) % 5])

    @pytest.mark.parametrize("p", [7, 9])
    def test_quadres_upb_rejects_bad_prime(self, p):
        with pytest.raises(BadPrime) as exc:
            quadres_upb(p)
        assert exc.value.details == {"p": p}


class TestPartyGraphs:
    def test_pyramid_pentagon_and_complement(self):
        graphs, colored = party_graphs(pyramid_upb())
        assert graphs[0].edges == PENTAGRAM
        assert graphs[1].edges == complement(graphs[0]).edges
        union = graphs[0].edges | graphs[1].edges
        assert union == complete(5).edges
        # each edge of a minimal UPB carries exactly one color
        assert all(len(colored.colorset(i, j)) == 1
                   for i in range(5) for j in range(i + 1, 5))

    def test_gencontextual7_cycle_and_complement(self):
        graphs, _ = party_graphs(gencontextual_upb(7))
        assert graphs[0].edges == cycle(7).edges
        assert graphs[1].edges == complement(cycle(7)).edges


class TestExactVerifier:
    def test_pyramid_is_upb(self):
        assert verify_upb(pyramid_upb(), method="exact").status == "UPB"

    def test_tiles_rep_is_upb(self):
        assert verify_upb(tiles_rep_upb(), method="exact").status == "UPB"

    def test_extendible_five_states(self):
        ps = product_set((3, 3), [(e(3, a), e(3, b))
                                  for a, b in [(0, 0), (0, 1), (0, 2),
                                               (1, 0), (1, 1)]])
        v = verify_upb(ps, method="exact")
        assert v.status == "Extendible"
        assert witness_overlap(ps, v.witness) <= 1e-12
        # the deterministic rule picks the all-to-party-A assignment,
        # whose complement is e2 (x) e0
        assert np.allclose(v.witness[0], e(3, 2))
        assert np.allclose(v.witness[1], e(3, 0))
        # |12> is another valid extension of the same set
        assert witness_overlap(ps, (e(3, 1), e(3, 2))) <= 1e-12

    def test_complete_basis(self):
        ps = product_set((3, 3), [(e(3, a), e(3, b))
                                  for a in range(3) for b in range(3)])
        assert verify_upb(ps, method="exact").status == "CompleteBasis"

    def test_condition1_failure_named_pair(self):
        fam = genpyramid_local(7, 4)  # p = 15
        ps = assemble_mapped(fam, tuple(range(1, 8)))
        with pytest.raises(NotOrthogonalSet) as exc:
            verify_upb(ps, method="exact")
        assert exc.value.details["condition"] == 1
        assert exc.value.details["pair"] == [0, 3]

    def test_budget_guard(self, monkeypatch):
        # the complete product basis of five qubits: every certificate is
        # 16, so the flat search runs; it needs 30 flat nodes to decide the
        # set, so a budget of 10 stops it
        monkeypatch.setattr(upb, "SEARCH_BUDGET", 10)
        with pytest.raises(Inconclusive) as exc:
            verify_upb(qubit_basis(5), method="exact")
        details = exc.value.details
        assert details["nodes"] == details["budget"] == upb.SEARCH_BUDGET
        assert details["certificate"] == [16] * 5
        assert details["k"] == 32

    @pytest.mark.parametrize("method", ["exact", "auto"])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_qubit_basis_is_complete(self, n, method):
        # every certificate is 2^(n-1), far from closing; the flat search
        # shows that no split leaves every qubit non-spanning
        assert verify_upb(qubit_basis(n), method=method).status \
            == "CompleteBasis"

    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_genpyramid_25_search_finds_extension(self, method):
        # the certificate does not close (see TestBoundVerifier), so both
        # methods search and find an extension
        ps = genpyramid_25_upb()
        v = verify_upb(ps, method=method)
        assert v.status == "Extendible"
        assert v.certificate is None
        assert witness_overlap(ps, v.witness) <= DEFAULT_TOL.atol

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            verify_upb(pyramid_upb(), method="fast")

    def test_gencontextual_25_closed_by_certificate(self):
        # 2^25 assignments, yet the certificate decides it
        ps = gencontextual_upb(25)
        assert verify_upb(ps, method="exact").status == "UPB"
        assert verify_upb(ps, method="bound").certificate == (2, 22)

    def test_genpyramid_9_is_extendible_with_verified_witness(self):
        # the composite-p assembly admits a product extension: the party-3
        # factors repeat every three states, so two residue classes fit in
        # one plane and the remaining states hide in the other parties
        ps = assemble_mapped(genpyramid_local(4, 3), (1, 2, 3, 4))
        v = verify_upb(ps, method="exact")
        assert v.status == "Extendible"
        assert witness_overlap(ps, v.witness) <= 1e-12

    def test_genpyramid_9_witness_independent_of_scan_batches(
            self, monkeypatch):
        # budget 0 walks each tree node alone, 2048 expands runs of several
        # nodes per level; the search and so its witness must not depend on
        # the run length
        ps = assemble_mapped(genpyramid_local(4, 3), (1, 2, 3, 4))
        want = verify_upb(ps, method="exact").witness
        for budget in (0, 2048):
            monkeypatch.setattr(upb, "SCAN_BUDGET", budget)
            got = verify_upb(ps, method="exact").witness
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_removing_any_state_from_pyramid_extends(self):
        ps = pyramid_upb()
        for drop in range(5):
            sub = ProductSet(ps.party_dims,
                             tuple(st for j, st in enumerate(ps.states)
                                   if j != drop))
            v = verify_upb(sub, method="exact")
            assert v.status == "Extendible"
            assert witness_overlap(sub, v.witness) <= 1e-12

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_gencontextual_exact(self, n):
        v = verify_upb(gencontextual_upb(n), method="exact")
        assert v.status == "UPB"

    @pytest.mark.parametrize("p", [5, 13])
    def test_quadres_exact(self, p):
        assert verify_upb(quadres_upb(p), method="exact").status == "UPB"


class TestBoundVerifier:
    def test_gencontextual7_certificate(self):
        v = verify_upb(gencontextual_upb(7), method="bound")
        assert v.status == "CertifiedUnextendible"
        assert v.certificate == (2, 4)

    @pytest.mark.parametrize("n,cert", [(11, (2, 8)), (13, (2, 10))])
    def test_large_gencontextual_certified(self, n, cert):
        v = verify_upb(gencontextual_upb(n), method="bound")
        assert v.status == "CertifiedUnextendible"
        assert v.certificate == cert

    def test_genpyramid_25_certificate_does_not_close(self):
        # parties with multipliers 5 and 10 admit 10-state coplanar subsets,
        # so the certificate sums to 40 >= 25 (and the assembly is in fact
        # extendible, see test_genpyramid_25_explicit_witness)
        ps = genpyramid_25_upb()
        with pytest.raises(Inconclusive) as exc:
            verify_upb(ps, method="bound")
        cert = exc.value.details["certificate"]
        assert sum(cert) == 40
        assert cert[4] == cert[9] == 10

    def test_genpyramid_25_explicit_witness(self):
        ps = genpyramid_25_upb()
        assert witness_overlap(ps, genpyramid_25_witness(ps)) <= 1e-12

    def test_exact_and_bound_never_disagree(self):
        # the independent assignment oracle finds no extension wherever the
        # certificate closes
        from test_oracle_random_sets import CASES, oracle_extendible
        built = [pyramid_upb(), tiles_rep_upb(), quadres_upb(5),
                 gencontextual_upb(5), gencontextual_upb(7),
                 gencontextual_upb(9), quadres_upb(13)]
        closed = []
        for ps in built + CASES:
            try:
                verify_upb(ps, method="bound")
            except Inconclusive:
                continue
            closed.append(ps)
        assert len(closed) == len(built) + 67
        for ps in closed:
            assert not oracle_extendible(ps)

    def test_collinear_duplicates_counted(self):
        v = np.array([1, 0, 0], dtype=complex)
        w = np.array([0, 1, 0], dtype=complex)
        assert max_nonspanning([v, v, w], 3) == 3
        u = np.array([0, 0, 1], dtype=complex)
        assert max_nonspanning([v, v, u, w], 3) >= 2


def max_nonspanning(vectors, dim, tol=DEFAULT_TOL):
    """Largest number of the vectors inside a common proper subspace: the
    size of their largest hyperplane flat, as verify_upb's certificate
    reads it from the walk."""
    return int(nonspanning_flats(vectors, dim, tol).sum(axis=1).max())


def reference_max_nonspanning(vectors, dim, tol=DEFAULT_TOL):
    """One Gram-Schmidt loop per (dim-1)-subset: the scan nonspanning_flats
    batches, kept as its oracle."""
    k = len(vectors)
    vecs = np.array([np.asarray(v, dtype=complex) for v in vectors])
    r = min(dim - 1, k)
    if r <= 0:
        return 0
    best = 0
    for subset in itertools.combinations(range(k), r):
        basis = []
        for idx in subset:
            w = vecs[idx].copy()
            for b in basis:
                w = w - np.vdot(b, w) * b
            n = np.linalg.norm(w)
            if n > tol.atol:
                basis.append(w / n)
        if basis:
            bm = np.array(basis)
            proj = vecs - (vecs @ bm.conj().T) @ bm
        else:
            proj = vecs
        residues = np.linalg.norm(proj, axis=1)
        best = max(best, int(np.count_nonzero(residues <= tol.atol)))
    return best


def _units(rows):
    return list(rows / np.linalg.norm(rows, axis=1, keepdims=True))


def _gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _planted_set(rng, k, dim, block, sub_dim):
    """k random unit vectors in C^dim whose last `block` lie in one random
    sub_dim-dimensional subspace, so the largest non-spanning subsets come
    last in lexicographic order."""
    rows = _gaussian(rng, k, dim)
    rows[k - block:] = _gaussian(rng, block, sub_dim) @ _gaussian(rng, sub_dim,
                                                                  dim)
    return _units(rows)


def _degenerate_set(kind, seed):
    rng = np.random.default_rng([seed, 31])
    if kind == "repeated":
        # exact copies and phase multiples of earlier members
        dim, k = 4, 9
        rows = _gaussian(rng, k, dim)
        rows[3] = rows[0]
        rows[5] = 1j * rows[1]
        rows[8] = rows[0] * np.exp(0.7j)
        return _units(rows), dim
    if kind == "planted":
        dim = int(rng.integers(3, 6))
        k = int(rng.integers(dim + 2, 11))
        block = int(rng.integers(2, k - 1))
        return _planted_set(rng, k, dim, block,
                            int(rng.integers(1, dim))), dim
    if kind == "few":
        # k <= dim - 1: the one subset is the whole set
        dim = int(rng.integers(3, 7))
        return _units(_gaussian(rng, int(rng.integers(1, dim)), dim)), dim
    if kind == "dim1":
        return _units(_gaussian(rng, int(rng.integers(1, 6)), 1)), 1
    # dim 2: every non-spanning subset is collinear
    rows = _gaussian(rng, 7, 2)
    rows[4] = rows[1] * np.exp(2.1j)
    rows[6] = rows[1]
    return _units(rows), 2


def _repeated_rows_set(rng):
    """Eleven unit vectors in C^5 with exact repeats early in lexicographic
    order. Rows 1 and 2 copy row 0 and row 4 copies row 3, so subsets such
    as (0, 1, 2, 3) meet dependent members at depths 1 and 2 before an
    independent one. Rows 8-10 lie in the plane of rows 0 and 3, so ten
    rows fit in a 4-space, a subset that ends with the last rows."""
    rows = _gaussian(rng, 11, 5)
    rows[1] = rows[2] = rows[0]
    rows[4] = rows[3]
    rows[8:] = _gaussian(rng, 3, 2) @ rows[[0, 3]]
    return _units(rows), 5


def _batch_sizes(monkeypatch, names=("_child_residuals", "_plane_leaves")):
    """List that collects, for every batched step of the scan, the number
    of tree nodes whose children the step computes: residuals of inner
    nodes (_child_residuals) or the in-span masks of leaves in C^2
    (_plane_leaves); names picks the steps it spies on."""
    sizes = []
    for name in names:
        def spy(res, *args, real=getattr(upb, name)):
            sizes.append(res.shape[0])
            return real(res, *args)

        monkeypatch.setattr(upb, name, spy)
    return sizes


def reference_flats(vectors, dim, tol=DEFAULT_TOL):
    """The hyperplane flats nonspanning_flats lists, one subset at a time:
    for each r-subset in lexicographic order whose members each leave a
    residual above atol against the ones before (a LAPACK QR of the
    subset gives them as |R_ii|), the members within atol of its span."""
    k = len(vectors)
    vecs = np.array([np.asarray(v, dtype=complex) for v in vectors])
    r = min(dim - 1, k)
    if r <= 0:
        return np.zeros((1, k), dtype=bool)
    subsets = np.array(list(itertools.combinations(range(k), r)))
    flats = []
    for chunk in np.array_split(subsets, -(-len(subsets) // 2048)):
        q, rr = np.linalg.qr(vecs[chunk].transpose(0, 2, 1))
        independent = (np.abs(np.diagonal(rr, axis1=1, axis2=2))
                       > tol.atol).all(axis=1)
        q = q[independent]
        res = vecs.T - q @ (q.conj().transpose(0, 2, 1) @ vecs.T)
        flats.append(np.linalg.norm(res, axis=1) <= tol.atol)
    flats = np.concatenate(flats)
    return flats if len(flats) else np.ones((1, k), dtype=bool)


def _rotated(ps, seed):
    rng = np.random.default_rng([seed, 7])
    us = [random_unitary(rng, d) for d in ps.party_dims]
    return ProductSet(ps.party_dims, tuple(
        tuple(u @ f for u, f in zip(us, st)) for st in ps.states))


def _assert_reference_flats(ps):
    for m, d in enumerate(ps.party_dims):
        vectors = [ps.factor(j, m) for j in range(ps.k)]
        assert np.array_equal(nonspanning_flats(vectors, d),
                              reference_flats(vectors, d)), m


def _certificate(ps):
    return [max_nonspanning([ps.factor(j, m) for j in range(ps.k)], d)
            for m, d in enumerate(ps.party_dims)]


class TestBatchedNonspanningScan:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["repeated", "planted", "few", "dim1",
                                      "dim2"])
    def test_matches_per_subset_loop(self, kind, seed):
        vectors, dim = _degenerate_set(kind, seed)
        assert (max_nonspanning(vectors, dim)
                == reference_max_nonspanning(vectors, dim))
        assert np.array_equal(nonspanning_flats(vectors, dim),
                              reference_flats(vectors, dim))

    def test_known_values_of_degenerate_sets(self):
        vectors, dim = _degenerate_set("repeated", 0)
        # lines {0, 3, 8} and {1, 5} plus any third member span a 3-space
        assert max_nonspanning(vectors, dim) == 6
        vectors, dim = _degenerate_set("dim2", 0)
        assert max_nonspanning(vectors, dim) == 3   # {1, 4, 6}
        vectors, dim = _degenerate_set("dim1", 0)
        assert max_nonspanning(vectors, dim) == 0
        vectors, dim = _degenerate_set("few", 0)
        assert max_nonspanning(vectors, dim) == len(vectors)

    @pytest.mark.parametrize("k,dim", [(0, 1), (0, 3), (1, 2), (3, 5),
                                       (4, 5)])
    def test_fewer_than_dim_members_form_one_flat(self, k, dim, monkeypatch):
        # a repeated member too: fewer than dim vectors never span C^dim,
        # so the one flat holds them all, without a walk
        batches = _batch_sizes(monkeypatch)
        rows = _gaussian(np.random.default_rng([k, dim]), k, dim)
        rows[1:2] = rows[:1]
        vectors = _units(rows)
        flats = nonspanning_flats(vectors, dim)
        assert flats.tolist() == [[True] * k]
        assert np.array_equal(flats, reference_flats(vectors, dim))
        assert batches == []

    @pytest.mark.parametrize("k,dim", [(12, 4), (9, 5), (16, 3), (14, 6)])
    def test_scan_spanning_several_chunks(self, k, dim, monkeypatch):
        # budget 0 expands every tree node alone; 2048 expands runs of
        # several nodes per level on these sets, but not a whole level at
        # once. The planted block puts the largest non-spanning subsets last
        # in lexicographic order.
        batches = _batch_sizes(monkeypatch)
        rng = np.random.default_rng([k, dim])
        vectors = _planted_set(rng, k, dim, dim + 1, dim - 1)
        assert reference_max_nonspanning(vectors, dim) == dim + 1
        for budget in (0, 2048):
            monkeypatch.setattr(upb, "SCAN_BUDGET", budget)
            batches.clear()
            assert max_nonspanning(vectors, dim) == dim + 1
            assert (max(batches) == 1) == (budget == 0)

    @pytest.mark.parametrize("budget", [0, 2048, upb.SCAN_BUDGET],
                             ids=["alone", "subtrees", "default"])
    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_rows_under_node_budget(self, seed, budget, monkeypatch):
        monkeypatch.setattr(upb, "SCAN_BUDGET", budget)
        vectors, dim = _repeated_rows_set(np.random.default_rng([seed, 3]))
        assert (max_nonspanning(vectors, dim)
                == reference_max_nonspanning(vectors, dim) == 10)
        assert np.array_equal(nonspanning_flats(vectors, dim),
                              reference_flats(vectors, dim))

    def test_last_level_threshold_is_absolute(self):
        # v1 leaves a residual of 1e-3 against v0, so the last level's test
        # |w0 x1 - w1 x0| <= atol |w| must scale with that |w|: x_in
        # lies 0.5 atol from span(v0, v1), x_out 2 atol
        a = 1e-3

        def unit_z(z):
            return np.array([0.6 * np.sqrt(1 - z * z),
                             0.8 * np.sqrt(1 - z * z), z])
        vectors = [e(3, 0), np.array([np.cos(a), np.sin(a), 0]),
                   unit_z(0.5e-9), unit_z(2e-9)]
        flats = nonspanning_flats(vectors, 3)
        assert flats[0].tolist() == [True, True, True, False]
        assert np.array_equal(flats, reference_flats(vectors, 3))

    @pytest.mark.parametrize("n", range(7, 25, 2))
    def test_rotated_gencontextual_certificate(self, n):
        ps = _rotated(gencontextual_upb(n), n)
        assert _certificate(ps) == [2, n - 3]
        _assert_reference_flats(ps)

    def test_thin_deep_tree_in_few_steps(self, monkeypatch):
        # gencontextual 35's second party: 35 members in C^33, a tree 32
        # levels deep with at most 4 children per node. Runs of a level's
        # nodes take 1,922 residual steps here; splitting the walk by
        # subtree sizes took 9,177.
        ps = _rotated(gencontextual_upb(35), 35)
        vectors = [ps.factor(j, 1) for j in range(ps.k)]
        batches = _batch_sizes(monkeypatch, ("_child_residuals",))
        flats = nonspanning_flats(vectors, 33)
        assert len(batches) <= 2500
        assert np.array_equal(flats, reference_flats(vectors, 33))

    @pytest.mark.parametrize("p,cert", [(13, [6, 6]), (17, [8, 8])])
    def test_rotated_quadres_certificate(self, p, cert):
        ps = _rotated(quadres_upb(p), p)
        assert _certificate(ps) == cert
        _assert_reference_flats(ps)

    def test_rotated_genpyramid_certificate(self):
        ps = assemble_mapped(genpyramid_local(4, 3), (1, 2, 3, 4))
        assert _certificate(_rotated(ps, 4)) == [2, 2, 6, 2]


def _moved(vectors, dim, seed):
    """The vectors permuted, each times a unit phase, and all under one
    random unitary: moves that keep the largest non-spanning subset."""
    rng = np.random.default_rng([seed, 11])
    k = len(vectors)
    phases = np.exp(2j * np.pi * rng.random(k))
    u = random_unitary(rng, dim)
    return {"permuted": [vectors[i] for i in rng.permutation(k)],
            "phased": [z * v for z, v in zip(phases, vectors)],
            "unitary": [u @ v for v in vectors]}


class TestNonspanningInvariance:
    # a permutation changes which subsets share a tree prefix, so it also
    # checks the sharing of residuals between them
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["repeated", "planted", "few", "dim1",
                                      "dim2"])
    def test_degenerate_sets(self, kind, seed):
        vectors, dim = _degenerate_set(kind, seed)
        want = max_nonspanning(vectors, dim)
        for move, moved in _moved(vectors, dim, seed).items():
            assert max_nonspanning(moved, dim) == want, move

    @pytest.mark.parametrize("ps,cert", [
        *((gencontextual_upb(n), [2, n - 3]) for n in range(7, 25, 2)),
        (quadres_upb(13), [6, 6])],
        ids=[*(f"gencontextual-{n}" for n in range(7, 25, 2)), "quadres-13"])
    def test_rotated_product_sets(self, ps, cert):
        ps = _rotated(ps, ps.k)
        for m, d in enumerate(ps.party_dims):
            vectors = [ps.factor(j, m) for j in range(ps.k)]
            for move, moved in _moved(vectors, d, m).items():
                assert max_nonspanning(moved, d) == cert[m], move


def _member_off_hyperplane(rng, dim, k, offset):
    """k random unit vectors in C^dim whose last member lies `offset` from
    the span of the first dim - 1, a hyperplane."""
    vectors = _units(_gaussian(rng, k, dim))
    q = np.linalg.qr(np.array(vectors[:dim - 1]).T, mode="complete")[0]
    inside = q[:, :dim - 1] @ _gaussian(rng, dim - 1)
    vectors[-1] = (np.sqrt(1 - offset ** 2) * inside / np.linalg.norm(inside)
                   + offset * q[:, dim - 1])
    return vectors


class TestGeneralPosition:
    """upb._general_position: dim - 1 only where the walk's largest flat is
    dim - 1, and verify_upb's output as if the walk had run."""

    @pytest.mark.parametrize("n", [7, 11, 15, 19, 23, 27, 31, 35, 41, 51])
    def test_rotated_gencontextual_second_party(self, n):
        ps = _rotated(gencontextual_upb(n), n)
        vectors = [ps.factor(j, 1) for j in range(n)]
        assert upb._general_position(vectors, n - 2) == n - 3
        if n <= 41:   # the walk takes seconds from n = 51 on
            assert max_nonspanning(vectors, n - 2) == n - 3

    @pytest.mark.parametrize("corank", [0, 1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_random_sets(self, dim, corank):
        rng = np.random.default_rng([dim, corank, 5])
        for _ in range(3):
            vectors = _units(_gaussian(rng, dim + corank, dim))
            got = upb._general_position(vectors, dim)
            if corank < dim - 1:
                assert got == dim - 1 == max_nonspanning(vectors, dim)
            else:
                assert got is None

    @pytest.mark.parametrize("corank", [0, 1, 2, 3])
    @pytest.mark.parametrize("dim", [5, 7])
    def test_planted_flat_declines(self, dim, corank):
        # dim members in a (dim-1)-space: a flat of dim members
        rng = np.random.default_rng([dim, corank, 9])
        vectors = _planted_set(rng, dim + corank, dim, dim, dim - 1)
        assert upb._general_position(vectors, dim) is None
        assert max_nonspanning(vectors, dim) >= dim

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["repeated", "planted", "few", "dim1",
                                      "dim2"])
    def test_only_where_the_walk_agrees(self, kind, seed):
        vectors, dim = _degenerate_set(kind, seed)
        got = upb._general_position(vectors, dim)
        assert got is None or got == max_nonspanning(vectors, dim) == dim - 1

    @pytest.mark.parametrize("budget", [0, upb.SCAN_BUDGET],
                             ids=["alone", "default"])
    @pytest.mark.parametrize("offset,walk", [(0.5, 1), (2, 0)])
    @pytest.mark.parametrize("dim,corank", [(4, 0), (5, 1), (6, 2), (7, 3)])
    def test_declines_near_a_hyperplane(self, dim, corank, offset, walk,
                                        budget, monkeypatch):
        # 0.5 atol off lies in the flat, 2 atol off does not; the
        # certificate leaves both to the walk. The small minor is that of
        # the c-subset between the hyperplane's members and the last one,
        # past the first run when budget 0 takes one subset a run.
        monkeypatch.setattr(upb, "SCAN_BUDGET", budget)
        rng = np.random.default_rng([dim, corank, 13])
        vectors = _member_off_hyperplane(rng, dim, dim + corank,
                                         offset * DEFAULT_TOL.atol)
        assert upb._general_position(vectors, dim) is None
        assert max_nonspanning(vectors, dim) == dim - 1 + walk

    @pytest.mark.parametrize("name,params", [
        ("one-param", {"theta": "pi/12"}), ("pyramid", {}), ("kcbs", {}),
        ("tiles-rep", {}), ("genpyramid", {"m": 4, "t": 3}),
        ("genpyramid", {"m": 6, "t": 5}), ("quadres", {"p": 5}),
        ("quadres", {"p": 13}), ("gencontextual", {"n": 7}),
        ("gencontextual", {"n": 15}), ("gencontextual", {"n": 23})],
        ids=lambda x: x if isinstance(x, str) else ",".join(
            map(str, x.values())))
    def test_verdicts_as_if_walked(self, name, params, monkeypatch):
        base = cli.build_upb(name, **params)
        sets = [base, *(_rotated(base, seed) for seed in range(2))]
        methods = ("auto", "exact")

        def docs():
            return [jsonio.dumps(verify_upb(ps, method=m).to_json())
                    for ps in sets for m in methods]
        want = docs()
        monkeypatch.setattr(upb, "_general_position", lambda *a: None)
        assert docs() == want

    @pytest.mark.parametrize("n", [61, 101])
    def test_large_gencontextual_skips_the_walk(self, n, monkeypatch, capsys):
        # the second party, n members in C^(n-2), is certified without a
        # residual step; the first, in C^3, is walked
        coords = []

        def spy(res, *args, real=upb._child_residuals):
            coords.append(res.shape[-1])
            return real(res, *args)
        monkeypatch.setattr(upb, "_child_residuals", spy)
        assert cli.run(["verify-upb", "gencontextual", "--n", str(n)]) == 0
        result = jsonio.loads(capsys.readouterr().out)["result"]
        assert result["status"] == "CertifiedUnextendible"
        assert result["certificate"] == [2, n - 3]
        assert set(coords) == {3}


class TestProductSetValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308],
                             ids=["nan", "inf", "overflow"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_factor_rejected(self, bad):
        with pytest.raises(DimensionMismatch, match="not unit norm"):
            product_set((2, 2), [(np.array([bad, 0]), e(2, 0))])

    @pytest.mark.parametrize("dims", [(0, 3), (2, -1)])
    def test_party_dimension_below_one_rejected(self, dims):
        with pytest.raises(DimensionMismatch, match="party dimension"):
            product_set(dims, [])

    def test_no_parties_rejected(self):
        with pytest.raises(DimensionMismatch, match="no parties"):
            product_set((), [])

    def test_no_states_rejected(self):
        with pytest.raises(EmptyFamily, match="no states"):
            product_set((2, 2), [])

    def test_non_finite_witness_rejected(self):
        ps = product_set((2, 2), [(e(2, 0), e(2, 0))])
        with pytest.raises(NotUpb, match="witness"):
            _validated_witness(ps, (np.array([np.nan, 0]), e(2, 1)),
                               DEFAULT_TOL)


class TestMinimality:
    def test_known_minimal(self):
        assert is_minimal(pyramid_upb())
        assert is_minimal(gencontextual_upb(9))
        assert is_minimal(quadres_upb(13))

    def test_complete_basis_not_minimal(self):
        ps = product_set((3, 3), [(e(3, a), e(3, b))
                                  for a in range(3) for b in range(3)])
        assert not is_minimal(ps)


class TestBoundEntangledState:
    def test_requires_verdict(self):
        ps = pyramid_upb()
        with pytest.raises(NotUpb):
            bound_entangled_state(ps)

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_complete_basis_has_no_state(self, method):
        # auto certifies this basis as [2, 1]; its complement is empty, so
        # the state's normalization D - k would divide by 0
        h = 1 / math.sqrt(2)
        ps = product_set((2, 2), [(e(2, 0), e(2, 0)), (e(2, 0), e(2, 1)),
                                  (e(2, 1), np.array([h, h])),
                                  (e(2, 1), np.array([h, -h]))])
        v = verify_upb(ps, method=method)
        with pytest.raises(NotUpb) as err:
            bound_entangled_state(ps, v)
        assert err.value.details["status"] == "CompleteBasis"

    def test_rejects_extendible_verdict(self):
        ps = product_set((3, 3), [(e(3, 0), e(3, 0)), (e(3, 1), e(3, 1))])
        v = verify_upb(ps, method="exact")
        with pytest.raises(NotUpb):
            bound_entangled_state(ps, v)

    def test_pyramid_bes_properties(self):
        ps = pyramid_upb()
        verdict = verify_upb(ps, method="exact")
        rho = bound_entangled_state(ps, verdict)
        assert rho.matrix.shape == (9, 9)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
        assert rho.rank() == 4
        # orthogonal to every member
        for st in ps.states:
            psi = kron_all(st)
            assert abs(np.vdot(psi, rho.matrix @ psi)) <= 1e-12
        # PSD and PPT
        w = rho.eigenvalues()
        assert w[0] >= -1e-12
        pt = partial_transpose(rho.matrix, (3, 3), 1)
        assert hermitian_eig(pt)[0][0] >= -1e-9
        assert min_pt_eigenvalue(rho) == hermitian_eig(pt)[0][0]

    def test_entangled_despite_ppt(self):
        # the complement of a UPB contains no product state, so the bes is
        # entangled; certified here by a positive lee upper bound gap from
        # every product state (spot check: overlap with random products < 1)
        ps = pyramid_upb()
        rho = bound_entangled_state(ps, verify_upb(ps, method="exact"))
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            # no product state can reach the complement subspace fully
            assert (v.conj() @ rho.matrix @ v).real < 0.999


class TestIsPpt:
    def test_maximally_entangled_fails(self):
        psi = (np.kron(e(2, 0), e(2, 0)) + np.kron(e(2, 1), e(2, 1))) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        from ctxupb.upb import DensityMatrix
        dm = DensityMatrix(rho, (2, 2))
        assert min_pt_eigenvalue(dm) == pytest.approx(-0.5, abs=1e-12)
        assert min_pt_eigenvalue(dm) < -DEFAULT_TOL.atol

    def test_product_density_passes(self, rng):
        from conftest import random_density
        from ctxupb.upb import DensityMatrix
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        dm = DensityMatrix(rho, (2, 3))
        for party in (0, 1):
            assert min_pt_eigenvalue(dm, party) >= -DEFAULT_TOL.atol

    def test_multipartite_rejected(self):
        from ctxupb.upb import DensityMatrix
        with pytest.raises(DimensionMismatch):
            min_pt_eigenvalue(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))


class TestGraphEquivalence:
    def test_pyramid_vs_tiles_rep(self):
        assert upb_graph_equivalent(pyramid_upb(), tiles_rep_upb()) is not None

    def test_pyramid_vs_quadres5(self):
        assert upb_graph_equivalent(pyramid_upb(), quadres_upb(5)) is not None

    def test_pyramid_vs_gencontextual5(self):
        perm = upb_graph_equivalent(pyramid_upb(), gencontextual_upb(5))
        assert perm is not None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            upb_graph_equivalent(gencontextual_upb(5), gencontextual_upb(7))

    def test_party1_factors_are_cycles(self):
        for ps in (pyramid_upb(), tiles_rep_upb(), quadres_upb(5),
                   gencontextual_upb(5), gencontextual_upb(7),
                   gencontextual_upb(9)):
            graphs, _ = party_graphs(ps)
            assert is_cycle(graphs[0])
            assert graphs[1].edges == complement(graphs[0]).edges


def _signed_zero_factor(*pairs):
    z = np.array([complex(re, im) for re, im in pairs])
    return z / np.linalg.norm(z)


class TestFullVectors:
    @pytest.mark.parametrize("ps", [
        _rotated(pyramid_upb(), 1), qubit_basis(3),
        _rotated(assemble_mapped(genpyramid_local(4, 3), (1, 2, 3, 4)), 2),
        product_set((2, 3, 2), [
            (_signed_zero_factor((-1, -0.0), (-0.0, 0.0)),
             _signed_zero_factor((0.0, -0.0), (-2, -0.0), (-0.0, 1)),
             _signed_zero_factor((-0.0, -1), (1, -0.0))),
            (_signed_zero_factor((-0.0, -0.0), (-1, 0.0)),
             _signed_zero_factor((-1, 0.0), (-0.0, -0.0), (0.0, -0.0)),
             _signed_zero_factor((-0.0, 0.0), (-0.0, -1)))])],
        ids=["2-party", "3-qubit", "4-party", "signed-zeros"])
    def test_bitwise_kron_all(self, ps):
        # kron_all gives the rows of full_vectors and the witness's vector
        want = np.array([functools.reduce(np.kron, st) for st in ps.states])
        assert ps.full_vectors().tobytes() == want.tobytes()
        assert np.array([kron_all(st) for st in ps.states]).tobytes() == \
            want.tobytes()
        assert ps.full_vectors() is ps.full_vectors()
        assert not ps.full_vectors().flags.writeable


class TestSerialization:
    def test_product_set_roundtrip(self):
        ps = pyramid_upb()
        back = ProductSet.from_json(ps.to_json())
        assert back.party_dims == ps.party_dims
        for a, b in zip(back.states, ps.states):
            for fa, fb in zip(a, b):
                assert np.max(np.abs(fa - fb)) <= 1e-15
