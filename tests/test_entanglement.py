import math

import numpy as np
import pytest

from ctxupb import entanglement
from ctxupb.entanglement import (ARMIJO, LBFGS_MEMORY, MAX_BACKTRACKS,
                                 TABLE1_ROWS, Decomposition, _inner,
                                 _lbfgs_direction, _line_search,
                                 _retract, _roof, _starts, _tangent,
                                 decomposition_value, lee_upper_bound,
                                 linear_entropy, pure_lee_term, table1)
from ctxupb.errors import BadDecomposition, BadSize, DimensionMismatch
from ctxupb.families import pyramid
from ctxupb.linalg import hermitian_eig
from ctxupb.upb import (assemble_mapped, bound_entangled_state, one_param_upb,
                        verify_upb)

from conftest import random_unit, random_unitary


def e(d, i):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def pyramid_bes():
    ps = assemble_mapped(pyramid(), (1, 2))
    return bound_entangled_state(ps, verify_upb(ps, method="exact")).matrix


def one_param_bes(theta):
    ps = one_param_upb(theta)
    return bound_entangled_state(ps, verify_upb(ps, method="exact")).matrix


def max_entangled(d):
    psi = sum(np.kron(e(d, i), e(d, i)) for i in range(d)) / math.sqrt(d)
    return psi


class TestLinearEntropy:
    def test_pure_state(self, rng):
        v = random_unit(rng, 5)
        assert abs(linear_entropy(np.outer(v, v.conj()))) <= 1e-12

    def test_maximally_mixed(self):
        for d in (2, 3, 7):
            assert abs(linear_entropy(np.eye(d) / d) - (1 - 1 / d)) <= 1e-12

    def test_qubit_half(self):
        assert abs(linear_entropy(np.eye(2) / 2) - 0.5) <= 1e-15


class TestPureLeeTerm:
    def test_product_state(self, rng):
        a, b = random_unit(rng, 3), random_unit(rng, 4)
        assert abs(pure_lee_term(np.kron(a, b), (3, 4))) <= 1e-12

    def test_maximally_entangled(self):
        assert abs(pure_lee_term(max_entangled(2), (2, 2)) - 0.5) <= 1e-12
        assert abs(pure_lee_term(max_entangled(3), (3, 3)) - 2 / 3) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pure_lee_term(np.ones(5) / math.sqrt(5), (2, 3))


class TestDecompositionValue:
    def test_separable_diagonal_mixture(self):
        states = [np.kron(e(2, a), e(2, b)) for a, b in
                  [(0, 0), (0, 1), (1, 0), (1, 1)]]
        weights = [0.4, 0.3, 0.2, 0.1]
        rho = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states))
        d = Decomposition(tuple(weights), tuple(states))
        assert abs(decomposition_value(rho, (2, 2), d)) <= 1e-12

    def test_pure_entangled_state(self):
        psi = max_entangled(2)
        rho = np.outer(psi, psi.conj())
        d = Decomposition((1.0,), (psi,))
        assert abs(decomposition_value(rho, (2, 2), d) - 0.5) <= 1e-12

    def test_eigendecomposition_upper_bounds_roof(self):
        rho = pyramid_bes()
        w, v = hermitian_eig(rho)
        keep = w > 1e-12
        d = Decomposition(tuple(w[keep]),
                          tuple(v[:, i] for i in np.where(keep)[0]))
        eig_value = decomposition_value(rho, (3, 3), d)
        res = lee_upper_bound(rho, (3, 3), restarts=4, seed=7)
        assert res.value <= eig_value + 1e-12

    def test_bad_reconstruction_rejected(self):
        psi = max_entangled(2)
        rho = np.outer(psi, psi.conj())
        other = np.kron(e(2, 0), e(2, 0))
        d = Decomposition((1.0,), (other,))
        with pytest.raises(BadDecomposition):
            decomposition_value(rho, (2, 2), d)

    def test_invariance_under_permutation_and_phases(self, rng):
        rho = pyramid_bes()
        res = lee_upper_bound(rho, (3, 3), restarts=2, seed=3)
        d = res.best
        base = decomposition_value(rho, (3, 3), d)
        perm = rng.permutation(d.size)
        phases = np.exp(2j * np.pi * rng.random(d.size))
        d2 = Decomposition(tuple(d.weights[i] for i in perm),
                           tuple(phases[i] * d.states[i] for i in perm))
        assert decomposition_value(rho, (3, 3), d2) == pytest.approx(
            base, abs=1e-12)


class TestLeeUpperBound:
    def test_pure_product_state_exact_zero(self):
        psi = np.kron(e(3, 0), e(3, 1))
        rho = np.outer(psi, psi.conj())
        res = lee_upper_bound(rho, (3, 3), restarts=2, seed=1)
        assert res.value == 0.0
        assert res.best.size == 1

    def test_size_below_rank_rejected(self):
        rho = pyramid_bes()
        with pytest.raises(BadSize):
            lee_upper_bound(rho, (3, 3), L=3)

    def test_value_matches_decomposition(self):
        rho = pyramid_bes()
        res = lee_upper_bound(rho, (3, 3), restarts=4, seed=7)
        val = decomposition_value(rho, (3, 3), res.best)
        assert abs(val - res.value) <= 1e-10
        assert res.value >= 0.0
        assert all(w > 0 for w in res.best.weights)
        assert abs(sum(res.best.weights) - 1.0) <= 1e-9

    def test_monotone_in_restarts(self):
        rho = pyramid_bes()
        vals = [lee_upper_bound(rho, (3, 3), restarts=r, seed=7).value
                for r in (1, 2, 4)]
        assert vals[1] <= vals[0] + 1e-12
        assert vals[2] <= vals[1] + 1e-12

    def test_separable_mixture_reaches_zero(self, rng):
        states = []
        for _ in range(4):
            a, b = random_unit(rng, 2), random_unit(rng, 2)
            states.append(np.kron(a, b))
        w = rng.random(4)
        w /= w.sum()
        rho = sum(wi * np.outer(s, s.conj()) for wi, s in zip(w, states))
        res = lee_upper_bound(rho, (2, 2), restarts=8, seed=7)
        assert res.value <= 1e-6

    def test_larger_decomposition_no_worse(self):
        rho = pyramid_bes()
        v16 = lee_upper_bound(rho, (3, 3), L=16, restarts=8, seed=7).value
        v17 = lee_upper_bound(rho, (3, 3), L=17, restarts=8, seed=7).value
        assert v17 <= v16 + 1e-9

    def test_seed_reproducible(self):
        rho = pyramid_bes()
        a = lee_upper_bound(rho, (3, 3), restarts=3, seed=11)
        b = lee_upper_bound(rho, (3, 3), restarts=3, seed=11)
        assert a.value == b.value

    def test_tiles_rep_value(self):
        # converged optimum for the Tiles UPB (the 3pi/4 member); Table 1
        # gives 0.06519
        ps = one_param_upb(3 * math.pi / 4)
        rho = bound_entangled_state(ps, verify_upb(ps, method="exact")).matrix
        res = lee_upper_bound(rho, (3, 3), restarts=8, seed=7)
        assert res.value == pytest.approx(0.065191, abs=2e-4)

    def test_restart_results_independent_of_batch(self):
        rho = pyramid_bes()
        for L in (5, 16):
            runs = {R: lee_upper_bound(rho, (3, 3), L=L, restarts=R, seed=7)
                    for R in (1, 4, 8, 64)}
            full = runs[64]
            for R, res in runs.items():
                assert res.iterations == full.iterations[:R]
                assert res.restart_values == full.restart_values[:R]
                assert res.evaluations == full.evaluations[:R]
            assert len(full.iterations) == len(full.restart_values) == 64
            assert len(full.evaluations) == 64
            assert all(1 <= n <= 500 for n in full.iterations)
            # the start, then at least one trial step per iteration
            assert all(n + 1 <= m <= 1 + MAX_BACKTRACKS * n
                       for n, m in zip(full.iterations, full.evaluations))
            assert full.value == min(full.restart_values)
            assert "restart_values" not in full.to_json()
            assert "iterations" not in full.to_json()
            assert "evaluations" not in full.to_json()

    # each restart's seeded work and final value, bit for bit, at L = 5,
    # 8 restarts, seed 7
    PINNED = {
        "pyramid": (
            (15, 13, 36, 16, 13, 46, 17, 14),
            (22, 17, 51, 21, 16, 65, 31, 17),
            ("0x1.2acc969c177fep-4", "0x1.2acc969c14878p-4",
             "0x1.2acc969c1b8acp-4", "0x1.2acc969c11aaap-4",
             "0x1.2acc969c59c90p-4", "0x1.2acc969c119c6p-4",
             "0x1.2acc969c1338cp-4", "0x1.2acc969c17476p-4")),
        "pi/12": (
            (25, 16, 17, 19, 20, 22, 24, 24),
            (32, 20, 21, 23, 24, 28, 31, 32),
            ("0x1.2b9c0c1e44100p-12", "0x1.2b9c12393ad00p-12",
             "0x1.2b9c0c4a4d800p-12", "0x1.2b9c0d777d820p-12",
             "0x1.2b9c0c76ee780p-12", "0x1.2b9c0c2e3b0fap-12",
             "0x1.2b9c0e38ce9a8p-12", "0x1.2b9c1150a5400p-12")),
    }

    @pytest.mark.parametrize("state", sorted(PINNED))
    def test_seeded_work_pinned(self, state):
        rho = pyramid_bes() if state == "pyramid" else one_param_bes(
            math.pi / 12)
        res = lee_upper_bound(rho, (3, 3), L=5, restarts=8, seed=7)
        iterations, evaluations, values = self.PINNED[state]
        assert res.iterations == iterations
        assert res.evaluations == evaluations
        assert tuple(v.hex() for v in res.restart_values) == values

    @pytest.mark.parametrize("L", [5, 4])
    def test_iteration_cap(self, monkeypatch, L):
        # L = 4 is the state's rank, so U is square
        monkeypatch.setattr(entanglement, "MAX_ITERATIONS", 3)
        lam, E = np.linalg.eigh(pyramid_bes())
        keep = lam > entanglement.EIG_FLOOR
        B = (np.sqrt(lam[keep])[:, None] * E[:, keep].T).astype(complex)
        assert len(B) == 4
        U, f, iterations, evaluations, converged = entanglement._minimize(
            _starts(7, 16, L, 4), B, 3, 3)
        assert (~converged).sum() >= 8
        assert np.all(iterations[~converged] == 3)
        assert np.all(iterations <= 3)
        assert np.all(evaluations >= iterations + 1)
        assert np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(4))
                      ) <= 1e-12
        assert np.array_equal(f, _roof(U, B, 3, 3)[0])
        for i in range(len(U)):
            assert f[i] == _roof(U[i:i + 1], B, 3, 3)[0][0]

    def test_single_restart_reaches_full_l_optimum(self):
        # restart 0 is a seeded random isometry like the others, so one
        # restart at L = 16 finds the optimum, not the L = r = 4 value
        res = lee_upper_bound(pyramid_bes(), (3, 3), L=16, restarts=1)
        assert abs(res.value - 0.0729490) <= 1e-7

    def test_zero_restarts_rejected(self):
        with pytest.raises(BadSize):
            lee_upper_bound(pyramid_bes(), (3, 3), restarts=0)

    def test_decomposition_reconstructs_state(self):
        rho = pyramid_bes()
        res = lee_upper_bound(rho, (3, 3), L=9, restarts=4, seed=7)
        assert np.max(np.abs(res.best.mixture() - rho)) <= 1e-12


class TestRoofGradient:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("zero_row", [False, True])
    def test_matches_central_differences(self, rng, dims, zero_row):
        da, db = dims
        r, L = 3, 6
        B = rng.normal(size=(r, da * db)) + 1j * rng.normal(size=(r, da * db))
        U = _retract(rng.normal(size=(4, L, r))
                     + 1j * rng.normal(size=(4, L, r)))
        if zero_row:
            # row L-1 of U (and so of X = U B) is zero; U stays an isometry
            U[:, :-1] = _retract(U[:, :-1])
            U[:, -1] = 0
        f, G = _roof(U, B, da, db)
        Z = rng.normal(size=U.shape) + 1j * rng.normal(size=U.shape)
        xi = _tangent(U, Z)
        A = U.conj().swapaxes(-1, -2) @ xi        # tangent: U^H xi skew
        assert np.max(np.abs(A + A.conj().swapaxes(-1, -2))) <= 1e-12
        h = 1e-6
        fd = (_roof(U + h * xi, B, da, db)[0]
              - _roof(U - h * xi, B, da, db)[0]) / (2 * h)
        scale = np.max(np.abs(fd)) + 1.0
        assert np.max(np.abs(fd - _inner(G, xi))) <= 1e-7 * scale
        assert np.max(np.abs(fd - _inner(_tangent(U, G), xi))
                      ) <= 1e-7 * scale
        if zero_row:
            assert np.all(G[:, -1] == 0)


def block_tangent(U, Z):
    """Z - U herm(U^H Z) for one block per restart."""
    A = U.conj().swapaxes(-1, -2) @ Z
    return Z - U @ ((A + A.conj().swapaxes(-1, -2)) / 2)


def sequential_search(Ua, fa, d, slope, B, da, db):
    """Reference Armijo backtracking: one restart and one trial step at a
    time, halving from step 1."""
    steps, points, tries = [], [], []
    for i in range(len(fa)):
        step, point = 1.0, (Ua[i], fa[i], np.zeros_like(Ua[i]))
        for n in range(1, MAX_BACKTRACKS + 1):
            Ut = _retract(Ua[i:i + 1] + step * d[i:i + 1])
            ft, Gt = _roof(Ut, B, da, db)
            if ft[0] <= fa[i] + ARMIJO * step * slope[i]:
                point = (Ut[0], ft[0], Gt[0])
                break
            step /= 2
        steps.append(step)
        points.append(point)
        tries.append(n)
    U, f, G = (np.stack([p[j] for p in points]) for j in range(3))
    return np.array(steps), U, f, G, np.array(tries)


class TestLineSearch:
    @pytest.fixture
    def searches(self, rng):
        """64 restarts at random isometries; each searches along its
        tangent gradient scaled by 2^-4..2^28, so that a restart needs from
        0 to about 30 halvings. Every 16th claims a slope of -inf, an Armijo
        bound no trial step meets."""
        R, L, r, da, db = 64, 5, 4, 3, 3
        B = rng.normal(size=(r, da * db)) + 1j * rng.normal(size=(r, da * db))
        U = _retract(rng.normal(size=(R, L, r))
                     + 1j * rng.normal(size=(R, L, r)))
        f, G = _roof(U, B, da, db)
        g = _tangent(U, G)
        d = -(2.0 ** rng.uniform(-4, 28, size=R))[:, None, None] * g
        slope = _inner(g, d)
        slope[15::16] = -np.inf
        return U, f, d, slope, B, da, db

    @staticmethod
    def assert_same_bytes(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_matches_sequential_halving(self, searches):
        U, f, d, slope, B, da, db = searches
        want = sequential_search(*searches)
        tries = want[-1]
        # 0, 3 and more than 16 halvings, and searches that run out
        ran_out = tries == MAX_BACKTRACKS
        assert {1, 4} <= set(tries) and max(tries[~ran_out]) > 17
        assert np.count_nonzero(ran_out) == 4
        self.assert_same_bytes(_line_search(*searches), want)
        # a batch of one of each kind, and each of them alone
        pick = np.array([np.flatnonzero(tries == n)[0]
                         for n in (1, 4, max(tries[~ran_out]),
                                   MAX_BACKTRACKS)]
                        + [np.flatnonzero(tries == 2)[0]])
        cut = (U[pick], f[pick], d[pick], slope[pick], B, da, db)
        self.assert_same_bytes(_line_search(*cut),
                               [a[pick] for a in want])
        for i in pick:
            one = (U[i:i + 1], f[i:i + 1], d[i:i + 1], slope[i:i + 1],
                   B, da, db)
            self.assert_same_bytes(_line_search(*one),
                                   [a[i:i + 1] for a in want])


class TestStackedProjection:
    # a stack of K restarts' blocks in one call
    @pytest.mark.parametrize("r", [2, 4])
    @pytest.mark.parametrize("L", [5, 16])
    @pytest.mark.parametrize("K", [1, 8, 9])
    def test_matches_per_block_projection(self, rng, K, L, r):
        U = _retract(rng.normal(size=(K, L, r))
                     + 1j * rng.normal(size=(K, L, r)))
        Z = (rng.normal(size=(K, L, r))
             + 1j * rng.normal(size=(K, L, r)))
        P = _tangent(U, Z)
        assert np.array_equal(P, block_tangent(U, Z))
        for k in range(K):
            assert np.array_equal(P[k:k + 1],
                                  block_tangent(U[k:k + 1], Z[k:k + 1]))
        A = U.conj().swapaxes(-1, -2) @ P          # tangent: U^H P skew
        assert np.max(np.abs(A + A.conj().swapaxes(-1, -2))) <= 1e-12
        assert np.max(np.abs(_tangent(U, P) - P)) <= 1e-12
        # self-adjoint, so the L-BFGS pairs need no transport
        W = rng.normal(size=(K, L, r)) + 1j * rng.normal(size=(K, L, r))
        assert np.max(np.abs(_inner(P, W) - _inner(Z, _tangent(U, W)))
                      ) <= 1e-12 * (1 + np.max(np.abs(_inner(Z, W))))


def reference_direction(U, g, S, Y, slots):
    """The two-loop over complex pairs S, Y (LBFGS_MEMORY, R, L, r) that
    recomputes each pair's <s, y> and <y, y> on every call."""
    q = g.copy()
    gamma = np.ones(len(g))
    rho, alpha = {}, {}
    for k in slots:
        sy = _inner(S[k], Y[k])
        ok = sy > 1e-300
        rho[k] = np.where(ok, 1 / np.where(ok, sy, 1.0), 0.0)
        gamma = np.where(ok, sy / np.where(ok, _inner(Y[k], Y[k]), 1.0),
                         gamma)
    for k in reversed(slots):
        alpha[k] = rho[k] * _inner(S[k], q)
        q -= alpha[k][:, None, None] * Y[k]
    q *= gamma[:, None, None]
    for k in slots:
        beta = rho[k] * _inner(Y[k], q)
        q += (alpha[k] - beta)[:, None, None] * S[k]
    return _tangent(U, -q)


def ring_with_cache(S, Y):
    """Flat float64 rings (LBFGS_MEMORY, R, 2 L r) of the complex pairs S, Y
    and their cached curvature: rho = 1/<s, y> (0 unless <s, y> > 0) and
    the scaling <s, y>/<y, y>."""
    sy, yy = _inner(S, Y), _inner(Y, Y)
    ok = sy > 1e-300
    rho = np.where(ok, 1 / np.where(ok, sy, 1.0), 0.0)
    gam = sy / np.where(ok, yy, 1.0)
    flat = S.shape[:2] + (-1,)
    return S.view(float).reshape(flat), Y.view(float).reshape(flat), rho, gam


class TestLbfgsDirection:
    @staticmethod
    def problem(rng, R=16, L=9, r=3):
        """A random point, tangent gradient and ambient pairs, a quarter of
        them with negative curvature."""
        U = _retract(rng.normal(size=(R, L, r))
                     + 1j * rng.normal(size=(R, L, r)))
        g = _tangent(U, rng.normal(size=U.shape)
                     + 1j * rng.normal(size=U.shape))
        shape = (LBFGS_MEMORY,) + U.shape
        S = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sign = np.where(rng.random(shape[:2]) < 0.25, -1.0, 1.0)
        Y = (sign[..., None, None] * S
             + 0.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))
        return U, g, S, Y

    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("filled", [0, 1, 2, 5, LBFGS_MEMORY])
    def test_cached_matches_recomputed(self, rng, filled, start):
        U, g, S, Y = self.problem(rng)
        slots = [(start + k) % LBFGS_MEMORY for k in range(filled)]
        if filled >= 2:
            newest, older = slots[-1], slots[:-1]
            S[newest, 0] = -Y[newest, 0]          # newest negative only
            S[older, 0] = Y[older, 0]
            S[slots, 1] = -Y[slots, 1]            # no positive pair
            S[slots[filled // 2], 2] = 0          # exactly zero pair
            Y[slots[filled // 2], 2] = 0
        Sf, Yf, rho, gam = ring_with_cache(S, Y)
        if filled >= 2:
            assert rho[newest, 0] == 0 and np.all(rho[older, 0] > 0)
            assert np.all(rho[slots, 1] == 0)
            assert rho[slots[filled // 2], 2] == 0
        if filled == LBFGS_MEMORY:
            assert (rho[:, 3:] == 0).any() and (rho[:, 3:] > 0).any()
        d = _lbfgs_direction(U, g, Sf, Yf, rho, gam, slots)
        want = reference_direction(U, g, S, Y, slots)
        assert d.shape == want.shape and d.dtype == want.dtype
        assert d.tobytes() == want.tobytes()

    @pytest.mark.parametrize("filled", [0, 1, 5, LBFGS_MEMORY])
    def test_projected_direction_descends(self, rng, filled):
        U, g, S, Y = self.problem(rng)
        assert (_inner(S, Y) < 0).any()
        slots = [(3 + k) % LBFGS_MEMORY for k in range(filled)]
        d = _lbfgs_direction(U, g, *ring_with_cache(S, Y), slots)
        A = U.conj().swapaxes(-1, -2) @ d
        assert np.max(np.abs(A + A.conj().swapaxes(-1, -2))) <= 1e-12
        assert np.all(_inner(g, d) < 0)
        if not filled:
            assert np.max(np.abs(d + g)) <= 1e-12

    def test_two_single_block_projections_per_iteration(self, monkeypatch):
        shapes = []

        def counted(U, Z):
            shapes.append((U.shape, Z.shape))
            return _tangent(U, Z)
        monkeypatch.setattr(entanglement, "_tangent", counted)
        res = lee_upper_bound(pyramid_bes(), (3, 3), L=9, restarts=6,
                              seed=7)
        assert len(shapes) == 1 + 2 * max(res.iterations)
        assert all(u == z and len(z) == 3 and z[1:] == (9, 4)
                   for u, z in shapes)
        assert shapes[0][0][0] == 6


class TestStarts:
    @pytest.mark.parametrize("L,r", [(5, 4), (16, 4), (9, 3)])
    def test_batched_starts_match_per_restart_retraction(self, L, r):
        seed, R = 11, 9
        U = _starts(seed, R, L, r)
        for i in range(R):
            rng = np.random.default_rng([seed, i])
            Y = rng.normal(size=(L, r)) + 1j * rng.normal(size=(L, r))
            assert np.array_equal(U[i], _retract(Y))


@pytest.fixture(scope="module")
def table1_lee():
    rows = table1(seed=7, restarts=64, L=16)["rows"]
    ps = one_param_upb(5 * math.pi / 12)
    rho = bound_entangled_state(ps, verify_upb(ps, method="exact")).matrix
    extra = lee_upper_bound(rho, (3, 3), L=16, restarts=64, seed=7)
    return [row["lee"] for row in rows] + [extra.value]


class TestLeeInvariance:
    # converged values at seed=7, restarts=64, L=16
    def test_local_unitaries(self, rng):
        rho = pyramid_bes()
        W = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
        moved = lee_upper_bound(W @ rho @ W.conj().T, (3, 3), L=16,
                                restarts=64, seed=7)
        base = lee_upper_bound(rho, (3, 3), L=16, restarts=64, seed=7)
        assert abs(moved.value - base.value) <= 1e-7

    def test_theta_mirror(self, table1_lee):
        # the pi/6 row of Table 1 against its mirror angle pi - pi/6
        ps = one_param_upb(5 * math.pi / 6)
        rho = bound_entangled_state(ps, verify_upb(ps, method="exact")).matrix
        mirror = lee_upper_bound(rho, (3, 3), L=16, restarts=64, seed=7)
        assert abs(mirror.value - table1_lee[3]) <= 1e-7


class TestTable1Optima:
    # converged optima at seed=7, restarts=64, L=16; the last is 5pi/12
    OPTIMA = (0.0729490, 0.0651913, 0.0633511, 0.0127759, 0.0002857,
              0.0212397)

    @pytest.mark.parametrize("idx", range(6),
                             ids=[r[0] for r in TABLE1_ROWS] + ["5pi/12"])
    def test_optimum(self, table1_lee, idx):
        assert abs(table1_lee[idx] - self.OPTIMA[idx]) <= 1e-7
