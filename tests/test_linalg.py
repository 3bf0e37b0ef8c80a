import math

import numpy as np
import pytest

from ctxupb.errors import NonHermitian
from ctxupb.families import gen_kcbs
from ctxupb.linalg import (Tolerances, hermitian_eig, kron, partial_trace,
                           partial_transpose)
from ctxupb.upb import gencontextual_upb, verify_upb

from conftest import random_density, random_unit


def basis(d, i):
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_standard_basis(self):
        out = kron(basis(3, 0), basis(3, 1))
        assert np.array_equal(out, basis(9, 1))

    def test_inner_products_factorize(self, rng):
        # oracle: <(a (x) b),(c (x) d)> must equal <a|c><b|d>
        for _ in range(20):
            a, c = random_unit(rng, 3), random_unit(rng, 3)
            b, d = random_unit(rng, 4), random_unit(rng, 4)
            lhs = np.vdot(kron(a, b), kron(c, d))
            rhs = np.vdot(a, c) * np.vdot(b, d)
            assert abs(lhs - rhs) <= 1e-12

    def test_mixed_product_rule(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestHermitianEig:
    def test_identity_spectrum(self):
        w, _ = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1, 1, 1])

    def test_diagonal_sorted_ascending(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])

    def test_projector_spectrum(self, rng):
        v = random_unit(rng, 4)
        w, _ = hermitian_eig(np.outer(v, v.conj()))
        assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_trace_reconstruction_and_gram(self, rng):
        for d in (5, 17, 81):
            m = random_density(rng, d) * d  # arbitrary scale
            w, v = hermitian_eig(m)
            assert abs(w.sum() - np.trace(m).real) <= 1e-9 * max(1, d)
            recon = (v * w) @ v.conj().T
            assert np.max(np.abs(recon - m)) <= 1e-8 * np.linalg.norm(m)
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-8


class TestRank:
    def test_three_consecutive_loor_vectors_span(self):
        u = gen_kcbs(7).vectors
        for j in range(5):
            assert np.linalg.matrix_rank(np.array(u[j:j + 3])) == 3


class TestPartialTrace:
    def test_product_state(self):
        rho = np.outer(kron(basis(2, 0), basis(2, 1)),
                       kron(basis(2, 0), basis(2, 1)).conj())
        out = partial_trace(rho, (2, 2), keep=0)
        assert np.allclose(out, np.outer(basis(2, 0), basis(2, 0).conj()))

    def test_maximally_entangled(self):
        psi = (kron(basis(2, 0), basis(2, 0))
               + kron(basis(2, 1), basis(2, 1))) / np.sqrt(2)
        out = partial_trace(np.outer(psi, psi.conj()), (2, 2), keep=0)
        assert np.max(np.abs(out - np.eye(2) / 2)) <= 1e-12

    def test_trace_preserved_both_parties(self, rng):
        rho = random_density(rng, 12)
        for keep in (0, 1):
            out = partial_trace(rho, (3, 4), keep)
            assert abs(np.trace(out) - np.trace(rho)) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_against_index_sum_oracle(self, rng):
        rho = random_density(rng, 6)
        da, db = 2, 3
        r = rho.reshape(da, db, da, db)
        want_a = np.zeros((da, da), dtype=complex)
        for a in range(da):
            for c in range(da):
                want_a[a, c] = sum(r[a, b, c, b] for b in range(db))
        assert np.allclose(partial_trace(rho, (2, 3), 0), want_a, atol=1e-14)
        want_b = np.zeros((db, db), dtype=complex)
        for b in range(db):
            for d in range(db):
                want_b[b, d] = sum(r[a, b, a, d] for a in range(da))
        assert np.allclose(partial_trace(rho, (2, 3), 1), want_b, atol=1e-14)

    def test_kron_factorization(self, rng):
        a = random_density(rng, 3)
        b = random_density(rng, 2)
        out = partial_trace(kron(a, b), (3, 2), keep=0)
        assert np.max(np.abs(out - a * np.trace(b))) <= 1e-12


class TestPartialTranspose:
    def test_involution_exact(self, rng):
        rho = random_density(rng, 6)
        double = partial_transpose(partial_transpose(rho, (2, 3), 1), (2, 3), 1)
        assert np.array_equal(double, rho)

    def test_maximally_entangled_min_eigenvalue(self):
        psi = (kron(basis(2, 0), basis(2, 0))
               + kron(basis(2, 1), basis(2, 1))) / np.sqrt(2)
        pt = partial_transpose(np.outer(psi, psi.conj()), (2, 2), 1)
        w, _ = hermitian_eig(pt)
        assert abs(w[0] + 0.5) <= 1e-12

    def test_product_state_stays_psd(self, rng):
        rho = kron(random_density(rng, 2), random_density(rng, 3))
        for party in (0, 1):
            pt = partial_transpose(rho, (2, 3), party)
            w, _ = hermitian_eig(pt)
            assert w[0] >= -1e-12

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 9)
        pt = partial_transpose(rho, (3, 3), 0)
        assert abs(np.trace(pt) - np.trace(rho)) <= 1e-13


def test_tolerances_must_be_positive():
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerances(bad)
    assert Tolerances().atol == 1e-9
    assert Tolerances(1e-300).atol == 1e-300


def test_nan_tolerance_fails_when_built():
    # a NaN tolerance used to reach verification, where every comparison
    # with it is false, and verify_upb raised NotUpb (a NaN rank cutoff) or
    # NotOrthogonalSet (NaN throughout) on this UPB
    ps = gencontextual_upb(7)
    with pytest.raises(ValueError):
        verify_upb(ps, Tolerances(math.nan))
    assert verify_upb(ps, Tolerances(1e-9)).status == "CertifiedUnextendible"
