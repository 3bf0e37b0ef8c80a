import itertools

import numpy as np
import pytest

from ctxupb.families import genpyramid_local
from ctxupb.linalg import kron_all
from ctxupb.upb import assemble_mapped, product_set


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def unit_basis(d, i):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def qubit_basis(n):
    """Computational basis of n qubits as a product set."""
    return product_set((2,) * n, [tuple(unit_basis(2, b) for b in bits)
                                  for bits in itertools.product((0, 1),
                                                                repeat=n)])


def witness_overlap(ps, factors):
    """Largest |<member|witness>| over the members of a product set."""
    w = kron_all(factors)
    return float(np.max(np.abs(ps.full_vectors().conj() @ w)))


def complement_of(vectors):
    """First standard-basis vector surviving orthonormalization against
    `vectors` (which must not span C^3)."""
    basis = []
    for v in vectors:
        w = v.astype(complex)
        for b in basis:
            w = w - np.vdot(b, w) * b
        basis.append(w / np.linalg.norm(w))
    for i in range(3):
        w = unit_basis(3, i)
        for b in basis:
            w = w - np.vdot(b, w) * b
        n = np.linalg.norm(w)
        if n > 1e-9:
            return w / n
    raise AssertionError("span is full")


def genpyramid_25_upb():
    return assemble_mapped(genpyramid_local(12, 10), tuple(range(1, 13)))


def genpyramid_25_witness(ps):
    """Product extension of the genpyramid m=12, t=10 (p=25) assembly, built
    by hand without the verifier's search.

    The parties with multipliers 5 and 10 repeat their factors with period
    5, so each takes the two residue classes mod 5 that lie in one plane;
    the five states j = 4 mod 5 left over go to parties 1, 2 and 3, at most
    two per party.
    """
    vs = [ps.factor(j, 0) for j in range(ps.k)]   # party 1: multiplier 1
    factors = [unit_basis(3, 0)] * 12
    factors[4] = complement_of([vs[0], vs[5]])      # party 5: j = 0,1 mod 5
    factors[9] = complement_of([vs[20], vs[5]])     # party 10: j = 2,3 mod 5
    factors[0] = complement_of([vs[4], vs[9]])      # states 4, 9
    factors[1] = complement_of([vs[28 % 25], vs[38 % 25]])  # states 14, 19
    factors[2] = complement_of([vs[72 % 25]])       # state 24
    return factors
