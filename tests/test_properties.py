"""Property suites: structural invariants under randomized inputs."""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ctxupb.entanglement import lee_upper_bound
from ctxupb.families import (kcbs, one_param_family, orthogonality_graph,
                             pyramid)
from ctxupb.graphs import complement, graph
from ctxupb.linalg import kron, partial_trace, partial_transpose, rank_of
from ctxupb.contextuality import strength


@st.composite
def graphs_(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return graph(n, [e for e, keep in zip(pairs, mask) if keep])


@given(graphs_())
@settings(max_examples=100, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)).edges == g.edges


@given(st.integers(min_value=0, max_value=2 ** 30), st.integers(2, 6),
       st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_rank_invariant_under_phases(seed, dim, count):
    rng = np.random.default_rng(seed)
    vecs = [rng.normal(size=dim) + 1j * rng.normal(size=dim)
            for _ in range(count)]
    base = rank_of(vecs)
    phases = np.exp(2j * np.pi * rng.random(count))
    assert rank_of([p * v for p, v in zip(phases, vecs)]) == base


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=30, deadline=None)
def test_kron_associative_on_integer_matrices(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(2, 2)).astype(complex)
    b = rng.integers(-3, 4, size=(2, 3)).astype(complex)
    c = rng.integers(-3, 4, size=(3, 2)).astype(complex)
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


@given(st.permutations(list(range(5))))
@settings(max_examples=30, deadline=None)
def test_strength_permutation_invariance(perm):
    vecs = list(one_param_family(1.1).vectors)
    base = strength(vecs).value
    assert abs(strength([vecs[i] for i in perm]).value - base) <= 1e-12


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=30, deadline=None)
def test_partial_transpose_involution(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = g @ g.conj().T
    for party in (0, 1):
        pt2 = partial_transpose(partial_transpose(rho, (2, 3), party),
                                (2, 3), party)
        assert np.array_equal(pt2, rho)


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=30, deadline=None)
def test_partial_trace_of_kron_factorizes(seed):
    rng = np.random.default_rng(seed)

    def density(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        return m / np.trace(m).real

    a, b = density(2), density(4)
    got = partial_trace(kron(a, b), (2, 4), keep=0)
    assert np.max(np.abs(got - a * np.trace(b))) <= 1e-12


def test_gram_moduli_kcbs_equals_pyramid():
    k = np.array(kcbs().vectors)
    p = np.array(pyramid().vectors)
    mk = np.abs(k.conj() @ k.T)
    mp = np.abs(p.conj() @ p.T)
    perm = [(2 * j) % 5 for j in range(5)]
    assert np.max(np.abs(mk - mp[np.ix_(perm, perm)])) <= 1e-9


def test_lee_monotone_in_restarts_fixed_seed():
    from ctxupb.families import pyramid as pyr
    from ctxupb.upb import assemble_mapped, bound_entangled_state, verify_upb
    ps = assemble_mapped(pyr(), (1, 2))
    rho = bound_entangled_state(ps, verify_upb(ps, method="exact")).matrix
    vals = [lee_upper_bound(rho, (3, 3), restarts=r, seed=13).value
            for r in (1, 2, 3)]
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_one_param_graph_constant_across_angles(rng):
    pentagram = orthogonality_graph(pyramid().vectors).edges
    for _ in range(25):
        theta = rng.uniform(0.1, math.pi - 0.1)
        if min(abs(math.sin(theta)), abs(math.cos(theta))) < 0.1:
            continue
        fam = one_param_family(theta)
        assert orthogonality_graph(fam.vectors).edges == pentagram
