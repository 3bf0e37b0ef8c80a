import math

import numpy as np
import pytest

from ctxupb.contextuality import (is_qcg, strength, table2, theta_cycle,
                                  theta_cycle_complement, theta_paley,
                                  QCG, NOT_QCG, UNKNOWN)
from ctxupb.errors import BadOrder, DimensionMismatch
from ctxupb.families import (gen_kcbs, loor_cycle_complement, one_param_family,
                             pyramid, quadres_local)
from ctxupb.graphs import cycle, complement, graph, paley

from conftest import random_unitary

TABLE1_STRENGTHS = [
    (math.acos((math.sqrt(5) - 1) / 2), math.sqrt(5)),
    (3 * math.pi / 4, 2.2287),
    (math.pi / 3, 2.2254),
    (math.pi / 6, 2.1641),
    (math.pi / 12, 2.0590),
]


class TestStrength:
    def test_single_vector(self):
        rep = strength([np.array([0, 1, 0], dtype=complex)])
        assert abs(rep.value - 1.0) <= 1e-12

    @pytest.mark.parametrize("theta,want", TABLE1_STRENGTHS)
    def test_one_param_reference_values(self, theta, want):
        rep = strength(one_param_family(theta).vectors)
        assert abs(rep.value - want) <= 1e-3

    def test_pyramid_sqrt5(self):
        assert abs(strength(pyramid().vectors).value - math.sqrt(5)) <= 1e-9

    def test_handle_achieves_value(self):
        rep = strength(gen_kcbs(7).vectors)
        total = sum(abs(np.vdot(rep.handle, v)) ** 2
                    for v in gen_kcbs(7).vectors)
        assert abs(total - rep.value) <= 1e-9
        assert abs(np.linalg.norm(rep.handle) - 1) <= 1e-12

    def test_handle_phase_canonical(self):
        rep = strength(pyramid().vectors)
        idx = int(np.argmax(np.abs(rep.handle)))
        assert abs(rep.handle[idx].imag) <= 1e-12
        assert rep.handle[idx].real > 0

    def test_unitary_invariance(self, rng):
        vecs = one_param_family(0.9).vectors
        base = strength(vecs).value
        for _ in range(5):
            u = random_unitary(rng, 3)
            rotated = [u @ v for v in vecs]
            assert abs(strength(rotated).value - base) <= 1e-9

    def test_permutation_invariance(self, rng):
        vecs = list(quadres_local(13).vectors)
        base = strength(vecs).value
        for _ in range(5):
            perm = rng.permutation(len(vecs))
            assert strength([vecs[i] for i in perm]).value == pytest.approx(
                base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            strength([])

    def test_against_power_iteration_oracle(self, rng):
        # independent of the eigensolver: plain power iteration on the
        # projector sum
        for fam in (pyramid(), gen_kcbs(7), quadres_local(13)):
            m = np.array(fam.vectors)
            proj_sum = m.T @ m.conj()
            x = rng.normal(size=m.shape[1]) + 1j * rng.normal(size=m.shape[1])
            for _ in range(3000):
                x = proj_sum @ x
                x /= np.linalg.norm(x)
            oracle = float((x.conj() @ proj_sum @ x).real)
            assert abs(strength(fam.vectors).value - oracle) <= 1e-9

    def test_bounded_by_theta(self):
        pairs = [(gen_kcbs(7).vectors, theta_cycle(7).value),
                 (loor_cycle_complement(9).vectors,
                  theta_cycle_complement(9).value),
                 (pyramid().vectors, theta_cycle(5).value),
                 (quadres_local(13).vectors, theta_paley(13).value)]
        for vecs, bound in pairs:
            assert strength(vecs).value <= bound + 1e-6


class TestThetaFormulas:
    def test_cycle_values(self):
        assert abs(theta_cycle(5).value - math.sqrt(5)) <= 1e-12
        assert abs(theta_cycle(3).value - 1.0) <= 1e-12
        want7 = 7 * math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7))
        assert abs(theta_cycle(7).value - want7) <= 1e-15
        assert abs(want7 - 3.3177) <= 1e-4

    def test_complement_values(self):
        assert abs(theta_cycle_complement(5).value - math.sqrt(5)) <= 1e-12
        assert abs(theta_cycle_complement(7).value - 2.1099) <= 1e-4

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15])
    def test_product_rule(self, n):
        prod = theta_cycle(n).value * theta_cycle_complement(n).value
        assert abs(prod - n) <= 1e-12

    def test_monotone_and_bounded(self):
        vals = [theta_cycle(n).value for n in range(5, 31, 2)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < n / 2 for v, n in zip(vals, range(5, 31, 2)))

    def test_paley_values(self):
        assert theta_paley(9).value == pytest.approx(3.0, abs=1e-12)
        assert theta_paley(25).value == pytest.approx(5.0, abs=1e-12)
        assert theta_paley(29).value == pytest.approx(math.sqrt(29), abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(BadOrder):
            theta_cycle(4)
        with pytest.raises(BadOrder):
            theta_paley(21)
        with pytest.raises(BadOrder):
            theta_paley(7)


class TestQcg:
    def test_pentagon(self):
        assert is_qcg(cycle(5)) == QCG

    def test_paley9_square_order(self):
        assert is_qcg(paley(9)) == NOT_QCG

    def test_paley13(self):
        assert is_qcg(paley(13)) == QCG

    def test_cycle_complement_closed_form(self):
        assert is_qcg(complement(cycle(7))) == QCG

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("g", [paley(9), paley(13), paley(17), paley(29),
                                   cycle(5), cycle(7), cycle(9), cycle(11)],
                             ids=["paley-9", "paley-13", "paley-17",
                                  "paley-29", "cycle-5", "cycle-7", "cycle-9",
                                  "cycle-11"])
    def test_verdict_ignores_labels(self, g, seed):
        # every graph here and its complement has a closed-form theta
        perm = np.random.default_rng(seed).permutation(g.n)
        for h in (g, complement(g)):
            moved = graph(h.n, [(perm[i], perm[j]) for i, j in h.edges])
            assert is_qcg(moved) == is_qcg(h) != UNKNOWN

    @pytest.mark.parametrize("q", [9, 13, 17, 29])
    def test_paley_complement_keeps_verdict(self, q):
        # Paley graphs are self-complementary
        assert is_qcg(complement(paley(q))) == is_qcg(paley(q))

    @pytest.mark.parametrize("q", [73, 197])
    def test_paley_past_search_cap(self, q):
        # alpha comes from the reduction on (q - 5) / 4 vertices
        assert is_qcg(paley(q)) == QCG

    def test_relabeled_paley(self):
        perm = np.random.default_rng(5).permutation(29)
        moved = graph(29, [(perm[i], perm[j]) for i, j in paley(29).edges])
        assert is_qcg(moved) == QCG

    @pytest.mark.parametrize("n", [65, 101])
    def test_odd_cycles_past_search_cap(self, n):
        assert is_qcg(cycle(n)) == QCG
        assert is_qcg(complement(cycle(n))) == QCG

    def test_unknown_without_closed_form(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_qcg(g) == UNKNOWN

    def test_strength_lower_bound_promotes(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3)])  # alpha = 2
        assert is_qcg(g, realized_strength=2.3) == QCG


class TestTable2:
    def test_rows(self):
        rows = table2()
        assert [r["q"] for r in rows] == [5, 9, 13, 17, 25, 29]
        want_theta = [math.sqrt(5), 3, math.sqrt(13), math.sqrt(17), 5,
                      math.sqrt(29)]
        want_alpha = [2, 3, 3, 3, 5, 4]
        for row, th, al in zip(rows, want_theta, want_alpha):
            assert abs(row["theta"] - th) <= 1e-9
            assert row["alpha"] == al
            assert abs(row["ratio"] - th / al) <= 1e-12

    def test_square_orders_coincide(self):
        rows = {r["q"]: r for r in table2()}
        for q in (9, 25):
            assert abs(rows[q]["theta"] - rows[q]["alpha"]) <= 1e-12
