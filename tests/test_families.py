import math

import numpy as np
import pytest

from ctxupb.errors import (BadOrder, BadPrime, BadT, DegenerateParameter,
                           DimensionMismatch)
from ctxupb.families import (VectorFamily, gen_kcbs, genpyramid_local,
                             is_unit, kcbs, loor_cycle_complement,
                             one_param_family, orthogonality_graph, pyramid,
                             quadres_local, theta_cycle_value,
                             theta_cycle_complement_value, verify_loor)
from ctxupb.graphs import complement, complete, cycle, quadratic_residues
from ctxupb.contextuality import strength

PENTAGRAM = frozenset({(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)})
PENTAGON = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})

PYRAMID_THETA = math.acos((math.sqrt(5.0) - 1) / 2)


def gram_moduli(vectors):
    m = np.array(vectors)
    return np.abs(m.conj() @ m.T)


class TestOneParam:
    def test_unit_norms(self):
        fam = one_param_family(0.7)
        assert all(abs(np.linalg.norm(v) - 1) <= 1e-12 for v in fam)

    def test_orthogonal_pairs_for_50_seeded_angles(self, rng):
        count = 0
        while count < 50:
            theta = rng.uniform(0.05, math.pi - 0.05)
            if min(abs(math.sin(theta)), abs(math.cos(theta))) < 0.05:
                continue
            fam = one_param_family(theta)
            g = orthogonality_graph(fam.vectors)
            assert g.edges == PENTAGRAM, theta
            count += 1

    def test_tiles_angle_direct_orthogonality(self):
        fam = one_param_family(3 * math.pi / 4)
        assert abs(np.vdot(fam.vectors[0], fam.vectors[2])) <= 1e-12

    def test_pyramid_angle_matches_pyramid_gram(self):
        fam = one_param_family(PYRAMID_THETA)
        assert np.max(np.abs(gram_moduli(fam.vectors)
                             - gram_moduli(pyramid().vectors))) <= 1e-9

    def test_degenerate_angles_rejected(self):
        for theta in (0.0, math.pi, math.pi / 2):
            with pytest.raises(DegenerateParameter):
                one_param_family(theta)

    def test_params_recorded(self):
        assert one_param_family(0.5).params == {"theta": 0.5}


class TestPyramid:
    def test_third_components_all_equal(self):
        fam = pyramid()
        thirds = [v[2] for v in fam.vectors]
        assert np.allclose(thirds, thirds[0])

    def test_distance_two_orthogonality(self):
        # direct evaluation of the defining formula pins <psi_0|psi_2> = 0
        # (consecutive vectors overlap at (sqrt(5)-1)/2)
        fam = pyramid()
        assert abs(np.vdot(fam.vectors[0], fam.vectors[2])) <= 1e-12
        assert abs(abs(np.vdot(fam.vectors[0], fam.vectors[1]))
                   - (math.sqrt(5) - 1) / 2) <= 1e-12
        assert orthogonality_graph(fam.vectors).edges == PENTAGRAM

    def test_strength_reaches_cycle_theta(self):
        assert abs(strength(pyramid().vectors).value - math.sqrt(5)) <= 1e-9


class TestKcbs:
    def test_gram_moduli_match_pyramid_under_doubling(self):
        k = kcbs().vectors
        p = pyramid().vectors
        mk = gram_moduli(k)
        mp = gram_moduli(p)
        perm = [(2 * j) % 5 for j in range(5)]
        assert np.max(np.abs(mk - mp[np.ix_(perm, perm)])) <= 1e-9

    def test_identical_to_relabeled_pyramid(self):
        k = kcbs().vectors
        p = pyramid().vectors
        for j in range(5):
            assert np.max(np.abs(k[j] - p[(2 * j) % 5])) <= 1e-12

    def test_phi1_phi4_overlap_formula(self):
        k = kcbs().vectors
        N = 1 + math.cos(math.pi / 5)
        want = (math.cos(4 * math.pi / 5) ** 2
                - math.sin(4 * math.pi / 5) ** 2
                + math.cos(math.pi / 5)) / N
        got = np.vdot(k[1], k[4])
        assert abs(got.imag) <= 1e-12
        assert abs(got.real - want) <= 1e-12

    def test_vertical_handle_sum(self):
        k = kcbs().vectors
        N = 1 + math.cos(math.pi / 5)
        total = sum(abs(v[2]) ** 2 for v in k)
        assert abs(total - 5 * math.cos(math.pi / 5) / N) <= 1e-12
        assert abs(total - math.sqrt(5)) <= 1e-12

    def test_consecutive_orthogonality(self):
        assert orthogonality_graph(kcbs().vectors).edges == PENTAGON


class TestGenPyramid:
    def test_reproduces_pyramid_at_2_2(self):
        fam = genpyramid_local(2, 2)
        assert np.max(np.abs(gram_moduli(fam.vectors)
                             - gram_moduli(pyramid().vectors))) <= 1e-9

    def test_third_component_shared(self):
        fam = genpyramid_local(4, 3)
        assert len(fam) == 9
        thirds = [v[2] for v in fam.vectors]
        assert np.allclose(thirds, thirds[0])

    def test_orthogonality_at_distance_t(self):
        m, t = 4, 3
        fam = genpyramid_local(m, t)
        p = 2 * m + 1
        g = orthogonality_graph(fam.vectors)
        want = {(min(j, (j + t) % p), max(j, (j + t) % p)) for j in range(p)}
        assert g.edges == frozenset(want)

    def test_angular_window_enforced(self):
        with pytest.raises(BadT):
            genpyramid_local(4, 1)
        with pytest.raises(BadT):
            genpyramid_local(4, 5)

    def test_warning_note_for_bad_p(self):
        assert genpyramid_local(7, 4).notes      # p = 15
        assert not genpyramid_local(4, 3).notes  # p = 9 odd square
        assert not genpyramid_local(3, 2).notes  # p = 7 prime


class TestGenKcbs:
    def test_cos_phi_squared_at_5(self):
        fam = gen_kcbs(5)
        assert abs(abs(fam.vectors[0][0]) ** 2 - math.sqrt(5) / 5) <= 1e-9

    def test_consecutive_orthogonality_n7(self):
        u = gen_kcbs(7).vectors
        for j in range(7):
            assert abs(np.vdot(u[j], u[(j + 1) % 7])) <= 1e-12

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_strength_equals_cycle_theta(self, n):
        s = strength(gen_kcbs(n).vectors).value
        assert abs(s - theta_cycle_value(n)) <= 1e-9

    def test_rejects_even_or_small(self):
        for n in (3, 4, 6):
            with pytest.raises(BadOrder):
                gen_kcbs(n)


class TestLoorComplement:
    def test_norm_identity_at_5(self):
        v = loor_cycle_complement(5).vectors
        tb = theta_cycle_complement_value(5)
        assert abs(tb - math.sqrt(5)) <= 1e-12
        for x in v:
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_orthogonality_graph_is_cycle_complement(self):
        for n in (5, 7, 9):
            got = orthogonality_graph(loor_cycle_complement(n).vectors)
            assert got.edges == complement(cycle(n)).edges

    def test_first_coordinate_sum(self):
        for n in (5, 9):
            v = loor_cycle_complement(n).vectors
            total = sum(abs(x[0]) ** 2 for x in v)
            assert abs(total - theta_cycle_complement_value(n)) <= 1e-9

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_complementary_to_gen_kcbs(self, n):
        gu = orthogonality_graph(gen_kcbs(n).vectors)
        gv = orthogonality_graph(loor_cycle_complement(n).vectors)
        assert gu.edges & gv.edges == frozenset()
        assert gu.edges | gv.edges == complete(n).edges


class TestQuadRes:
    def test_p5_normalization_and_labels(self):
        fam = quadres_local(5)
        assert fam.dim == 3
        N = (1 + math.sqrt(5)) / 2
        # unnormalized amplitudes: sqrt(N) on label 0, phases on labels 2q
        scale = math.sqrt(N + 2)
        v0 = fam.vectors[0] * scale
        assert abs(v0[0] - math.sqrt(N)) <= 1e-9
        assert np.allclose(v0[1:], [1.0, 1.0], atol=1e-9)

    def test_p5_gram_matches_pyramid(self):
        fam = quadres_local(5)
        assert np.max(np.abs(gram_moduli(fam.vectors)
                             - gram_moduli(pyramid().vectors))) <= 1e-9

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_orthogonal_iff_nonresidue_difference(self, p):
        fam = quadres_local(p)
        res = quadratic_residues(p)
        for a in range(p):
            for b in range(a + 1, p):
                orth = abs(np.vdot(fam.vectors[a], fam.vectors[b])) <= 1e-9
                assert orth == ((b - a) % p not in res)

    @pytest.mark.parametrize("p", [5, 13])
    def test_strength_sqrt_p(self, p):
        assert abs(strength(quadres_local(p).vectors).value
                   - math.sqrt(p)) <= 1e-9

    def test_rejects_bad_primes(self):
        for p in (7, 9, 15):
            with pytest.raises(BadPrime):
                quadres_local(p)


class TestOrthogonalityGraph:
    def test_standard_basis_complete(self):
        basis = list(np.eye(3, dtype=complex))
        assert orthogonality_graph(basis).edges == complete(3).edges

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            orthogonality_graph([np.array([1, 0], dtype=complex),
                                 np.array([1, 0, 0], dtype=complex)])

    def test_loor7_complement(self):
        got = orthogonality_graph(loor_cycle_complement(7).vectors)
        assert got.edges == complement(cycle(7)).edges


class TestVerifyLoor:
    def test_gen_kcbs_certificate(self):
        rep = verify_loor(gen_kcbs(5), cycle(5), math.sqrt(5))
        assert rep.certificate and rep.graph_match
        assert rep.theta_gap <= 1e-9

    def test_pyramid_certificate_up_to_relabeling(self):
        rep = verify_loor(pyramid(), cycle(5), math.sqrt(5))
        assert rep.certificate

    def test_weak_angle_fails_certificate(self):
        fam = one_param_family(math.pi / 12)
        pentagram = orthogonality_graph(fam.vectors)
        rep = verify_loor(fam, pentagram, math.sqrt(5))
        assert rep.graph_match
        assert not rep.certificate
        assert abs(rep.strength - 2.0590) <= 1e-3


class TestSerialization:
    def test_json_roundtrip(self):
        fam = quadres_local(5)
        back = VectorFamily.from_json(fam.to_json())
        assert back.dim == fam.dim
        for a, b in zip(back.vectors, fam.vectors):
            assert np.max(np.abs(a - b)) <= 1e-15


class TestUnitNorm:
    @pytest.mark.parametrize("v", [[1.0, 0.0], [0.6, 0.8j],
                                   [1 + 1e-10, 0.0]])
    def test_unit(self, v):
        assert is_unit(np.array(v, dtype=complex))

    @pytest.mark.parametrize("v", [[1 + 1e-8, 0.0], [np.nan, 0.0],
                                   [np.inf, 0.0], [1e308, 1e308],
                                   [1e200j, 0.0]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_not_unit_and_no_warning(self, v):
        assert not is_unit(np.array(v, dtype=complex))
