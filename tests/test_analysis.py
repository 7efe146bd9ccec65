import pytest
from helpers import degree_profile, is_path

from fillgraph import families, synthesis
from fillgraph.analysis import (AnalysisPreconditionError, check_euler_identity,
                                check_kn_bound, check_max_weight_bound,
                                intersection_graph)
from fillgraph.core import FatGraph


def replayed(plan):
    graph, _ = plan.replay()
    return graph


class TestIntersectionGraph:
    def test_torus_single_crossing(self):
        wig = intersection_graph(families.build(families.TORUS_PAIR))
        assert wig.num_curves == 2
        assert wig.weights == {(0, 1): 1}

    def test_filling_pair_weight(self):
        graph = replayed(synthesis.minimal_filling(3, 2))
        wig = intersection_graph(graph)
        assert wig.weights == {(0, 1): 2 * 3 - 1}

    def test_weight_sum_is_vertex_count(self):
        for fam, p in ((families.G1, None), (families.GAMMA0, None),
                       (families.G2, None), (families.GAMMA_G, 3),
                       (families.GIRTH_2GM1, 4)):
            graph = families.build(fam, p)
            wig = intersection_graph(graph)
            assert wig.total_weight() == graph.num_vertices

    def test_self_crossing_rejected(self):
        graph = FatGraph.from_vertex_cycles([["a+", "a-", "b+", "b-"]])
        with pytest.raises(AnalysisPreconditionError, match="crosses itself"):
            intersection_graph(graph)

    def test_degree_sum_law(self):
        for fam, p in ((families.G1, None), (families.G2, None),
                       (families.GAMMA_G, 3)):
            graph = families.build(fam, p)
            sig = graph.signature()
            wig = intersection_graph(graph)
            assert sum(degree_profile(wig)) == 2 * wig.total_weight()
            # 2V with V = 2g-2+b; reads 4g-2 in the one-disc case
            assert sum(degree_profile(wig)) == \
                4 * sig.genus - 4 + 2 * sig.boundary_count

    def test_commutes_with_isomorphism(self):
        import random
        rng = random.Random(1)
        g = families.build(families.GAMMA0)
        a = intersection_graph(g)
        b = intersection_graph(g.shuffled(rng))
        assert sorted(a.weights.values()) == sorted(b.weights.values())
        assert sorted(degree_profile(a)) == sorted(degree_profile(b))


class TestMaxWeightBound:
    def test_minimal_filling_passes(self):
        chk = check_max_weight_bound(replayed(synthesis.minimal_filling(4, 5)))
        assert chk.passed
        assert chk.bound == 2 * 4 - 5 + 1

    def test_tight_triple_equality(self):
        chk = check_max_weight_bound(
            replayed(synthesis.tight_omega_filling(3, 3)))
        assert chk.passed and chk.details["equality"]
        assert chk.value == 4

    def test_gamma_g_all_unit_weights(self):
        graph = families.build(families.GAMMA_G, 2)
        wig = intersection_graph(graph)
        assert set(wig.weights.values()) == {1}
        chk = check_max_weight_bound(graph)
        assert chk.passed and chk.bound == 1

    def test_needs_minimal_filling(self):
        with pytest.raises(AnalysisPreconditionError):
            check_max_weight_bound(families.build(families.G2))


class TestEulerIdentity:
    def test_four_disc_pair(self):
        chk = check_euler_identity(families.build(families.G2))
        assert chk.passed
        assert chk.value == 2 * 2 - 2 + 4 == 6

    def test_triple(self):
        chk = check_euler_identity(families.build(families.G1))
        assert chk.passed and chk.value == 3

    def test_torus(self):
        chk = check_euler_identity(families.build(families.TORUS_PAIR))
        assert chk.passed and chk.value == 1


class TestCitedBound:
    def test_pair_meets_with_equality(self):
        chk = check_kn_bound(replayed(synthesis.minimal_filling(3, 2)))
        assert chk.passed
        assert chk.value == 10 and chk.bound == 10

    def test_gamma_g3(self):
        chk = check_kn_bound(families.build(families.GAMMA_G, 3))
        assert chk.passed
        assert chk.details["n"] == 6

    def test_tight_2_3(self):
        chk = check_kn_bound(replayed(synthesis.tight_omega_filling(2, 3)))
        assert chk.passed
        assert chk.value == 2 * (9 - 3) and chk.bound == 6


class TestPathDetection:
    def test_torus_chain_is_path(self):
        from fillgraph.ops import plumbing
        t1 = families.build(families.TORUS_PAIR)
        t2 = families.build(families.TORUS_PAIR)
        chain = plumbing(t1, t2, "b", "a").result
        wig = intersection_graph(chain)
        assert is_path(wig)

    def test_gamma0_not_path(self):
        wig = intersection_graph(families.build(families.GAMMA0))
        assert wig.is_connected()
