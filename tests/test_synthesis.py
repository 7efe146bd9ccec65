import hashlib

import pytest
from helpers import first_matching_graph, grid_plans

from fillgraph import families, formats, oracle
from fillgraph.analysis import intersection_graph
from fillgraph.synthesis import (ImpossibleSignatureError, SynthesisError,
                                 SynthesisPlan, SynthesisRangeError, filling,
                                 lower_bound, max_filling, minimal_filling,
                                 search_filling, tight_omega_filling,
                                 upper_bound)


def replay(plan):
    graph, reports = plan.replay()
    return graph


class TestMaxFilling:
    def test_smallest(self):
        assert replay(max_filling(2, 1)).signature().triple == (2, 1, 4)

    def test_multi_disc(self):
        assert replay(max_filling(3, 4)).signature().triple == (3, 4, 9)

    def test_genus_one_single_disc_is_torus(self):
        graph = replay(max_filling(1, 1))
        assert graph.is_isomorphic(families.build(families.TORUS_PAIR))

    def test_torus_many_discs(self):
        assert replay(max_filling(1, 3)).signature().triple == (1, 3, 4)

    def test_all_outputs_fill(self):
        for g in (2, 4):
            for b in (1, 2, 3):
                ok, _ = replay(max_filling(g, b)).is_filling_system()
                assert ok


class TestMinimalFilling:
    def test_triple_via_connected_sums(self):
        assert replay(minimal_filling(5, 3)).signature().triple == (5, 1, 3)

    def test_even_genus_triple(self):
        assert replay(minimal_filling(4, 3)).signature().triple == (4, 1, 3)

    def test_max_size_is_gamma_family(self):
        graph = replay(minimal_filling(4, 8))
        assert graph.is_isomorphic(families.build(families.GAMMA_G, 4))

    def test_near_max_is_girth_family(self):
        graph = replay(minimal_filling(3, 5))
        assert graph.is_isomorphic(families.build(families.GIRTH_2GM1, 3))

    def test_plumbing_step(self):
        assert replay(minimal_filling(4, 6)).signature().triple == (4, 1, 6)

    def test_impossible_pair(self):
        with pytest.raises(ImpossibleSignatureError):
            minimal_filling(2, 2)

    def test_out_of_range(self):
        with pytest.raises(SynthesisRangeError):
            minimal_filling(3, 7)
        with pytest.raises(SynthesisRangeError):
            minimal_filling(2, 2 + 3)

    def test_full_grid_to_genus_six(self):
        for g in range(2, 7):
            for s in range(lower_bound(g, 1), 2 * g + 1):
                graph = replay(minimal_filling(g, s))
                assert graph.signature().triple == (g, 1, s)


class TestFilling:
    def test_case_one_example(self):
        # many discs: a two-cycle seed plus one torus join
        plan = filling(2, 5, 3)
        assert replay(plan).signature().triple == (2, 5, 3)

    def test_case_two_example(self):
        plan = filling(3, 2, 6)
        assert replay(plan).signature().triple == (3, 2, 6)

    def test_missing_pair_seed_replacement(self):
        # the (2, b, b+1) ladder starts from the two-boundary triple
        assert replay(filling(2, 2, 3)).signature().triple == (2, 2, 3)
        assert replay(filling(2, 4, 5)).signature().triple == (2, 4, 5)

    def test_impossible(self):
        with pytest.raises(ImpossibleSignatureError):
            filling(2, 1, 2)

    def test_bounds(self):
        assert lower_bound(2, 1) == 3
        assert lower_bound(2, 2) == 2
        assert upper_bound(3, 2) == 7
        with pytest.raises(SynthesisRangeError):
            filling(3, 2, 8)


class TestTightOmega:
    def test_pair_attains(self):
        for g in (3, 4):
            graph = replay(tight_omega_filling(g, 2))
            assert intersection_graph(graph).omega_max() == 2 * g - 1

    def test_triples(self):
        for g in (2, 3, 4):
            graph = replay(tight_omega_filling(g, 3))
            assert intersection_graph(graph).omega_max() == 2 * g - 2

    def test_even_case(self):
        graph = replay(tight_omega_filling(4, 6))
        assert intersection_graph(graph).omega_max() == 3

    def test_odd_case(self):
        graph = replay(tight_omega_filling(4, 5))
        assert intersection_graph(graph).omega_max() == 4

    def test_max_size_unit_weights(self):
        graph = replay(tight_omega_filling(3, 6))
        assert intersection_graph(graph).omega_max() == 1


FLAGS = ((False, False), (True, False), (False, True))


def _census_targets(V):
    """Signatures (g, b, s) with s != 2 of the filling classes on V
    vertices."""
    return sorted({(r.genus, r.boundary_count, r.standard_cycle_count)
                   for r in oracle.census(V)
                   if r.filling and r.standard_cycle_count != 2})


class TestSearch:
    def test_no_genus_two_pair(self):
        res = search_filling(3, (2, 1, 2))
        assert not res.found and res.complete

    def test_genus_three_pair_found(self):
        res = search_filling(5, (3, 1, 2))
        assert res.found
        assert res.graph.signature().triple == (3, 1, 2)
        ok, _ = res.graph.is_filling_system()
        assert ok

    def test_torus_found_up_to_isomorphism(self):
        res = search_filling(1, (1, 1, 2))
        assert res.found
        assert res.graph.is_isomorphic(families.build(families.TORUS_PAIR))

    def test_wrong_vertex_count_is_complete_miss(self):
        res = search_filling(4, (3, 1, 2))
        assert not res.found and res.complete

    def test_generic_engine(self):
        res = search_filling(3, (2, 1, 4))
        assert res.found
        assert res.graph.signature().triple == (2, 1, 4)

    def test_budget_interrupts(self):
        res = search_filling(5, (3, 1, 2), budget=3)
        assert not res.found and not res.complete

    def test_no_vertices_is_complete_miss(self):
        for target in ((0, 2, 2), (1, 0, 3)):
            res = search_filling(0, target)
            assert not res.found and res.complete

    def test_census_lookup_is_the_first_walk_graph(self):
        # the least witness of a class is the first matching the walk
        # meets in it, and the flags are class invariants
        for V in (1, 2, 3):
            for target in _census_targets(V):
                for same, diff in FLAGS:
                    want = first_matching_graph(V, target, same, diff)
                    res = search_filling(V, target, None, same, diff)
                    if want is None:
                        assert not res.found and res.complete, target
                    else:
                        assert res.graph.sigma0 == want.sigma0, target
                        assert res.graph.labels == want.labels, target

    def test_census_lookup_pinned_at_four_vertices(self):
        # below four vertices each target has one class, so the order of
        # the lookup shows only here; the walk takes 10-30 s per target
        # at V=4, so its graphs are pinned: sha256 of the graphs
        # first_matching_graph gives for each target and flag pair
        found = []
        for target in _census_targets(4):
            for same, diff in FLAGS:
                res = search_filling(4, target, None, same, diff)
                found.append((target, same, diff, res.graph and (
                    res.graph.sigma0, res.graph.labels)))
        assert len(found) == 18
        assert hashlib.sha256(repr(found).encode()).hexdigest() == (
            "2e4ad2a71e8815ebb06a2ef65e5d3b9f7b28de3d4c78d8ad418ca8094a26a069")

    def test_beyond_census_is_a_range_error(self):
        with pytest.raises(SynthesisRangeError):
            search_filling(5, (3, 1, 3))


class TestPlans:
    def test_plan_roundtrip_and_determinism(self):
        plan = filling(3, 3, 4)
        text = formats.dumps_plan(plan)
        again = formats.loads_plan(text)
        g1, _ = plan.replay()
        g2, _ = again.replay()
        assert g1 == g2
        assert formats.dumps_plan(again) == text

    def test_tight_plan_records_omega(self):
        plan = tight_omega_filling(3, 4)
        assert plan.expect_omega == 3
        doc = formats.plan_to_document(plan)
        assert doc["expect_omega"] == 3

    def test_builders_are_deterministic(self):
        a = formats.dumps_plan(minimal_filling(5, 4))
        b = formats.dumps_plan(minimal_filling(5, 4))
        assert a == b

    def test_step_index_out_of_range(self):
        doc = formats.plan_to_document(filling(3, 3, 4))
        op = next(st for st in doc["steps"] if "left" in st)
        for bad in (len(doc["steps"]), -1):
            op["left"] = bad
            with pytest.raises(SynthesisError):
                formats.plan_from_document(doc).replay()

    def test_builder_graph_is_the_replayed_graph(self, monkeypatch):
        # the builders verify the graph they ran instead of a second
        # replay, so it must be the graph replay() gives, dart for dart
        built = []
        verify_final = SynthesisPlan.verify_final

        def spy(plan, final):
            built.append(final)
            return verify_final(plan, final)

        monkeypatch.setattr(SynthesisPlan, "verify_final", spy)
        plans = [(plan, built[-1]) for plan in grid_plans(6, 4, 5)]
        for plan, graph in plans:
            replayed, _ = plan.replay()
            assert graph.sigma0 == replayed.sigma0, plan.target
            assert graph.labels == replayed.labels, plan.target
        with_graph_step = {p.target for p, _ in plans
                           if any(st.op == "graph" for st in p.steps)}
        assert {(3, 1, 2), (4, 1, 2), (5, 1, 2)} <= with_graph_step

    def test_plan_bytes_pinned(self):
        # sha256 of the concatenated plan texts of the g <= 4, b <= 3 grid
        # and the tight plans with g <= 4; any change to a builder's choices
        # or to the plan file layout changes it
        texts = [formats.dumps_plan(plan) for plan in grid_plans(4, 3, 4)]
        assert len(texts) == 67
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
            "edd249ef1d1ea5346d25b0cb5fda3528d17e7203a7f7af8056df6af3b5732bb6")

    def test_empty_plan(self):
        with pytest.raises(SynthesisError):
            SynthesisPlan(target=(2, 1, 3)).replay()
