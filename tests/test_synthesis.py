import hashlib
import itertools
from functools import lru_cache

import pytest
from helpers import (first_matching_graph, grid_plans, grid_targets,
                     pair_search_reference, reference_pair_candidates,
                     tuple_face_screen)

from fillgraph import families, formats, ops, oracle, synthesis
from fillgraph.analysis import intersection_graph
from fillgraph.ops import OperationError
from fillgraph.synthesis import (ImpossibleSignatureError, Step,
                                 SynthesisError, SynthesisPlan,
                                 SynthesisRangeError, filling, lower_bound,
                                 max_filling, minimal_filling,
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

    # both one-disc builders check their target with TargetSignature
    def test_impossible_pair(self):
        for build in (minimal_filling, tight_omega_filling):
            with pytest.raises(ImpossibleSignatureError):
                build(2, 2)

    def test_out_of_range(self):
        # genus 1, a size below lower_bound, and size 2g+1
        for build in (minimal_filling, tight_omega_filling):
            for g, s in ((1, 2), (2, 1), (3, 1), (2, 5), (3, 7)):
                with pytest.raises(SynthesisRangeError):
                    build(g, s)

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


def _census_targets(V):
    """Signatures (g, b, s) with s != 2 of the filling classes on V
    vertices."""
    return sorted({(r.genus, r.boundary_count, r.standard_cycle_count)
                   for r in oracle.census(V)
                   if r.filling and r.standard_cycle_count != 2})


class TestSearch:
    def test_no_genus_two_pair(self):
        res = search_filling(3, (2, 1, 2))
        assert not res.found

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
        assert not res.found

    def test_generic_engine(self):
        res = search_filling(3, (2, 1, 4))
        assert res.found
        assert res.graph.signature().triple == (2, 1, 4)

    def test_no_vertices_is_complete_miss(self):
        for target in ((0, 2, 2), (1, 0, 3)):
            res = search_filling(0, target)
            assert not res.found

    def test_census_lookup_is_the_first_walk_graph(self):
        # the least witness of a class is the first matching the walk
        # meets in it
        for V in (1, 2, 3):
            for target in _census_targets(V):
                want = first_matching_graph(V, target)
                res = search_filling(V, target)
                assert res.graph.sigma0 == want.sigma0, target
                assert res.graph.labels == want.labels, target

    def test_census_lookup_pinned_at_four_vertices(self):
        # below four vertices each target has one class, so the order of
        # the lookup shows only here; the walk takes 10-30 s per target
        # at V=4, so its graphs are pinned: sha256 of the graphs
        # first_matching_graph gives for each target
        found = []
        for target in _census_targets(4):
            res = search_filling(4, target)
            found.append((target, res.graph and (
                res.graph.sigma0, res.graph.labels)))
        assert len(found) == 6
        assert hashlib.sha256(repr(found).encode()).hexdigest() == (
            "46b7e7671ecc09fe8e5f7f67cb2aa993f37b492fe5d6d3afd5902270011ee775")

    @pytest.mark.parametrize("V, target", [
        (V, (g, V + 2 - 2 * g, 2))
        for V in range(1, 7) for g in range(V // 2 + 2) if V + 2 - 2 * g >= 1
    ] + [(7, (4, 1, 2))])
    def test_pair_search_matches_reference(self, V, target):
        # the face screen on bare rotations finds what building every
        # candidate finds, after as many candidates
        res = search_filling(V, target)
        tokens, examined = pair_search_reference(V, target)
        assert res.examined == examined
        assert (res.graph and res.graph.to_vertex_cycle_tokens()) == tokens
        if V == 7:
            assert examined == 3457

    @pytest.mark.parametrize("V", range(1, 7))
    def test_face_screen_matches_face_tuples(self, V):
        # the screen that stops at the first face ruling a candidate out
        # accepts exactly what the full list of face lengths accepts
        accepted = 0
        for sigma0 in synthesis._pair_candidates(V):
            for b in range(1, V + 3):
                ok = synthesis._face_screen(sigma0, b)
                assert ok == tuple_face_screen(sigma0, b)
                accepted += ok
        assert accepted > 0

    @pytest.mark.parametrize("V", range(1, 8))
    def test_pair_candidates_match_the_reference(self, V):
        # each candidate is rewritten from the one before it, yet the
        # sequence is the one built whole, each a list of its own
        count = None if V <= 6 else 5000
        got = list(itertools.islice(synthesis._pair_candidates(V), count))
        assert got == list(itertools.islice(reference_pair_candidates(V),
                                            count))
        assert len({id(c) for c in got}) == len(got)

    @pytest.mark.parametrize("V, target, examined", [
        (5, (3, 1, 2), 97), (7, (4, 1, 2), 3457)])
    def test_pair_search_examines_every_candidate(self, V, target,
                                                  examined):
        assert synthesis._search_cached(V, target).examined == examined

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

    def test_synth_grid_plan_bytes_pinned(self):
        # the same digest over the whole grid of the synth-grid benchmark:
        # g <= 10, b <= 8 and the tight plans with g <= 6
        texts = [formats.dumps_plan(plan) for plan in grid_plans(10, 8, 6)]
        assert len(texts) == 1077
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
            "d2d6bab0944204bf4a784af3d1d46ed1a6a362ec10a60d61ca57ebb2d1f0ce9a")

    def test_empty_plan(self):
        with pytest.raises(SynthesisError):
            SynthesisPlan(target=(2, 1, 3)).replay()


def _empty_memo():
    return lru_cache(maxsize=synthesis._subplan.cache_info().maxsize)(
        synthesis._subplan.__wrapped__)


@pytest.fixture
def memo(monkeypatch):
    """An empty sub-plan memo for one test; the process memo comes back
    afterwards."""
    fresh = _empty_memo()
    monkeypatch.setattr(synthesis, "_subplan", fresh)
    return fresh


MEMO_GRID = list(grid_targets(6, 4, 5))


def _cold_text(build, *args):
    """The plan text of ``build(*args)`` from an empty sub-plan memo."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(synthesis, "_subplan", _empty_memo())
        return formats.dumps_plan(build(*args))


@pytest.fixture(scope="module")
def cold_texts():
    """The plan text of every MEMO_GRID target, each built from an empty
    memo."""
    return {(build, args): _cold_text(build, *args)
            for build, args in MEMO_GRID}


def _torus_seed(bld, i):
    """A cheap sub-builder: each ``i`` keys an entry of its own."""
    return bld.family(families.TORUS_PAIR)


class TestSubplanMemo:
    def test_warm_plans_equal_cold_plans(self, memo, cold_texts):
        # the grid has 84 distinct seeds and 119 distinct torus-chain
        # prefixes; from an empty memo each is built once, in either
        # order, and a warm pass over the grid builds none
        for order in (MEMO_GRID, MEMO_GRID[::-1]):
            memo.cache_clear()
            for build, args in order:
                text = formats.dumps_plan(build(*args))
                assert text == cold_texts[build, args], (build, args)
            assert memo.cache_info().misses == memo.cache_info().currsize
            assert memo.cache_info().currsize == 84 + 119
            for build, args in order:
                build(*args)
            assert memo.cache_info().misses == 84 + 119

    def test_hit_is_a_copy_and_replays(self, memo):
        minimal_filling(5, 2)
        _, _, darts, labels = memo(synthesis._pair_into.__wrapped__, (5,))
        hits = memo.cache_info().hits
        restored = []
        for _ in range(2):
            plan = SynthesisPlan(target=(5, 1, 2))
            bld = synthesis._Builder(plan)
            bld.family(families.TORUS_PAIR)  # the reused block starts at 1
            idx = synthesis._pair_into(bld, 5)
            assert idx == len(plan.steps) - 1
            restored.append(bld.graphs[idx])
        assert memo.cache_info().hits == hits + 2
        first, second = restored
        assert first.sigma0 == tuple(darts) and first.labels == labels
        assert first == second and first is not second
        # the result's records come from the ops memo, not recomputed
        known = ops._memo[ops._packed(first.sigma0, first.num_darts)]
        assert first._signature is known[0]
        assert first._walk is known[3]
        replayed, _ = plan.replay()
        assert replayed.sigma0 == first.sigma0
        assert replayed.labels == first.labels

    def test_first_reuse_takes_the_built_graph(self, memo):
        # the pair seed of genus 5 joins G2 onto the one of genus 3
        graphs = []
        for _ in range(2):
            bld = synthesis._Builder(SynthesisPlan(target=(5, 1, 2)))
            graphs.append(bld.graphs[synthesis._pair_into(bld, 5)])
        built, rebuilt = graphs
        entry = memo(synthesis._pair_into.__wrapped__, (5,))
        assert entry[2:] == [ops._packed(built.sigma0, built.num_darts),
                             built.labels]
        # the built graph keeps what its connected sum computed on it
        assert "_curve_orbits" in built.__dict__
        assert "_curve_orbits" not in rebuilt.__dict__
        assert rebuilt == built and rebuilt is not built

    def test_key_is_builder_and_args(self, memo):
        for _ in range(2):
            bld = synthesis._Builder(SynthesisPlan(target=(4, 2, 2)))
            synthesis._two_disc_pair_into(bld, 4, True)
        assert memo.cache_info().misses == 2  # (4, True) and (2, False)
        assert memo.cache_info().hits == 1

    def test_raising_subplan_stores_nothing(self, memo):
        bld = synthesis._Builder(SynthesisPlan(target=(2, 1, 2)))
        for _ in range(2):
            with pytest.raises(ImpossibleSignatureError):
                synthesis._pair_into(bld, 2)
        assert memo.cache_info().currsize == 0
        assert memo.cache_info().misses == 2

    def test_failed_outer_subplan_keeps_inner_ones(self, memo, monkeypatch,
                                                   cold_texts):
        # minimal (4, 4) plumbs a torus onto minimal (3, 2), the pair seed
        def broken(*args):
            raise OperationError("injected plumbing fault")

        with monkeypatch.context() as m:
            m.setattr(synthesis, "plumbing", broken)
            with pytest.raises(OperationError):
                minimal_filling(4, 4)
        assert memo.cache_info().currsize == 2
        text = formats.dumps_plan(minimal_filling(4, 4))
        assert text == cold_texts[filling, (4, 1, 4)]

    def test_evicts_past_the_bound(self, memo, cold_texts):
        bound = synthesis._SUBPLAN_SIZE
        assert memo.cache_info().maxsize == bound == 2048
        for build, args in MEMO_GRID:
            build(*args)
        # cheap entries push out every grid entry and the first filler
        for i in range(bound + 3):
            bld = synthesis._Builder(SynthesisPlan(target=(1, 1, 2)))
            synthesis._seed(_torus_seed)(bld, i)
        assert memo.cache_info().currsize == bound
        misses = memo.cache_info().misses
        memo(_torus_seed, (0,))
        assert memo.cache_info().misses == misses + 1
        for build, args in MEMO_GRID:
            text = formats.dumps_plan(build(*args))
            assert text == cold_texts[build, args], (build, args)
        assert memo.cache_info().currsize == bound

    @pytest.mark.parametrize("build, short, long", [
        (filling, (3, 2, 5), (3, 4, 7)),  # minimal (3, 4) seed
        (filling, (3, 4, 3), (3, 6, 5)),  # two-cycle (3, 3) seed
        (filling, (2, 2, 3), (2, 4, 5)),  # the (2, 2, 3) example graph
        (filling, (5, 1, 6), (5, 4, 9)),  # minimal (5, 6) seed, no join
        (max_filling, (3, 2), (3, 6)),
    ], ids=["minimal", "two-cycle", "example", "bare-seed", "max"])
    def test_chain_either_side_of_a_longer_one(self, memo, build, short,
                                                long):
        # a chain and a longer one on the same seed share their prefix
        cold = {args: _cold_text(build, *args) for args in (short, long)}
        for order in ((short, long), (long, short)):
            memo.cache_clear()
            plans = {args: build(*args) for args in order}
            for args in order:
                assert formats.dumps_plan(plans[args]) == cold[args], args
            steps = plans[short].steps
            assert plans[long].steps[:len(steps)] == steps

    def test_edited_plan_leaves_later_plans_alone(self, memo, cold_texts):
        for args in ((3, 4, 7), (3, 2, 5), (3, 1, 4)):
            plan = filling(*args)
            steps = plan.steps
            steps[-1] = steps[0]
            steps.append(Step("smooth", arg=0))
            del steps[1]
        for args in ((3, 4, 7), (3, 2, 5), (3, 3, 6), (3, 1, 4)):
            text = formats.dumps_plan(filling(*args))
            assert text == cold_texts[filling, args], args

    @pytest.mark.parametrize("build, args, seed, joins", [
        (filling, (2, 300, 301), (families.EXAMPLE_5_2, None), 298),
        (max_filling, (2, 300), (families.GAMMA_G, 2), 299)],
        ids=["filling", "max_filling"])
    def test_long_chain_builds_and_verifies(self, memo, build, args, seed,
                                            joins):
        # a chain of about 300 joins nests no call per join, and its
        # graphs pass 256 darts, where packed darts stay a tuple
        plan = build(*args)  # verifies its final graph
        assert len(plan.steps) == 1 + 2 * joins  # one family seed step
        assert memo.cache_info().misses == memo.cache_info().currsize \
            == 1 + joins
        *_, darts, labels = memo(synthesis._torus_joined,
                                 (synthesis._family_into, seed, joins))
        assert memo.cache_info().misses == 1 + joins
        assert isinstance(darts, tuple) and len(darts) > 256
        assert len(labels) == len(darts) // 2


class TestStepConstructor:
    FIELDS = [{"op": "family", "family": "G1", "param": None},
              {"op": "graph", "vertices": (("a+", "a-"),)},
              {"op": "join", "left": 0, "right": 1, "x": "a", "y": "b"},
              {"op": "consum", "left": 0, "right": 1, "w": 2, "u": 3,
               "align": 1},
              {"op": "plumb", "left": 0, "right": 1, "x": "a", "y": "b",
               "flip": True},
              {"op": "smooth", "arg": 4},
              {"op": "consum", "align": None, "flip": None}]
    # every field in schema order, at its default
    SCHEMA = {"op": None, "family": None, "param": None, "vertices": None,
              "left": None, "right": None, "x": None, "y": None, "w": None,
              "u": None, "align": 0, "flip": False, "arg": None}

    @pytest.mark.parametrize("fields", FIELDS)
    def test_same_step_as_init(self, fields):
        # keyword construction, as builders and the plan reader make a
        # step, against every field given positionally in schema order
        assert Step._fields == tuple(self.SCHEMA)
        step = Step(**fields)
        ref = Step(*{**self.SCHEMA, **fields}.values())
        assert step == ref and hash(step) == hash(ref)
        assert repr(step) == repr(ref)
        assert tuple(step) == tuple(ref)
        moved = step._replace(left=7)
        assert moved.left == 7 and moved == ref._replace(left=7)
        assert step == ref and step.left == fields.get("left")
        with pytest.raises(AttributeError):
            step.op = "join"
        with pytest.raises(AttributeError):
            step.align = 2

    @pytest.mark.parametrize("fields", [{"op": "join", "lefty": 0},
                                        {"left": 0}, {}])
    def test_unknown_or_missing_field_is_a_type_error(self, fields):
        with pytest.raises(TypeError):
            Step(**fields)
