import functools
import hashlib
import sys

import pytest
from helpers import (cycles, dumbbells, face_cycles, first_matching_graph,
                     full_scan_code, grid_plans, grid_targets,
                     pair_search_reference, reference_pair_candidates,
                     reference_replay, tuple_curves, tuple_face_screen)

from fillgraph import core, families, formats, ops, oracle, synthesis
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
        for V in range(1, 8) for g in range(V // 2 + 2) if V + 2 - 2 * g >= 1
    ] + [(8, (4, 2, 2))])
    def test_pair_search_matches_reference(self, V, target):
        # the face screen on bare rotations, after skipping candidates by
        # symmetry, finds what building every candidate finds
        res = search_filling(V, target)
        tokens, examined = pair_search_reference(V, target)
        assert (res.graph and res.graph.to_vertex_cycle_tokens()) == tokens
        assert res.examined <= examined
        if target == (4, 1, 2):
            assert (res.examined, examined) == (897, 3457)

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
        # sequence is an ordered subsequence of the candidates built
        # whole, each a list of its own
        got = list(synthesis._pair_candidates(V))
        full = iter(reference_pair_candidates(V))
        assert all(sigma0 in full for sigma0 in got)
        assert len(got) == {1: 1, 2: 2, 3: 4, 4: 16, 5: 64, 6: 384,
                            7: 2496}[V]
        assert len({id(c) for c in got}) == len(got)

    @pytest.mark.parametrize("V", range(1, 6))
    def test_skipped_candidates_repeat_earlier_ones(self, V):
        # each candidate skipped by symmetry is isomorphic to one yielded
        # before it or to the mirror image (inverse rotation) of one
        reverse = [d ^ 1 for d in range(4 * V)]
        kept = synthesis._pair_candidates(V)
        following = next(kept)
        seen = set()  # codes of the yielded candidates and their mirrors
        skipped = 0
        for sigma0 in reference_pair_candidates(V):
            code = full_scan_code(sigma0, reverse)[0]
            if sigma0 != following:
                assert code in seen
                skipped += 1
                continue
            mirror = [0] * len(sigma0)
            for d, e in enumerate(sigma0):
                mirror[e] = d
            seen.update((code, full_scan_code(mirror, reverse)[0]))
            following = next(kept, None)
        assert following is None and skipped > 0

    @pytest.mark.parametrize("V, target, examined", [
        (5, (3, 1, 2), 33), (7, (4, 1, 2), 897)])
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

    def test_plans_replay_as_the_token_reference(self):
        # the synth-grid plans, a join chain past 256 darts and a tight
        # plan at genus 6, each replayed from the tables their builds
        # filled and checked step by step against the label-token
        # surgeries, which share no code with ops; the reference's last
        # graph has the target (g, b, s) by the tests' own cycle walks
        plans = [*grid_plans(10, 8, 6), filling(2, 300, 301),
                 tight_omega_filling(6, lower_bound(6))]
        for plan in plans:
            differs, final = reference_replay(plan)
            assert differs is None, (plan.target, differs)
            V, E = len(cycles(final.sigma0)), final.num_edges
            b, s = len(face_cycles(final)), len(tuple_curves(final))
            assert (2 - V + E - b, b, s) == (2 * plan.target[0],
                                             *plan.target[1:])

    @pytest.mark.parametrize("plans, count, digest", [
        (lambda: (max_filling(g, b) for g in range(1, 11)
                  for b in range(1, 9)), 80,
         "68b43b95f1dd8b56c6ed8444b73864d3ebaa09de185b37c3cefd9873538a348d"),
        (lambda: (tight_omega_filling(g, s) for g in range(2, 13)
                  for s in range(lower_bound(g), 2 * g + 1)), 142,
         "2bdda885a733f32cef2162be32f00ca5584e21e6d57f840297afde4245bc44b9"),
        (lambda: (filling(g, b, s) for g in range(11, 15)
                  for b in range(1, 4)
                  for s in range(lower_bound(g, b), upper_bound(g, b) + 1)),
         300,
         "2dcde7e2023f61e19656a1c4829a32c6fc2b5e5f650fb730d75ff861bc85c328"),
        (lambda: (minimal_filling(g, s) for g in range(2, 16)
                  for s in range(lower_bound(g), 2 * g + 1)), 223,
         "98f51e78e66ce6554dc528fd35a098770f223bafb667a111a0993aa87d36dc45"),
    ], ids=["max", "tight", "filling", "minimal"])
    def test_plan_bytes_beyond_the_grid_pinned(self, plans, count, digest):
        # the chains' foot and length come from g, s and parity, which the
        # synth-grid pins reach only up to g = 10 (tight g = 6)
        texts = [formats.dumps_plan(plan) for plan in plans()]
        assert len(texts) == count
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest

    def test_empty_plan(self):
        with pytest.raises(SynthesisError):
            SynthesisPlan(target=(2, 1, 3)).replay()


# a literal of two components, and the torus as a literal
DISCONNECTED = (("a+", "a-"), ("b+", "b-"))
TORUS = (("a+", "b+", "a-", "b-"),)


def _literal_plan(target, *steps):
    return SynthesisPlan(target=target, steps=list(steps),
                         expect_filling=False)


class TestLiteralMemo:
    """A graph step copies the graph its vertex tuple parsed to once per
    process (``synthesis._literals``), as a family step copies its
    validated member."""

    def test_one_parse_per_distinct_literal(self, monkeypatch):
        parsed = []
        real = core.FatGraph.from_vertex_cycles.__func__

        def counting(cls, vertex_cycles):
            parsed.append(vertex_cycles)
            return real(cls, vertex_cycles)

        monkeypatch.setattr(core.FatGraph, "from_vertex_cycles",
                            classmethod(counting))
        plans = [formats.loads_plan(formats.dumps_plan(filling(3, b, b + 1)))
                 for b in range(1, 6)]
        literals = {st.vertices for plan in plans for st in plan.steps
                    if st.op == "graph"}
        assert len(literals) == 1
        for _ in range(3):
            for plan in plans:
                plan.replay()
        # the build parsed it; five plans replayed three times did not
        # (a family member's first build parses its cycles too)
        assert [v for v in parsed if v in literals] == [*literals]

    def test_copies_are_distinct_and_share_records(self):
        step = Step("graph", vertices=TORUS)
        graphs = []
        for _ in range(2):
            synthesis._run_step(step, graphs, [])
        a, b = graphs
        assert a is not b and a == b
        assert a._key is b._key and a._walk is b._walk
        assert a._face_orbits is b._face_orbits
        assert a._signature is b._signature is not None
        assert len(synthesis._literals) == 1

    def test_join_of_one_literal_twice_replays(self):
        want = ops.join(families.build(families.TORUS_PAIR),
                        families.build(families.TORUS_PAIR), "a", "a").result
        plan = _literal_plan(
            want.signature().triple, Step("graph", vertices=TORUS),
            Step("graph", vertices=TORUS),
            Step("join", left=0, right=1, x="a", y="a"))
        for _ in range(2):
            got = replay(plan)
            assert (got.sigma0, got.labels) == (want.sigma0, want.labels)

    def test_disconnected_literal_raises_where_it_is_read(self):
        graph = Step("graph", vertices=DISCONNECTED)
        torus = Step("family", family=families.TORUS_PAIR)
        unread = _literal_plan((1, 1, 2), graph, torus)
        for _ in range(2):
            assert replay(unread).signature().triple == (1, 1, 2)
        # kept, without a signature
        assert synthesis._literal(DISCONNECTED)._signature is None
        # the final check and a join read its signature
        for plan in (_literal_plan((0, 2, 1), graph),
                     _literal_plan((1, 1, 2), graph, torus,
                                   Step("join", left=0, right=1, x="a",
                                        y="a"))):
            for _ in range(2):
                with pytest.raises(core.DisconnectedError):
                    plan.replay()

    def test_unhashable_vertices_are_parsed_each_time(self):
        step = Step("graph", vertices=[list(c) for c in TORUS])
        graphs = []
        synthesis._run_step(step, graphs, [])
        assert graphs[0] == core.FatGraph.from_vertex_cycles(TORUS)
        bad = Step("graph", vertices=[["a+", "a+", "b+", "b-"]])
        for _ in range(2):
            with pytest.raises(core.MalformedGraphError,
                               match="appears twice with the same sign"):
                synthesis._run_step(bad, graphs, [])
        assert len(graphs) == 1
        assert len(synthesis._literals) == 0


class _Counting(core._Table):
    """A table that counts its probes (``get`` calls), the probes that
    find an entry, and the entries stored."""

    probes = hits = stores = 0

    def get(self, key, default=None):
        entry = super().get(key, default)
        self.probes += 1
        self.hits += entry is not None
        return entry

    def __setitem__(self, key, entry):
        self.stores += 1
        super().__setitem__(key, entry)

    def clear(self):
        super().clear()
        self.probes = self.hits = self.stores = 0


@pytest.fixture
def memo(monkeypatch):
    """An empty sub-plan table for one test; the process table comes back
    afterwards."""
    fresh = _Counting()
    monkeypatch.setattr(synthesis, "_subplans", fresh)
    return fresh


MEMO_GRID = list(grid_targets(6, 4, 5))


def _cold_text(build, *args):
    """The plan text of ``build(*args)`` from an empty sub-plan table."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(synthesis, "_subplans", _Counting())
        return formats.dumps_plan(build(*args))


@pytest.fixture(scope="module")
def cold_texts():
    """The plan text of every MEMO_GRID target, each built from an empty
    table."""
    return {(build, args): _cold_text(build, *args)
            for build, args in MEMO_GRID}


def _torus(bld, i):
    return bld.family(families.TORUS_PAIR)


def _torus_seed(bld, i):
    """A cheap one-rung chain, one torus join on a torus: each ``i`` keys
    an entry of its own."""
    return synthesis._chain(bld, synthesis._join_torus, _torus, (i,), 1)


def _torus_key(i):
    """The key of :func:`_torus_seed`'s rung."""
    return synthesis._join_torus, _torus, (i,), 1


def _chain_key(joins):
    """The key of the chain of ``joins`` torus joins on the (2, 2, 3)
    example graph, the chain of ``filling(2, b, b + 1)``."""
    return (synthesis._join_torus, synthesis._Builder.family,
            (families.EXAMPLE_5_2, None), joins)


def _pair_key(g):
    """The key of the minimal filling pair of odd genus g >= 5: G2 summed
    (g - 3) / 2 times onto the searched pair of genus 3."""
    return synthesis._sum_g2, synthesis._pair_foot, (3,), (g - 3) // 2


class TestSubplanMemo:
    def test_warm_plans_equal_cold_plans(self, memo, cold_texts):
        # the grid has 36 distinct seed rungs (21 torus plumbings and 15
        # G2 sums), 7 feet that make a surgery (4 two-curve feet of genus
        # 3 and 3 sphere feet) and 119 distinct torus-join rungs (a chain
        # of no moves is its seed, no sub-plan); from an empty table each
        # is built once, in either order, and a warm pass builds none and
        # probes the table at most once a chain call
        for order in (MEMO_GRID, MEMO_GRID[::-1]):
            memo.clear()
            for build, args in order:
                text = formats.dumps_plan(build(*args))
                assert text == cold_texts[build, args], (build, args)
            assert memo.stores == len(memo) == 36 + 7 + 119
            memo.probes = memo.hits = 0
            for build, args in order:
                build(*args)
            assert memo.stores == 36 + 7 + 119
            assert memo.hits == memo.probes <= len(order)

    def test_hit_is_a_copy_and_replays(self, memo):
        minimal_filling(5, 2)
        _, _, darts, labels = memo[_pair_key(5)]
        hits = memo.hits
        restored = []
        for _ in range(2):
            plan = SynthesisPlan(target=(5, 1, 2))
            bld = synthesis._Builder(plan)
            bld.family(families.TORUS_PAIR)  # the reused block starts at 1
            idx = synthesis._pair(bld, 5)
            assert idx == len(plan.steps) - 1
            restored.append(bld.graphs[idx])
        assert memo.hits == hits + 2
        first, second = restored
        assert first.sigma0 == tuple(darts) and first.labels == labels
        assert first == second and first is not second
        # the result's key is the one the entry keeps, not packed again,
        # and its records come from the ops memo, not recomputed
        assert first._key is second._key is darts
        known = ops._memo[darts]
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
            graphs.append(bld.graphs[synthesis._pair(bld, 5)])
        built, rebuilt = graphs
        entry = memo[_pair_key(5)]
        # the entry keeps the key the build packed, not a second packing
        assert entry[2:] == (built._key, built.labels)
        assert entry[2] is built._key
        assert built._key == ops._packed(built.sigma0, built.num_darts)
        # the built graph keeps what its connected sum computed on it
        assert "_curve_orbits" in built.__dict__
        assert "_curve_orbits" not in rebuilt.__dict__
        assert rebuilt == built and rebuilt is not built

    def test_key_is_builder_and_args(self, memo):
        # the two-disc pair of genus 6 is two G2 sums on gamma2b(2)
        for _ in range(2):
            bld = synthesis._Builder(SynthesisPlan(target=(6, 2, 2)))
            synthesis._two_curve(bld, 6, 2, False)
        key = synthesis._sum_g2, synthesis._two_curve_foot, (2, 2, False)
        assert list(memo) == [(*key, 1), (*key, 2)]
        assert memo.stores == 2 and memo.hits == 1 and memo.probes == 3

    def test_raising_subplan_stores_nothing(self, memo):
        bld = synthesis._Builder(SynthesisPlan(target=(4, 1, 2)))
        for _ in range(2):
            with pytest.raises(ImpossibleSignatureError):
                synthesis._chain(bld, synthesis._sum_g2,
                                 synthesis._pair_foot, (2,), 1)
        assert len(memo) == memo.stores == 0
        assert memo.probes == 2

    def test_failed_outer_subplan_keeps_inner_ones(self, memo, monkeypatch,
                                                   cold_texts):
        # (6, 2, 5) joins a torus onto minimal (6, 4), which plumbs a
        # torus onto the pair seed of genus 5
        def broken(*args):
            raise OperationError("injected join fault")

        with monkeypatch.context() as m:
            m.setattr(synthesis, "join", broken)
            with pytest.raises(OperationError):
                filling(6, 2, 5)
        assert list(memo) == [
            _pair_key(5),
            (synthesis._plumb_torus, synthesis._minimal_foot, (5, 2), 1)]
        text = formats.dumps_plan(filling(6, 2, 5))
        assert text == cold_texts[filling, (6, 2, 5)]

    def test_evicts_past_the_bound(self, memo, cold_texts):
        bound = core._TABLE_SIZE
        assert bound == 2048
        for build, args in MEMO_GRID:
            build(*args)
        # cheap entries push out every grid entry and the first three
        # fillers, oldest first
        bld = synthesis._Builder(SynthesisPlan(target=(1, 1, 2)))
        for i in range(bound + 3):
            _torus_seed(bld, i)
        assert len(memo) == bound
        assert all(key[1] is _torus for key in memo)
        assert _torus_key(2) not in memo
        stores = memo.stores
        _torus_seed(bld, 3)  # a hit leaves filler 3 the oldest
        assert memo.stores == stores and next(iter(memo)) == _torus_key(3)
        _torus_seed(bld, 0)
        assert memo.stores == stores + 1
        assert _torus_key(3) not in memo
        assert _torus_key(4) in memo and list(memo)[-1] == _torus_key(0)
        for build, args in MEMO_GRID:
            text = formats.dumps_plan(build(*args))
            assert text == cold_texts[build, args], (build, args)
        assert len(memo) == bound

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
            memo.clear()
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

    @pytest.mark.parametrize("build, args, seed, seed_args, joins", [
        # each seed is one family step and no sub-plan: the max_filling
        # plan of genus 2 is the filling plan on the minimal (2, 4) seed,
        # gamma_g(2)
        (filling, (2, 300, 301), synthesis._Builder.family,
         (families.EXAMPLE_5_2, None), 298),
        (max_filling, (2, 300), synthesis._minimal, (2, 4), 299)],
        ids=["filling", "max_filling"])
    def test_long_chain_builds_and_verifies(self, memo, build, args, seed,
                                            seed_args, joins):
        # a chain of about 300 joins nests no call per join, and its
        # graphs pass 256 darts, where packed darts take two bytes each
        plan = build(*args)  # verifies its final graph
        assert len(plan.steps) == 1 + 2 * joins  # one family seed step
        assert memo.stores == len(memo) == joins
        *_, darts, labels = memo[synthesis._join_torus, seed, seed_args,
                                 joins]
        n = 2 * len(labels)
        assert isinstance(darts, bytes) and len(darts) == 2 * n > 512
        assert sorted(ops._unpacked(darts, n)) == list(range(n))

    def test_long_chain_probes_the_table_once_a_join(self, memo):
        # a cold chain probes each prefix once on its way down, and makes
        # each from the one below it with no further probe: 298 probes
        # for the 298 joins of this plan; the plan text is the one those
        # probes built
        text = formats.dumps_plan(filling(2, 300, 301))
        assert memo.probes == memo.stores == 298 and memo.hits == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1bb4ad8395720463761fc7efa4db085b3c3a6a404dec0d0b263b1d9eb52bd459")

    def test_warm_ladder_probes_once(self, memo):
        # the walk down from a warm rung stops at its first probe
        cold = formats.dumps_plan(filling(2, 300, 301))
        memo.probes = memo.hits = 0
        assert formats.dumps_plan(filling(2, 300, 301)) == cold
        assert memo.probes == memo.hits == 1
        assert memo.stores == 298

    def test_missing_middle_rung_rebuilds_the_same_text(self, memo):
        # a call whose rung is gone makes it again from the rung under it,
        # and a rung above the gap still reuses its own entry
        cold = {b: _cold_text(filling, 2, b, b + 1) for b in (11, 20)}
        filling(2, 20, 21)
        del memo[_chain_key(9)]
        stores = memo.stores
        for b in (20, 11):
            assert formats.dumps_plan(filling(2, b, b + 1)) == cold[b], b
        assert memo.stores == stores + 1 and _chain_key(9) in memo

    @pytest.mark.parametrize("build, args, steps, entries", [
        # the pair seed of genus 661: 329 G2 sums on the pair of genus 3
        (filling, (661, 1, 2), 1 + 2 * 329, 329),
        # the tight chain: 198 torus plumbings on the sphere foot of genus
        # 202, whose two-disc pair of genus 201 is 99 G2 sums on the
        # two-curve foot of genus 3; each foot is a rung of its own
        (tight_omega_filling, (400, 399), 3 + 2 * 99 + 3 + 2 * 198,
         99 + 198 + 2),
        # the minimal chain: 199 torus plumbings on the pair seed of
        # genus 201, 99 G2 sums on the pair of genus 3
        (filling, (400, 1, 400), 1 + 2 * 99 + 2 * 199, 99 + 199),
        # the sphere foot of genus 400 on the two-disc pair of genus 399:
        # 198 G2 sums on a sum of two gamma2b(2), a plumbing, a smoothing;
        # the sum of two gamma2b(2) and the sphere foot are rungs too
        (tight_omega_filling, (400, 3), 3 + 2 * 198 + 3, 198 + 2)],
        ids=["pair", "tight", "minimal", "two-disc"])
    def test_cold_ladder_past_the_recursion_limit(self, memo, build, args,
                                                  steps, entries):
        # each chain is deeper than the default recursion limit when each
        # rung nests the build of the one below; made lowest first, each
        # rung is built once and no build nests one rung in another
        assert sys.getrecursionlimit() <= 1000
        plan = build(*args)  # verifies its final graph
        assert len(plan.steps) == steps
        assert memo.stores == len(memo) == entries

    def test_tight_plan_shares_the_minimal_rungs(self, memo):
        # a tight plan of even size has the steps of the minimal plan,
        # and reuses its rungs
        minimal = minimal_filling(6, 4)
        stores = memo.stores
        assert tight_omega_filling(6, 4).steps == minimal.steps
        assert memo.stores == stores
        # the tight plans of genus 2 to 6 add only the rungs of their
        # sphere feet and odd-size chains to the minimal plans' rungs:
        # 12 moves, 4 sphere feet and the two-curve foot of genus 3
        memo.clear()
        for g in range(2, 7):
            for s in range(lower_bound(g), 2 * g + 1):
                minimal_filling(g, s)
        stores = memo.stores
        for g in range(2, 7):
            for s in range(lower_bound(g), 2 * g + 1):
                tight_omega_filling(g, s)
        assert memo.stores == stores + 12 + 5


def test_each_construction_walked_once(monkeypatch):
    # every surgery probes the construction table once, and only a probe
    # that misses walks, and stores its construction; a table that holds
    # every store, none pushed out by the bound, walked each distinct
    # construction once
    table = _Counting()
    monkeypatch.setattr(ops, "_constructions", table)
    plans = []
    for build, args in MEMO_GRID:
        plan = formats.loads_plan(formats.dumps_plan(build(*args)))
        plan.replay()
        plans.append(plan)
    # 596 surgeries, of 160 distinct constructions
    assert table.stores == len(table) == table.probes - table.hits == 160
    assert table.probes == 596 and len(table) < core._TABLE_SIZE
    # a second replay of every plan, 434 surgeries, walks none
    for plan in plans:
        plan.replay()
    assert table.stores == table.probes - table.hits == 160
    assert table.probes == 596 + 434


def test_side_records_made_once_per_vertex(monkeypatch):
    # a cold filling(60, 1, 2) sums G2 onto the searched pair of genus 4
    # 28 times, screening every (w, u, align) before its hit by the
    # prediction: the position walk runs once on each distinct operand
    # (the copies of G2 share one key), each side record is made once,
    # however many candidates read it, and the screen reads the records
    # of the vertices up to its hit only
    walks, made, screened, operands = [], [], [], set()
    real_walk = core.FatGraph.__dict__["_positions"].func

    @functools.wraps(real_walk)
    def walk(graph):
        walks.append(graph._key)
        return real_walk(graph)

    real_side = ops._side

    def side(graph, v):
        if (graph._key, v) not in ops._sides:
            made.append((graph._key, v))
        return real_side(graph, v)

    real_predict = synthesis.predict_connected_sum

    def predict(left, right, *args):
        operands.update((left._key, right._key))
        screened.append(args)
        return real_predict(left, right, *args)

    monkeypatch.setattr(core.FatGraph, "_positions", core._cached(walk))
    monkeypatch.setattr(ops, "_side", side)
    monkeypatch.setattr(synthesis, "_side", side)
    monkeypatch.setattr(synthesis, "predict_connected_sum", predict)
    plan = filling(60, 1, 2)
    assert sum(st.op == "consum" for st in plan.steps) == 28
    assert len(operands) == 28 + 1
    assert sorted(walks) == sorted(operands)
    assert len(set(made)) == len(made) == len(ops._sides)
    # G2's six vertices and one of each left operand: every hit is at
    # w = 0, the fifth candidate (u = 1, align = 0)
    assert len(made) == 6 + 28 and len(screened) == 5 * 28


def test_two_faces_have_an_edge_between_them():
    # why the two-disc chain asks nothing of its sums: a connected graph
    # with b >= 2 faces has an edge whose two directions lie in two of
    # them
    graphs = [row.graph() for V in range(1, 5) for row in oracle.census(V)
              if row.boundary_count >= 2]
    assert len(graphs) == 403
    for g in range(2, 13):
        bld = synthesis._Builder(SynthesisPlan(target=(g, 2, 2)))
        graphs.append(bld.graphs[synthesis._two_curve(bld, g, 2, False)])
        assert graphs[-1].signature().triple == (g, 2, 2)
    assert all(graph.is_connected for graph in graphs)
    assert all(synthesis._boundary_edge(graph, False) for graph in graphs)


class TestConsumReaching:
    def builder(self, target):
        bld = synthesis._Builder(SynthesisPlan(target, expect_filling=False))
        return (bld, *map(bld.literal, dumbbells()))

    def test_require_rejects_a_candidate(self):
        # aligns 1 and 3 of the two centres reach (0, 6, 1); a require
        # that rejects the first built sum takes the second
        bld, li, ri = self.builder((0, 6, 1))
        seen = []

        def require(graph):
            seen.append(graph)
            return len(seen) == 2

        idx, rep = bld.consum_reaching(li, ri, (0, 6, 1), require=require)
        assert rep.selectors["align"] == 3 and len(seen) == 2
        assert idx == 2 and bld.graphs[idx] is seen[1]
        assert len(bld.graphs) == len(bld.plan.steps) == 3
        assert bld.reports == [rep]
        replayed, _ = bld.verify().replay()
        assert replayed == seen[1]

    def test_candidates_that_raise_then_none_reaches(self):
        # aligns 0 and 2 predict (-1, 8, 2), and building either raises
        # for a disconnected sum; no candidate is left
        bld, li, ri = self.builder((-1, 8, 2))
        with pytest.raises(SynthesisError,
                           match=r"no connected-sum vertex pair reaches "
                                 r"\(-1, 8, 2\)"):
            bld.consum_reaching(li, ri, (-1, 8, 2))
        assert len(bld.graphs) == len(bld.plan.steps) == 2
        assert bld.reports == []


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
