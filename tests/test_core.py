import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import (cycles, edges, face_cycles, face_words,
                     reference_successor, tuple_curves)

import fillgraph
from fillgraph import families, oracle
from fillgraph.core import (DegreeError, DisconnectedError, FatGraph,
                            InvariantError, MalformedGraphError,
                            NotDecoratedError, _cached, _orbit_labels)


def cyc(spec):
    return spec.split()


TORUS = [cyc("a+ b+ a- b-")]
SPHERE_CIRCLE = [cyc("a+ a-")]
ONE_VERTEX_SPHERE = [cyc("a+ a- b+ b-")]
G1 = [cyc("f1+ f2+ f3+ f4+"), cyc("f3- f4- f5+ f2-"), cyc("f5- f6+ f1- f6-")]
QUAD = [cyc("f1+ f2+ f3+ f2-"), cyc("f3- f4+ f5+ f6+"),
        cyc("f6- f9- f10- f1-"), cyc("f5- f7+ f8+ f7-"),
        cyc("f4- f9+ f10+ f8-")]


class TestFromVertexCycles:
    def test_example_three_vertex_graph(self):
        g = FatGraph.from_vertex_cycles(G1)
        assert g.num_vertices == 3
        assert g.num_edges == 6

    def test_torus_pair(self):
        g = FatGraph.from_vertex_cycles(TORUS)
        assert g.num_vertices == 1
        assert g.num_edges == 2

    def test_five_vertex_quadruple(self):
        g = FatGraph.from_vertex_cycles(QUAD)
        assert g.num_vertices == 5
        assert g.num_edges == 10

    def test_label_appearing_once_rejected(self):
        with pytest.raises(MalformedGraphError, match="f9"):
            FatGraph.from_vertex_cycles([cyc("f9+ f8+"), cyc("f8- f7+ f7-")])

    def test_label_appearing_thrice_rejected(self):
        with pytest.raises(MalformedGraphError):
            FatGraph.from_vertex_cycles([cyc("a+ a- b+"), cyc("a+ b-")])

    def test_short_cycle_rejected(self):
        with pytest.raises(DegreeError):
            FatGraph.from_vertex_cycles([cyc("a+"), cyc("a- b+ b-")])

    def test_no_darts_rejected(self):
        # an empty graph used to report the signature g=1 b=0 s=0
        with pytest.raises(MalformedGraphError, match="at least one edge"):
            FatGraph.from_vertex_cycles([])
        with pytest.raises(MalformedGraphError, match="at least one edge"):
            FatGraph((), ())

    @pytest.mark.parametrize("sigma0, labels, message", [
        ((0,), ("a",), "odd number of darts"),
        ((1, 1), ("a",), "not a permutation"),
        ((0, 0), ("a",), "not a permutation"),
        ((1, 2), ("a",), "not a permutation"),
        ((1, 0), ("a", "b"), "one label per undirected edge"),
        ((1, 0, 3, 2), ("a",), "one label per undirected edge"),
        ((1, 0, 3, 2), ("a", "a"), "duplicate edge labels"),
        # labels that the graph file cannot write back as they are
        ((1, 0), (7,), "edge label"),
        ((1, 0), ("",), "edge label"),
        ((1, 0), ("x#0",), "edge label"),
        ((1, 0), ("a\u2212b",), "edge label"),
    ])
    def test_raw_constructor_rejects(self, sigma0, labels, message):
        with pytest.raises(MalformedGraphError, match=message):
            FatGraph(sigma0, labels)

    def test_tuple_token_label_rejected(self):
        # a (name, sign) token reaches the constructor through str(name)
        with pytest.raises(MalformedGraphError, match="edge label"):
            FatGraph.from_vertex_cycles([[("x#0", 1), ("x#0", -1)]])

    @pytest.mark.parametrize("tokens", [
        [("a", "+"), ("a", "-")],  # a sign that is not a number
        [("a", 1, 0), ("a", -1)],  # three entries
        [("a",), ("a", -1)],  # one entry
        [("a", 2), ("a", -1)],  # a number that is not +1 or -1
        [("a", 0), ("a", 1)],
    ])
    def test_malformed_tuple_token_rejected(self, tokens):
        with pytest.raises(MalformedGraphError, match=r"\(name, 1\)"):
            FatGraph.from_vertex_cycles([tokens])

    def test_tuple_tokens_accepted(self):
        g = FatGraph.from_vertex_cycles([[("a", 1), ("b", -1)],
                                         [("a", -1), ("b", 1)]])
        assert g == FatGraph.from_vertex_cycles([["a+", "b-"], ["a-", "b+"]])

    def test_labels_come_from_the_tokens_only(self):
        # labels passed beside the tokens would be ignored, so none are
        # taken
        with pytest.raises(TypeError):
            FatGraph.from_vertex_cycles(TORUS, ["x", "y"])

    def test_same_sign_loop_needs_tags(self):
        with pytest.raises(MalformedGraphError, match="#0"):
            FatGraph.from_vertex_cycles([["a+", "b+", "a+", "b-"]])
        g = FatGraph.from_vertex_cycles([["a+#0", "b+", "a+#1", "b-"]])
        assert g.num_edges == 2

    def test_roundtrip_through_tokens(self):
        g = FatGraph.from_vertex_cycles(G1)
        again = FatGraph.from_vertex_cycles(g.to_vertex_cycle_tokens())
        assert again.is_isomorphic(g)
        assert sorted(again.labels) == sorted(g.labels)
        # serialization is idempotent after one round
        assert again.to_vertex_cycle_tokens() == g.to_vertex_cycle_tokens()


class TestBoundaryCycles:
    def test_single_boundary_of_length_twelve(self):
        g = FatGraph.from_vertex_cycles(G1)
        assert list(g.face_lengths) == [12]

    def test_four_boundaries(self):
        g2 = families.build(families.G2)
        assert len(g2.face_lengths) == 4

    def test_sphere_circle_two_unit_boundaries(self):
        g = FatGraph.from_vertex_cycles(SPHERE_CIRCLE)
        assert sorted(g.face_lengths) == [1, 1]

    def test_boundaries_partition_darts(self):
        for cycles in (TORUS, G1, QUAD, ONE_VERTEX_SPHERE):
            g = FatGraph.from_vertex_cycles(cycles)
            darts = [d for c in face_cycles(g) for d in c]
            assert sorted(darts) == list(range(g.num_darts))

    def test_gamma_2_3_boundary_word(self):
        g = families.build(families.GAMMA_2_B, 3)
        words = face_words(g)
        want = ("f5-", "e4+", "f4+", "e3-", "f3+", "e4-", "f4-", "e5+")
        rotations = {tuple(w[i:] + w[:i]) for w in map(list, words)
                     for i in range(len(w))}
        assert want in rotations


class TestStandardCycles:
    def test_lengths_three_two_one(self):
        g = FatGraph.from_vertex_cycles(G1)
        assert sorted(g.curve_lengths) == [1, 2, 3]

    def test_gamma0_lengths(self):
        g = families.build(families.GAMMA0)
        assert sorted(g.curve_lengths) == [2, 3, 5]

    def test_torus_two_unit_cycles(self):
        g = FatGraph.from_vertex_cycles(TORUS)
        assert sorted(g.curve_lengths) == [1, 1]

    def test_odd_degree_rejected(self):
        g = FatGraph.from_vertex_cycles([cyc("a+ a- b+"), cyc("b- c+ c-")])
        with pytest.raises(NotDecoratedError, match="vertex 0"):
            g.curve_lengths

    def test_orbits_are_twice_the_curves(self):
        for cycles in (TORUS, G1, QUAD, ONE_VERTEX_SPHERE, SPHERE_CIRCLE):
            g = FatGraph.from_vertex_cycles(cycles)
            starts, _ = _orbit_labels(tuple(g._curve_orbits[2]))
            assert len(starts) == 2 * len(g.curve_lengths)

    def test_successor_matches_rotation_walk(self):
        # reference: from d ^ 1, step sigma0 half the degree times
        hexa = [cyc("a+ b+ c+ a- b- c-")]
        mixed = [cyc("a+ b+ c+ d+ e+ f+"), cyc("a- b-"), cyc("c- d- e- f-")]
        for cycles in (TORUS, G1, QUAD, SPHERE_CIRCLE, hexa, mixed):
            g = FatGraph.from_vertex_cycles(cycles)
            want = []
            for d in range(g.num_darts):
                e = d ^ 1
                for _ in range(g.degree(g.vertex_of[e]) // 2):
                    e = g.sigma0[e]
                want.append(e)
            assert tuple(g._curve_orbits[2]) == tuple(want)

    def test_curves_partition_edges(self):
        for cycles in (TORUS, G1, QUAD):
            g = FatGraph.from_vertex_cycles(cycles)
            found = sorted(e for c in tuple_curves(g) for e in edges(c))
            assert found == list(range(g.num_edges))


class TestVertexDartsAndPositions:
    GRAPHS = [row.graph() for V in range(1, 4) for row in oracle.census(V)]
    GRAPHS += [families.build(families.SPHERE_CIRCLE),
               FatGraph.from_vertex_cycles([cyc("a+ a- b+"),
                                            cyc("b- c+ c-")])]

    def test_vertex_darts_walk_only_what_they_need(self):
        # a graph without its vertex cycles walks them up to the vertex
        # asked, and builds nothing to keep
        for graph in self.GRAPHS:
            for v, darts in enumerate(graph.vertex_cycles):
                fresh = FatGraph(graph.sigma0, graph.labels)
                assert fresh._vertex_darts(v) == darts
                assert "vertex_cycles" not in fresh.__dict__
                assert graph._vertex_darts(v) is darts

    def test_positions_follow_the_orbits(self):
        # place i along an orbit is the i-th dart of the orbit walked from
        # its least dart, for faces and, on a decorated graph, curves
        for graph in self.GRAPHS:
            faces, curves = graph._positions
            assert [faces[d] for face in face_cycles(graph)
                    for d in face] == [i for face in face_cycles(graph)
                                       for i in range(len(face))]
            if not graph.is_decorated:
                assert curves is None
                continue
            orbits = cycles(reference_successor(graph))
            assert [curves[d] for orb in orbits for d in orb] == [
                i for orb in orbits for i in range(len(orb))]


class TestSignature:
    def test_g1(self):
        sig = FatGraph.from_vertex_cycles(G1).signature()
        assert sig.triple == (2, 1, 3)

    def test_g2(self):
        assert families.build(families.G2).signature().triple == (2, 4, 2)

    def test_sphere_circle(self):
        sig = FatGraph.from_vertex_cycles(SPHERE_CIRCLE).signature()
        assert sig.triple == (0, 2, 1)
        assert not sig.is_four_regular
        assert sig.is_decorated

    def test_example_5_2(self):
        sig = families.build(families.EXAMPLE_5_2).signature()
        assert sig.triple == (2, 2, 3)

    def test_euler_relation(self):
        for cycles in (TORUS, G1, QUAD, ONE_VERTEX_SPHERE):
            sig = FatGraph.from_vertex_cycles(cycles).signature()
            assert (sig.vertex_count - sig.edge_count + sig.boundary_count
                    == 2 - 2 * sig.genus)

    def test_disconnected_rejected(self):
        g = FatGraph.from_vertex_cycles(
            [cyc("a+ b+ a- b-"), cyc("c+ d+ c- d-")])
        assert not g.is_connected
        with pytest.raises(DisconnectedError):
            g.signature()

    def test_computed_once(self):
        g = FatGraph.from_vertex_cycles(G1)
        assert g.signature() is g.signature()
        assert g.is_decorated is True and g.is_four_regular is True

    def test_disconnected_raises_on_every_call(self):
        g = FatGraph.from_vertex_cycles(
            [cyc("a+ b+ a- b-"), cyc("c+ d+ c- d-")])
        for _ in range(3):
            with pytest.raises(DisconnectedError):
                g.signature()

    @staticmethod
    def _signature_under_optimize(fault):
        """stdout of ``python -O`` computing the torus's signature after
        ``fault`` has replaced ``core._orbit_labels``, which the kernel's
        face and curve passes read their labels from: the name of the
        exception and its message."""
        code = ("import fillgraph.core as core\n" + fault +
                "g = core.FatGraph.from_vertex_cycles("
                "[['a+', 'b+', 'a-', 'b-']])\n"
                "try:\n    g.signature()\n"
                "except core.InvariantError as exc:\n"
                "    print('InvariantError', exc)\n")
        src = str(Path(fillgraph.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env={"PYTHONPATH": src}, capture_output=True,
                             text=True, timeout=60)
        assert not out.stderr, out.stderr
        return out.stdout.strip()

    def test_euler_check_survives_optimize(self):
        # a face pass that counts one boundary component short makes
        # 2 - b - V + m odd; the check must still raise when python -O
        # strips assert statements (the face pass runs first, so the
        # curve pass never sees the short count)
        out = self._signature_under_optimize(
            "labeller = core._orbit_labels\n"
            "def one_short(succ):\n"
            "    starts, labels = labeller(succ)\n"
            "    return starts[1:], labels\n"
            "core._orbit_labels = one_short\n")
        assert out.startswith("InvariantError bad Euler data"), out

    def test_curve_mirror_check_survives_optimize(self):
        # a curve pass that puts a dart and its reverse on one orbit
        # claims a curve that orientation reversal fixes (the torus has
        # one face, so the same fault leaves the face pass's count whole)
        out = self._signature_under_optimize(
            "labeller = core._orbit_labels\n"
            "def mirrored(succ):\n"
            "    starts, labels = labeller(succ)\n"
            "    labels[starts[0] ^ 1] = labels[starts[0]]\n"
            "    return starts, labels\n"
            "core._orbit_labels = mirrored\n")
        assert out == ("InvariantError orientation reversal fixes a curve "
                       "orbit"), out


class TestCachedAttribute:
    def test_class_access_returns_the_descriptor(self):
        desc = FatGraph.__dict__["vertex_cycles"]
        assert isinstance(desc, _cached)
        assert FatGraph.vertex_cycles is desc
        assert desc.__doc__ == desc.func.__doc__
        assert desc.__doc__.startswith("sigma0 orbits as dart tuples")

    def test_second_read_computes_nothing(self, monkeypatch):
        desc = FatGraph.__dict__["vertex_cycles"]
        calls = []
        func = desc.func

        def counted(graph):
            calls.append(graph)
            return func(graph)

        monkeypatch.setattr(desc, "func", counted)
        g = FatGraph.from_vertex_cycles(G1)
        first = g.vertex_cycles
        assert g.vertex_cycles is first
        assert g.__dict__["vertex_cycles"] is first
        assert calls == [g]


class TestFillingPredicate:
    def test_gamma_3_is_filling(self):
        ok, diags = families.build(families.GAMMA_G, 3).is_filling_system()
        assert ok and not diags

    def test_torus_is_filling(self):
        ok, _ = FatGraph.from_vertex_cycles(TORUS).is_filling_system()
        assert ok

    def test_one_vertex_sphere_rejected(self):
        g = FatGraph.from_vertex_cycles(ONE_VERTEX_SPHERE)
        ok, diags = g.is_filling_system()
        assert not ok
        assert "revisits" in diags[0] or "length" in diags[0]

    def test_degree_two_vertex_rejected(self):
        ok, diags = FatGraph.from_vertex_cycles(
            SPHERE_CIRCLE).is_filling_system()
        assert not ok
        assert "4-regular" in diags[0]

    def test_degree_diagnostic_names_the_first_bad_vertex(self):
        # degrees 4, 4, 6, 2 in vertex order: the first vertex of degree
        # other than 4 is vertex 2, not vertex 0
        g = FatGraph.from_vertex_cycles([
            cyc("a+ b+ a- c+"), cyc("b- d+ c- e+"),
            cyc("d- f+ e- f- g+ h+"), cyc("g- h-")])
        assert [g.degree(v) for v in range(4)] == [4, 4, 6, 2]
        assert g.is_connected
        assert g.is_filling_system() == (
            False, ["not 4-regular: vertex 2 has degree 6"])

    def test_disconnected_rejected(self):
        # two tori side by side: each part fills, the whole does not
        g = FatGraph.from_vertex_cycles(TORUS + [cyc("c+ d+ c- d-")])
        assert not g.is_connected
        assert g.is_filling_system() == (False, ["not connected"])


class TestIsomorphism:
    def test_shuffle_invariance(self):
        rng = random.Random(7)
        for cycles in (G1, QUAD, TORUS):
            g = FatGraph.from_vertex_cycles(cycles)
            for _ in range(5):
                assert g.is_isomorphic(g.shuffled(rng))

    def test_different_edge_counts(self):
        t = FatGraph.from_vertex_cycles(TORUS)
        s = FatGraph.from_vertex_cycles(SPHERE_CIRCLE)
        assert not t.is_isomorphic(s)

    def test_two_one_vertex_rotations_differ(self):
        t = FatGraph.from_vertex_cycles(TORUS)
        s = FatGraph.from_vertex_cycles(ONE_VERTEX_SPHERE)
        assert not t.is_isomorphic(s)
        assert len(t.face_lengths) == 1
        assert len(s.face_lengths) == 3

    def test_disconnected_components_all_compared(self):
        # planar bouquet + torus bouquet against two planar bouquets: the
        # components of the start dart agree, the other ones do not
        planar, torus = ("a+ a- b+ b-", "a+ b+ a- b-")
        mixed = FatGraph.from_vertex_cycles(
            [cyc(planar), cyc(torus.replace("a", "c").replace("b", "d"))])
        planars = FatGraph.from_vertex_cycles(
            [cyc(planar), cyc(planar.replace("a", "c").replace("b", "d"))])
        assert not mixed.is_isomorphic(planars)
        assert not planars.is_isomorphic(mixed)
        rng = random.Random(5)
        assert mixed.is_isomorphic(mixed.shuffled(rng))
        swapped = FatGraph.from_vertex_cycles(
            [cyc(torus), cyc(planar.replace("a", "c").replace("b", "d"))])
        assert mixed.is_isomorphic(swapped)
        with pytest.raises(DisconnectedError):
            mixed.canonical_form()

    def test_more_than_256_darts(self):
        # one byte per number would overflow past 256 darts
        ring = FatGraph.from_vertex_cycles(
            [[f"e{i}-", f"e{(i + 1) % 129}+"] for i in range(129)])
        gamma = families.build(families.GAMMA_G, 33)
        rng = random.Random(13)
        for g in (ring, gamma):
            assert g.num_darts > 256
            assert g.is_isomorphic(g.shuffled(rng))
            assert len(g.canonical_form()) == 2 * 2 * g.num_darts
        assert not ring.is_isomorphic(
            FatGraph(ring.sigma0[1:] + ring.sigma0[:1], ring.labels))

    def test_small_codes_one_byte_per_number(self):
        # census keys and the enumerate key column depend on this layout
        torus = FatGraph.from_vertex_cycles(TORUS)
        assert torus.canonical_form() == bytes([1, 2, 2, 3, 3, 0, 0, 1])
        # the largest ring that still packs one byte per number
        ring = FatGraph.from_vertex_cycles(
            [[f"e{i}-", f"e{(i + 1) % 128}+"] for i in range(128)])
        assert ring.num_darts == 256
        assert len(ring.canonical_form()) == 2 * 256

    def test_invariants_respected(self):
        rng = random.Random(11)
        g = families.build(families.GAMMA0)
        h = g.shuffled(rng)
        assert g.signature() == h.signature()
        assert sorted(g.face_lengths) == sorted(h.face_lengths)


class TestSmoothing:
    def test_bivalent_vertex_removed(self):
        # a circle subdivided into a square ring around a torus vertex
        g = FatGraph.from_vertex_cycles(
            [cyc("a+ b+ a- b-"), cyc("c+ c-")])
        # disconnected; instead smooth a plumbing-like shape
        g = FatGraph.from_vertex_cycles(
            [cyc("x1- y1- x2+ y2+"), cyc("y1+ y2-"),
             cyc("x1+ x2- z+ z-")])
        sm = g.smoothed()
        assert all(sm.degree(v) != 2 for v in range(sm.num_vertices))
        assert sm.num_edges == g.num_edges - 1

    def test_self_edge_cannot_smooth(self):
        g = FatGraph.from_vertex_cycles(SPHERE_CIRCLE)
        with pytest.raises(DegreeError):
            g.smoothed()


class TestPublicSurface:
    def test_all_is_pinned_and_resolves(self):
        assert sorted(fillgraph.__all__) == [
            "DegreeError", "DisconnectedError", "FatGraph", "FatGraphError",
            "ImpossibleSignatureError", "InvariantError",
            "MalformedGraphError", "NotDecoratedError", "OperationError",
            "OperationInvariantError", "OperationReport", "SurfaceSignature",
            "SynthesisPlan", "SynthesisRangeError", "TargetSignature",
            "WeightedIntersectionGraph", "check_euler_identity",
            "check_kn_bound", "check_max_weight_bound", "connected_sum",
            "families", "filling", "formats", "intersection_graph", "join",
            "max_filling", "minimal_filling", "oracle", "plumbing",
            "search_filling", "tight_omega_filling"]
        for name in fillgraph.__all__:
            assert hasattr(fillgraph, name), name

    def test_star_import(self):
        namespace = {}
        exec("from fillgraph import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(fillgraph.__all__)
        for name, value in namespace.items():
            assert value is getattr(fillgraph, name)
