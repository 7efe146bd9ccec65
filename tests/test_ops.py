import copy
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import dumbbells, reference_sum_prediction, relabeled

import fillgraph
from fillgraph import families, oracle, ops, synthesis
from fillgraph.core import FatGraph, InvariantError
from fillgraph.ops import (OperationError, connected_sum, join,
                           new_join_face_lengths, plumbing,
                           predict_connected_sum)
from fillgraph.synthesis import SynthesisPlan


def torus():
    return families.build(families.TORUS_PAIR)


def g1():
    return families.build(families.G1)


def g2():
    return families.build(families.G2)


class TestJoin:
    def test_theorem_one_step(self):
        # joining the size-2g family with a torus adds a disc and a curve
        for g in (2, 3):
            gam = families.build(families.GAMMA_G, g)
            rep = join(gam, torus(), gam.labels[0], "a")
            assert rep.recomputed.triple == (g, 2, 2 * g + 1)
            ok, _ = rep.result.is_filling_system()
            assert ok

    def test_curve_count_law(self):
        rep = join(g1(), torus(), "f1", "a")
        assert rep.recomputed.standard_cycle_count == 3 + 2 - 1

    def test_two_tori_same_same(self):
        rep = join(torus(), torus(), "a", "a")
        assert rep.case == "SAME/SAME"
        assert rep.recomputed.boundary_count == 2
        assert rep.recomputed.genus == 1

    def test_new_boundaries_longer_than_two(self):
        for x in g1().labels:
            rep = join(g1(), torus(), x, "b")
            for length in new_join_face_lengths(rep):
                assert length > 2

    def test_bigon_only_from_monogon_splices(self):
        # short new boundaries can appear, but only when a spliced dart sat
        # on a monogon face of its input; the sphere circle's two faces are
        # both monogons, so joining onto it produces one
        sphereish = FatGraph.from_vertex_cycles([["a+", "a-", "b+", "b-"]])
        sphere = families.build(families.SPHERE_CIRCLE)

        def monogon_splice(gl, gr, x, y):
            for g, lab in ((gl, x), (gr, y)):
                comp = g.boundary_component_of
                for d in g.darts_of(lab):
                    if g.face_lengths[comp[d]] < 2:
                        return True
            return False

        short_seen = False
        for x in sphereish.labels:
            rep = join(sphereish, sphere, x, "a")
            shortest = min(new_join_face_lengths(rep))
            if shortest <= 2:
                short_seen = True
                assert monogon_splice(sphereish, sphere, x, "a")
        assert short_seen

    def test_bad_edge(self):
        with pytest.raises(OperationError, match="zz"):
            join(g1(), torus(), "zz", "a")

    def test_self_value_rejected(self):
        t = torus()
        with pytest.raises(OperationError):
            join(t, t, "a", "a")


class TestConnectedSum:
    def test_triple_growth(self):
        # summing the genus-3 triple with the 4-disc pair graph at the
        # right vertex pair climbs two genus steps at fixed size
        gamma0 = families.build(families.GAMMA0)
        triples = {}
        for w in range(gamma0.num_vertices):
            for u in range(g2().num_vertices):
                try:
                    rep = connected_sum(gamma0, g2(), w, u)
                except OperationError:
                    continue
                triples.setdefault(rep.recomputed.triple, rep)
        rep = triples[(5, 1, 3)]
        ok, _ = rep.result.is_filling_system()
        assert ok
        assert rep.recomputed.standard_cycle_count == 3 + 2 - 2

    def test_branch_audit_all_vertices(self):
        # every 4-valent loop-free vertex choice verifies exactly
        left = g1()
        lw = next(w for w in range(3) if not left.loops_at(w))
        for u in range(6):
            rep = connected_sum(left, g2(), lw, u)
            assert rep.predicted_b == rep.recomputed.boundary_count
            assert rep.predicted_g == rep.recomputed.genus
            assert rep.chi["hypothesis"]

    def test_loop_vertex_rejected(self):
        a, b = g1(), g1()
        looped = next(v for v in range(3) if a.loops_at(v))
        clean = next(v for v in range(3) if not a.loops_at(v))
        with pytest.raises(OperationError, match="loop"):
            connected_sum(a, b, looped, clean)
        with pytest.raises(OperationError, match="loop"):
            connected_sum(a, b, clean, looped)

    def test_non_four_valent_rejected(self):
        sphere = families.build(families.SPHERE_CIRCLE)
        with pytest.raises(OperationError, match="degree"):
            connected_sum(sphere, g2(), 0, 0)

    def test_disconnecting_sum_rejected(self):
        dumbbell, other = dumbbells()
        assert dumbbell.is_connected
        with pytest.raises(OperationError, match="disconnect"):
            connected_sum(dumbbell, other, 0, 0)


    @pytest.mark.parametrize("left", [
        (families.G2, None), (families.GAMMA_2_B, 3)])
    def test_prediction_equals_recomputed(self, left):
        left, right = families.build(*left), g2()
        built = 0
        for w in range(left.num_vertices):
            for u in range(right.num_vertices):
                for align in range(4):
                    try:
                        rep = connected_sum(left, right, w, u, align)
                    except OperationError:
                        continue
                    built += 1
                    assert predict_connected_sum(left, right, w, u, align) \
                        == rep.recomputed.triple, (w, u, align)
        assert built >= 4 * 6

    @staticmethod
    def census_pairs():
        """The census classes with V <= 3, each with a copy of every
        member of the small catalog."""
        small = [row.build() for row in families.catalog(2, 3)]
        return [(row.graph(), copy.copy(b)) for V in range(1, 4)
                for row in oracle.census(V) for b in small]

    @staticmethod
    def chain_pairs():
        """The two-disc chain of G2 sums, genus 2 to 12, each with G2."""
        pairs = []
        for g in range(2, 13):
            bld = synthesis._Builder(SynthesisPlan(target=(g, 2, 2)))
            pairs.append((bld.graphs[synthesis._two_curve(bld, g, 2, False)],
                          g2()))
        return pairs

    @pytest.mark.parametrize("pairs, least", [(census_pairs, 15_000),
                                              (chain_pairs, 7_000)],
                             ids=["census", "chain"])
    def test_prediction_equals_the_splice_reference(self, pairs, least):
        # the cut-point count of the side records against the splice and
        # relabelling of both operands' whole successor maps, and against
        # the built result where the sum builds, at every (w, u, align)
        # in both operand orders
        trials = built = 0
        for a, b in pairs():
            for left, right in ((a, b), (b, a)):
                for w, u, align in itertools.product(
                        range(left.num_vertices), range(right.num_vertices),
                        range(4)):
                    args = (left, right, w, u, align)
                    want = reference_sum_prediction(*args)
                    if want is None:
                        with pytest.raises(OperationError):
                            predict_connected_sum(*args)
                        continue
                    trials += 1
                    assert predict_connected_sum(*args) == want, args
                    try:
                        rep = connected_sum(*args)
                    except OperationError:
                        continue  # the sum disconnects
                    built += 1
                    assert rep.recomputed.triple == want, args
        assert trials >= least and built > 0.95 * trials

    def test_prediction_rejects_what_the_sum_rejects(self):
        a, b = g1(), g1()
        looped = next(v for v in range(3) if a.loops_at(v))
        # a vertex that is no int is rejected like one out of range, not
        # by a TypeError from comparing it
        for args in ((a, a, 0, 0, 0), (a, b, looped, 0, 0), (a, b, 0, 9, 0),
                     (a, b, 0, 0, 4), (a, b, None, 0, 0), (a, b, 0, "1", 0)):
            with pytest.raises(OperationError):
                predict_connected_sum(*args)
            with pytest.raises(OperationError):
                connected_sum(*args)

    def test_strand_test_matches_the_edge_map(self):
        # the curve labels of two edges tell their curves apart exactly as
        # curve_of_edge does, for every pair of darts at one vertex
        pairs = 0
        for V in range(1, 5):
            for row in oracle.census(V):
                graph = row.graph()
                coe = graph.curve_of_edge
                for cyc in graph.vertex_cycles:
                    for d, e in itertools.permutations(cyc, 2):
                        assert ops._strands_distinct(graph, (d, e)) == (
                            coe[d >> 1] != coe[e >> 1])
                        pairs += 1
        assert pairs > 10_000
        odd = FatGraph.from_vertex_cycles([["a+", "a-", "b+"],
                                           ["b-", "c+", "c-"]])
        assert not ops._strands_distinct(odd, (0, 1))


class TestPlumbing:
    def test_genus_step(self):
        quad = families.build(families.QUADRUPLE_F3)
        rep = plumbing(quad, torus(), "f1", "a")
        assert rep.recomputed.triple == (4, 1, 6)
        ok, _ = rep.result.is_filling_system()
        assert ok

    def test_two_tori(self):
        rep = plumbing(torus(), torus(), "a", "b")
        sig = rep.recomputed
        assert (sig.vertex_count, sig.edge_count) == (3, 6)
        assert sig.triple == (2, 1, 4)

    def test_two_disc_pair_with_sphere_circle(self):
        gam22 = families.build(families.GAMMA_2_B, 2)
        comp = gam22.boundary_component_of
        x = next(nm for k, nm in enumerate(gam22.labels)
                 if comp[2 * k] != comp[2 * k + 1])
        sphere = families.build(families.SPHERE_CIRCLE)
        rep = plumbing(gam22, sphere, x, "a")
        assert rep.case == "ALL-DIFFERENT"
        assert rep.recomputed.boundary_count == 2 + 2 - 3

    def test_bad_edge(self):
        with pytest.raises(OperationError):
            plumbing(torus(), torus(), "nope", "a")

    def test_curves_pass_straight_through(self):
        # the curve through x persists, running through both halves
        quad = families.build(families.QUADRUPLE_F3)
        rep = plumbing(quad, torus(), "f1", "a")
        x1, x2, y1, y2 = rep.selectors["new_vertex_edges"]
        g = rep.result
        coe = g.curve_of_edge
        assert coe[g.edge_id(x1)] == coe[g.edge_id(x2)]
        assert coe[g.edge_id(y1)] == coe[g.edge_id(y2)]
        assert coe[g.edge_id(x1)] != coe[g.edge_id(y1)]


class TestBuiltResultChecks:
    """Surgery results skip the checks of ``FatGraph(...)``; ``_rewired``
    and ``_edge_names`` raise :class:`InvariantError` in their place."""

    @staticmethod
    def join_operands():
        """(left, right, names, key dart of e+, darts of x, darts of y)
        for a join of the torus's ``a`` with G1's ``f1``."""
        left, right = torus(), g1()
        names, _ = ops._edge_names(left, right, ("e", "f"))
        ke = 2 * (left.num_edges + right.num_edges)
        return left, right, names, ke, left.darts_of("a"), right.darts_of("f1")

    def test_results_pass_the_public_constructor(self):
        gam = families.build(families.GAMMA_G, 2)
        for rep in (join(g1(), torus(), "f1", "a", True),
                    plumbing(g1(), g2(), "f2", "y3"),
                    connected_sum(gam, g1(), 1, 0, 2)):
            r = rep.result
            assert FatGraph(r.sigma0, r.labels) == r

    def test_two_map_entries_on_one_key(self):
        left, right, names, ke, (xp, xm), (yp, ym) = self.join_operands()
        with pytest.raises(InvariantError, match="not the darts"):
            ops._rewired(left, right, {xp: ke, xm: ke},
                         {yp: ke + 1, ym: ke + 2}, names)

    def test_new_key_among_the_operands_keys(self):
        left, right, names, ke, (xp, xm), (yp, ym) = self.join_operands()
        with pytest.raises(InvariantError, match="not the darts"):
            ops._rewired(left, right, {xp: ke, xm: 1},
                         {yp: ke + 1, ym: ke + 2}, names)

    def test_new_dart_never_mapped_to(self):
        left, right, names, ke, (xp, _), (yp, ym) = self.join_operands()
        with pytest.raises(InvariantError, match="not the darts"):
            ops._rewired(left, right, {xp: ke},
                         {yp: ke + 1, ym: ke + 2}, names)

    def test_dangling_darts_of_a_deleted_vertex(self):
        # deleting G1's first vertex leaves the other darts of its four
        # edges without partners: 12 darts walked for 8 edges
        left, right, names, ke, (xp, xm), (yp, ym) = self.join_operands()
        with pytest.raises(InvariantError, match="walked 12 darts for 8"):
            ops._rewired(left, right, {xp: ke, xm: ke + 3},
                         {yp: ke + 1, ym: ke + 2}, names,
                         skip=((), right.vertex_cycles[0]))

    def test_deleted_darts_must_be_whole_vertices(self):
        left, right, names, ke, (xp, xm), (yp, ym) = self.join_operands()
        with pytest.raises(InvariantError, match="whole vertices"):
            ops._rewired(left, right, {xp: ke, xm: ke + 3},
                         {yp: ke + 1, ym: ke + 2}, names,
                         skip=((), (right.sigma0[0],)))

    def test_name_collision(self, monkeypatch):
        monkeypatch.setattr(ops, "_fresh",
                            lambda name, used: used.add(name) or name)
        with pytest.raises(InvariantError, match="share a name"):
            join(torus(), torus(), "a", "a")

    def test_checks_survive_optimize(self):
        code = (
            "from fillgraph import families, ops\n"
            "from fillgraph.core import InvariantError\n"
            "t = families.build(families.TORUS_PAIR)\n"
            "u = families.build(families.TORUS_PAIR)\n"
            "names, _ = ops._edge_names(t, u, ('e', 'f'))\n"
            "for lmap in ({0: 8, 1: 8}, {0: 8, 1: 11}):\n"
            "    try:\n"
            "        ops._rewired(t, u, lmap, {0: 9, 1: 10}, names)\n"
            "        print('built')\n"
            "    except InvariantError:\n"
            "        print('InvariantError')\n"
            "ops._fresh = lambda name, used: used.add(name) or name\n"
            "try:\n"
            "    ops.join(t, u, 'a', 'a')\n"
            "except InvariantError:\n"
            "    print('InvariantError')\n")
        src = str(Path(fillgraph.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env={"PYTHONPATH": src}, capture_output=True,
                             text=True, timeout=60)
        assert not out.stderr, out.stderr
        assert out.stdout.split() == ["InvariantError", "built",
                                      "InvariantError"]


class TestRelabelingEquivariance:
    def test_ops_commute_with_relabeling(self):
        # relabeling can reverse stored edge directions, which swaps the
        # flip variants; compare the variant sets
        rng = random.Random(3)
        left, right = g1(), families.build(families.GAMMA_2_B, 2)
        rl, rr = left.shuffled(rng), right.shuffled(rng)
        for op in (join, plumbing):
            a = {op(left, right, "f2", "e1", flip).result.canonical_form()
                 for flip in (False, True)}
            b = {op(rl, rr, "f2", "e1", flip).result.canonical_form()
                 for flip in (False, True)}
            assert a == b

    def test_join_flip_variants_can_differ(self):
        a = join(g1(), g1(), "f1", "f1", flip=False).result
        b = join(g1(), g1(), "f1", "f1", flip=True).result
        assert a.signature() == b.signature()

    def test_consum_commutes_with_relabeling(self):
        # dart relabeling permutes vertex indices and rotation alignments,
        # so compare the sets of reachable isomorphism classes over all
        # (w, u, align) choices
        rng = random.Random(5)
        left, right = families.build(families.GAMMA0), g2()
        rl, rr = left.shuffled(rng), right.shuffled(rng)

        def reachable(a, b):
            out = set()
            for w in range(a.num_vertices):
                for u in range(b.num_vertices):
                    for align in range(4):
                        try:
                            rep = connected_sum(a, b, w, u, align)
                        except OperationError:
                            continue
                        out.add(rep.result.canonical_form())
            return out

        assert reachable(left, right) == reachable(rl, rr)


# -- reference: the label-token construction -------------------------------
#
# Each operation used to write its result as signed label tokens and parse
# them back with FatGraph.from_vertex_cycles.  The dart-level surgery must
# build exactly the same graph: the same sigma0 and the same labels.


def _fresh(name, used):
    while name in used:
        name += "'"
    used.add(name)
    return name


def _token_reference(op, left, right, a, b, c):
    """Result graph of ``op(left, right, a, b, c)`` built from tokens."""
    used = set()
    ren_l = {nm: _fresh(nm, used) for nm in left.labels}
    ren_r = {nm: _fresh(nm, used) for nm in right.labels}

    def tokens(g, ren, sub, skip):
        out = []
        for vi, cyc in enumerate(g.vertex_cycles):
            if vi != skip:
                toks = [(g.labels[d >> 1], 1 - 2 * (d & 1)) for d in cyc]
                out.append([sub.get(t, (ren[t[0]], t[1])) for t in toks])
        return out

    extra, skip = [], (None, None)
    if op == "join":
        e, f = _fresh("e", used), _fresh("f", used)
        sub_l = {(a, 1): (e, 1), (a, -1): (f, -1)}
        sub_r = {(b, 1): (e, -1), (b, -1): (f, 1)}
    elif op == "plumb":
        x1, x2, y1, y2 = [_fresh(nm, used)
                          for nm in (a + "1", a + "2", b + "1", b + "2")]
        sub_l = {(a, 1): (x1, 1), (a, -1): (x2, -1)}
        sub_r = {(b, 1): (y1, 1), (b, -1): (y2, -1)}
        extra = [[(x1, -1), (y1, -1), (x2, 1), (y2, 1)]]
    else:
        g = [_fresh(f"g{i + 1}", used) for i in range(4)]
        u_cyc = right.vertex_cycles[b]
        # the reverse of dart i at w becomes g_i+, of dart j at u g_(3-j)-
        sub_l = {(left.labels[d >> 1], 2 * (d & 1) - 1): (g[i], 1)
                 for i, d in enumerate(left.vertex_cycles[a])}
        sub_r = {(right.labels[d >> 1], 2 * (d & 1) - 1): (g[3 - j], -1)
                 for j, d in enumerate(u_cyc[c:] + u_cyc[:c])}
        skip = (a, b)
    if op != "consum" and c:  # flip reverses y before the splice
        sub_r = {(nm, -sg): t for (nm, sg), t in sub_r.items()}
    return FatGraph.from_vertex_cycles(
        tokens(left, ren_l, sub_l, skip[0])
        + tokens(right, ren_r, sub_r, skip[1]) + extra)


def _collision_pool(rng):
    """Operands whose labels collide with each other and with the names
    the operations give new edges (e, f, x1, g1, primes)."""
    names = ["e", "f", "e'", "g1", "g2", "g4", "x", "x1", "x2", "a", "a'",
             "a''", "b", "y1", "f1", "f11", "f12"]
    tricky = [
        families.build(families.TORUS_PAIR),
        relabeled(families.build(families.TORUS_PAIR), {"a": "a'",
                                                        "b": "a"}),
        relabeled(families.build(families.TORUS_PAIR), {"a": "e", "b": "f"}),
        relabeled(families.build(families.SPHERE_CIRCLE), {"a": "x1"}),
        families.build(families.G1),
        relabeled(g1(), dict(zip(g1().labels,
                                 ["e", "f", "g1", "x", "x1", "a'"]))),
        families.build(families.G2),
        families.build(families.GAMMA0),
    ]
    pool = list(tricky)
    for g in tricky[4:] + [families.build(families.GAMMA_2_B, 2)]:
        pool.append(relabeled(g, dict(zip(
            g.labels, rng.sample(names, g.num_edges)))).shuffled(rng))
    return pool


class TestDartSurgeryMatchesTokens:
    def test_seeded_trials(self):
        rng = random.Random(2024)
        pool = _collision_pool(rng)
        counts = {"join": 0, "plumb": 0, "consum": 0}
        for left in pool:
            for right in pool:
                right = FatGraph(right.sigma0, right.labels)  # distinct value
                for _ in range(4):
                    x, y = rng.choice(left.labels), rng.choice(right.labels)
                    for flip in (False, True):
                        for op, fn in (("join", join), ("plumb", plumbing)):
                            rep = fn(left, right, x, y, flip)
                            assert rep.result == _token_reference(
                                op, left, right, x, y, flip)
                            counts[op] += 1
                four = [[v for v in range(g.num_vertices)
                         if g.degree(v) == 4 and not g.loops_at(v)]
                        for g in (left, right)]
                if not (four[0] and four[1]):
                    continue
                for _ in range(4):
                    w, u = rng.choice(four[0]), rng.choice(four[1])
                    for align in range(4):
                        want = _token_reference("consum", left, right,
                                                w, u, align)
                        try:
                            rep = connected_sum(left, right, w, u, align)
                        except OperationError:
                            assert not want.is_connected
                            continue
                        assert rep.result == want
                        counts["consum"] += 1
        assert min(counts.values()) >= 1000, counts
