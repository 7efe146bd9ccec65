"""The memo of surgery results in ``ops``: a result on a ``sigma0`` found
there shares the memo's signature, face starts and vertex walk under its
own labels, with the face labels unpacked, and equals in every structure
the graph built fresh on its ``sigma0`` and labels; an entry is made only
once an op has read the result's signature; the memo keeps its bound,
oldest entry out first; no other way of making a graph reads it.  A
plan's final check keeps the filling verdict in the entry, and reads the
same verdict and message there as a fresh check would give.

The table of surgery constructions in ``ops``: a call whose operands'
rotations and splice were walked before reads the walk there, takes the
names of its own call, and gives the graph a cold build gives; the table
keeps the memo's bound, oldest entry out first, and every check but the
walk's own runs on every call."""

import random
from collections import OrderedDict

import pytest
from helpers import dumbbells, grid_plans, grid_targets, relabeled

from fillgraph import core, families, formats, oracle, ops
from fillgraph.core import FatGraph, FatGraphError, InvariantError
from fillgraph.ops import (OperationError, OperationInvariantError,
                           connected_sum, join, plumbing)
from fillgraph.synthesis import (PlanVerificationError, Step, SynthesisPlan,
                                 _run_step, filling)


def outcome(read):
    """``read()``, or the type and text of what it raised."""
    try:
        return read()
    except FatGraphError as exc:
        return type(exc), str(exc)


def structures(g):
    """What a surgery result can share with an earlier one, and the rest
    of its analysis."""
    return (outcome(g.signature), outcome(lambda: g._walk),
            outcome(lambda: g._face_orbits), outcome(lambda: g._curve_orbits),
            outcome(g.first_revisit))


def is_fresh(g):
    """Nothing has been computed on ``g``."""
    return (set(g.__dict__) == {"_sigma0", "_labels", "_signature"}
            and g._signature is None)


def key(g):
    """The memo key of the ``sigma0`` of ``g``."""
    return ops._packed(g.sigma0, g.num_darts)


def entry(g):
    """The memo's entry for the ``sigma0`` of ``g``, or None."""
    return ops._memo.get(key(g))


def shares(g, known):
    """``g`` holds the records of the memo entry ``known``."""
    return (g.signature() is known[0] and g._face_orbits[0] is known[1]
            and g._face_orbits[1] == ops._unpacked(known[2], len(known[1]))
            and g._walk is known[3])


@pytest.fixture
def registered(monkeypatch):
    """Every surgery result of ``ops._rewired``, with whether the memo
    held its ``sigma0`` when it was built."""
    calls = []
    inner = ops._rewired

    def spy(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((result, entry(result) is not None))
        return result

    monkeypatch.setattr(ops, "_rewired", spy)
    return calls


def test_grid_results_equal_fresh_graphs(registered):
    for build, args in grid_targets(5, 4, 5):
        build(*args).replay()  # checks the final graph against the target
    hits = sum(held for _, held in registered)
    # replays and plans that share a seed meet results made before; the
    # builds make 387 results, as each torus-chain prefix is built once
    assert 3 * hits > 2 * len(registered) > 750
    # the bound holds the whole grid: each connected sigma0 is analysed
    # once (a sum that disconnects is rejected before any entry is made)
    missed = [r.sigma0 for r, held in registered
              if not held and r.is_connected]
    assert len(missed) == len(set(missed)) < core._TABLE_SIZE
    for result, held in registered:
        if held:
            assert shares(result, entry(result))
        assert structures(result) == structures(
            FatGraph(result.sigma0, result.labels))


def test_one_rotation_under_two_names():
    torus = families.build(families.TORUS_PAIR)
    g1 = families.build(families.G1)
    rename = {nm: nm.upper() + "x" for nm in g1.labels}
    renamed = relabeled(g1, rename)
    first = join(torus, g1, "a", "f1").result
    known = entry(first)
    starts, faces = first._face_orbits
    assert known == (first.signature(), starts, bytes(faces), first._walk,
                     None)
    assert shares(first, known)
    before = (first.labels, [first.dart_name(d)
                             for d in range(first.num_darts)])
    second = join(torus, renamed, "a", "F1x").result
    assert second.sigma0 == first.sigma0
    assert second is not first and second != first
    # the memo's records are shared, not redone; the rest stays lazy
    assert shares(second, known)
    assert second._face_orbits == first._face_orbits
    assert entry(second) is known and len(ops._memo) == 1
    # and the memo key, packed once, by the lookup that found the entry
    assert set(second.__dict__) == {"_sigma0", "_labels", "_signature",
                                    "_face_orbits", "_walk", "_key"}
    assert second._key == first._key == key(first)
    assert second._curve_orbits == first._curve_orbits
    assert second._curve_orbits is not first._curve_orbits
    assert second.labels == tuple(rename.get(nm, nm) for nm in first.labels)
    assert [second.dart_name(d) for d in range(second.num_darts)] == [
        nm + sign for nm in second.labels for sign in "+-"]
    assert (first.labels, [first.dart_name(d)
                           for d in range(first.num_darts)]) == before
    assert set(first.labels) == {"b", *g1.labels[1:], "e", "f"}
    assert second.has_edge("F2x") and not second.has_edge("f2")
    assert first.darts_of("f2") == second.darts_of("F2x")


def test_memo_keeps_the_bound_oldest_first(monkeypatch):
    monkeypatch.setattr(core, "_TABLE_SIZE", 8)
    rng = random.Random(5)
    graphs = [families.build(families.TORUS_PAIR),
              families.build(families.G1)]
    model = OrderedDict()  # the keys the memo should hold, oldest first
    hits = 0
    for _ in range(200):
        left, right = rng.sample(graphs, 2)
        op = rng.choice((join, plumbing))
        rep = op(left, right, rng.choice(left.labels),
                 rng.choice(right.labels), rng.random() < 0.5)
        made = key(rep.result)
        if made in model:
            # a hit leaves the entry where it is
            hits += made != next(reversed(model))
        else:
            if len(model) >= 8:
                model.popitem(last=False)
            model[made] = None
        assert list(ops._memo) == list(model)
        assert ops._memo[made][0] is rep.recomputed
    assert hits > 10 and len(ops._memo) == 8


def test_packed_as_bytes_below_256():
    assert ops._packed(tuple(range(256)), 256) == bytes(range(256))
    # two bytes a number up to 65,536, the tuple itself beyond
    for n in (258, 65536):
        numbers = tuple(reversed(range(n)))
        packed = ops._packed(numbers, n)
        assert isinstance(packed, bytes) and len(packed) == 2 * n
        assert ops._unpacked(packed, n) == numbers
    huge = tuple(range(65537))
    assert ops._packed(huge, 65537) is huge
    assert ops._unpacked(huge, 65537) == huge
    # a face label is below the face count, not the dart count
    assert ops._packed((0, 1, 1, 0) * 70, 2) == bytes((0, 1, 1, 0) * 70)
    assert ops._unpacked(bytes((0, 1, 1, 0) * 70), 2) == (0, 1, 1, 0) * 70


def test_results_past_256_darts_keyed_by_two_bytes():
    big = families.build(families.GAMMA_G, 20)  # 156 darts
    copy = big.shuffled(random.Random(1))
    first = join(big, copy, "e1", "e2").result
    assert first.num_darts > 256
    assert len(key(first)) == 2 * first.num_darts
    assert shares(first, entry(first))
    second = join(big, copy, "e1", "e2").result
    assert second == first and second is not first
    assert shares(second, entry(first)) and len(ops._memo) == 1


def test_disconnecting_sum_leaves_no_entry():
    # the dumbbell of test_ops: the crosswise splice of two dumbbells
    # pairs their four lobes into two separate components
    dumbbell, other = dumbbells()
    for _ in range(2):
        with pytest.raises(OperationError, match="disconnect"):
            connected_sum(dumbbell, other, 0, 0)
        assert not ops._memo
        # the walk is kept, and the repeat, built from it, raises again
        assert len(ops._constructions) == 1
    # a sum of the same pair that stays connected is remembered
    rep = connected_sum(dumbbell, other, 0, 0, align=1)
    assert entry(rep.result)[0] is rep.recomputed


def test_other_constructors_never_read_the_memo():
    torus = families.build(families.TORUS_PAIR)
    g1 = families.build(families.G1)
    res = join(torus, g1, "a", "f1").result
    res.is_filling_system()
    # an entry in the memo for the shuffled copy too
    copy = res.shuffled(random.Random(3))
    ops._recomputed(FatGraph(copy.sigma0, copy.labels))
    assert entry(res) is not None and entry(copy) is not None
    held = list(ops._memo.items())
    made = [FatGraph(res.sigma0, res.labels),
            FatGraph.from_vertex_cycles(res.to_vertex_cycle_tokens()),
            formats.loads_graph(formats.dumps_graph(res)),
            res.shuffled(random.Random(3))]
    assert all(is_fresh(g) for g in made)
    assert made[0] == res and made[-1] == copy
    # the ops audit remakes the right operand of a diagonal trial with
    # FatGraph(...), and perfbench checks each result through a fresh
    # graph the same way: it recomputes, and neither reads nor writes
    # the memo
    assert structures(made[0]) == structures(res)
    assert made[0]._face_orbits is not res._face_orbits
    assert all(outcome(g.signature) for g in made)
    # the census builds its graphs without surgery
    rows = oracle.census(2)
    assert all(is_fresh(row.graph()) for row in rows)
    assert [(k, id(value)) for k, value in ops._memo.items()] == [
        (k, id(value)) for k, value in held]


def fresh_verdict(g):
    """The filling verdict and first diagnostic of a graph built fresh on
    the ``sigma0`` and labels of ``g``."""
    ok, diags = FatGraph(g.sigma0, g.labels).is_filling_system()
    return ok, diags[0] if diags else None


def test_grid_verdicts_equal_fresh_checks():
    kept = 0
    for plan in grid_plans(5, 4, 5):
        final, _ = plan.replay()
        verdict = fresh_verdict(final)
        assert verdict == (True, None)
        known = entry(final)
        if known is not None:
            # the builder's check stored it, and replay read it
            assert known[4] == verdict
            kept += 1
        assert ops._filling_verdict(final) == verdict
    # every final graph that a surgery made: 115 of 142, the others are
    # 20 family members, 4 searched graphs and 3 smoothed graphs
    assert kept == 115


def test_builder_and_replay_check_a_rotation_once(monkeypatch):
    checked = []
    check = FatGraph.is_filling_system

    def counted(graph):
        checked.append(graph.sigma0)
        return check(graph)

    monkeypatch.setattr(FatGraph, "is_filling_system", counted)
    plan = formats.loads_plan(formats.dumps_plan(filling(3, 2, 4)))
    for _ in range(3):
        final, _ = plan.replay()
    assert checked == [final.sigma0]
    # a graph no surgery made has no entry, and is checked every time
    torus = SynthesisPlan((1, 1, 2), [Step("family", family="torus_pair")])
    for _ in range(2):
        torus.replay()
    assert len(checked) == 3


# plans whose final graph is no filling, one for each kind of diagnostic:
# (operand vertex cycles, op step, the message's diagnostic)
NOT_FILLING = [
    ([[["a+", "a-", "b+", "b-"]], [["c+", "c-"]]],
     Step("plumb", left=0, right=1, x="a", y="c"),
     "not 4-regular: vertex 2 has degree 2"),
    ([[["m0+", "m0-", "m1+", "m1-"]], [["r0+", "r0-", "r1-", "r1+"]]],
     Step("join", left=0, right=1, x="m0", y="r0"),
     "curve 0 revisits vertex 0"),
    ([[["m0+", "m1+", "m0-", "m1-"]],
      [["r0+", "r3-", "r2+", "r1-"], ["r0-", "r1+", "r2-", "r3+"]]],
     Step("join", left=0, right=1, x="m0", y="r1"),
     "boundary face 1 has length 2 < 3"),
]


@pytest.mark.parametrize("operands, step, diagnostic", NOT_FILLING,
                         ids=["degree", "revisit", "face"])
def test_failed_check_gives_one_message(operands, step, diagnostic):
    steps = [Step("graph", vertices=tuple(map(tuple, cycles)))
             for cycles in operands] + [step]
    graphs = []
    for st in steps:
        final = _run_step(st, graphs, [])
    # the target is the result's signature, so only the filling check fails
    plan = SynthesisPlan(final.signature().triple, steps)
    message = f"replayed graph is not a filling: {diagnostic}"
    for clear in (False, False, True):
        if clear:
            ops._memo.clear()
        with pytest.raises(PlanVerificationError) as err:
            plan.replay()
        assert str(err.value) == message
        # the first replay stored the verdict, the second read it, and
        # after the memo was emptied the third checked the graph again
        assert entry(final)[4] == (False, diagnostic)


def cold(call):
    """``call()`` from empty surgery tables."""
    ops._memo.clear()
    ops._constructions.clear()
    return call()


# a new copy of a family member on every call
member = families.build


# join and plumbing with flip both ways, connected sums at all four aligns;
# each call builds new operand copies
CALLS = {
    **{f"join-{flip}": lambda flip=flip: join(
        member(families.TORUS_PAIR), member(families.G1), "a", "f1", flip)
       for flip in (False, True)},
    **{f"plumb-{flip}": lambda flip=flip: plumbing(
        member(families.G1), member(families.G2), "f2", "y3", flip)
       for flip in (False, True)},
    **{f"consum-{align}": lambda align=align: connected_sum(
        member(families.GAMMA_G, 2), member(families.G1), 1, 0, align)
       for align in range(4)},
}


# every field of an OperationReport but the result graph
REPORT_FIELDS = ("op", "case", "left_signature", "right_signature",
                 "predicted_b", "predicted_g", "predicted_s", "recomputed",
                 "chi", "selectors")


def assert_same_report(rep, want):
    """``rep`` equals ``want`` field by field, and in its result's
    ``sigma0`` and labels."""
    for name in REPORT_FIELDS:
        assert getattr(rep, name) == getattr(want, name), name
    assert rep.result.sigma0 == want.result.sigma0
    assert rep.result.labels == want.result.labels


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_hit_equals_cold_build(call):
    cold_rep = cold(call)
    first = cold_rep.result
    (construction, (darts, _)), = ops._constructions.items()
    assert first._key is darts
    # the same construction again: read, not walked
    rep = call()
    hit = rep.result
    assert list(ops._constructions) == [construction]
    assert hit is not first and hit._key is darts
    assert (hit.sigma0, hit.labels) == (first.sigma0, first.labels)
    assert structures(hit) == structures(FatGraph(first.sigma0,
                                                  first.labels))
    assert rep.recomputed is first.signature()
    # the hit's report, built positionally, equals a cold build's in
    # every field
    assert_same_report(rep, cold_rep)
    assert_same_report(rep, cold(call))


def test_hit_takes_the_names_of_its_call():
    torus = member(families.TORUS_PAIR)
    g1 = member(families.G1)
    first = join(torus, g1, "a", "f1").result
    # the same rotation under the torus's names and the join's new names,
    # each primed in the result
    clash = relabeled(g1, dict(zip(g1.labels, ("e", "a", "f", "b", "e'",
                                               "x"))))

    def call():
        return join(torus, clash, "a", "e").result

    hit = call()
    assert len(ops._constructions) == 1 and hit._key is first._key
    fresh = cold(call)
    assert (hit.sigma0, hit.labels) == (fresh.sigma0, fresh.labels)
    assert hit.labels != first.labels
    assert {"a'", "b'", "e''", "f'"} <= set(hit.labels)


def test_hit_past_256_darts_equals_cold_build():
    plan = filling(2, 300, 301)
    final, cold_reports = cold(plan.replay)
    walked = dict(ops._constructions)
    # the last join packs the edge order of its result two bytes an edge
    order, = [order for key, order in walked.values()
              if key is final._key]
    assert final.num_darts > 256 and len(final._key) == 2 * final.num_darts
    assert len(order) == 2 * final.num_edges
    again, reports = plan.replay()
    assert ops._constructions == walked
    assert again is not final and again._key is final._key
    assert (again.sigma0, again.labels) == (final.sigma0, final.labels)
    # every surgery of the second replay is a hit; a join passes two names
    # more than its result has edges, so the plan's joins read edge orders
    # of one byte a name (up to 256 names, the one at 256 included) and of
    # two
    names = {rep.result.num_edges + 2 for rep in reports
             if rep.op == "join"}
    assert 256 in names and min(names) < 256 < max(names)
    assert len(reports) == len(cold_reports)
    for rep, want in zip(reports, cold_reports):
        assert_same_report(rep, want)


def test_constructions_keep_the_bound_oldest_first(monkeypatch):
    monkeypatch.setattr(core, "_TABLE_SIZE", 8)
    rng = random.Random(5)
    graphs = [member(families.TORUS_PAIR), member(families.G1)]
    model = OrderedDict()  # the calls the table should hold, oldest first
    held = {}  # call -> its construction
    hits = 0
    for _ in range(200):
        left, right = rng.sample(graphs, 2)
        op = rng.choice((join, plumbing))
        call = (op, left is graphs[0], rng.choice(left.labels),
                rng.choice(right.labels), rng.random() < 0.5)
        before = list(ops._constructions)
        result = op(left, right, *call[2:]).result
        if call in model:
            # a hit leaves the table as it is
            assert list(ops._constructions) == before
            hits += held[call] != before[-1]
        else:
            if len(model) >= 8:
                model.popitem(last=False)
            model[call] = None
            held[call] = next(reversed(ops._constructions))
        assert list(ops._constructions) == [held[c] for c in model]
        assert ops._constructions[held[call]][0] is result._key
    assert hits > 10 and len(ops._constructions) == 8


def test_checks_run_on_a_hit(monkeypatch):
    left, right = member(families.TORUS_PAIR), member(families.G1)
    names, _ = ops._edge_names(left, right, ("e", "f"))
    ke = 2 * (left.num_edges + right.num_edges)
    (xp, xm), (yp, ym) = left.darts_of("a"), right.darts_of("f1")
    rmap = {yp: ke + 1, ym: ke + 2}
    ops._rewired(left, right, {xp: ke, xm: ke + 3}, rmap, names)
    assert len(ops._constructions) == 1
    with pytest.raises(InvariantError, match="not the darts"):
        ops._rewired(left, right, {xp: ke, xm: ke}, rmap, names)
    with pytest.raises(InvariantError, match="whole vertices"):
        ops._rewired(left, right, {xp: ke, xm: ke + 3}, rmap, names,
                     skip=((), (right.sigma0[0],)))
    # the join's own checks: the names, and the prediction against the
    # recomputed signature of this construction's result
    with monkeypatch.context() as m:
        m.setattr(ops, "_fresh", lambda name, used: used.add(name) or name)
        with pytest.raises(InvariantError, match="share a name"):
            join(left, member(families.TORUS_PAIR), "a", "a")
    monkeypatch.setattr(ops, "_same_component", lambda g, label: False)
    with pytest.raises(OperationInvariantError, match="predicted"):
        join(left, right, "a", "f1")
    assert len(ops._constructions) == 1
