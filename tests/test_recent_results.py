"""The table of recent surgery results in ``ops``: a result found there
is the earlier result's twin under its own labels, and equals in every
structure the graph built fresh on its ``sigma0`` and labels; the table
keeps the bound, least recently used leaving first; no other way of
making a graph reads it."""

import random
from collections import OrderedDict

import pytest
from helpers import grid_targets

from fillgraph import families, formats, oracle, ops
from fillgraph.core import FatGraph, FatGraphError
from fillgraph.ops import join, plumbing


def outcome(read):
    """``read()``, or the type and text of what it raised."""
    try:
        return read()
    except FatGraphError as exc:
        return type(exc), str(exc)


def structures(g):
    """What a surgery result can share with an earlier one."""
    return (outcome(g.signature), outcome(lambda: g._walk),
            outcome(lambda: g._face_orbits), outcome(lambda: g._curve_orbits),
            outcome(g.first_revisit))


def is_fresh(g):
    """Nothing has been computed on ``g``."""
    return (set(g.__dict__) == {"_sigma0", "_labels", "_signature"}
            and g._signature is None)


@pytest.fixture
def registered(monkeypatch):
    """Every call of ``ops._recent_result``: (sigma0 and labels asked for,
    whether the table held sigma0, the graph returned)."""
    calls = []
    inner = ops._recent_result

    def spy(sigma0, labels):
        held = sigma0 in ops._recent
        calls.append((sigma0, labels, held, inner(sigma0, labels)))
        return calls[-1][-1]

    monkeypatch.setattr(ops, "_recent_result", spy)
    return calls


def test_grid_results_equal_fresh_graphs(registered):
    for build, args in grid_targets(5, 4, 5):
        build(*args).replay()  # checks the final graph against the target
    hits = sum(held for _, _, held, _ in registered)
    # each replay meets the results its build made a moment before
    assert 2 * hits > len(registered) > 400
    for sigma0, labels, _, result in registered:
        assert (result.sigma0, result.labels) == (sigma0, labels)
        assert structures(result) == structures(FatGraph(sigma0, labels))


def test_table_keeps_the_bound_least_recently_used_first():
    rng = random.Random(5)
    graphs = [families.build(families.GAMMA_G, g) for g in (2, 3)]
    graphs += [families.build(families.TORUS_PAIR),
               families.build(families.G1)]
    used = OrderedDict()  # sigma0 by last use, as the table should keep it
    while len(used) <= ops._RECENT_SIZE + 10:
        left, right = rng.sample(graphs, 2)
        op = rng.choice((join, plumbing))
        rep = op(left, right, rng.choice(left.labels),
                 rng.choice(right.labels), rng.random() < 0.5)
        used.pop(rep.result.sigma0, None)
        used[rep.result.sigma0] = None
        assert len(ops._recent) == min(len(used), ops._RECENT_SIZE)
    assert list(ops._recent) == list(used)[-ops._RECENT_SIZE:]


def test_one_rotation_under_two_names():
    torus = families.build(families.TORUS_PAIR)
    g1 = families.build(families.G1)
    rename = {nm: nm.upper() + "x" for nm in g1.labels}
    renamed = g1.relabeled(rename)
    first = join(torus, g1, "a", "f1").result
    before = (first.labels, [first.dart_name(d)
                             for d in range(first.num_darts)])
    second = join(torus, renamed, "a", "F1x").result
    assert second.sigma0 == first.sigma0
    assert second is not first and second != first
    assert second._face_orbits is first._face_orbits  # shared, not redone
    assert second.signature() is first.signature()
    assert second.labels == tuple(rename.get(nm, nm) for nm in first.labels)
    assert [second.dart_name(d) for d in range(second.num_darts)] == [
        nm + sign for nm in second.labels for sign in "+-"]
    assert (first.labels, [first.dart_name(d)
                           for d in range(first.num_darts)]) == before
    assert set(first.labels) == {"b", *g1.labels[1:], "e", "f"}
    assert second.has_edge("F2x") and not second.has_edge("f2")
    assert first.darts_of("f2") == second.darts_of("F2x")


def test_other_constructors_never_read_the_table():
    torus = families.build(families.TORUS_PAIR)
    g1 = families.build(families.G1)
    res = join(torus, g1, "a", "f1").result
    res.is_filling_system()
    # an equal surgery result in the table for the shuffled copy too
    copy = res.shuffled(random.Random(3))
    ops._recent_result(copy.sigma0, copy.labels).is_filling_system()
    assert {res.sigma0, copy.sigma0} <= set(ops._recent)
    made = [FatGraph(res.sigma0, res.labels),
            FatGraph.from_vertex_cycles(res.to_vertex_cycle_tokens()),
            formats.loads_graph(formats.dumps_graph(res)),
            res.shuffled(random.Random(3))]
    assert all(is_fresh(g) for g in made)
    assert made[0] == res and made[-1] == copy
    # the ops audit remakes the right operand of a diagonal trial with
    # FatGraph(...), and perfbench checks each result through a fresh
    # graph the same way: it recomputes, and reads nothing of the result
    assert structures(made[0]) == structures(res)
    assert made[0]._face_orbits is not res._face_orbits
    # the census builds its graphs without surgery
    table = list(ops._recent)
    rows = oracle.census(2)
    assert list(ops._recent) == table
    assert all(is_fresh(row.graph()) for row in rows)
