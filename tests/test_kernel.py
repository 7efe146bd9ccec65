"""The counting kernel of :meth:`FatGraph.signature` and the curve
labels against the surface invariants and curves read from the cycle
tuples (:func:`helpers.tuple_invariants`): V, b, s, the flags, the face
labels and lengths, the vertex labels, and on decorated graphs the
straight-ahead successor, the curves, their lengths, the first curve to
revisit a vertex (the diagnostic of :meth:`FatGraph.is_filling_system`,
found by the walk over the curve labels alone) and ``curve_of_edge``.

Each graph is rebuilt from its ``sigma0`` and labels before the kernel
reads it, so nothing computed earlier on the same value is reused.  The
graphs: every census class with V <= 4, the catalog (with the degree-2
vertex of ``sphere_circle``), every graph of every g <= 5, b <= 4 plan,
a seeded sample of 300 join, plumbing and connected-sum results, a
seeded sample of 2,000 random rotation systems with vertex degrees 2 to
8, and disconnected unions, on which the signature must raise.
"""

import random

import pytest
from helpers import grid_plans, tuple_invariants

from fillgraph import families, oracle
from fillgraph.core import DisconnectedError, FatGraph
from fillgraph.ops import OperationError, connected_sum, join, plumbing


def kernel_invariants(graph):
    """What the kernel reports on a fresh copy of ``graph``: the fields
    of its signature and the flags, face labels and face lengths it
    leaves behind, or the flags, face labels and face lengths alone when
    the signature raises :class:`DisconnectedError`, and the vertex
    labels; on a decorated graph also the straight-ahead successor, the
    curves, their lengths, first revisit and edge map, read from the
    curve record."""
    fresh = FatGraph(graph.sigma0, graph.labels)
    try:
        sig = fresh.signature()
    except DisconnectedError:
        assert not fresh.is_connected
        component = fresh.boundary_component_of
        b = max(component) + 1
        out = {"V": fresh.num_vertices, "b": b, "s": "raised",
               "connected": False, "four_regular": fresh.is_four_regular,
               "decorated": fresh.is_decorated,
               "boundary_component_of": component,
               "face_lengths": fresh.face_lengths,
               "vertex_of": fresh.vertex_of}
    else:
        assert sig.edge_count == graph.num_edges
        assert (sig.vertex_count - sig.edge_count + sig.boundary_count
                == 2 - 2 * sig.genus)
        out = {"V": sig.vertex_count, "b": sig.boundary_count,
               "s": sig.standard_cycle_count,
               "connected": fresh.is_connected,
               "four_regular": sig.is_four_regular,
               "decorated": sig.is_decorated,
               "boundary_component_of": fresh.boundary_component_of,
               "face_lengths": fresh.face_lengths,
               "vertex_of": fresh.vertex_of}
    if fresh.is_decorated:
        # the revisit verdict first, before any cycle tuple exists
        out.update(first_revisit=fresh.first_revisit(),
                   curve_lengths=fresh.curve_lengths,
                   curve_of_edge=fresh.curve_of_edge,
                   standard_cycles=fresh.standard_cycles,
                   standard_successor=fresh.standard_successor)
    return out


def assert_kernel_agrees(graph):
    want = tuple_invariants(FatGraph(graph.sigma0, graph.labels))
    got = kernel_invariants(graph)
    if not want["connected"]:
        want["s"] = "raised"
    assert got == want, graph


def disjoint_union(a, b):
    """The graph with the components of ``a`` and of ``b``, the darts of
    ``b`` numbered after those of ``a`` and its labels primed."""
    n = a.num_darts
    sigma0 = list(a.sigma0) + [n + d for d in b.sigma0]
    return FatGraph(sigma0, list(a.labels) + [nm + "'" for nm in b.labels])


def test_census_classes():
    revisits = 0
    for V in range(1, 5):
        for row in oracle.census(V):
            assert_kernel_agrees(row.graph())
            revisits += row.graph().first_revisit() is not None
    assert revisits == 361  # of 410 classes: both verdicts are reached


def test_catalog():
    rows = list(families.catalog(8, 8))
    assert any(not row.build().is_four_regular for row in rows)
    for row in rows:
        assert_kernel_agrees(row.build())


def test_plan_graphs():
    for plan in grid_plans(5, 4, 0):
        graph, reports = plan.replay()
        assert_kernel_agrees(graph)
        for rep in reports:
            assert_kernel_agrees(rep.result)


def test_operation_results():
    rng = random.Random(12)
    pool = [g for _, g in oracle._operand_pool(3, 24)]
    results = 0
    while results < 300:
        left = rng.choice(pool)
        right = rng.choice(pool)
        right = FatGraph(right.sigma0, right.labels)  # never left itself
        op = rng.choice(("join", "plumb", "consum"))
        try:
            if op == "consum":
                rep = connected_sum(left, right,
                                    rng.randrange(left.num_vertices),
                                    rng.randrange(right.num_vertices),
                                    rng.randrange(4))
            else:
                rep = (join if op == "join" else plumbing)(
                    left, right, rng.choice(left.labels),
                    rng.choice(right.labels), rng.random() < 0.5)
        except OperationError:
            continue
        assert_kernel_agrees(rep.result)
        results += 1
        if rep.result.num_darts <= 80:
            pool.append(rep.result)


def random_rotation_system(rng):
    """A random rotation system on 1 to 5 vertices with degrees in
    {2, 4, 6, 8}: the darts of each vertex in a random order around it,
    paired into edges by a random matching.  It may be disconnected."""
    degrees = [rng.choice((2, 4, 6, 8)) for _ in range(rng.randint(1, 5))]
    darts = list(range(sum(degrees)))
    rng.shuffle(darts)
    sigma0 = [None] * len(darts)
    at = 0
    for deg in degrees:
        cyc = darts[at:at + deg]
        at += deg
        for i, d in enumerate(cyc):
            sigma0[d] = cyc[(i + 1) % deg]
    return FatGraph(sigma0, [f"e{k}" for k in range(len(darts) // 2)])


def test_random_rotation_systems():
    # degrees 6 and 8 reach first_revisit's walk over more than one other
    # strand, degree 2 a vertex with no other strand; both verdicts must
    # occur off degree 4
    rng = random.Random(15)
    high_revisits = simple_mixed = 0
    for _ in range(2000):
        graph = random_rotation_system(rng)
        assert_kernel_agrees(graph)
        revisit = graph.first_revisit()
        if revisit is None:
            simple_mixed += not graph.is_four_regular
        else:
            high_revisits += graph.degree(revisit[1]) >= 6
    assert high_revisits > 500 and simple_mixed > 50


def odd_degree_graphs():
    """Two graphs with two vertices each, of degree 3 and of degree 5."""
    return [FatGraph.from_vertex_cycles(
        [[f"{x}+" for x in "abcde"[:k]], [f"{x}-" for x in "abcde"[:k]]])
        for k in (3, 5)]


def test_odd_degrees():
    for graph in odd_degree_graphs():
        assert_kernel_agrees(graph)
        assert graph.signature().standard_cycle_count is None


def test_disconnected_graphs():
    graphs = [row.graph() for V in (1, 2) for row in oracle.census(V)]
    graphs += [families.build(families.SPHERE_CIRCLE), *odd_degree_graphs()]
    for a in graphs:
        for b in graphs:
            union = disjoint_union(a, b)
            assert_kernel_agrees(union)
            with pytest.raises(DisconnectedError):
                union.signature()
