"""Property tests over randomized matchings and relabelings."""

import random

from helpers import component_codes
from hypothesis import given, settings, strategies as st

from fillgraph import families
from fillgraph.core import FatGraph, _orbit_labels
from fillgraph.oracle import census, iter_matchings, matching_to_graph
from fillgraph.ops import OperationError, connected_sum, join, plumbing

ALL_V3 = list(iter_matchings(3, connected_only=True))
FAMILY_GRAPHS = [
    families.build(families.G1),
    families.build(families.GAMMA0),
    families.build(families.G2),
    families.build(families.GAMMA_G, 2),
    families.build(families.GAMMA_2_B, 3),
    families.build(families.TORUS_PAIR),
]


def v3_graphs():
    return st.sampled_from(ALL_V3).map(lambda m: matching_to_graph(3, m))


@given(v3_graphs())
@settings(max_examples=80, deadline=None)
def test_boundary_cycles_partition_darts(g):
    darts = sorted(d for c in g.boundary_cycles for d in c)
    assert darts == list(range(g.num_darts))


@given(v3_graphs())
@settings(max_examples=80, deadline=None)
def test_standard_orbit_count_is_even(g):
    starts, _ = _orbit_labels(g.standard_successor)
    assert len(starts) == 2 * len(g.standard_cycles)
    edges = sorted(e for c in g.standard_cycles for e in c.edges())
    assert edges == list(range(g.num_edges))


@given(v3_graphs())
@settings(max_examples=80, deadline=None)
def test_euler_relation(g):
    sig = g.signature()
    assert (sig.vertex_count - sig.edge_count + sig.boundary_count
            == 2 - 2 * sig.genus)
    assert sig.genus >= 0


@given(v3_graphs(), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_relabeling_invariant(g, seed):
    h = g.shuffled(random.Random(seed))
    assert h.canonical_form() == g.canonical_form()


@given(v3_graphs(), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip(g, seed):
    h = g.shuffled(random.Random(seed))
    again = FatGraph.from_vertex_cycles(h.to_vertex_cycle_tokens())
    assert again.to_vertex_cycle_tokens() == h.to_vertex_cycle_tokens()
    assert again.is_isomorphic(h)


@given(st.sampled_from(FAMILY_GRAPHS), st.sampled_from(FAMILY_GRAPHS),
       st.integers(0, 2**31), st.data())
@settings(max_examples=40, deadline=None)
def test_operations_commute_with_relabeling(gl, gr, seed, data):
    # relabeling may reverse edge directions, which swaps the two splice
    # variants; the variant SETS are relabeling invariants
    rng = random.Random(seed)
    x = data.draw(st.sampled_from(gl.labels))
    y = data.draw(st.sampled_from(gr.labels))
    sl, sr = gl.shuffled(rng), gr.shuffled(rng)
    if gl is gr:
        gr = FatGraph(gr.sigma0, gr.labels)
    for op in (join, plumbing):
        a = {op(gl, gr, x, y, flip).result.canonical_form()
             for flip in (False, True)}
        b = {op(sl, sr, x, y, flip).result.canonical_form()
             for flip in (False, True)}
        assert a == b


@given(st.sampled_from(FAMILY_GRAPHS), st.sampled_from(FAMILY_GRAPHS),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_filling_invariant_after_operations(gl, gr, w, u, align):
    if gl is gr:
        gr = FatGraph(gr.sigma0, gr.labels)
    if w >= gl.num_vertices or u >= gr.num_vertices:
        return
    try:
        rep = connected_sum(gl, gr, w, u, align)
    except OperationError:
        return
    sig = rep.recomputed
    assert sig.genus >= 0
    ok, _ = rep.result.is_filling_system()
    if ok:
        # crossing sum law: weights total the vertex count
        from fillgraph.analysis import intersection_graph
        wig = intersection_graph(rep.result)
        assert wig.total_weight() == sig.vertex_count
        assert wig.total_weight() == 2 * sig.genus - 2 + sig.boundary_count


def _brute_isomorphic(g, h):
    """Search every dart bijection phi with phi(sigma0 d) = sigma0'(phi d)
    and phi(d ^ 1) = phi(d) ^ 1.  On a connected graph such a map is fixed
    by the image of dart 0, so trying every image searches them all."""
    n = g.num_darts
    if n != h.num_darts:
        return False
    for target in range(n):
        phi = [-1] * n
        phi[0] = target
        stack = [0]
        ok = True
        while stack and ok:
            d = stack.pop()
            for a, b in ((g.sigma0[d], h.sigma0[phi[d]]),
                         (d ^ 1, phi[d] ^ 1)):
                if phi[a] < 0:
                    phi[a] = b
                    stack.append(a)
                elif phi[a] != b:
                    ok = False
        if ok and len(set(phi)) == n:
            return True
    return False


def test_isomorphism_agrees_with_brute_force_on_census():
    rng = random.Random(17)
    for V in (1, 2, 3):
        graphs = [row.graph() for row in census(V)]
        copies = [g.shuffled(rng) for g in graphs]
        codes = [component_codes(h) for h in graphs + copies]
        for i, g in enumerate(graphs):
            for j, h in enumerate(graphs + copies):
                same = g.is_isomorphic(h)
                assert same == _brute_isomorphic(g, h), (V, i, j)
                assert same == (codes[i] == codes[j]), (V, i, j)
                assert same == (i == j % len(graphs)), (V, i, j)
