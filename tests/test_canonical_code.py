"""core.canonical_code against a brute-force reference that walks every
start dart in full (helpers.full_scan_code), and given the full codes of
some starts walked before against itself without them."""

import random

from helpers import full_scan_code

from fillgraph import families
from fillgraph.core import FatGraph, _rooted_walk, canonical_code
from fillgraph.oracle import _shortest_face_darts, census, standard_rotation


def reversal(graph):
    return [d ^ 1 for d in range(graph.num_darts)]


def assert_matches_reference(graph):
    got = canonical_code(graph.sigma0, reversal(graph))
    assert got == full_scan_code(graph.sigma0, reversal(graph))
    return got


def test_census_classes():
    rng = random.Random(61)
    for V in range(1, 5):
        rot = standard_rotation(V)
        for row in census(V):
            want = (row.key, row.automorphisms)
            assert canonical_code(rot, row.witness) == want
            assert full_scan_code(rot, row.witness) == want
            # the census key is the key of the class's fat graphs
            assert assert_matches_reference(row.graph().shuffled(rng)) == want


def pre_walked(sigma0, sigma1, starts):
    """canonical_code given the full codes of ``starts``, checked against
    the code it gives without them."""
    walked = {start: _rooted_walk(sigma0, sigma1, start)[1]
              for start in starts}
    got = canonical_code(sigma0, sigma1, walked)
    assert got == canonical_code(sigma0, sigma1)
    return got


def test_pre_walked_starts_change_nothing():
    rng = random.Random(73)
    for V in range(1, 5):
        rot = standard_rotation(V)
        for row in census(V):
            want = (row.key, row.automorphisms)
            roots = _shortest_face_darts(rot, row.witness)
            assert pre_walked(rot, row.witness, roots) == want
            assert pre_walked(rot, row.witness, range(4 * V)) == want
            graph = row.graph().shuffled(rng)
            starts = rng.sample(range(4 * V), rng.randint(1, 4 * V))
            assert pre_walked(graph.sigma0, reversal(graph), starts) == want


def test_gamma_g_automorphisms():
    rng = random.Random(67)
    for g in range(2, 7):
        gamma = families.build(families.GAMMA_G, g)
        key, automorphisms = assert_matches_reference(gamma)
        assert automorphisms > 1
        assert assert_matches_reference(gamma.shuffled(rng)) == (
            key, automorphisms)


def test_ring_past_256_darts():
    k = 129
    ring = FatGraph.from_vertex_cycles(
        [[f"e{i}-", f"e{(i + 1) % k}+"] for i in range(k)])
    key, automorphisms = assert_matches_reference(ring)
    # two bytes per number, and the rotations and reflections of the ring
    assert len(key) == 2 * 2 * ring.num_darts
    assert automorphisms == 2 * k
    shuffled = ring.shuffled(random.Random(71))
    assert assert_matches_reference(shuffled) == (key, automorphisms)
