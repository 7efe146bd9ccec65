import hashlib
import math
from fractions import Fraction

import pytest
from helpers import (face_cycles, full_scan_relabeling, tuple_curves,
                     tuple_shortest_face_darts)

from fillgraph import oracle
from fillgraph.analysis import intersection_graph
from fillgraph.core import MalformedGraphError, _rooted_walk, canonical_code
from fillgraph.oracle import (CensusError, CensusRangeError, census,
                              census_filter, iter_matchings,
                              matching_to_graph, standard_rotation,
                              verify_formula_by_recompute)


class TestCensus:
    def test_one_vertex_classes(self):
        rows = census(1)
        assert len(rows) == 2
        data = sorted((r.genus, r.boundary_count, r.standard_cycle_count,
                       r.filling) for r in rows)
        assert data == [(0, 3, 1, False), (1, 1, 2, True)]

    def test_no_genus_two_minimal_pair(self):
        assert census_filter(3, genus=2, b=1, s=2, filling=True) == []

    def test_size_four_witness_exists(self):
        assert census_filter(3, genus=2, b=1, s=4, filling=True)

    def test_extremal_sizes_at_desk_scale(self):
        # every (g, b) whose fillings have at most 4 vertices
        for g, b in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)):
            V = 2 * g - 2 + b
            rows = census_filter(V, genus=g, b=b, filling=True)
            sizes = {r.standard_cycle_count for r in rows}
            assert max(sizes) == 2 * g + b - 1, (g, b)
            assert min(sizes) == (3 if (g, b) == (2, 1) else 2), (g, b)

    def test_euler_relation_and_weight_bound(self):
        for V in (1, 2, 3):
            for row in census(V):
                assert (row.vertex_count - row.edge_count
                        + row.boundary_count == 2 - 2 * row.genus)
                if row.filling:
                    assert sum(row.cycle_lengths) == row.edge_count
                    if row.boundary_count == 1:
                        bound = 2 * row.genus - row.standard_cycle_count + 1
                        assert row.omega_max <= bound

    def test_counts_are_multiplicity_consistent(self):
        # class multiplicities add up to the number of connected matchings
        for V in (1, 2, 3):
            total = sum(r.count for r in census(V))
            matchings = sum(1 for _ in iter_matchings(V, connected_only=True))
            assert total == matchings

    def test_keys_match_core_canonical_form(self):
        for row in census(2):
            assert row.graph().canonical_form() == row.key

    def test_rows_sorted_and_stable(self):
        rows = census(3)
        keys = [r.key for r in rows]
        assert keys == sorted(keys)
        census.cache_clear()
        again = oracle.census(3)
        assert [r.key for r in again] == keys
        assert [r.count for r in again] == [r.count for r in rows]

    def test_ceiling(self):
        with pytest.raises(CensusRangeError):
            census(5)


def brute_force(V):
    """canonical code -> [matchings, first matching] over iter_matchings."""
    rot = oracle.standard_rotation(V)
    classes = {}
    for match in iter_matchings(V, connected_only=True):
        key, _ = canonical_code(rot, match)
        if key in classes:
            classes[key][0] += 1
        else:
            classes[key] = [1, match]
    return classes


def connected_count(V):
    """Connected matchings on 4V darts, from (4V-1)!! by the exponential
    formula: split off the component of the first vertex."""
    def double_factorial(k):
        return math.prod(range(1, 4 * k, 2))

    conn = {}
    for k in range(1, V + 1):
        conn[k] = double_factorial(k) - sum(
            math.comb(k - 1, j - 1) * conn[j] * double_factorial(k - j)
            for j in range(1, k))
    return conn[V]


class TestGrowth:
    def test_connected_counts(self):
        assert [connected_count(V) for V in (1, 2, 3, 4)] == \
            [3, 96, 9504, 1880064]

    def test_mass_identity(self):
        for V in (1, 2, 3, 4):
            mass = sum(Fraction(4 ** V * math.factorial(V), r.automorphisms)
                       for r in census(V))
            assert mass == connected_count(V)

    def test_growth_equals_brute_force(self):
        for V in (1, 2, 3):
            classes = brute_force(V)
            rows = census(V)
            assert [r.key for r in rows] == sorted(classes)
            for row in rows:
                count, first = classes[row.key]
                assert row.count == count
                assert row.witness == first
                g = matching_to_graph(V, first)
                sig = g.signature()
                filling = g.is_filling_system()[0]
                assert (row.genus, row.boundary_count,
                        row.standard_cycle_count, row.filling) == \
                    (sig.genus, sig.boundary_count,
                     sig.standard_cycle_count, filling)
                assert row.boundary_lengths == tuple(sorted(
                    map(len, face_cycles(g)), reverse=True))
                assert row.cycle_lengths == tuple(sorted(
                    map(len, tuple_curves(g)), reverse=True))
                omega = (intersection_graph(g).omega_max() if filling
                         else None)
                assert row.omega_max == omega

    def test_corrupt_automorphism_count_fails_certificate(self, monkeypatch):
        victim = census(2)[3].key
        real = oracle.canonical_code

        def corrupt(sigma0, sigma1, walked=None):
            key, automorphisms = real(sigma0, sigma1, walked)
            return key, automorphisms + (key == victim)

        monkeypatch.setattr(oracle, "canonical_code", corrupt)
        census.cache_clear()
        try:
            with pytest.raises(CensusError):
                census(2)
        finally:
            census.cache_clear()

    def test_fractional_orbit_names_its_class(self, monkeypatch):
        # 3 does not divide the 4^2 * 2! = 32 labelings at V = 2, so the
        # class has no whole orbit size, whatever the other classes sum to
        victim = census(2)[3].key
        real = oracle.canonical_code
        matches = []

        def corrupt(sigma0, sigma1, walked=None):
            key, automorphisms = real(sigma0, sigma1, walked)
            if key != victim:
                return key, automorphisms
            matches.append(tuple(sigma1))
            return key, 3

        monkeypatch.setattr(oracle, "canonical_code", corrupt)
        census.cache_clear()
        try:
            with pytest.raises(CensusError) as caught:
                census(2)
        finally:
            census.cache_clear()
        assert matches and "3 automorphisms" in str(caught.value)
        assert repr(matches[0]) in str(caught.value)


def candidates(V):
    """The matchings the census looks up at level V: the connected
    one-vertex matchings, or those grown from the level below."""
    if V == 1:
        return list(iter_matchings(1, connected_only=True))
    return [m for row in census(V - 1) for m in oracle._grown(V, row.witness)]


def rooted_code(rot, match, root):
    return bytes(_rooted_walk(rot, match, root)[1])


class TestClassLookup:
    @pytest.mark.parametrize("V, digest", [
        (1, "cbf92bef8f9ca79b20961a7d7bf94af10ed2a8c917e689c5e1309d519d352e88"),
        (2, "3a7c194e390ddc999a6ec1a1255d5663e2c306f2555e06870f0d4b6197876d14"),
        (3, "cc36d78c2863674d18e1cea46a6140d1b1e6fd876259c9aba3aae09648f6badf"),
        (4, "718251744f79a2c3f0d4e6f88ff6bd3341c235cf0868c75c5f94a43f0dde268f"),
    ])
    def test_rows_pinned(self, V, digest):
        # sha256 of repr(census(V)), witnesses and automorphism counts
        # included, as the census gave it when it coded every candidate
        assert hashlib.sha256(repr(census(V)).encode()).hexdigest() == digest

    def test_five_vertices_pinned(self, monkeypatch):
        # above the ceiling, so the level is built here and not kept
        monkeypatch.setattr(oracle, "EXHAUSTIVE_CEILING", 5)
        try:
            rows = census(5)
        finally:
            census.cache_clear()
        assert len(rows) == 5250
        assert sum(row.count for row in rows) == 93028608
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "dd3b3b6350b9c97d1944474f72bc6ac4b703e7aebe2a588eeee09c0505cbdbaa")

    def test_candidates_land_in_their_class(self):
        # a candidate's walk from the least dart on its shortest faces
        # reproduces the walk from some shortest-face dart of its class
        for V in range(1, 5):
            rot = standard_rotation(V)
            index = {}
            for row in census(V):
                for root in oracle._shortest_face_darts(rot, row.witness):
                    index[rooted_code(rot, row.witness, root)] = row.key
            for match in candidates(V):
                root = oracle._shortest_face_darts(rot, match)[0]
                assert index[rooted_code(rot, match, root)] == \
                    canonical_code(rot, match)[0]

    def test_shortest_face_darts_match_face_tuples(self):
        # the counting screen gives the darts that the face tuples give,
        # each once, the least of them first
        for V in range(1, 5):
            rot = standard_rotation(V)
            for match in candidates(V):
                got = oracle._shortest_face_darts(rot, match)
                want = tuple_shortest_face_darts(rot, match)
                assert sorted(got) == sorted(want)
                assert got[0] == min(got) == want[0]

    def test_missed_known_class_raises(self, monkeypatch):
        # rooting every graph at dart 0 misses candidates of known classes
        monkeypatch.setattr(oracle, "_shortest_face_darts",
                            lambda rot, match: [0])
        census.cache_clear()
        try:
            with pytest.raises(CensusError, match="missed the class"):
                census(2)
        finally:
            census.cache_clear()

    def test_least_relabeling_matches_full_scan(self):
        for V in range(1, 5):
            for _, match in oracle._classes(V).values():
                assert oracle._least_relabeling(V, match) == \
                    full_scan_relabeling(V, match)
            for row in census(V):
                assert oracle._least_relabeling(V, row.witness) == \
                    full_scan_relabeling(V, row.witness) == row.witness
        for V in range(1, 4):
            for match in candidates(V):
                assert oracle._least_relabeling(V, match) == \
                    full_scan_relabeling(V, match)


class TestMatchings:
    def test_matching_graph_roundtrip(self):
        for match in iter_matchings(2, connected_only=True):
            g = matching_to_graph(2, match)
            assert g.num_vertices == 2
            assert g.is_connected

    @pytest.mark.parametrize("match", [
        (1, 0, 3, 3), (1, 2, 3, 0), (0, 1, 2, 3), (1, 0, 3, 9), (1, 0)])
    def test_non_matching_rejected(self, match):
        with pytest.raises(MalformedGraphError):
            matching_to_graph(1, match)

    def test_symmetry_break_is_lossless(self):
        # every 1-vertex fat graph appears despite dart 0's restriction
        keys = {matching_to_graph(1, m).canonical_form()
                for m in iter_matchings(1)}
        assert len(keys) == 2


@pytest.fixture(scope="module")
def audits():
    return verify_formula_by_recompute(max_census_v=2, census_cap=12)


class TestFormulaVerification:

    def test_zero_hard_mismatches(self, audits):
        for a in audits.values():
            assert a.mismatches == 0

    def test_all_branches_exercised(self, audits):
        assert len(audits["join"].case_counts) == 2
        assert len(audits["plumb"].case_counts) == 2
        assert len(audits["consum"].case_counts) == 4

    def test_join_corollary(self, audits):
        assert audits["join"].corollary_violations == 0

    def test_consum_table_audit(self, audits):
        a = audits["consum"]
        assert a.printed_reliable_misses == 0
        assert a.printed_matched > 0
        assert a.s_law_checked > 0 and a.s_law_misses == 0
