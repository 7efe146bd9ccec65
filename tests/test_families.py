import pytest
from helpers import (EXAMPLE_5_2_BOUNDARY_WORDS, face_words,
                     gamma2b_boundary_words, gamma_g_boundary_word)

from fillgraph import families
from fillgraph.core import FatGraphError, InvariantError
from fillgraph.ops import join
from fillgraph.families import FamilyRangeError, build, catalog
from fillgraph.synthesis import Step, SynthesisPlan


def rotations(word):
    w = list(word)
    return {tuple(w[i:] + w[:i]) for i in range(len(w))}


def words_match_up_to_rotation(graph, expected_words):
    got = face_words(graph)
    expected = list(expected_words)
    assert len(got) == len(expected)
    for want in expected:
        hit = next((w for w in got if tuple(want) in rotations(w)), None)
        assert hit is not None, f"no boundary word matches {want}"
        got.remove(hit)


def test_validation_error_is_an_invariant_error():
    assert issubclass(families.FamilyValidationError, InvariantError)
    assert issubclass(families.FamilyValidationError, AssertionError)


def test_range_error_is_a_graph_error():
    # a plan step naming a bad family member must fail as bad input
    assert issubclass(FamilyRangeError, FatGraphError)
    assert issubclass(FamilyRangeError, ValueError)


class TestCatalog:
    def test_all_rows_validate(self):
        for row in catalog(gmax=8, bmax=8):
            graph = row.build()
            sig = graph.signature()
            assert sig.triple == row.triple, row
            if row.lengths is not None:
                got = sorted(graph.curve_lengths, reverse=True)
                assert got == sorted(row.lengths, reverse=True), row

    def test_one_boundary_families_fill(self):
        for row in catalog(gmax=6, bmax=4):
            graph = row.build()
            sig = graph.signature()
            if sig.boundary_count == 1 and sig.is_four_regular:
                ok, diags = graph.is_filling_system()
                assert ok, (row, diags)


class TestGammaG:
    def test_signatures(self):
        for g in range(1, 9):
            sig = build(families.GAMMA_G, g).signature()
            assert sig.triple == (g, 1, 2 * g)

    def test_boundary_word(self):
        for g in range(2, 9):
            graph = build(families.GAMMA_G, g)
            (bnd,) = face_words(graph)
            assert tuple(gamma_g_boundary_word(g)) in rotations(bnd)

    def test_last_vertex_carries_a_loop(self):
        graph = build(families.GAMMA_G, 3)
        assert any(graph.loops_at(v) for v in range(graph.num_vertices))

    def test_degenerate_genus_one_is_torus_pair(self):
        assert build(families.GAMMA_G, 1).is_isomorphic(
            build(families.TORUS_PAIR))

    def test_range(self):
        with pytest.raises(FamilyRangeError):
            build(families.GAMMA_G, 0)


class TestGirthFamily:
    def test_signatures(self):
        for g in range(3, 9):
            sig = build(families.GIRTH_2GM1, g).signature()
            assert sig.triple == (g, 1, 2 * g - 1)

    def test_range(self):
        with pytest.raises(FamilyRangeError):
            build(families.GIRTH_2GM1, 2)


class TestGamma2B:
    def test_signatures_and_anchor_edge(self):
        for b in range(2, 9):
            graph = build(families.GAMMA_2_B, b)
            assert graph.signature().triple == (2, b, 2)
            comp = graph.boundary_component_of
            d0, d1 = graph.darts_of(f"f{b+1}")
            assert comp[d0] == comp[d1]

    def test_boundary_words(self):
        for b in range(2, 9):
            graph = build(families.GAMMA_2_B, b)
            words_match_up_to_rotation(graph, gamma2b_boundary_words(b))

    def test_range(self):
        with pytest.raises(FamilyRangeError):
            build(families.GAMMA_2_B, 1)


class TestFixedGraphs:
    def test_example_5_2_boundary_words(self):
        graph = build(families.EXAMPLE_5_2)
        words_match_up_to_rotation(graph, EXAMPLE_5_2_BOUNDARY_WORDS)

    def test_build_rejects_unknown(self):
        with pytest.raises(FamilyRangeError):
            build("nonsense")

    def test_parametric_needs_param(self):
        with pytest.raises(FamilyRangeError):
            build(families.GAMMA_G)
        with pytest.raises(FamilyRangeError):
            build(families.G1, 3)


class TestExpectedRecord:
    @pytest.mark.parametrize("family, param", [
        (families.G1, None), (families.GAMMA_2_B, 3)])
    @pytest.mark.parametrize("record, match", [
        (lambda triple, lengths: ((9,) + triple[1:], lengths), "signature"),
        (lambda triple, lengths: (triple, (1,) * 9), "curve lengths")])
    def test_build_that_misses_its_record_raises(self, monkeypatch, family,
                                                 param, record, match):
        # the one record that catalog() lists is what each build must meet
        expected = families._expected
        monkeypatch.setattr(families, "_expected",
                            lambda f, p: record(*expected(f, p)))
        with pytest.raises(families.FamilyValidationError, match=match):
            families._validated.__wrapped__(family, param)


class TestParameterType:
    @pytest.mark.parametrize("family, param", [
        (families.GAMMA_G, 2.5), (families.GAMMA_2_B, 2.0),
        (families.GIRTH_2GM1, "3"), (families.GAMMA_G, True),
        (families.GAMMA_2_B, False)])
    def test_non_int_parameter_is_a_range_error(self, family, param):
        # a bool is an int to Python, yet True would build genus 1
        with pytest.raises(FamilyRangeError, match="needs an integer"):
            build(family, param)

    def test_replay_of_a_non_int_parameter(self):
        plan = SynthesisPlan(target=(2, 1, 4), steps=[
            Step("family", family=families.GAMMA_G, param=2.5)])
        with pytest.raises(FamilyRangeError):
            plan.replay()


class TestBuildCopies:
    def test_equal_values_not_one_object(self):
        for name, param in ((families.TORUS_PAIR, None),
                            (families.GAMMA_G, 3),
                            (families.GAMMA_2_B, 4)):
            a, b = build(name, param), build(name, param)
            assert a == b and a is not b
            assert a.signature() == b.signature()

    def test_copies_share_structure(self):
        # the surgeries read vertex cycles, the curve record and the key
        # of their operands, so two copies must hold the very same objects
        for name, param in ((families.TORUS_PAIR, None),
                            (families.SPHERE_CIRCLE, None),
                            (families.GAMMA_G, 3),
                            (families.GIRTH_2GM1, 4)):
            a, b = build(name, param), build(name, param)
            assert a.vertex_cycles is b.vertex_cycles
            assert a._curve_orbits is b._curve_orbits
            assert a.boundary_component_of is b.boundary_component_of
            assert a._key is b._key

    def test_two_torus_builds_join(self):
        rep = join(build(families.TORUS_PAIR), build(families.TORUS_PAIR),
                   "a", "a")
        assert rep.recomputed.triple == (1, 2, 3)

    def test_range_error_after_good_build(self):
        build(families.GAMMA_2_B, 3)
        with pytest.raises(FamilyRangeError):
            build(families.GAMMA_2_B, 1)
        build(families.GIRTH_2GM1, 3)
        with pytest.raises(FamilyRangeError):
            build(families.GIRTH_2GM1, 2)
