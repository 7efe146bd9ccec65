import copy
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from helpers import (grid_plans, reference_plan_from_document,
                     reference_plan_text)
from hypothesis import example, given, settings, strategies as st

from fillgraph import cli, core, families, formats, oracle
from fillgraph.core import FatGraph, FatGraphError, MalformedGraphError
from fillgraph.formats import (FormatError, census_rows_to_csv,
                               census_rows_to_json, dumps_graph, dumps_plan,
                               graph_to_dot, loads_graph, loads_plan,
                               plan_from_document, read_graph, write_graph)
from fillgraph.synthesis import (PlanVerificationError, Step, SynthesisPlan,
                                 filling, minimal_filling,
                                 tight_omega_filling)


class TestGraphFile:
    def test_write_read_bit_exact(self, tmp_path):
        g = families.build(families.G1)
        p = tmp_path / "g1.json"
        write_graph(p, g)
        first = p.read_text()
        write_graph(p, read_graph(p))
        assert p.read_text() == first

    def test_read_write_up_to_relabeling(self):
        g = families.build(families.GAMMA0)
        h = loads_graph(dumps_graph(g))
        assert h.is_isomorphic(g)
        assert sorted(h.labels) == sorted(g.labels)

    def test_randomized_census_roundtrip(self):
        rng = random.Random(20250809)
        rows = [r for V in (1, 2, 3) for r in oracle.census(V)]
        for _ in range(60):
            row = rng.choice(rows)
            g = row.graph().shuffled(rng)
            text = dumps_graph(g)
            h = loads_graph(text)
            assert dumps_graph(h) == text
            assert h.is_isomorphic(g)

    def test_format_field_required(self):
        with pytest.raises(FormatError):
            loads_graph(json.dumps({"vertices": [["a+", "a-"]]}))

    def test_malformed_vertices_rejected(self):
        doc = {"format": "fatgraph/1", "vertices": [["a+", "b+"], ["a-"]]}
        with pytest.raises(FormatError):
            loads_graph(json.dumps(doc))

    @pytest.mark.parametrize("vertices", [
        [0], ["a+a-"], [["a+", "a-"], None], [["a+", 1]], [["a+", ["a-"]]]])
    def test_vertex_must_be_array_of_labels(self, vertices):
        doc = {"format": "fatgraph/1", "vertices": vertices}
        with pytest.raises(FormatError):
            loads_graph(json.dumps(doc))

    @given(st.lists(st.text(max_size=4), min_size=2, max_size=2,
                    unique=True))
    @example(["a+", "-"])
    @example(["a-b", "a\u2212b"])
    @example(["x#0", "x"])
    @example(["", "b"])
    @settings(max_examples=300, deadline=None)
    def test_accepted_labels_round_trip(self, labels):
        # the torus a+ b+ a- b- under the two drawn labels
        sigma0 = (2, 3, 1, 0)
        if any(not nm or "#" in nm or "\u2212" in nm for nm in labels):
            with pytest.raises(MalformedGraphError, match="edge label"):
                FatGraph(sigma0, labels)
            return
        g = FatGraph(sigma0, labels)
        h = loads_graph(dumps_graph(g))
        assert sorted(h.labels) == sorted(labels)
        assert h.is_isomorphic(g)

    def test_tagged_loop_tokens_accepted(self):
        doc = {"format": "fatgraph/1",
               "vertices": [["a+#0", "b+", "a+#1", "b-"]]}
        g = loads_graph(json.dumps(doc))
        assert g.num_edges == 2
        assert g.signature().genus in (0, 1)


class TestPlanFile:
    @pytest.fixture()
    def doc(self):
        return json.loads(dumps_plan(filling(3, 3, 4)))  # steps[2]: join

    def test_missing_target_and_steps(self, doc):
        for text in ('{"format": "fillplan/1"}',
                     '{"format": "fillplan/1", "target": {"g": 2, "b": 1, '
                     '"s": 3}}'):
            with pytest.raises(FormatError):
                loads_plan(text)

    @pytest.mark.parametrize("text", ["", "{", '{"format": "fillplan/1",}'])
    def test_invalid_json(self, text):
        with pytest.raises(FormatError, match="invalid JSON"):
            loads_plan(text)

    @pytest.mark.parametrize("path, value", [
        (("target",), [2, 1, 3]),
        (("target", "s"), "3"),
        (("target", "g"), True),
        (("steps",), {"op": "family"}),
        (("steps", 0), "family"),
        (("steps", 0, "op"), None),
        (("steps", 2, "left"), "0"),
        (("steps", 2, "flip"), 1),
        (("expect_filling",), "yes"),
    ])
    def test_ill_typed_fields(self, doc, path, value):
        node = doc
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        with pytest.raises(FormatError):
            loads_plan(json.dumps(doc))

    @pytest.mark.parametrize("make, op, fields", [
        (lambda: filling(3, 3, 4), "family", ("family",)),
        (lambda: filling(3, 3, 4), "join", ("left", "right", "x", "y")),
        (lambda: filling(3, 1, 2), "graph", ("vertices",)),
        (lambda: filling(5, 1, 3), "consum", ("left", "right", "w", "u")),
        (lambda: filling(4, 1, 6), "plumb", ("left", "right", "x", "y")),
        (lambda: tight_omega_filling(3, 3), "smooth", ("arg",)),
    ])
    def test_missing_op_fields(self, make, op, fields):
        text = dumps_plan(make())
        for k in fields:
            for absent in (True, False):
                doc = json.loads(text)
                step = next(st for st in doc["steps"] if st["op"] == op)
                if absent:
                    del step[k]
                else:
                    step[k] = None
                with pytest.raises(FormatError, match=repr(k)):
                    loads_plan(json.dumps(doc))

    def test_valid_document_still_loads(self, doc):
        text = json.dumps(doc, indent=2) + "\n"
        assert dumps_plan(loads_plan(text)) == text


# --- plan writer: dumps_plan writes json.dumps's indented text -------------

# labels with quotes, backslashes, control and non-ASCII characters
WRITER_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", 'a"b\\c', "\n\t\x00", "é", "γ₁",
                     "\u2028", "\U0001f600", "a'", ""]))
WRITER_INT = st.integers(-3, 2 ** 40)
WRITER_CYCLES = st.lists(st.lists(WRITER_TEXT, max_size=4).map(tuple),
                         max_size=3).map(tuple)
WRITER_STEPS = st.builds(
    Step, op=st.sampled_from(["family", "graph", "join", "plumb", "consum",
                              "smooth", "twist"]),
    family=st.none() | WRITER_TEXT, param=st.none() | WRITER_INT,
    vertices=st.none() | WRITER_CYCLES,
    left=st.none() | WRITER_INT, right=st.none() | WRITER_INT,
    x=st.none() | WRITER_TEXT, y=st.none() | WRITER_TEXT,
    w=st.none() | WRITER_INT, u=st.none() | WRITER_INT,
    align=WRITER_INT, flip=st.booleans(), arg=st.none() | WRITER_INT)
WRITER_PLANS = st.builds(
    SynthesisPlan, target=st.tuples(WRITER_INT, WRITER_INT, WRITER_INT),
    steps=st.lists(WRITER_STEPS, max_size=4),
    expect_filling=st.booleans(), expect_omega=st.none() | WRITER_INT)

# steps with exactly the usual fields of one op, the shapes written from
# a template: text that needs escaping or looks like a format slot, ints
# far from 0, and a bool where an int goes or an int where a flag goes,
# which only the general writer may write; the field an op does not
# write (a join's align, a sum's flip, a family step's both) holds
# anything
USUAL_TEXT = st.one_of(WRITER_TEXT,
                       st.sampled_from(["%s", "%d", "%%", "{}", "{0}", "null"]))
USUAL_INT = st.one_of(st.integers(-3, 3), st.sampled_from([-2 ** 40, 2 ** 40]),
                      st.booleans())
UNWRITTEN = st.one_of(st.none(), st.booleans(), WRITER_INT, WRITER_TEXT)
USUAL_STEPS = st.one_of(
    st.builds(Step, st.just("family"), family=USUAL_TEXT,
              param=st.none() | USUAL_INT, align=UNWRITTEN, flip=UNWRITTEN),
    st.builds(Step, st.sampled_from(["join", "plumb"]), left=USUAL_INT,
              right=USUAL_INT, x=USUAL_TEXT, y=USUAL_TEXT, align=UNWRITTEN,
              flip=st.booleans() | st.integers(0, 1)),
    st.builds(Step, st.just("consum"), left=USUAL_INT, right=USUAL_INT,
              w=USUAL_INT, u=USUAL_INT, align=USUAL_INT, flip=UNWRITTEN))


class TestPlanWriter:
    def test_grid_plans_match_the_reference(self):
        plans = list(grid_plans(5, 4, 5))
        assert len(plans) == 142
        for plan in plans:
            assert dumps_plan(plan) == reference_plan_text(plan), plan.target

    @given(WRITER_PLANS)
    @example(SynthesisPlan(target=(2, 1, 3), expect_omega=4))
    @example(SynthesisPlan(target=(2, 1, 3), steps=[
        Step(op="graph", vertices=()), Step(op="graph", vertices=((),)),
        Step(op="join", left=0, right=1, x='"\\', y="é", flip=True),
        Step(op="consum", left=0, right=1, w=0, u=2, align=3)]))
    @settings(max_examples=300, deadline=None)
    def test_drawn_plans_match_the_reference(self, plan):
        assert dumps_plan(plan) == reference_plan_text(plan)

    @given(st.lists(USUAL_STEPS, min_size=1, max_size=4))
    @example([Step("join", left=True, right=2 ** 40, x='"%s', y="\\é",
                   flip=False, align=None),
              Step("family", family="{0}", param=-2 ** 40),
              Step("consum", left=0, right=1, w=2, u=3, align=True)])
    @settings(max_examples=400, deadline=None)
    def test_usual_steps_match_the_reference(self, steps):
        plan = SynthesisPlan(target=(2, 1, 3), steps=steps)
        assert dumps_plan(plan) == reference_plan_text(plan)

    def test_usual_steps_take_a_template(self, monkeypatch):
        # only the grid's graph and smooth steps are written field by
        # field; every family, join, plumbing and sum step fills a template
        plans = [(plan, reference_plan_text(plan))
                 for plan in grid_plans(5, 4, 5)]
        written = []
        step_items = formats._step_items

        def spy(step):
            written.append(step.op)
            return step_items(step)

        monkeypatch.setattr(formats, "_step_items", spy)
        for plan, text in plans:
            assert dumps_plan(plan) == text
        assert set(written) == {"graph", "smooth"}
        # a bool where an int goes is written field by field
        dumps_plan(SynthesisPlan((2, 1, 3), [
            Step("family", family="g1", param=True)]))
        assert written[-1] == "family"


# --- plan-file fuzz: loads_plan plus replay raise only these ---------------

PLAN_ERRORS = (FormatError, FatGraphError, PlanVerificationError)

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8),
    st.floats(-2, 2, allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
LABELS = st.sampled_from(["a", "b", "c", "e", "f", "e1", "f1", "x1", "a'",
                          ""])
TOKENS = st.one_of(
    st.builds(str.__add__, LABELS,
              st.sampled_from(["+", "-", "+#0", "+#1", "-#1", "#2", ""])),
    JUNK)
INDICES = st.integers(-2, 6)
STEP_VALUES = {
    "op": st.sampled_from(["family", "graph", "join", "plumb", "consum",
                           "smooth", "twist"]),
    "family": st.sampled_from(families.ALL_FAMILIES + ("nope",)),
    "param": st.integers(-1, 5),
    "vertices": st.lists(st.lists(TOKENS, max_size=5), max_size=4),
    "left": INDICES, "right": INDICES, "arg": INDICES,
    "x": LABELS, "y": LABELS,
    "w": st.integers(-1, 5), "u": st.integers(-1, 5),
    "align": st.integers(-1, 4), "flip": st.booleans(),
}
TOP_VALUES = {
    "format": st.just("fillplan/1"),
    "target": st.fixed_dictionaries(
        {}, optional={k: st.one_of(st.integers(-1, 6), JUNK) for k in "gbs"}),
    "expect_filling": st.booleans(),
    "expect_omega": st.integers(-1, 8),
}


def field(values, key):
    return st.one_of(values[key], JUNK)


RANDOM_STEPS = st.fixed_dictionaries(
    {"op": field(STEP_VALUES, "op")},
    optional={k: field(STEP_VALUES, k) for k in STEP_VALUES if k != "op"})
RANDOM_DOCS = st.fixed_dictionaries(
    {"format": field(TOP_VALUES, "format"),
     "steps": st.one_of(st.lists(RANDOM_STEPS, max_size=5), JUNK)},
    optional={k: field(TOP_VALUES, k) for k in TOP_VALUES if k != "format"})

# one plan for each op: family and join; graph; consum; plumb; smooth with
# an omega expectation
BASE_DOCS = [json.loads(dumps_plan(plan)) for plan in (
    filling(3, 3, 4), minimal_filling(3, 2), minimal_filling(5, 3),
    minimal_filling(4, 6), tight_omega_filling(3, 3))]


@st.composite
def mutated_docs(draw):
    """A valid plan document with one to three fields set, dropped or
    retyped, or steps dropped or repeated."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        steps = doc["steps"] if isinstance(doc.get("steps"), list) else []
        kind = draw(st.sampled_from(["set", "drop", "steps", "top"]))
        if kind == "top" or not steps:
            key = draw(st.sampled_from(sorted(TOP_VALUES) + ["steps"]))
            doc[key] = draw(field(TOP_VALUES, key) if key in TOP_VALUES
                            else JUNK)
            continue
        i = draw(st.integers(0, len(steps) - 1))
        if kind == "steps":
            if draw(st.booleans()):
                del steps[i]
            else:
                steps.insert(draw(st.integers(0, len(steps))),
                             copy.deepcopy(steps[i]))
            continue
        if not isinstance(steps[i], dict):
            continue
        key = draw(st.sampled_from(sorted(STEP_VALUES)))
        if kind == "drop":
            steps[i].pop(key, None)
        else:
            steps[i][key] = draw(field(STEP_VALUES, key))
    return doc


@given(st.one_of(RANDOM_DOCS, mutated_docs()))
@settings(max_examples=200, deadline=None)
def test_plan_fuzz_raises_only_plan_errors(doc):
    # a raw KeyError, IndexError, TypeError or AttributeError fails here
    try:
        loads_plan(json.dumps(doc)).replay()
    except PLAN_ERRORS:
        pass


# --- plan reader: one pass gives the two-pass reference's plan or error --


def read_outcome(reader, doc):
    """("plan", fields) of the plan ``reader`` reads from ``doc``, the
    steps by ``repr`` (so True and 1 differ), or ("error", text) of its
    FormatError."""
    try:
        plan = reader(doc)
    except FormatError as exc:
        return "error", str(exc)
    return "plan", (plan.target, repr(plan.steps), plan.expect_filling,
                    plan.expect_omega)


class Index(int):
    """An int subclass, as a caller outside JSON may pass one."""


NULLS_DOC = {"format": "fillplan/1", "target": {"g": 2, "b": 1, "s": 3},
             "expect_omega": None, "steps": [
                 {"op": "family", "family": "G1", "param": None},
                 {"op": "family", "family": "G1", "param": None,
                  "vertices": None, "x": None, "arg": None},
                 {"op": "consum", "left": 0, "right": 1, "w": 0, "u": 0,
                  "align": None},
                 {"op": "join", "left": 0, "right": 1, "x": "a", "y": "b",
                  "flip": None},
                 {"op": "plumb", "left": Index(0), "right": Index(1),
                  "x": "a", "y": "b", "w": Index(2), "flip": True}]}


def faulty(*steps):
    return {"format": "fillplan/1", "target": {"g": 2, "b": 1, "s": 3},
            "steps": list(steps)}


@given(st.one_of(RANDOM_DOCS, mutated_docs()))
@example(NULLS_DOC)
@example({**NULLS_DOC, "target": {"g": Index(2), "b": 1, "s": 3},
          "expect_omega": Index(3)})
# two faults: the first in schema order is named, not the first in the
# document
@example(faulty({"op": "join", "y": 5, "left": "0", "right": 1, "x": "a"}))
@example(faulty({"op": "join", "flip": 1, "left": True, "right": 1}))
@example(faulty({"op": "consum", "left": 0, "right": 1, "vertices": [3],
                 "w": 0}))
@example(faulty({"op": "graph", "vertices": [["a+"], "b"]}))
@example(faulty({"op": "graph", "vertices": [], "arg": 1.5}))
@example(faulty({"op": "family"}, 7))
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_two_pass_reference(doc):
    outcome = read_outcome(plan_from_document, doc)
    assert outcome == read_outcome(reference_plan_from_document, doc)


def test_reader_keeps_explicit_nulls():
    steps = plan_from_document(NULLS_DOC).steps
    assert steps[0] == Step(op="family", family="G1")
    assert steps[2].align is None and steps[3].flip is None
    assert type(steps[4].left) is Index


# --- graph-file fuzz: loads_graph raises only FormatError, and the CLI
# reads any graph it parses without a traceback ----------------------------

GRAPH_TOKENS = st.one_of(
    st.builds(str.__add__, st.sampled_from(["a", "b", "c", "x1", ""]),
              st.sampled_from(["+", "-", "+#0", "+#1", "-#0", "-#1", "#2",
                               ""])),
    JUNK)
GRAPH_VERTICES = st.lists(st.lists(GRAPH_TOKENS, max_size=5), max_size=4)
RANDOM_GRAPH_DOCS = st.fixed_dictionaries(
    {"format": st.one_of(st.just("fatgraph/1"), JUNK),
     "vertices": st.one_of(GRAPH_VERTICES, JUNK)})

# loops with occurrence tags, a bivalent vertex, two curves, a census row,
# and two disjoint copies of the torus (a disconnected graph)
BASE_GRAPH_DOCS = [json.loads(dumps_graph(g)) for g in (
    families.build(families.G1), families.build(families.TORUS_PAIR),
    families.build(families.SPHERE_CIRCLE),
    families.build(families.GAMMA_2_B, 3), oracle.census(2)[5].graph())]
BASE_GRAPH_DOCS.append({"format": "fatgraph/1", "vertices": [
    ["a+#0", "b+", "a+#1", "b-"], ["c+#0", "d+", "c+#1", "d-"]]})


@st.composite
def mutated_graph_docs(draw):
    """A valid graph document with one to three tokens dropped, repeated,
    moved or replaced, or a vertex dropped or repeated."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_GRAPH_DOCS)))
    vertices = doc["vertices"]
    for _ in range(draw(st.integers(1, 3))):
        if not vertices:
            break
        i = draw(st.integers(0, len(vertices) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "move", "set",
                                     "vertex"]))
        if kind == "vertex":
            if draw(st.booleans()):
                del vertices[i]
            else:
                vertices.append(list(vertices[i]))
            continue
        cycle = vertices[i]
        if not cycle:
            continue
        k = draw(st.integers(0, len(cycle) - 1))
        if kind == "drop":
            del cycle[k]
        elif kind == "repeat":
            cycle.insert(k, cycle[k])
        elif kind == "move":
            j = draw(st.integers(0, len(vertices) - 1))
            vertices[j].append(cycle.pop(k))
        else:
            cycle[k] = draw(GRAPH_TOKENS)
    return doc


GRAPH_TEXTS = st.one_of(
    st.one_of(RANDOM_GRAPH_DOCS, mutated_graph_docs()).map(json.dumps),
    st.text(max_size=30),
    st.sampled_from(BASE_GRAPH_DOCS).map(json.dumps).flatmap(
        lambda text: st.integers(0, len(text)).map(lambda n: text[:n])))


@given(GRAPH_TEXTS)
@settings(max_examples=200, deadline=None)
def test_graph_fuzz(text):
    try:
        graph = loads_graph(text)
    except FormatError:
        return
    once = dumps_graph(graph)
    assert dumps_graph(loads_graph(once)) == once
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (["analyze", path], ["analyze", path, "--json"],
                     ["analyze", path, "--expect", "g=2,filling=yes"],
                     ["export", path, "--format", "json"],
                     ["export", path, "--format", "dot"]):
            with redirect_stdout(io.StringIO()), redirect_stderr(
                    io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2), argv


class TestCensusExport:
    def test_csv_shape(self):
        rows = oracle.census(2)
        text = census_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("key,V,m,g,b,s,")
        assert len(lines) == len(rows) + 1

    def test_json_fields(self):
        rows = oracle.census(1)
        payload = json.loads(census_rows_to_json(rows))
        assert {r["g"] for r in payload} == {0, 1}
        assert all(set(r) >= {"key", "V", "b", "s", "filling"}
                   for r in payload)


class TestDot:
    def test_three_vertex_graph(self):
        g = families.build(families.G1)
        dot = graph_to_dot(g)
        assert dot.count("label=\"v") == 3
        assert dot.count(" -- ") == 6
        colors = {ln.split("color=\"")[1].split("\"")[0]
                  for ln in dot.splitlines() if " -- " in ln}
        assert len(colors) == 3  # one per curve

    def test_torus_self_loops(self):
        dot = graph_to_dot(families.build(families.TORUS_PAIR))
        assert dot.count("v0 -- v0") == 2

    def test_gamma_2_3(self):
        dot = graph_to_dot(families.build(families.GAMMA_2_B, 3))
        assert dot.count("label=\"v") == 5
        assert dot.count(" -- ") == 10

    def test_rotation_attribute_present(self):
        dot = graph_to_dot(families.build(families.TORUS_PAIR))
        assert 'rotation="' in dot

    def test_odd_degree_edges_are_black(self):
        g = FatGraph.from_vertex_cycles([["a+", "b+", "c+"],
                                         ["a-", "b-", "c-"]])
        dot = graph_to_dot(g)
        edges = [ln for ln in dot.splitlines() if " -- " in ln]
        assert len(edges) == 3
        assert all('color="black"' in ln for ln in edges)

    def test_curve_invariant_error_propagates(self, monkeypatch):
        # a broken curve pass is a bug to report, not a graph to draw black
        labeller = core._orbit_labels

        def mirrored(succ):
            starts, labels = labeller(succ)
            labels[starts[0] ^ 1] = labels[starts[0]]
            return starts, labels

        torus = families.build(families.TORUS_PAIR)
        g = FatGraph(torus.sigma0, torus.labels)  # nothing computed yet
        monkeypatch.setattr(core, "_orbit_labels", mirrored)
        with pytest.raises(core.InvariantError, match="orientation"):
            graph_to_dot(g)
