import json
import random

import pytest

from fillgraph import families, oracle
from fillgraph.formats import (FormatError, census_rows_to_csv,
                               census_rows_to_json, dumps_graph, dumps_plan,
                               graph_to_dot, loads_graph, loads_plan,
                               read_graph, write_graph)
from fillgraph.synthesis import filling, tight_omega_filling


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
