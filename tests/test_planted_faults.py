"""Planted faults: each test patches one private function so that it
answers wrong, and checks that the check named for that fault catches
it.  No fault lives in the library; every patch is undone after its
test."""

import json

import pytest

from fillgraph import cli, core, families, formats, oracle, ops, synthesis
from fillgraph.core import MalformedGraphError
from fillgraph.ops import (OperationInvariantError, connected_sum, join,
                           plumbing)
from fillgraph.synthesis import (PlanVerificationError, SynthesisError,
                                 filling)


def _g2():
    return families.build(families.G2)


def _off_by_one(field):
    """``ops._side`` with ``field`` of every record it returns off by
    one: a count one more, or a cut map whose first entry names the
    next cut dart.  The table keeps the true records."""
    real = ops._side

    def planted(graph, v):
        side = real(graph, v)
        if side is None:
            return None
        value = getattr(side, field)
        if isinstance(value, int):
            value += 1
        else:
            value = ((value[0] + 1) % 4,) + value[1:]
        return side._replace(**{field: value})

    return planted


FIELDS = ["untouched_faces", "untouched_curves", "face_map", "curve_map"]


@pytest.mark.parametrize("field", FIELDS)
def test_wrong_side_record_fails_the_sum(monkeypatch, field):
    # the report check compares the prediction with the result's own
    # signature, so a miscounted side record raises; at (0, 0, 1) each
    # of the four faults moves the prediction
    monkeypatch.setattr(ops, "_side", _off_by_one(field))
    with pytest.raises(OperationInvariantError):
        connected_sum(_g2(), _g2(), 0, 0, 1)


@pytest.mark.parametrize("field", FIELDS)
def test_wrong_side_record_counts_in_the_audit(monkeypatch, field):
    # the ops audit on a pool of G2 alone: the fault shows as connected
    # sum mismatches only, and the same audit without it counts none
    monkeypatch.setattr(oracle, "_operand_pool", lambda *args: [
        ("g2", _g2())])
    clean = oracle.verify_formula_by_recompute()
    assert clean["consum"].trials == 6 * 6 * 4
    assert all(audit.mismatches == 0 for audit in clean.values())
    monkeypatch.setattr(ops, "_side", _off_by_one(field))
    audits = oracle.verify_formula_by_recompute()
    assert audits["consum"].trials == 6 * 6 * 4
    assert audits["consum"].mismatches > 0
    assert audits["join"].mismatches == audits["plumb"].mismatches == 0


def _opposite_same_component(monkeypatch):
    """``ops._same_component`` answering the opposite: the join and
    plumbing case tables then read the wrong branch whenever both
    operands' edges sit alike."""
    real = ops._same_component
    monkeypatch.setattr(ops, "_same_component",
                        lambda graph, label: not real(graph, label))


@pytest.mark.parametrize("op", [join, plumbing], ids=["join", "plumb"])
def test_wrong_component_fails_the_edge_ops(monkeypatch, op):
    # the same edge of two copies of G2 sits alike in both, so the case
    # flips, and with it the predicted boundary count
    _opposite_same_component(monkeypatch)
    with pytest.raises(OperationInvariantError):
        op(_g2(), _g2(), "x1", "x1")


def test_wrong_component_counts_in_the_audit(monkeypatch):
    # the ops audit on a pool of G2 alone: the fault shows as join and
    # plumbing mismatches, no connected sum reads it, and the same audit
    # without it counts none
    monkeypatch.setattr(oracle, "_operand_pool", lambda *args: [
        ("g2", _g2())])
    clean = oracle.verify_formula_by_recompute()
    assert clean["join"].trials == clean["plumb"].trials == 9 * 9
    assert all(audit.mismatches == 0 for audit in clean.values())
    _opposite_same_component(monkeypatch)
    audits = oracle.verify_formula_by_recompute()
    assert audits["join"].trials == audits["plumb"].trials == 9 * 9
    assert audits["join"].mismatches > 0
    assert audits["plumb"].mismatches > 0
    assert audits["consum"].mismatches == 0


def test_doubled_automorphisms_fail_the_census(monkeypatch):
    # the class keeps a whole orbit, half its true size, so only the
    # level's mass check can see it
    victim = next(row.key for row in oracle.census(3)
                  if row.automorphisms == 1)
    real = oracle.canonical_code

    def doubled(sigma0, sigma1, walked=None):
        key, automorphisms = real(sigma0, sigma1, walked)
        return key, automorphisms * (1 + (key == victim))

    monkeypatch.setattr(oracle, "canonical_code", doubled)
    oracle.census.cache_clear()
    try:
        with pytest.raises(oracle.CensusError, match="total orbit size"):
            oracle.census(3)
    finally:
        oracle.census.cache_clear()


# Faults on the replay path.  Each must raise the same error with the
# same message on every replay, and leave nothing in the tables that a
# correct replay would not: no literal table entry for a malformed
# literal, and no filling verdict for a plan that never reached it.

def _tables():
    return [len(table) for table in core._tables]


def _raises_alike_twice(call, kind):
    """What ``call()`` raised, the same type and message both times, with
    no table grown by either run: the plan's build made every entry that
    its correct steps make."""
    tables = _tables()
    with pytest.raises(kind) as first:
        call()
    with pytest.raises(kind) as second:
        call()
    assert _tables() == tables
    assert type(second.value) is type(first.value)
    assert str(second.value) == str(first.value)
    return str(first.value)


def _plan_text():
    # a literal graph step, then torus joins
    text = formats.dumps_plan(filling(3, 3, 4))
    assert '"op": "graph"' in text and '"op": "join"' in text
    return text


def test_changed_target_fails_verification():
    text = _plan_text().replace('"g": 3', '"g": 4', 1)
    plan = formats.loads_plan(text)
    verdicts = {key: entry[4] for key, entry in ops._memo.items()}
    message = _raises_alike_twice(plan.replay, PlanVerificationError)
    assert message == "plan target (4, 3, 4) but replay gives (3, 3, 4)"
    # the build's verdicts only: the replays stopped before the filling
    # check
    assert {key: entry[4] for key, entry in ops._memo.items()} == verdicts


def test_operand_naming_a_later_step_fails():
    doc = formats.plan_to_document(formats.loads_plan(_plan_text()))
    doc["steps"][2]["left"] = 3
    plan = formats.plan_from_document(doc)
    message = _raises_alike_twice(plan.replay, SynthesisError)
    assert message == "step 2: operand 3 is not an earlier step"


def test_label_twice_with_one_sign_fails_the_literal(monkeypatch):
    parsed = []
    real = core.FatGraph.from_vertex_cycles.__func__

    def counting(cls, vertex_cycles):
        parsed.append(vertex_cycles)
        return real(cls, vertex_cycles)

    monkeypatch.setattr(core.FatGraph, "from_vertex_cycles",
                        classmethod(counting))
    doc = formats.plan_to_document(formats.loads_plan(_plan_text()))
    good = formats.plan_from_document(doc).steps[0].vertices
    cycles = doc["steps"][0]["vertices"]
    label = cycles[0][0]
    # the other end of the first edge gets the first end's sign
    cycles[:] = [[label if tok[:-1] == label[:-1] else tok for tok in c]
                 for c in cycles]
    plan = formats.plan_from_document(doc)
    message = _raises_alike_twice(plan.replay, MalformedGraphError)
    assert message == (f"edge {label[:-1]!r} appears twice with the same "
                       "sign; use '#0'/'#1' occurrence tags")
    # the build's literal only, and the malformed one parsed on each run
    bad = plan.steps[0].vertices
    assert list(synthesis._literals) == [good]
    assert [v for v in parsed if v in (good, bad)] == [good, bad, bad]


def test_plan_file_cut_short_fails_to_parse(tmp_path, capsys):
    text = _plan_text()
    path = tmp_path / "cut.json"
    path.write_text(text[:len(text) // 2])
    message = _raises_alike_twice(lambda: formats.read_plan(path),
                                  formats.FormatError)
    assert message.startswith("invalid JSON: ")
    capsys.readouterr()
    assert cli.main(["replay", str(path)]) == cli.EXIT_INPUT == 2
    assert cli.main(["replay", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"cannot read {path}: {message}"] * 2


@pytest.mark.parametrize("at, field, value", [(1, "famly", "g2"),
                                              (2, "lft", 7)])
def test_unknown_step_field_fails_to_parse(tmp_path, capsys, at, field,
                                           value):
    # a misspelt field would otherwise be dropped, and its step read
    # with the default
    doc = json.loads(_plan_text())
    doc["steps"][at][field] = value
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    message = _raises_alike_twice(lambda: formats.read_plan(path),
                                  formats.FormatError)
    op = doc["steps"][at]["op"]
    assert message == f"step {at} ({op}) has unknown field {field!r}"
    capsys.readouterr()
    assert cli.main(["replay", str(path)]) == cli.EXIT_INPUT == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"cannot read {path}: {message}"]
