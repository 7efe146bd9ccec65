"""Planted faults: each test patches one private function so that it
answers wrong, and checks that the check named for that fault catches
it.  No fault lives in the library; every patch is undone after its
test."""

import pytest

from fillgraph import families, oracle, ops
from fillgraph.ops import OperationInvariantError, connected_sum


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
