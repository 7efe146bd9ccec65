import pytest

from fillgraph import ops, synthesis


@pytest.fixture(autouse=True)
def empty_surgery_memo():
    """Each test starts and ends with an empty memo of surgery results,
    an empty table of surgery constructions (``ops._constructions``), an
    empty table of connected-sum side records (``ops._sides``), an empty
    table of synthesis sub-plans (``synthesis._subplans``) and an empty
    memo of parsed literal graphs (``synthesis._literal``), so that no
    verdict depends on the tests run before it: a result on a ``sigma0``
    found in the memo shares what an earlier test computed there, even
    under a patched kernel, a construction found in its table is not
    walked again, a side record found in its table is not made again, a
    sub-plan found in the table makes none of its surgeries again, and a
    literal found in its memo is not parsed again."""
    ops._memo.clear()
    ops._constructions.clear()
    ops._sides.clear()
    synthesis._subplans.clear()
    synthesis._literal.cache_clear()
    yield
    ops._memo.clear()
    ops._constructions.clear()
    ops._sides.clear()
    synthesis._subplans.clear()
    synthesis._literal.cache_clear()
