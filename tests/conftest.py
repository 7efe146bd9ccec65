import pytest

from fillgraph import ops


@pytest.fixture(autouse=True)
def empty_surgery_memo():
    """Each test starts and ends with an empty memo of surgery results,
    so that no verdict depends on the tests run before it: a result on a
    ``sigma0`` found in the memo shares what an earlier test computed
    there, even under a patched kernel."""
    ops._memo.clear()
    yield
    ops._memo.clear()
