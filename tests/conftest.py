import pytest

from fillgraph import ops


@pytest.fixture(autouse=True)
def empty_recent_results():
    """Each test starts and ends with an empty table of recent surgery
    results, so that no verdict depends on the tests run before it: a
    result found in the table shares what an earlier test computed on its
    ``sigma0``, even under a patched kernel."""
    ops._recent.clear()
    yield
    ops._recent.clear()
