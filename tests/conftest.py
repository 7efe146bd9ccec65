import pytest

from fillgraph import core


@pytest.fixture(autouse=True)
def empty_tables():
    """Each test starts and ends with every table of the library empty
    (:func:`core.clear_tables`), so that no test reads another's entries."""
    core.clear_tables()
    yield
    core.clear_tables()
