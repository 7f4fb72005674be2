import tracemalloc

import pytest


@pytest.fixture
def peak_traced_bytes():
    """Trace allocations for the rest of the test; the fixture's value
    returns the peak of traced memory so far, in bytes."""
    tracemalloc.start()
    yield lambda: tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
