import threading

import pytest
from hypothesis import settings

# reproducible: the same examples on every run, and no example database
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread alive which it started."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")
