import multiprocessing
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_process_outlives_a_test():
    yield
    assert multiprocessing.active_children() == []
