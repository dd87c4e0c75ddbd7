import multiprocessing

import numpy as np
import pytest

from stableheat import StableParams


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a live child process: each pooled call
    stops the process pool it started before it returns."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def p11():
    return StableParams(1, 1.0)


@pytest.fixture
def p21():
    return StableParams(2, 1.0)


@pytest.fixture
def p15():
    return StableParams(1, 1.5)


def philox(seed, index=0):
    key = np.array([np.uint64(seed), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))
