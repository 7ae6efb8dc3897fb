"""Shared fixtures: the worked-example models and their scale tables.

Tables come from skipfree.golden.cached_table so the test session
reuses the arrays the example battery already built.
"""

import contextlib
import signal

import pytest

from skipfree import modified_geometric, validate
from skipfree.golden import (
    FOUR_POINT_V,
    THREE_POINT_V,
    TWO_POINT_V,
    cached_table,
    four_point_model,
    three_point_model,
    two_point_model,
)


@pytest.fixture(scope="session")
def three_point():
    return three_point_model()


@pytest.fixture(scope="session")
def two_point():
    return two_point_model()


@pytest.fixture(scope="session")
def four_point():
    return four_point_model()


@pytest.fixture(scope="session")
def three_tab(three_point):
    return cached_table(three_point, THREE_POINT_V, 410)


@pytest.fixture(scope="session")
def three_tab_v1(three_point):
    return cached_table(three_point, 1.0, 410)


@pytest.fixture(scope="session")
def three_tab_09(three_point):
    return cached_table(three_point, 0.9, 120)


@pytest.fixture(scope="session")
def two_tab(two_point):
    return cached_table(two_point, TWO_POINT_V, 410)


@pytest.fixture(scope="session")
def gsy_tab(four_point):
    return cached_table(four_point, FOUR_POINT_V, 410)


@pytest.fixture(scope="session")
def modgeom():
    return modified_geometric(alpha=0.4, p0=0.6, p1=0.24)


@pytest.fixture(scope="session")
def modgeom_tab(modgeom):
    return cached_table(modgeom, 0.85, 410)


@pytest.fixture(scope="session")
def heavy():
    """Supercritical two-atom model: mean claim 3/2 > 1."""
    return validate(["1/2", "0", "0", "1/2"])


@pytest.fixture
def deadline():
    """deadline(seconds) fails its block instead of letting it hang."""
    @contextlib.contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"no answer within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
