import sys

import pytest

from rkdist import catalog


@pytest.fixture(scope="session")
def base():
    """The twelve base catalog profiles, keyed by name."""
    return {name: catalog.get(name) for name in catalog.BASE_NAMES}


@pytest.fixture()
def digit_limit():
    """The interpreter's limit on decimal digits in int(), pinned to 4300 for the test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
