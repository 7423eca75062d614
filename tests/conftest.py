"""Shared test setup.

The library never sets the mpmath precision; float results follow the
caller's.  The tests hold their float tolerances (down to 1e-40) at 60
significant digits, so the whole session runs inside `workdps(60)`.

The property tests draw their examples from a seed fixed per test, so two
runs of one tree feed the library the same inputs and a failure repeats.
"""

import mpmath
import pytest
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture(scope="session", autouse=True)
def sixty_digits():
    with mpmath.workdps(60):
        yield
