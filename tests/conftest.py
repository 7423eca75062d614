"""Shared test setup.

The library never sets the mpmath precision; float results follow the
caller's.  The tests hold their float tolerances (down to 1e-40) at 60
significant digits, so the whole session runs inside `workdps(60)`.
"""

import mpmath
import pytest


@pytest.fixture(scope="session", autouse=True)
def sixty_digits():
    with mpmath.workdps(60):
        yield
