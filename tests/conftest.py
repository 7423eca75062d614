"""Shared test setup.

The library's arithmetic is exact and never touches mpmath.  The tests'
own float oracles (the orthogonality sums, the q-exponential series and
infinite q-Pochhammers, the dressed unitary form) hold their tolerances
(down to 1e-40) at 60 significant digits, so the whole session runs inside
`workdps(60)`.

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
