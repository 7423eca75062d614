"""Exact-arithmetic toolkit for q-deformed lattice gases: generators,
duality functions, and the identities tying them together."""

__version__ = "0.1.0"

from . import duality, errors, lattice, models, qcalc, scalars, uqgl  # noqa: F401
