"""Desk-scale estimation of observable means and partition functions.

Everything runs on explicit state vectors and dense matrices, so the costs
are exponential in qubit count by design; the point is exact cross-checking
of the estimators, not scale. Each name has one import path, its own module
(``qest.scenarios``, ``qest.sampler``, ...); the package root holds only the
version.
"""

__version__ = "0.1.0"
