"""Prudent self-avoiding walks: exact enumeration, series, and sampling.

Five walk families on the square and triangular lattices (1-, 2-, 3-,
4-sided prudent walks and triangular prudent walks) counted four ways --
brute force, generating-tree dynamic programming, functional-equation
iteration, and closed-form expansion -- plus exact uniform random
generation and numerical recovery of the growth constants.
"""

from prudentwalks.series import CPoly, SeriesError, TSeries
from prudentwalks.walks import (
    SquareWalk,
    TriWalk,
    WalkClass,
    enumerate_counts,
    in_class,
    is_prudent,
)

__all__ = [
    "CPoly",
    "SeriesError",
    "TSeries",
    "SquareWalk",
    "TriWalk",
    "WalkClass",
    "enumerate_counts",
    "in_class",
    "is_prudent",
]

__version__ = "0.1.0"
