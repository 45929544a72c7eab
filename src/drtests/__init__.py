"""Doubly ranked nonparametric tests for grouped functional data.

Curves are ranked across subjects at every measurement occasion, each
subject's rank curve is collapsed to one score, and the scores are compared
across groups with a rank-sum test (two groups) or a Kruskal-Wallis test
(three or more). A Monte Carlo harness estimates the resulting type-I error
and power over simulation grids.

Each module's __all__ is the one list of its public names; the package
exports their union.
"""

from . import (
    errors,
    harness,
    io,
    orderstat,
    preprocess,
    rank_tests,
    ranking,
    simgen,
    summaries,
)
from ._version import __version__
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .io import *  # noqa: F403
from .orderstat import *  # noqa: F403
from .preprocess import *  # noqa: F403
from .rank_tests import *  # noqa: F403
from .ranking import *  # noqa: F403
from .simgen import *  # noqa: F403
from .summaries import *  # noqa: F403

_MODULES = (errors, ranking, orderstat, summaries, rank_tests, preprocess, simgen, harness, io)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
