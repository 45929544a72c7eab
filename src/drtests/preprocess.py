"""Functional-principal-components presmoothing.

Curves are centered by the grand mean curve (groups ignored), decomposed by
SVD, and reconstructed from the smallest number of leading components whose
cumulative squared singular values reach the requested proportion of
variance. This truncated-SVD smoother stands in for heavier penalized
covariance smoothers; the downstream rank tests accept raw or smoothed
curves equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInputError, _check_fields, _count, _frozen, _within
from .ranking import CurveSet

__all__ = ["FpcaResult", "fpca_smooth"]

_check_pve = _within(0, 1, "(]")  # a proportion of variance


@dataclass(frozen=True)
class FpcaResult:
    """Smoothed curves plus what the truncation kept.

    pve_achieved is the cumulative variance ratio of the kept components;
    it is the smallest ratio at or above the requested proportion. For
    centered data with zero total variance there is nothing to truncate and
    the input is returned unchanged with a single nominal component.
    """

    smoothed: np.ndarray
    mean_curve: np.ndarray
    components_kept: int
    pve_achieved: float

    def __post_init__(self) -> None:
        _check_fields(self, components_kept=_count, pve_achieved=_check_pve)
        _check_fields(self, smoothed=_frozen, mean_curve=partial(_frozen, flat=True))
        if not np.all(np.isfinite(self.smoothed)):
            raise InvalidInputError("smoothed matrix must be finite")


def fpca_smooth(curves: CurveSet, pve: float) -> FpcaResult:
    """Reconstruct curves from the fewest components reaching `pve`.

    pve must lie in (0, 1]. pve=1.0 returns the input exactly. The
    reconstruction discards exactly the trailing (1 - pve_achieved) share
    of centered variance, so the squared Frobenius error of the smoothed
    matrix equals that share of the total.
    """
    smoothed, kept, achieved = _fpca(curves.values, _check_pve(pve, "pve"))
    return FpcaResult(smoothed, curves.values.mean(axis=0), kept, achieved)


def _fpca(x: np.ndarray, pve: float) -> tuple[np.ndarray, int, float]:
    """`fpca_smooth` of an n x S matrix with n >= 2, trusting its inputs.

    Returns the smoothed matrix (x itself when nothing is truncated), the
    components kept and the variance ratio they achieve.
    """
    mean_curve = x.mean(axis=0)
    centered = x - mean_curve
    if float(np.sum(centered**2)) == 0.0:
        return x, 1, 1.0

    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    if pve == 1.0:
        # keep everything that carries variance; return the input untouched
        return x, max(int(np.count_nonzero(s > 0.0)), 1), 1.0
    ratio = np.cumsum(s**2)
    ratio /= ratio[-1]
    kept = min(int(np.searchsorted(ratio, pve, side="left")) + 1, s.size)
    smoothed = mean_curve + (u[:, :kept] * s[:kept]) @ vt[:kept]
    return smoothed, kept, float(ratio[kept - 1])
