"""Distribution of the rank of an order statistic under the null.

Draw n iid continuous values and look at the r-th smallest; its rank within
a fresh sample of n occupies {1..n} with the probabilities computed here.
`exact_pmf` integrates the underlying beta density over the rank's cell,
`approx_pmf` replaces the integral with its midpoint evaluation, and the
midpoint form factors into an exponential family whose sufficient statistic
for the order index is `suff_stat`. The sufficient statistic has exact mean
zero under the null (the defining cancellation is a telescoping sum), which
is what makes it usable as a per-subject summary score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .errors import _check_fields, _count, _integer, _number, _within

__all__ = [
    "ExpFamParts",
    "exact_pmf",
    "approx_pmf",
    "suff_stat",
    "expfam_parts",
    "mean_suff_under_null",
]


def _check_params(n: int, r: int, z: int) -> tuple[int, int, int]:
    n = _count(n, "n")
    index = _within(1, n, check=_integer)
    return n, index(r, "r"), index(z, "z")


def _log_halfcell(z: float, n: int) -> tuple[float, float]:
    # log of the midpoint offsets z/n - 1/(2n) and 1 - z/n + 1/(2n),
    # written as (2z-1)/(2n) and (2(n-z)+1)/(2n) so the two pieces stay
    # exact for z at either end of [1, n].
    log_2n = math.log(2 * n)
    return math.log(2.0 * z - 1.0) - log_2n, math.log(2.0 * (n - z) + 1.0) - log_2n


def exact_pmf(n: int, r: int, z: int) -> float:
    """P(rank of the r-th order statistic = z) among n iid continuous draws.

    Computed as a difference of regularized incomplete beta values,
    I_{z/n}(r, n-r+1) - I_{(z-1)/n}(r, n-r+1).
    """
    n, r, z = _check_params(n, r, z)
    hi = betainc(r, n - r + 1, z / n)
    lo = betainc(r, n - r + 1, (z - 1) / n)
    return float(max(hi - lo, 0.0))


def _log_coef(n: int, r: int) -> float:
    # log of Gamma(n+1) / (Gamma(r) Gamma(n-r+1)) / n, the midpoint PMF's
    # factor that depends on r alone
    return gammaln(n + 1) - gammaln(r) - gammaln(n - r + 1) - math.log(n)


def approx_pmf(n: int, r: int, z: int) -> float:
    """Midpoint-rule approximation to `exact_pmf`.

    Evaluates the beta density at the cell midpoint: the value is
    [Gamma(n+1)/(Gamma(r)Gamma(n-r+1))] * (1/n) * a^(r-1) * b^(n-r) with
    a = z/n - 1/(2n), b = 1 - z/n + 1/(2n). Works in log space so large n
    cannot overflow.
    """
    n, r, z = _check_params(n, r, z)
    log_a, log_b = _log_halfcell(z, n)
    log_p = _log_coef(n, r) + (r - 1) * log_a + (n - r) * log_b
    return float(math.exp(log_p))


def suff_stat(z: float, n: int) -> float:
    """Log-odds form log[(z/n - 1/(2n)) / (1 - z/n + 1/(2n))] of a rank.

    Sufficient for the order index in the midpoint exponential family.
    Antisymmetric about the central rank: suff_stat(n+1-z, n) equals
    -suff_stat(z, n) exactly. Real-valued z in [1, n] is accepted so that
    mid-ranks from tied data flow through (an extension beyond the integer
    ranks the derivation assumes).
    """
    n = _count(n, "n")
    z = _within(1, n)(z, "rank")
    return float(_log_odds(z, n))


def _log_odds(z, n: int):
    """`suff_stat` of each rank in z (a number or an array), unchecked."""
    # the common 1/(2n) scale cancels in the ratio
    return np.log(2.0 * z - 1.0) - np.log(2.0 * (n - z) + 1.0)


@dataclass(frozen=True)
class ExpFamParts:
    """Factors of the midpoint PMF: h(z) * c(r) * exp(w(r) * t(z))."""

    h: float
    c: float
    w: float
    t: float

    def __post_init__(self) -> None:
        positive = _within(0, math.inf, "()")
        _check_fields(self, h=positive, c=positive, w=_number, t=_number)

    def reconstruct(self) -> float:
        """The PMF value this decomposition multiplies out to."""
        return self.h * self.c * math.exp(self.w * self.t)


def expfam_parts(n: int, r: int, z: int) -> ExpFamParts:
    """Exponential-family factorization of `approx_pmf`.

    c(r) = (1/n) * Gamma(n+1) / (Gamma(r) Gamma(n-r+1)), w(r) = r,
    h(z) = exp[n*log(b) - log(a)] with a, b the midpoint offsets, and
    t(z) = suff_stat(z, n). The product h*c*exp(w*t) reproduces
    approx_pmf(n, r, z).
    """
    n, r, z = _check_params(n, r, z)
    log_a, log_b = _log_halfcell(z, n)
    c = math.exp(_log_coef(n, r))
    h = math.exp(n * log_b - log_a)
    return ExpFamParts(h=h, c=c, w=float(r), t=float(_log_odds(z, n)))


def mean_suff_under_null(n: int) -> float:
    """Average of suff_stat over a uniform rank, (1/n) * sum_z t(z).

    Mathematically zero for every n: under the null each rank value is
    equally likely, and the log terms cancel pairwise (with the middle
    term vanishing for odd n).
    """
    n = _count(n, "n")
    return math.fsum(suff_stat(z, n) for z in range(1, n + 1)) / n
