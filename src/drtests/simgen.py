"""Synthetic grouped functional data.

Curves are sums of damped sinusoids with random coefficients (a truncated
basis expansion of a standard process on [0, 1]), optionally shifted in all
but the first group by a scaled mean shape and perturbed by white or AR(1)
measurement noise. Replicates draw from counter-based substreams, so any
replicate can be regenerated independently of the others and parallel runs
match serial ones. A block of replicates is drawn by one Philox re-pointed
at each replicate's counter, which leaves it in the state a new generator
for that replicate starts in, so the draws are the same; the block's AR(1)
noise is filtered in one call, which filters each curve as a call on it
alone does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox

from .errors import InvalidInputError, _check_fields, _count, _groups, _integer, _member, _within
from .ranking import CurveSet, _group_labels

__all__ = [
    "CoeffDist",
    "MeanShape",
    "NoiseKind",
    "SimConfig",
    "replicate_stream",
    "generate_dataset",
]

# peak of s(1-s)^5 over [0,1], attained at s = 1/6; dividing by it makes
# the bump shape reach exactly xi at its mode
_BUMP_PEAK = (1.0 / 6.0) * (5.0 / 6.0) ** 5


class CoeffDist(str, Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T2 = "t2"


class MeanShape(str, Enum):
    NONE = "none"
    LINEAR = "linear"
    PARABOLA = "parabola"
    BETA_BUMP = "beta-bump"


class NoiseKind(str, Enum):
    NONE = "none"
    WHITE = "white"
    AR1 = "ar1"


_uint128 = _within(0, 1 << 128, "[)", _integer, "[0, 2^128)")  # a Philox key or counter half
_LOW64 = (1 << 64) - 1  # the low word of a counter half


_scale = _within(0, math.inf, "[)")  # a shift scale or a standard error
_correlation = _within(-1, 1, "()")  # a lag-one correlation


# The check of each SimConfig field (and of the grid config key that sets it)
_SIM_CHECKS = {
    "n_per_group": _groups,
    "n_points": _count,
    "n_basis": _count,
    "coeff_dist": _member(CoeffDist),
    "mean_shape": _member(MeanShape),
    "xi": _scale,
    "noise": _member(NoiseKind),
    "rho": _correlation,
    "seed": _uint128,
}


# The most values (2^27 float64, 1 GiB) one of a replicate's arrays may
# hold: its n x K coefficients, the K x S basis or its n x S curves. A config
# past it is refused when built, before anything is drawn or allocated.
_MAX_VALUES = 1 << 27


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell.

    n_points is the grid size (locations j/n_points for j = 1..n_points),
    n_basis the truncation of the coefficient expansion, xi the scale of
    the mean shift applied to every group after the first, and rho the
    lag-one correlation when noise is AR(1). The seed plus a replicate
    index fully determine a dataset. Each of n x K, K x S and n x S (n
    the subjects) must be at most _MAX_VALUES = 2^27.
    """

    n_per_group: tuple[int, ...]
    n_points: int
    n_basis: int = 1000
    coeff_dist: CoeffDist = CoeffDist.GAUSSIAN
    mean_shape: MeanShape = MeanShape.NONE
    xi: float = 0.0
    noise: NoiseKind = NoiseKind.NONE
    rho: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, **_SIM_CHECKS)
        n, k, s = self.n_subjects, self.n_basis, self.n_points
        for product, size in (
            ("sum(n_per_group) x n_basis", n * k),
            ("n_basis x n_points", k * s),
            ("sum(n_per_group) x n_points", n * s),
        ):
            if size > _MAX_VALUES:
                raise InvalidInputError(
                    f"{product} = {size} exceeds the {_MAX_VALUES} values "
                    "a replicate's array may hold"
                )

    @property
    def n_subjects(self) -> int:
        return sum(self.n_per_group)


def _basis(n_basis: int, s: np.ndarray) -> np.ndarray:
    """Basis curves sqrt(2) sin[(k-0.5) pi s] / [(k-0.5) pi], k x len(s)."""
    freq = (np.arange(1, n_basis + 1) - 0.5) * np.pi
    return (np.sqrt(2.0) / freq)[:, None] * np.sin(np.outer(freq, s))


def _grid(n_points: int) -> np.ndarray:
    """The measurement locations j/n_points, j = 1..n_points."""
    return np.arange(1, n_points + 1) / n_points


@lru_cache(maxsize=8)
def _basis_matrix(n_basis: int, n_points: int) -> np.ndarray:
    """The basis on the grid j/n_points, j = 1..n_points; read-only."""
    basis = _basis(n_basis, _grid(n_points))
    basis.flags.writeable = False
    return basis


# Each MeanShape at locations s in [0, 1], its peak scaled to xi, elementwise:
# a column of xi gives one shape per row
_SHAPES = {
    MeanShape.NONE: lambda s, xi: np.zeros(np.broadcast(s, xi).shape),
    MeanShape.LINEAR: lambda s, xi: xi * s,
    MeanShape.PARABOLA: lambda s, xi: xi * 4.0 * s * (1.0 - s),
    MeanShape.BETA_BUMP: lambda s, xi: xi * s * (1.0 - s) ** 5 / _BUMP_PEAK,
}


@lru_cache(maxsize=1)
def _ar1_filter():
    """scipy.signal's lfilter, imported at the first AR(1) draw: scipy.signal
    and the scipy.stats it imports are most of a cold import of the package."""
    from scipy.signal import lfilter

    return lfilter


def _noise_matrix(kind: NoiseKind, draws: np.ndarray, rho: float) -> np.ndarray:
    """White or AR(1) noise from a block of standard normal draws, (..., S).

    The occasions are the last axis; the draws are overwritten. A block of
    many curves is filtered in one call, which gives each curve the bits a
    call on it alone gives.
    """
    if kind is NoiseKind.WHITE:
        return draws
    # stationary AR(1): e_1 = eta_1, e_t = rho e_{t-1} + sqrt(1-rho^2) eta_t,
    # run as an IIR filter along the occasion axis
    draws[..., 1:] *= np.sqrt(1.0 - rho**2)
    return _ar1_filter()([1.0], [1.0, -rho], draws, axis=-1)


def replicate_stream(seed: int, replicate: int) -> Generator:
    """Independent substream for one replicate of a seeded experiment.

    Counter-based: the stream depends only on (seed, replicate), never on
    how many replicates ran before, so serial and parallel execution see
    identical draws.
    """
    seed = _uint128(seed, "seed")
    # the replicate index is the top half of a 256-bit counter
    replicate = _uint128(replicate, "replicate index")
    return Generator(Philox(key=seed, counter=replicate << 128))


def _replicate_streams(seed: int, replicates) -> Iterator[Generator]:
    """`replicate_stream(seed, r)` for each r in replicates, in turn.

    One Philox is re-pointed for each r: its counter is set to r << 128
    with an empty buffer, the state a new Philox(key=seed, counter=r << 128)
    starts in, so it gives the same draws at a fraction of the cost. Each
    stream is spent before the next is asked for; the indices are trusted.
    """
    bits = Philox(key=seed)
    rng, state = Generator(bits), bits.state
    counter = state["state"]["counter"]
    for r in replicates:
        counter[2], counter[3] = r & _LOW64, r >> 64
        bits.state = state
        yield rng


def _base_values(config: SimConfig, replicates) -> np.ndarray:
    """The (k, n, S) unshifted values of k replicates: basis expansion plus noise.

    They depend on neither the shift scale nor the mean shape, so cells
    that differ only in the shift share them. Each replicate draws its
    coefficient block, then its noise block, from its own stream, as part
    of the determinism contract; its basis product is written into the
    block, and the block's noise is filtered in one call. The replicate
    indices are trusted.
    """
    n, k = config.n_subjects, config.n_basis
    basis = _basis_matrix(k, config.n_points)
    values = np.empty((len(replicates), n, config.n_points))
    noisy = config.noise is not NoiseKind.NONE
    draws = np.empty_like(values) if noisy else None
    for i, rng in enumerate(_replicate_streams(config.seed, replicates)):
        if config.coeff_dist is CoeffDist.GAUSSIAN:
            coeffs = rng.standard_normal((n, k))
        else:
            coeffs = rng.standard_t(2.0, size=(n, k))
        np.matmul(coeffs, basis, out=values[i])
        if noisy:
            rng.standard_normal(out=draws[i])
    if noisy:
        values += _noise_matrix(config.noise, draws, config.rho)
    return values


def _shift(config: SimConfig, xi_values) -> np.ndarray:
    """The (m, S) shifts of groups 2..G at the m scales xi_values, in one call."""
    xi = np.array(xi_values, dtype=float)[:, None]
    return _SHAPES[config.mean_shape](_grid(config.n_points), xi)


def generate_dataset(config: SimConfig, replicate: int = 0) -> CurveSet:
    """Deterministically generate one grouped functional dataset.

    Subjects are stored group by group, labelled 1..G. Group 1 curves are
    centered; groups 2..G receive the configured mean shift. The draws
    depend only on the config and the replicate index; the curve values
    are their basis product in BLAS, whose last bits can change with the
    number of BLAS threads.
    """
    replicate = _uint128(replicate, "replicate index")
    (values,) = _base_values(config, [replicate])
    values[config.n_per_group[0] :] += _shift(config, [config.xi])
    return CurveSet(
        values=values,
        grid=_grid(config.n_points),
        groups=_group_labels(config.n_per_group),
    )
