import math
import re

import numpy as np
import pytest
from scipy.signal import lfilter

from drtests import (
    CoeffDist,
    InvalidInputError,
    MeanShape,
    NoiseKind,
    SimConfig,
    ExperimentGrid,
    generate_dataset,
    replicate_stream,
)
from drtests import simgen
from drtests.simgen import (
    _SHAPES, _base_values, _basis, _basis_matrix, _grid, _noise_matrix, _shift
)


def mean_fn(shape, s, xi):
    """Each mean shape's closed form at locations s, its peak scaled to xi."""
    s = np.asarray(s, dtype=float)
    return {
        MeanShape.NONE: 0.0 * s,
        MeanShape.LINEAR: xi * s,
        MeanShape.PARABOLA: 4.0 * xi * s * (1.0 - s),
        # s(1-s)^5 peaks at s = 1/6, where it is 5^5 / 6^6
        MeanShape.BETA_BUMP: xi * 6**6 / 5**5 * s * (1.0 - s) ** 5,
    }[MeanShape(shape)]


def shifts(shape, n_points, xi_values):
    """The (m, S) shifts of one `_shift` call."""
    config = SimConfig(n_per_group=(3, 4), n_points=n_points, mean_shape=shape)
    return _shift(config, xi_values)


def eigen_curve(coeffs, s):
    """sum_k coeffs_k * sqrt(2) sin[(k-0.5) pi s] / [(k-0.5) pi] at each s."""
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs @ _basis(coeffs.size, np.asarray(s, dtype=float))


class TestEigenCurve:
    def test_zero_coefficients(self):
        out = eigen_curve(np.zeros(10), np.linspace(0, 1, 7))
        assert np.all(out == 0.0)

    def test_first_basis_at_one(self):
        # sqrt(2)/(0.5 pi) * sin(pi/2) = 2 sqrt(2)/pi
        out = eigen_curve([1.0], [1.0])
        assert out[0] == pytest.approx(2 * math.sqrt(2) / math.pi, rel=1e-14)

    def test_vanishes_at_origin(self):
        out = eigen_curve(np.random.default_rng(151).normal(size=50), [0.0, 0.5])
        assert out[0] == 0.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(157)
        coeffs = rng.normal(size=30)
        s = 0.37
        direct = sum(
            coeffs[k - 1]
            * math.sqrt(2)
            / ((k - 0.5) * math.pi)
            * math.sin((k - 0.5) * math.pi * s)
            for k in range(1, 31)
        )
        assert eigen_curve(coeffs, [s])[0] == pytest.approx(direct, rel=1e-12)


class TestMeanFn:
    """The mean shapes of `_SHAPES`, as `_shift` evaluates them on a grid."""

    def test_linear_endpoint(self):
        assert _SHAPES[MeanShape.LINEAR](1.0, 1.0) == 1.0
        assert shifts("linear", 40, [1.0])[0, -1] == 1.0

    def test_parabola_center(self):
        assert _SHAPES[MeanShape.PARABOLA](0.5, 1.0) == 1.0
        assert shifts("parabola", 40, [1.0])[0, 19] == 1.0

    def test_bump_peak_location_and_height(self):
        assert _SHAPES[MeanShape.BETA_BUMP](1 / 6, 1.0) == 1.0
        assert shifts("beta-bump", 6, [1.0])[0, 0] == 1.0  # s = 1/6 on the grid
        # on a grid through s = 1/6 the peak is exactly there, at height xi
        values = shifts("beta-bump", 360, [2.5])[0]
        assert values.max() == pytest.approx(2.5, rel=1e-15)
        assert values.argmax() == 59  # s = 60/360
        assert np.allclose(values, mean_fn("beta-bump", _grid(360), 2.5), rtol=1e-14)

    def test_none_is_zero(self):
        out = shifts("none", 7, [0.0, 3.0])
        assert out.shape == (2, 7) and np.all(out == 0.0)

    def test_scales_linearly_in_xi(self):
        out = shifts("parabola", 5, [1.0, 3.0])
        assert np.allclose(out[1], 3 * out[0], rtol=1e-15)

    def test_domain_checked(self):
        # a shape is evaluated only at the grid j/S of a checked grid size, so
        # every location lies in (0, 1] and the last is 1
        for n_points in (1, 2, 7, 361):
            s = shifts("linear", n_points, [1.0])[0]
            assert np.array_equal(s, np.arange(1, n_points + 1) / n_points)
            assert s[0] > 0.0 and s[-1] == 1.0
        with pytest.raises(InvalidInputError, match="^n_points must"):
            SimConfig(n_per_group=(3, 4), n_points=0)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -2.0])
    def test_scale_checked(self, xi):
        # `_shift` reads its scales unchecked, so the config and the grid
        # refuse what is not a finite number >= 0, for every shape
        base = SimConfig(n_per_group=(3, 4), n_points=5)
        for shape in MeanShape:
            with pytest.raises(InvalidInputError, match="^xi must"):
                SimConfig(n_per_group=(3, 4), n_points=5, mean_shape=shape, xi=xi)
        with pytest.raises(InvalidInputError, match="^xi_values must"):
            ExperimentGrid(base=base, xi_values=(0.0, xi))

    def test_every_shape_has_a_table_entry(self):
        assert set(_SHAPES) == set(MeanShape)

    @pytest.mark.parametrize("shape", list(MeanShape))
    @pytest.mark.parametrize("n_points", [40, 120, 361])
    def test_run_shift_matches_mean_fn(self, shape, n_points):
        # one unchecked call for a whole run gives each shift's closed form,
        # in the order of the scales given
        xis = (3.0, 0.0, 0.12, 0.36, 1.0, 2.88)
        out = shifts(shape, n_points, xis)
        expected = np.stack([mean_fn(shape, _grid(n_points), xi) for xi in xis])
        assert out.shape == (len(xis), n_points)
        assert np.allclose(out, expected, rtol=1e-14, atol=0.0)
        # a single-scale call, as generate_dataset makes, gives each row bit
        # for bit
        for i, xi in enumerate(xis):
            assert shifts(shape, n_points, [xi]).tobytes() == out[i : i + 1].tobytes()


class TestNoiseVector:
    """Noise curves made by `_noise_matrix` from a block of standard normal draws."""

    def test_none_is_zero_and_consumes_nothing(self, monkeypatch):
        # a noise-free replicate is its coefficient product alone, and its
        # stream is left where the coefficients end
        streams, real = [], simgen._replicate_streams

        def kept(seed, replicates):
            for rng in real(seed, replicates):
                streams.append(rng)
                yield rng

        monkeypatch.setattr(simgen, "_replicate_streams", kept)
        config = SimConfig(n_per_group=(1, 2), n_points=5, n_basis=4, seed=1)
        values = _base_values(config, [3])
        fresh = replicate_stream(1, 3)
        coeffs = fresh.standard_normal((3, 4))
        assert values.shape == (1, 3, 5)
        assert values[0].tobytes() == (coeffs @ _basis_matrix(4, 5)).tobytes()
        assert streams[-1].standard_normal() == fresh.standard_normal()

    def test_ar1_zero_rho_equals_white(self):
        for shape in ((1, 1, 50), (2, 4, 50)):
            draws = replicate_stream(2, 0).standard_normal(shape)
            a = _noise_matrix(NoiseKind.AR1, draws.copy(), 0.0)
            b = _noise_matrix(NoiseKind.WHITE, draws.copy(), 0.0)
            assert np.array_equal(a, b)

    def test_ar1_lag_one_correlation(self):
        # 200 curves filtered one at a time equal them filtered as one block
        eta = replicate_stream(3, 0).standard_normal((200, 360))
        rows = [_noise_matrix(NoiseKind.AR1, eta[i : i + 1].copy(), 0.5)[0] for i in range(200)]
        block = _noise_matrix(NoiseKind.AR1, eta.reshape(4, 50, 360).copy(), 0.5)
        draws = block.reshape(200, 360)
        assert np.array_equal(np.array(rows), draws)
        x, y = draws[:, :-1].ravel(), draws[:, 1:].ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert corr == pytest.approx(0.5, abs=0.02)

    def test_ar1_unit_marginal_variance(self):
        eta = replicate_stream(4, 0).standard_normal((300, 100)).reshape(3, 100, 100)
        draws = _noise_matrix(NoiseKind.AR1, eta, 0.5)
        assert draws.var() == pytest.approx(1.0, abs=0.03)


def one_replicate(config, replicate):
    """A replicate's unshifted values drawn from its own new `replicate_stream`."""
    rng = replicate_stream(config.seed, replicate)
    n, k, s = config.n_subjects, config.n_basis, config.n_points
    if config.coeff_dist is CoeffDist.GAUSSIAN:
        coeffs = rng.standard_normal((n, k))
    else:
        coeffs = rng.standard_t(2.0, size=(n, k))
    values = coeffs @ _basis_matrix(k, s)
    if config.noise is NoiseKind.WHITE:
        values += rng.standard_normal((n, s))
    elif config.noise is NoiseKind.AR1:
        eta = rng.standard_normal((n, s))
        eta[:, 1:] *= np.sqrt(1.0 - config.rho**2)
        values += lfilter([1.0], [1.0, -config.rho], eta, axis=1)
    return values


class TestBlockDraw:
    """`_base_values` draws a block of replicates from one re-pointed generator."""

    @pytest.mark.parametrize("coeff_dist", list(CoeffDist))
    @pytest.mark.parametrize("noise", list(NoiseKind))
    @pytest.mark.parametrize(
        "seed, replicates",
        [
            (7, [0]),
            (7, [0, 1, 2]),
            (2**70 + 3, [5, 2, 9]),
            (11, [2**64 - 1, 2**64, 2**64 + 3, 2**127 + 1]),
        ],
    )
    def test_equals_one_stream_per_replicate(self, coeff_dist, noise, seed, replicates):
        # an off-by-one counter word, a reused buffer or a skipped draw
        # changes every later value
        config = SimConfig(
            n_per_group=(3, 4),
            n_points=9,
            n_basis=6,
            coeff_dist=coeff_dist,
            noise=noise,
            rho=-0.3,
            seed=seed,
        )
        block = _base_values(config, replicates)
        expected = np.stack([one_replicate(config, r) for r in replicates])
        assert block.tobytes() == expected.tobytes()

    def test_empty_block(self):
        config = SimConfig(n_per_group=(2, 2), n_points=3, n_basis=4, noise="ar1")
        assert _base_values(config, range(4, 4)).shape == (0, 4, 3)

    def test_generate_dataset_draws_a_block_of_one(self):
        config = SimConfig(n_per_group=(2, 3), n_points=6, n_basis=5, noise="ar1", seed=8)
        for replicate in (0, 2**64 + 1):
            values = generate_dataset(config, replicate).values
            assert values.tobytes() == one_replicate(config, replicate).tobytes()


class TestGenerateDataset:
    def test_deterministic(self):
        config = SimConfig(
            n_per_group=(4, 3),
            n_points=12,
            n_basis=50,
            noise=NoiseKind.AR1,
            seed=99,
        )
        a = generate_dataset(config, replicate=7)
        b = generate_dataset(config, replicate=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.groups, b.groups)

    def test_replicates_differ(self):
        config = SimConfig(n_per_group=(3, 3), n_points=6, n_basis=20, seed=99)
        a = generate_dataset(config, replicate=0)
        b = generate_dataset(config, replicate=1)
        assert not np.array_equal(a.values, b.values)

    def test_grid_and_labels(self):
        config = SimConfig(n_per_group=(2, 3, 2), n_points=4, n_basis=5, seed=0)
        data = generate_dataset(config)
        assert np.allclose(data.grid, [0.25, 0.5, 0.75, 1.0])
        assert data.groups.tolist() == [1, 1, 2, 2, 2, 3, 3]

    def test_zero_shift_groups_exchangeable(self):
        # xi=0 applies no shift at all: group labels slice one shared pool
        config = SimConfig(
            n_per_group=(5, 5),
            n_points=8,
            n_basis=30,
            mean_shape=MeanShape.LINEAR,
            xi=0.0,
            seed=21,
        )
        data = generate_dataset(config)
        shifted = generate_dataset(
            SimConfig(
                n_per_group=(5, 5),
                n_points=8,
                n_basis=30,
                mean_shape=MeanShape.NONE,
                xi=0.0,
                seed=21,
            )
        )
        assert np.array_equal(data.values, shifted.values)

    def test_mean_injection_recovered(self):
        config = SimConfig(
            n_per_group=(2000, 2000),
            n_points=10,
            n_basis=100,
            mean_shape=MeanShape.PARABOLA,
            xi=1.5,
            noise=NoiseKind.WHITE,
            seed=33,
        )
        data = generate_dataset(config)
        group2 = data.values[data.groups == 2].mean(axis=0)
        group1 = data.values[data.groups == 1].mean(axis=0)
        target = mean_fn(MeanShape.PARABOLA, data.grid, xi=1.5)
        # each curve value has variance about 0.5 + 1; averaging 2000 and
        # differencing doubles it: sd of the estimate is about 0.028
        assert np.allclose(group2 - group1, target, atol=4 * 0.03)

    def test_pointwise_variance_matches_series(self):
        n_basis = 200
        config = SimConfig(
            n_per_group=(2500, 2500),
            n_points=4,
            n_basis=n_basis,
            noise=NoiseKind.NONE,
            seed=55,
        )
        data = generate_dataset(config)
        k = np.arange(1, n_basis + 1)
        freq = (k - 0.5) * np.pi
        for j in (0, 1, 3):  # s = 0.25, 0.5, 1.0
            s = data.grid[j]
            target = np.sum(2.0 / freq**2 * np.sin(freq * s) ** 2)
            sample = data.values[:, j].var()
            se = target * math.sqrt(2.0 / (data.n_subjects - 1))
            assert abs(sample - target) < 4 * se, j

    def test_heavy_tailed_coefficients(self):
        config = SimConfig(
            n_per_group=(50, 50),
            n_points=3,
            n_basis=1000,
            coeff_dist=CoeffDist.STUDENT_T2,
            seed=77,
        )
        rng = replicate_stream(config.seed, 0)
        draws = rng.standard_t(2.0, size=100_000)
        centered = draws - draws.mean()
        kurt = np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0
        assert kurt > 10.0
        # the generator consumes the same distribution without error
        data = generate_dataset(config)
        assert np.all(np.isfinite(data.values))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SimConfig(n_per_group=(5, 0), n_points=4)
        with pytest.raises(InvalidInputError):
            SimConfig(n_per_group=(5, 5), n_points=0)
        # neither truncated, nor left to fail inside generate_dataset
        for key, value in (
            ("seed", 1.5),
            ("seed", -1),
            ("seed", 2**128),
            ("n_points", 2.5),
            ("coeff_dist", "normal"),
            ("xi", -0.1),
            ("rho", 1.0),
            ("rho", -5.0),
            ("n_per_group", (5,)),
        ):
            with pytest.raises(InvalidInputError, match=f"^{key} must"):
                SimConfig(**{"n_per_group": (5, 5), "n_points": 4, key: value})

    @pytest.mark.parametrize(
        "sizes, product",
        [
            ({"n_per_group": (2**14, 2**14), "n_basis": 2**13}, "sum(n_per_group) x n_basis"),
            ({"n_per_group": (1, 1), "n_basis": 2**14, "n_points": 2**14}, "n_basis x n_points"),
            (
                {"n_per_group": (2**14, 2**14), "n_basis": 1, "n_points": 2**13},
                "sum(n_per_group) x n_points",
            ),
            ({"n_per_group": (2, 2), "n_basis": 9999999999999999999999}, "n_basis"),
        ],
    )
    def test_size_budget(self, sizes, product):
        # a config allocates nothing when built, so sizes past the budget
        # are refused here without any array being made
        with pytest.raises(InvalidInputError, match=re.escape(product)):
            SimConfig(**{"n_points": 1, **sizes})
        # 2^27 values in each array is the budget itself
        SimConfig(n_per_group=(2**13, 2**13), n_points=2**13, n_basis=2**13)

    def test_non_finite_xi_rejected(self):
        # an infinite shift would put NaN scores into the rank tests
        for xi in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="xi"):
                SimConfig(n_per_group=(5, 5), n_points=4, xi=xi)


class TestReplicateStream:
    def test_same_inputs_same_stream(self):
        a = replicate_stream(12345, 6).standard_normal(4)
        b = replicate_stream(12345, 6).standard_normal(4)
        assert np.array_equal(a, b)

    def test_streams_independent_of_history(self):
        # drawing from replicate 0 does not change replicate 1
        first = replicate_stream(9, 0)
        first.standard_normal(1000)
        fresh = replicate_stream(9, 1).standard_normal(3)
        assert np.array_equal(fresh, replicate_stream(9, 1).standard_normal(3))

    def test_negative_replicate_rejected(self):
        # the index fills the upper 128 bits of a 256-bit counter
        for replicate in (-1, 2**128):
            with pytest.raises(InvalidInputError):
                replicate_stream(1, replicate)
        # the seed is the 128-bit key; one outside it would alias another seed
        for seed in (-1, 2**128):
            with pytest.raises(InvalidInputError, match="seed"):
                replicate_stream(seed, 0)
