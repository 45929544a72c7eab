import numpy as np
import pytest

from drtests import (
    CoeffDist,
    DoublyRankedConfig,
    FpcaResult,
    InvalidInputError,
    SimConfig,
    doubly_ranked_test,
    fpca_smooth,
    generate_dataset,
)
from tests.helpers import make_curves


class TestFpcaSmooth:
    def test_rank_one_data_exact(self):
        rng = np.random.default_rng(109)
        shape = rng.normal(size=20)
        mean = rng.normal(size=20)
        weights = rng.normal(size=12)
        values = mean + np.outer(weights, shape)
        curves = make_curves(values)
        res = fpca_smooth(curves, pve=0.99)
        assert res.components_kept == 1
        assert np.allclose(res.smoothed, values, atol=1e-10)
        assert res.pve_achieved == pytest.approx(1.0, abs=1e-12)

    def test_full_pve_returns_input_exactly(self):
        rng = np.random.default_rng(113)
        values = rng.normal(size=(7, 9))
        curves = make_curves(values)
        res = fpca_smooth(curves, pve=1.0)
        assert np.array_equal(res.smoothed, values)

    def test_simulated_curves_small_reconstruction_error(self):
        config = SimConfig(
            n_per_group=(25, 25),
            n_points=120,
            n_basis=100,
            coeff_dist=CoeffDist.GAUSSIAN,
            seed=5,
        )
        curves = generate_dataset(config)
        res = fpca_smooth(curves, pve=0.99)
        centered = curves.values - res.mean_curve
        err = np.sum((res.smoothed - curves.values) ** 2)
        total = np.sum(centered**2)
        assert err <= 0.01 * total + 1e-12
        # the discarded share is exactly the unexplained variance
        assert err == pytest.approx((1 - res.pve_achieved) * total, rel=1e-8)

    def test_pve_achieved_is_minimal_cover(self):
        rng = np.random.default_rng(127)
        values = rng.normal(size=(15, 10))
        curves = make_curves(values)
        res = fpca_smooth(curves, pve=0.7)
        assert res.pve_achieved >= 0.7
        centered = values - values.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        ratios = np.cumsum(s**2) / np.sum(s**2)
        if res.components_kept > 1:
            assert ratios[res.components_kept - 2] < 0.7

    def test_idempotent_with_spectral_gap(self):
        # re-smoothing is a no-op exactly when the last kept component
        # carries more than (1 - pve) of the kept variance; build data
        # with two dominant components followed by a sharp drop
        rng = np.random.default_rng(131)
        u = np.linalg.qr(rng.normal(size=(12, 12)))[0]
        v = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        spectrum = np.array([10.0, 6.0, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01])
        values = (u[:, :8] * spectrum) @ v.T
        curves = make_curves(values)
        once = fpca_smooth(curves, pve=0.9)
        assert once.components_kept == 2
        twice = fpca_smooth(make_curves(once.smoothed), pve=0.9)
        assert twice.components_kept == once.components_kept
        assert np.allclose(twice.smoothed, once.smoothed, atol=1e-9)

    def test_resmoothing_can_tighten_on_flat_tail(self):
        # without such a gap the renormalized ratios can cross pve one
        # component earlier, so a second pass may drop more; this is the
        # documented boundary of the no-op property
        rng = np.random.default_rng(131)
        values = rng.normal(size=(12, 8))
        once = fpca_smooth(make_curves(values), pve=0.8)
        twice = fpca_smooth(make_curves(once.smoothed), pve=0.8)
        assert twice.components_kept <= once.components_kept

    def test_groups_ignored(self):
        rng = np.random.default_rng(137)
        values = rng.normal(size=(8, 6))
        a = fpca_smooth(make_curves(values, groups=[1] * 4 + [2] * 4), pve=0.9)
        b = fpca_smooth(make_curves(values, groups=[1, 2] * 4), pve=0.9)
        assert np.array_equal(a.smoothed, b.smoothed)

    def test_constant_curves_degenerate(self):
        values = np.tile([1.0, 2.0, 3.0], (4, 1))
        curves = make_curves(values)
        res = fpca_smooth(curves, pve=0.5)
        assert np.array_equal(res.smoothed, values)
        assert res.components_kept == 1
        assert res.pve_achieved == 1.0

    @pytest.mark.parametrize("power", [520, 600, -1000])
    def test_any_power_of_two_scale_smooths_and_tests_alike(self, power):
        # squares of the raw values would overflow above |x| ~ 1e154 and
        # underflow to zero below ~1e-162
        rng = np.random.default_rng(151)
        values = rng.normal(size=(20, 30))
        values[10:] += 0.8
        config = DoublyRankedConfig(preprocess_pve=0.9)
        plain, scaled = make_curves(values), make_curves(np.ldexp(values, power))
        a, b = fpca_smooth(plain, pve=0.9), fpca_smooth(scaled, pve=0.9)
        assert (b.components_kept, b.pve_achieved) == (a.components_kept, a.pve_achieved)
        assert 1 < a.components_kept < 20
        assert np.array_equal(b.smoothed, np.ldexp(a.smoothed, power))
        assert doubly_ranked_test(scaled, config) == doubly_ranked_test(plain, config)

    def test_pve_validation(self):
        curves = make_curves(np.random.default_rng(139).normal(size=(4, 3)))
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(InvalidInputError):
                fpca_smooth(curves, pve=bad)

    def test_mean_curve_is_column_mean(self):
        rng = np.random.default_rng(149)
        values = rng.normal(size=(6, 5))
        res = fpca_smooth(make_curves(values), pve=0.9)
        assert np.allclose(res.mean_curve, values.mean(axis=0), atol=1e-14)

    @pytest.mark.parametrize(
        "field, bad",
        [("components_kept", 2.5), ("components_kept", "3"), ("pve_achieved", "0.9")],
    )
    def test_result_rejects_bad_scalars(self, field, bad):
        fields = dict(
            smoothed=np.ones((3, 2)), mean_curve=np.ones(2), components_kept=1, pve_achieved=0.9
        )
        with pytest.raises(InvalidInputError, match=f"^{field} must"):
            FpcaResult(**{**fields, field: bad})
