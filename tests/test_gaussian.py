"""Tests for Gaussian summaries and the distance zoo."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import archadapt as aa
from archadapt.gaussian import sqrt_spd


def _summary(mean, cov, n=10):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return aa.GaussianSummary(mean=mean, cov=cov, n_samples=n)


class TestFit:
    def test_mle_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        g = aa.fit_gaussian(x, ridge=0.0)
        assert np.allclose(g.mean, x.mean(axis=0))
        centered = x - x.mean(axis=0)
        assert np.allclose(g.cov, centered.T @ centered / 50)
        assert g.n_samples == 50

    def test_equality_is_a_bool(self):
        # Array fields make field-wise == ambiguous, so summaries compare
        # by identity.
        g = aa.fit_gaussian(np.random.default_rng(0).normal(size=(20, 2)))
        copy = aa.GaussianSummary(mean=g.mean.copy(), cov=g.cov.copy(), n_samples=g.n_samples)
        assert (g == copy) is False
        assert (g == g) is True

    def test_default_ridge_scales_with_trace(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 4))
        bare = aa.fit_gaussian(x, ridge=0.0)
        ridged = aa.fit_gaussian(x)
        expected = 1e-6 * np.trace(bare.cov) / 4
        assert np.allclose(ridged.cov, bare.cov + expected * np.eye(4))

    def test_too_few_rows(self):
        with pytest.raises(aa.DegenerateInput):
            aa.fit_gaussian(np.zeros((1, 3)))

    def test_non_finite(self):
        x = np.zeros((5, 2))
        x[3, 1] = np.nan
        with pytest.raises(aa.InvalidData):
            aa.fit_gaussian(x)

    def test_recovers_sampled_moments(self):
        # Wide tolerances: moment error shrinks like 1/sqrt(N).
        rng = np.random.default_rng(7)
        mean = np.array([1.0, -2.0, 0.5])
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        x = rng.multivariate_normal(mean, cov, size=20000)
        g = aa.fit_gaussian(x, ridge=0.0)
        assert np.abs(g.mean - mean).max() < 0.05
        assert np.abs(g.cov - cov).max() < 0.1


class TestSqrtSpd:
    def test_identity(self):
        assert np.allclose(sqrt_spd(np.eye(3)), np.eye(3))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        root = sqrt_spd(spd)
        err = np.linalg.norm(root @ root - spd) / np.linalg.norm(spd)
        assert err <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(aa.NotSPD):
            sqrt_spd(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(aa.NotSPD):
            sqrt_spd(m)


class TestWasserstein:
    def test_identical_is_zero(self):
        g = _summary([0.0, 0.0], np.eye(2))
        assert aa.wasserstein2_gaussian(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_only(self):
        # Equal covariances: W2^2 reduces to the squared mean distance.
        g1 = _summary([0.0, 0.0], np.eye(2))
        g2 = _summary([1.0, 0.0], np.eye(2))
        assert aa.wasserstein2_gaussian(g1, g2) == pytest.approx(1.0, abs=1e-10)

    def test_mean_and_scale(self):
        # Diagonal case: sum of squared mean gaps plus (sqrt(s1)-sqrt(s2))^2
        # per axis. Means 3 apart, variances 1 and 4 on both axes:
        # 9 + 2*(2-1)^2 = 11... use the simpler 1-D style pair instead.
        g1 = _summary([0.0], [[1.0]])
        g2 = _summary([3.0], [[4.0]])
        assert aa.wasserstein2_gaussian(g1, g2) == pytest.approx(10.0, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        g1 = _summary(rng.normal(size=3), a @ a.T + np.eye(3))
        b = rng.normal(size=(3, 3))
        g2 = _summary(rng.normal(size=3), b @ b.T + np.eye(3))
        d12 = aa.wasserstein2_gaussian(g1, g2)
        d21 = aa.wasserstein2_gaussian(g2, g1)
        assert d12 == pytest.approx(d21, rel=1e-9, abs=1e-12)

    def test_dimension_mismatch(self):
        g1 = _summary([0.0], [[1.0]])
        g2 = _summary([0.0, 0.0], np.eye(2))
        with pytest.raises(aa.DimensionMismatch):
            aa.wasserstein2_gaussian(g1, g2)

    @given(
        shift=st.floats(min_value=-5.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False),
        scale=st.floats(min_value=0.2, max_value=5.0,
                        allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_1d_closed_form(self, shift, scale):
        g1 = _summary([0.0], [[1.0]])
        g2 = _summary([shift], [[scale**2]])
        expected = shift**2 + (scale - 1.0) ** 2
        got = aa.wasserstein2_gaussian(g1, g2)
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            q = int(rng.integers(1, 6))
            a = rng.normal(size=(q, q))
            b = rng.normal(size=(q, q))
            g1 = _summary(rng.normal(size=q), a @ a.T + 0.1 * np.eye(q))
            g2 = _summary(rng.normal(size=q), b @ b.T + 0.1 * np.eye(q))
            assert aa.wasserstein2_gaussian(g1, g2) >= 0.0


class TestJS:
    def test_identical_near_zero(self):
        g = _summary([0.0, 1.0], [[1.0, 0.2], [0.2, 2.0]])
        js = aa.js_divergence_mc(g, g, n_samples=10000, seed=0)
        assert js <= 0.01

    def test_disjoint_saturates(self):
        g1 = _summary([0.0], [[1.0]])
        g2 = _summary([60.0], [[1.0]])
        js = aa.js_divergence_mc(g1, g2, n_samples=10000, seed=0)
        assert js >= 0.99
        assert js <= 1.0

    def test_swap_symmetry(self):
        g1 = _summary([0.0, 0.0], np.eye(2))
        g2 = _summary([2.0, -1.0], [[1.5, 0.4], [0.4, 0.8]])
        a = aa.js_divergence_mc(g1, g2, n_samples=10000, seed=42)
        b = aa.js_divergence_mc(g2, g1, n_samples=10000, seed=42)
        assert abs(a - b) <= 0.02

    def test_1d_quadrature_oracle(self):
        # Independent route: numerical integration of the JS integrand.
        scipy_integrate = pytest.importorskip("scipy.integrate")
        from scipy.stats import norm

        mu, sigma = 1.5, 2.0
        p = norm(loc=0.0, scale=1.0)
        q = norm(loc=mu, scale=sigma)

        def integrand(x):
            px, qx = p.pdf(x), q.pdf(x)
            mx = 0.5 * (px + qx)
            out = np.zeros_like(x)
            mask_p = px > 0
            out[mask_p] += 0.5 * px[mask_p] * np.log(px[mask_p] / mx[mask_p])
            mask_q = qx > 0
            out[mask_q] += 0.5 * qx[mask_q] * np.log(qx[mask_q] / mx[mask_q])
            return out

        grid, err = scipy_integrate.quad(
            lambda x: integrand(np.array([x]))[0], -40.0, 40.0, limit=200
        )
        expected = grid / np.log(2.0)
        assert err < 1e-8

        g1 = _summary([0.0], [[1.0]])
        g2 = _summary([mu], [[sigma**2]])
        got = aa.js_divergence_mc(g1, g2, n_samples=100000, seed=3)
        assert got == pytest.approx(expected, abs=0.01)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(23)
        for seed in range(5):
            g1 = _summary(rng.normal(size=2) * 10, np.eye(2) * 0.01)
            g2 = _summary(rng.normal(size=2) * 10, np.eye(2) * 0.01)
            js = aa.js_divergence_mc(g1, g2, n_samples=2000, seed=seed)
            assert 0.0 <= js <= 1.0


class TestSummaryValidation:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(aa.NotSPD):
            _summary([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(aa.DimensionMismatch):
            _summary([0.0, 0.0, 0.0], np.eye(2))

    def test_rejects_non_finite(self):
        cov = np.eye(2)
        cov[0, 0] = np.inf
        with pytest.raises(aa.InvalidData):
            _summary([0.0, 0.0], cov)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(12, 4))
        path = tmp_path / "features.csv"
        aa.save_features_csv(path, x)
        back = aa.load_features_csv(path)
        assert np.allclose(back, x, rtol=0, atol=1e-15)
        assert back.shape == x.shape
