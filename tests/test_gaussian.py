"""Tests for Gaussian summaries and the distance zoo."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import archadapt as aa
from archadapt import gaussian
from archadapt.gaussian import sqrt_spd


def _summary(mean, cov, n=10):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return aa.GaussianSummary(mean=mean, cov=cov, n_samples=n)


@st.composite
def _summary_pairs(draw, max_dim=5):
    """Two Gaussians of one random dimension, covariances A A^T + 0.1 I."""
    q = draw(st.integers(min_value=1, max_value=max_dim))
    entries = st.floats(min_value=-3.0, max_value=3.0,
                        allow_nan=False, allow_infinity=False)

    def one():
        mean = draw(st.lists(entries, min_size=q, max_size=q))
        a = np.array(draw(st.lists(entries, min_size=q * q, max_size=q * q)))
        a = a.reshape(q, q)
        return _summary(mean, a @ a.T + 0.1 * np.eye(q))

    return one(), one()


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


@st.composite
def _plan_prefixes(draw):
    """The last snapshot of a small plan of either scenario, and prefix lengths."""
    scenario = draw(st.sampled_from([aa.VOLUME_GROWTH, aa.CLASS_GROWTH]))
    q = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if scenario == aa.VOLUME_GROWTH:
        plan = aa.GrowthPlan(scenario=scenario, steps=(1.0,), feature_dim=q, seed=seed,
                             base_samples=draw(st.integers(min_value=2, max_value=300)))
    else:
        plan = aa.GrowthPlan(scenario=scenario, steps=(draw(st.integers(1, 6)),),
                             feature_dim=q, seed=seed,
                             base_samples=draw(st.integers(min_value=2, max_value=40)))
    x = aa.gen_snapshot(plan, 0).features
    cuts = draw(st.lists(st.integers(min_value=2, max_value=len(x)), min_size=1, max_size=8))
    return x, sorted(cuts)


class TestFitPrefixes:
    @settings(max_examples=60, deadline=None)
    @given(_plan_prefixes(), st.sampled_from([None, 0.0, 0.25]))
    def test_each_prefix_matches_its_own_fit(self, case, ridge):
        x, lengths = case
        fits = aa.fit_prefixes(x, lengths, ridge)
        assert len(fits) == len(lengths)
        for n, fit in zip(lengths, fits):
            alone = aa.fit_gaussian(x[:n], ridge)
            assert fit.n_samples == alone.n_samples == n
            for got, want in ((fit.mean, alone.mean), (fit.cov, alone.cov)):
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(got - want).max() <= 1e-12 * scale

    def test_one_prefix_is_fit_gaussian_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for n, q in ((2, 1), (50, 3), (777, 17)):
            x = rng.normal(size=(n, q)) * 4.0 + 9.0
            for ridge in (None, 0.0, 0.5):
                one = aa.fit_prefixes(x, [n], ridge)[0]
                fit = aa.fit_gaussian(x, ridge)
                assert one.mean.tobytes() == fit.mean.tobytes()
                assert one.cov.tobytes() == fit.cov.tobytes()
                assert one.n_samples == fit.n_samples

    def test_equal_lengths_share_a_summary(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        fits = aa.fit_prefixes(x, [10, 10, 30])
        assert fits[0] is fits[1]
        assert aa.wasserstein2_gaussian(fits[1], fits[0]) == 0.0

    def test_rows_past_the_last_length_are_not_read(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        x[20:] = np.nan
        assert aa.fit_prefixes(x, [20])[0].n_samples == 20

    @pytest.mark.parametrize("lengths, error", [
        ([10, 5], aa.InvalidData),
        ([5, 31], aa.DimensionMismatch),
        ([1, 10], aa.DegenerateInput),
        ([], aa.InvalidData),
    ])
    def test_bad_lengths(self, lengths, error):
        with pytest.raises(error):
            aa.fit_prefixes(np.zeros((30, 2)), lengths)

    def test_non_finite_in_a_later_block(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        x[25, 1] = np.inf
        with pytest.raises(aa.InvalidData):
            aa.fit_prefixes(x, [10, 20, 30])

    def test_negative_ridge(self):
        with pytest.raises(aa.InvalidData):
            aa.fit_prefixes(np.zeros((30, 2)), [10], ridge=-1.0)

    @pytest.mark.parametrize("lengths", [[10, 25, 40, 60], [2, 60], [60]])
    def test_block_stats_made_out_of_order_merge_to_the_same_bits(self, lengths):
        # A block's stats need no other block, so who makes them, and when,
        # cannot change the fits as long as they are merged in row order.
        x = np.random.default_rng(6).normal(size=(60, 4)) * 3.0 + 7.0
        starts = [0, *lengths[:-1]]
        stats = {n: gaussian._block_stats(x[n:end]) for n, end in reversed(list(zip(starts, lengths)))}
        state, merged = None, []
        for n, end in zip(starts, lengths):
            state, fit = gaussian._merged_fit(state, end, stats[n])
            merged.append((fit.mean.tobytes(), fit.cov.tobytes(), fit.n_samples))
        assert merged == [(f.mean.tobytes(), f.cov.tobytes(), f.n_samples)
                          for f in aa.fit_prefixes(x, lengths)]

    @pytest.mark.parametrize("shape", [(30,), (2, 15, 1), (30, 0)])
    def test_not_a_2d_matrix(self, shape):
        with pytest.raises(aa.DimensionMismatch, match="2-D"):
            aa.fit_prefixes(np.zeros(shape), [10])


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

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(aa.DimensionMismatch, match="square"):
            sqrt_spd(np.ones(shape))


class TestWasserstein:
    @settings(max_examples=60, deadline=None)
    @given(_summary_pairs())
    def test_given_root_is_the_public_form_bit_for_bit(self, pair):
        g1, g2 = pair
        got = gaussian._w2_given_root(g1, g2, sqrt_spd(g2.cov))
        assert np.float64(got).tobytes() == np.float64(aa.wasserstein2_gaussian(g1, g2)).tobytes()

    def test_identical_is_zero(self):
        g = _summary([0.0, 0.0], np.eye(2))
        assert aa.wasserstein2_gaussian(g, g) == 0.0
        # A fitted snapshot: the matrix roots leave roundoff in the trace
        # term, which must not read as shift.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.2,))
        fit = aa.fit_gaussian(aa.gen_snapshot(plan, 0).features)
        assert aa.wasserstein2_gaussian(fit, fit) == 0.0

    def test_steps_rounding_to_the_same_rows_are_zero(self):
        # 0.2 and 0.2004 of 1000 rows both round to the same 200 rows.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.2, 0.2004),
                             base_samples=1000)
        fits = [aa.fit_gaussian(aa.gen_snapshot(plan, i).features) for i in range(2)]
        assert aa.wasserstein2_gaussian(fits[1], fits[0]) == 0.0
        assert aa.wasserstein2_gaussian(fits[0], fits[1]) == 0.0

    def test_small_real_shift_is_not_snapped(self):
        # A mean gap far below the trace-term floor is kept.
        g1 = _summary([0.0, 0.0], 100.0 * np.eye(2))
        g2 = _summary([1e-6, 0.0], 100.0 * np.eye(2))
        assert aa.wasserstein2_gaussian(g1, g2) == pytest.approx(1e-12, rel=1e-6)

    @pytest.mark.parametrize("q", [2, 8])
    def test_ill_conditioned_swapped_axes(self, q):
        # Eigenvalues 1e4 .. 1e-4 on shared axes, in opposite order: the
        # product root2 @ cov1 @ root2 is about I, but its rounding leaves
        # an asymmetry near the sqrt_spd check, which must not reject it.
        if q == 2:
            c = np.sqrt(0.5)
            axes = np.array([[c, -c], [c, c]])
        else:
            axes, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((q, q)))
        ev = np.logspace(4, -4, q)

        def spd(e):
            cov = (axes * e) @ axes.T
            return (cov + cov.T) / 2.0

        g1, g2 = _summary(np.zeros(q), spd(ev[::-1])), _summary(np.zeros(q), spd(ev))
        # Commuting covariances: W2^2 = sum (sqrt a_i - sqrt b_i)^2.
        want = float(np.sum((np.sqrt(ev) - np.sqrt(ev[::-1])) ** 2))
        assert aa.wasserstein2_gaussian(g1, g2) == pytest.approx(want, rel=1e-9)

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

    @given(pair=_summary_pairs())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_nonnegative(self, pair):
        g1, g2 = pair
        d12 = aa.wasserstein2_gaussian(g1, g2)
        d21 = aa.wasserstein2_gaussian(g2, g1)
        assert d12 >= 0.0 and d21 >= 0.0
        # The absolute floor is the roundoff scale of the trace term.
        floor = 2e-12 * (np.trace(g1.cov) + np.trace(g2.cov))
        assert d12 == pytest.approx(d21, rel=1e-9, abs=floor)


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

    @given(pair=_summary_pairs(max_dim=3),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mirrored_sampling_is_exactly_symmetric(self, pair, seed):
        g1, g2 = pair
        a = aa.js_divergence_mc(g1, g2, n_samples=500, seed=seed)
        assert a == aa.js_divergence_mc(g2, g1, n_samples=500, seed=seed)
        assert 0.0 <= a <= 1.0

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

    @staticmethod
    def _overlapping_pair(q):
        rng = np.random.default_rng(q)
        a, b = rng.standard_normal((2, q, q)) / np.sqrt(q)
        g1 = _summary(rng.standard_normal(q), a @ a.T + np.eye(q))
        return g1, _summary(g1.mean + 0.3 * rng.standard_normal(q), b @ b.T + np.eye(q))

    @staticmethod
    def _pushed_through_reference(g1, g2, n_samples, seed):
        """The estimate with each draw pushed through its Gaussian and both
        log-densities taken by inverse Cholesky factors, term by term."""
        l1, l2 = np.linalg.cholesky(g1.cov), np.linalg.cholesky(g2.cov)
        z = np.random.default_rng(seed).standard_normal((n_samples, g1.dim))
        ln2 = np.log(2.0)

        def log_density(x, g, chol):
            sol = (x - g.mean) @ np.linalg.inv(chol).T
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            return -0.5 * (np.sum(sol * sol, axis=1) + logdet + g.dim * np.log(2.0 * np.pi))

        def term(x, own, l_own, other, l_other):
            lp_own, lp_other = log_density(x, own, l_own), log_density(x, other, l_other)
            return float(np.mean(lp_own - (np.logaddexp(lp_own, lp_other) - ln2))) / ln2

        t1 = term(g1.mean + z @ l1.T, g1, l1, g2, l2)
        t2 = term(g2.mean + z @ l2.T, g2, l2, g1, l1)
        return float(np.clip(0.5 * (t1 + t2), 0.0, 1.0))

    @pytest.mark.parametrize("q", [1, 4, 32, 96])
    def test_whitened_coordinates_match_pushed_through_draws(self, q):
        g1, g2 = self._overlapping_pair(q)
        for seed in range(3):
            expected = self._pushed_through_reference(g1, g2, 2000, seed)
            assert 0.0 < expected < 1.0
            got = aa.js_divergence_mc(g1, g2, n_samples=2000, seed=seed)
            assert got == pytest.approx(expected, rel=1e-12, abs=0)

    @staticmethod
    def _whole_array_reference(g1, g2, n_samples, seed):
        """The estimate with every draw taken and pushed through in one array."""
        q = g1.dim
        l1, l2 = np.linalg.cholesky(g1.cov), np.linalg.cholesky(g2.cov)
        z = np.random.default_rng(seed).standard_normal((n_samples, q))
        maha_own = np.sum(z * z, axis=1)
        ln2 = float(np.log(2.0))

        def log_density(maha, chol):
            return -0.5 * (maha + 2.0 * np.sum(np.log(np.diag(chol))) + q * np.log(2.0 * np.pi))

        def expected_log_ratio(own, l_own, other, l_other):
            w = np.linalg.solve(l_other, own.mean - other.mean) + z @ np.linalg.solve(l_other, l_own).T
            lp_own = log_density(maha_own, l_own)
            lp_other = log_density(np.sum(w * w, axis=1), l_other)
            lp_mix = np.logaddexp(lp_own, lp_other) - ln2
            return float(np.mean(lp_own - lp_mix)) / ln2

        term1 = expected_log_ratio(g1, l1, g2, l2)
        term2 = expected_log_ratio(g2, l2, g1, l1)
        return float(np.clip(0.5 * (term1 + term2), 0.0, 1.0))

    @pytest.mark.parametrize("q", [1, 3, 96])
    def test_row_blocks_equal_one_whole_array_pass(self, q):
        g1, g2 = self._overlapping_pair(q)
        block = max(1, gaussian._JS_BLOCK_FLOATS // q)
        for n_samples in (1, block - 1, block, block + 1, 4000):
            for seed in range(2):
                expected = self._whole_array_reference(g1, g2, n_samples, seed)
                assert aa.js_divergence_mc(g1, g2, n_samples=n_samples, seed=seed) == expected

    def test_memory_does_not_grow_with_the_sample_count(self):
        # The whole-array pass peaked at 44.5 MiB here, the streamed one at 1.7.
        g1, g2 = self._overlapping_pair(96)
        aa.js_divergence_mc(g1, g2, n_samples=10, seed=0)
        tracemalloc.start()
        try:
            aa.js_divergence_mc(g1, g2, n_samples=20000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_nonpositive_sample_count(self, n_samples):
        g = _summary([0.0], [[1.0]])
        with pytest.raises(aa.InvalidData, match="n_samples"):
            aa.js_divergence_mc(g, g, n_samples=n_samples)

    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_a_covariance_not_positive_definite(self, first):
        good, bad = _summary([0.0, 0.0], np.eye(2)), _summary([0.0, 0.0], np.diag([1.0, -1.0]))
        pair = (bad, good) if first else (good, bad)
        with pytest.raises(aa.NotSPD, match="first" if first else "second"):
            aa.js_divergence_mc(*pair, n_samples=10)

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

    @pytest.mark.filterwarnings("ignore:loadtxt")  # numpy warns of the empty file
    @pytest.mark.parametrize("text, message", [
        ("1,2\nx,3\n", "could not parse"),
        ("1,2\n3\n", "could not parse"),
        ("", "empty feature CSV"),
        ("1,2\n3,nan\n", "non-finite"),
        ("1,inf\n", "non-finite"),
    ], ids=["unparsable", "ragged", "empty", "nan", "inf"])
    def test_load_rejects(self, tmp_path, text, message):
        path = tmp_path / "features.csv"
        path.write_text(text)
        with pytest.raises(aa.InvalidData, match=message):
            aa.load_features_csv(path)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (5, 0)])  # no columns: load rejects it
    def test_save_rejects_a_matrix_not_2d(self, tmp_path, shape):
        with pytest.raises(aa.DimensionMismatch, match="2-D"):
            aa.save_features_csv(tmp_path / "features.csv", np.zeros(shape))
