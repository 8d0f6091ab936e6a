"""Tests for synthetic growing-dataset generation."""

import numpy as np
import pytest

import archadapt as aa


def _pooled_moments(prototypes, sigma):
    """Analytic mean and covariance of an equal-weight Gaussian mixture."""
    mu = prototypes.mean(axis=0)
    centered = prototypes - mu
    cov = sigma**2 * np.eye(prototypes.shape[1])
    cov = cov + centered.T @ centered / prototypes.shape[0]
    return mu, cov


class TestPrototypes:
    def test_prefix_stability(self):
        # Growing the class count must not move earlier prototypes.
        small = aa.gen_prototypes(4, 8, seed=0)
        large = aa.gen_prototypes(10, 8, seed=0)
        assert np.array_equal(large[:4], small)

    def test_radius_scaling(self):
        unit = aa.gen_prototypes(5, 8, seed=2, radius=1.0)
        scaled = aa.gen_prototypes(5, 8, seed=2, radius=3.0)
        assert np.allclose(scaled, 3.0 * unit)

    def test_seed_sensitivity(self):
        a = aa.gen_prototypes(5, 8, seed=0)
        b = aa.gen_prototypes(5, 8, seed=1)
        assert not np.array_equal(a, b)


class TestVolumeGrowth:
    def test_nesting(self):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.2, 0.5, 1.0),
                             seed=4)
        snaps = [aa.gen_snapshot(plan, i) for i in range(3)]
        for prev, cur in zip(snaps, snaps[1:]):
            n = prev.meta.n_samples
            assert np.array_equal(cur.features[:n], prev.features[:n])
            assert np.array_equal(cur.labels[:n], prev.labels[:n])

    def test_sample_counts(self):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.2, 1.0),
                             base_samples=1000, seed=0)
        first = aa.gen_snapshot(plan, 0)
        assert first.features.shape == (200, 8)
        assert first.meta.volume_fraction == 0.2
        full = aa.gen_snapshot(plan, 1)
        assert full.features.shape == (1000, 8)
        assert np.array_equal(full.features[:200], first.features)

    def test_class_count_fixed(self):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.3, 0.9),
                             n_classes=6, seed=1)
        for i in range(2):
            snap = aa.gen_snapshot(plan, i)
            assert snap.meta.n_classes == 6
            assert set(np.unique(snap.labels)) <= set(range(6))


class TestClassGrowth:
    def test_nesting(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=4)
        snaps = [aa.gen_snapshot(plan, i) for i in range(3)]
        for prev, cur in zip(snaps, snaps[1:]):
            # Every sample of an old class must reappear unchanged.
            for c in range(prev.meta.n_classes):
                old_rows = prev.features[prev.labels == c]
                new_rows = cur.features[cur.labels == c]
                assert np.array_equal(new_rows[: len(old_rows)], old_rows)

    def test_meta_fields(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=0)
        snap = aa.gen_snapshot(plan, 1)
        assert snap.meta.n_classes == 4
        assert snap.meta.max_classes == 8
        assert snap.meta.volume_fraction == 1.0
        assert snap.meta.t == 1

    def test_distribution_shifts_more_than_volume_growth(self):
        # At matched sample counts, adding classes moves the feature
        # distribution further than adding samples of known classes.
        cg = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 8),
                           feature_dim=8, sigma=1.0, seed=3)
        cg_snaps = [aa.gen_snapshot(cg, i) for i in range(2)]
        n0, n1 = (s.meta.n_samples for s in cg_snaps)
        vg = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(n0 / n1, 1.0),
                           feature_dim=8, sigma=1.0, seed=3,
                           base_samples=n1, n_classes=2)
        vg_snaps = [aa.gen_snapshot(vg, i) for i in range(2)]

        def wd(pair):
            g0 = aa.fit_gaussian(pair[0].features)
            g1 = aa.fit_gaussian(pair[1].features)
            return aa.wasserstein2_gaussian(g0, g1)

        assert wd(cg_snaps) > wd(vg_snaps)

    def test_pooled_moments_match_analytic(self):
        # The fitted Gaussian of a big snapshot approaches the analytic
        # mixture moments: mean of prototypes, sigma^2 I plus prototype
        # scatter.
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(4,),
                             feature_dim=5, sigma=0.7, seed=9,
                             base_samples=60000)
        snap = aa.gen_snapshot(plan, 0)
        protos = aa.gen_prototypes(4, 5, seed=9, radius=plan.proto_radius)
        mu, cov = _pooled_moments(protos, 0.7)
        g = aa.fit_gaussian(snap.features, ridge=0.0)
        assert np.abs(g.mean - mu).max() < 0.05
        assert np.abs(g.cov - cov).max() < 0.15


class TestDeterminism:
    @pytest.mark.parametrize("scenario,steps", [
        (aa.VOLUME_GROWTH, (0.5, 1.0)),
        (aa.CLASS_GROWTH, (2, 4)),
    ])
    def test_same_seed_same_bytes(self, scenario, steps):
        plan = aa.GrowthPlan(scenario=scenario, steps=steps, seed=7)
        a = aa.gen_snapshot(plan, 1)
        b = aa.gen_snapshot(plan, 1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_equality_is_a_bool(self):
        # Array fields make field-wise == ambiguous, so snapshots compare
        # by identity.
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4), seed=7)
        a = aa.gen_snapshot(plan, 1)
        assert (a == aa.gen_snapshot(plan, 1)) is False
        assert (a == a) is True


class TestPlanValidation:
    def test_unknown_scenario(self):
        with pytest.raises(aa.InvalidConfig):
            aa.GrowthPlan(scenario="shrink", steps=(1, 2))

    def test_decreasing_steps(self):
        with pytest.raises(aa.InvalidConfig):
            aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(4, 2))

    def test_volume_fraction_range(self):
        with pytest.raises(aa.InvalidConfig):
            aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.5, 1.5))

    def test_class_step_exceeds_max(self):
        with pytest.raises(aa.InvalidConfig):
            aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 16),
                          max_classes=8)

    def test_repeated_step_allowed(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(4, 4))
        a = aa.gen_snapshot(plan, 0)
        b = aa.gen_snapshot(plan, 1)
        assert np.array_equal(a.features, b.features)

    def test_bad_step_index(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4))
        with pytest.raises(aa.InvalidStep):
            aa.gen_snapshot(plan, 2)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4), seed=5)
        snap = aa.gen_snapshot(plan, 1)
        path = tmp_path / "snap.csv"
        aa.save_snapshot(snap, path)
        back = aa.load_snapshot(path)
        assert np.allclose(back.features, snap.features, rtol=0, atol=1e-15)
        assert back.meta == snap.meta

    def test_meta_sidecar_exists(self, tmp_path):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(1.0,), seed=5)
        snap = aa.gen_snapshot(plan, 0)
        path = tmp_path / "snap.csv"
        aa.save_snapshot(snap, path)
        assert (tmp_path / "snap.meta").exists()

    def test_sidecar_text_is_pinned(self, tmp_path):
        # Written by the hand-listed format the sidecar had before it was
        # derived from SnapshotMeta's fields.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.3, 1.0),
                             base_samples=200, seed=5)
        sidecar = aa.save_snapshot(aa.gen_snapshot(plan, 0), tmp_path / "snap.csv")
        assert sidecar.read_text() == (
            "t=0\nn_classes=10\nn_samples=60\nvolume_fraction=0.3\nmax_classes=10\n")

    def test_sidecar_errors(self, tmp_path):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2,), base_samples=10)
        path = tmp_path / "snap.csv"
        sidecar = aa.save_snapshot(aa.gen_snapshot(plan, 0), path)
        text = sidecar.read_text()
        sidecar.write_text(text.replace("n_samples=20", "n_samples=21"))
        with pytest.raises(aa.InvalidData, match="n_samples 21 does not match 20 CSV rows"):
            aa.load_snapshot(path)
        sidecar.write_text(text.replace("max_classes=2\n", ""))
        with pytest.raises(aa.InvalidData, match="missing meta key 'max_classes'"):
            aa.load_snapshot(path)
