"""Tests for the surrogate landscape and brute-force oracle."""

import pytest

import archadapt as aa
from archadapt.datagen import SnapshotMeta
from archadapt.evaluator import surrogate_accuracy, target_capacity, target_depth

TOY = aa.SpaceConfig(
    n_units=2, depth_choices=(2, 3), kernel_choices=(3, 5),
    expansion_choices=(3,), input_resolution=32,
    stem_channels=16, unit_out_channels=(16, 24), unit_strides=(2, 2))


def _meta(s):
    # volume_fraction alone sets the score when n_classes == 1.
    return SnapshotMeta(t=0, n_classes=1, n_samples=100,
                        volume_fraction=2.0 * s, max_classes=4)


class TestComplexityScore:
    def test_half_volume_no_classes(self):
        assert aa.complexity_score(_meta(0.25)) == pytest.approx(0.25)

    def test_full_volume_full_classes(self):
        meta = SnapshotMeta(t=0, n_classes=4, n_samples=100,
                            volume_fraction=1.0, max_classes=4)
        assert aa.complexity_score(meta) == pytest.approx(1.0)

    def test_log_class_term(self):
        meta = SnapshotMeta(t=0, n_classes=2, n_samples=100,
                            volume_fraction=0.0, max_classes=4)
        # log2(2)/log2(4) = 1/2, halved again by the blend weight.
        assert aa.complexity_score(meta) == pytest.approx(0.25)

    def test_clipped_to_unit_interval(self):
        meta = SnapshotMeta(t=0, n_classes=4, n_samples=10,
                            volume_fraction=1.0, max_classes=4)
        assert 0.0 <= aa.complexity_score(meta) <= 1.0


class TestTargets:
    def test_capacity_line(self):
        cfg = aa.SurrogateConfig()
        assert target_capacity(0.0, cfg) == pytest.approx(0.3)
        assert target_capacity(0.5, cfg) == pytest.approx(0.6)
        assert target_capacity(1.0, cfg) == pytest.approx(0.9)

    def test_depth_rounds_half_up(self):
        assert target_depth(0.0) == 2
        assert target_depth(0.25) == 3
        assert target_depth(0.5) == 3
        assert target_depth(0.75) == 4
        assert target_depth(1.0) == 4


class TestSurrogate:
    def test_peak_value_at_exact_cap(self):
        # Reference the arch against itself so cap == 1, and aim the bump
        # at cap 1 via s: c* = 0.3 + 0.6 s = 1 at s = 7/6, clipped... use
        # explicit intercept instead.
        arch = aa.min_arch(TOY)
        cfg = aa.SurrogateConfig(opt_intercept=1.0, opt_slope=0.0,
                                 depth_penalty=0.0, reference_arch=arch)
        v = surrogate_accuracy(arch, _meta(0.5), cfg, TOY)
        assert v == pytest.approx(0.95, abs=1e-12)

    def test_clipped_to_unit_interval(self):
        cfg = aa.SurrogateConfig(peak_height=0.9, floor=0.8)
        for arch in aa.enumerate_space(TOY):
            v = surrogate_accuracy(arch, _meta(0.5), cfg, TOY)
            assert 0.0 <= v <= 1.0

    def test_depth_penalty_subtracts(self):
        # Kill the bump so only the depth term moves V.
        cfg = aa.SurrogateConfig(peak_height=0.0, depth_penalty=0.1)
        meta = _meta(0.5)  # d* = 3
        deep = aa.decode("k3e3,k3e3,k3e3;k3e3,k3e3,k3e3", TOY)
        shallow = aa.decode("k3e3,k3e3;k3e3,k3e3", TOY)
        v_deep = surrogate_accuracy(deep, meta, cfg, TOY)
        v_shallow = surrogate_accuracy(shallow, meta, cfg, TOY)
        assert v_deep == pytest.approx(0.5)
        assert v_shallow == pytest.approx(0.3)

    def test_optimum_tracks_complexity(self):
        # As s grows the best capacity grows, so the oracle's MAdds must
        # be non-decreasing along an s sweep.
        cfg = aa.SurrogateConfig(depth_penalty=0.0)
        costs = []
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, _, cost = aa.oracle_best(TOY, _meta(s), cfg)
            costs.append(cost)
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]


class TestOracle:
    def test_matches_exhaustive_max(self):
        cfg = aa.SurrogateConfig()
        meta = _meta(0.5)
        arch, v, cost = aa.oracle_best(TOY, meta, cfg)
        vals = [surrogate_accuracy(a, meta, cfg, TOY)
                for a in aa.enumerate_space(TOY)]
        assert v == pytest.approx(max(vals))
        assert surrogate_accuracy(arch, meta, cfg, TOY) == pytest.approx(v)
        assert aa.madds(arch, TOY) == pytest.approx(cost)

    def test_flat_landscape_tie_breaks_to_min_madds(self):
        cfg = aa.SurrogateConfig(peak_height=0.0, depth_penalty=0.0)
        arch, v, cost = aa.oracle_best(TOY, _meta(0.5), cfg)
        assert arch == aa.min_arch(TOY)
        assert v == pytest.approx(0.5)

    def test_large_lambda_prefers_min_madds(self):
        cfg = aa.SurrogateConfig()
        arch, _, _ = aa.oracle_best(TOY, _meta(0.5), cfg, lam=1e6, shift=1.0)
        assert arch == aa.min_arch(TOY)

    def test_zero_shift_with_penalty_raises(self):
        cfg = aa.SurrogateConfig()
        with pytest.raises(aa.DivisionByZeroShift):
            aa.oracle_best(TOY, _meta(0.5), cfg, lam=0.1, shift=0.0)


class TestConfigValidation:
    def test_rejects_zero_width(self):
        with pytest.raises(aa.InvalidConfig):
            aa.SurrogateConfig(bump_width=0.0)

    def test_rejects_negative_penalty(self):
        with pytest.raises(aa.InvalidConfig):
            aa.SurrogateConfig(depth_penalty=-0.1)

    def test_rejects_floor_out_of_range(self):
        with pytest.raises(aa.InvalidConfig):
            aa.SurrogateConfig(floor=1.5)
