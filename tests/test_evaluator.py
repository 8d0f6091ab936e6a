"""Tests for the surrogate landscape and brute-force oracle."""

import pytest

import archadapt as aa
from archadapt import evaluator
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

    @pytest.mark.parametrize("n_classes, max_classes", [(1, 1), (0, 4)])
    def test_rejects_class_counts_outside_range(self, n_classes, max_classes):
        meta = SnapshotMeta(t=0, n_classes=n_classes, n_samples=100,
                            volume_fraction=1.0, max_classes=max_classes)
        with pytest.raises(aa.InvalidConfig, match="classes"):
            aa.complexity_score(meta)


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


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "field", ["peak_height", "bump_width", "opt_intercept", "opt_slope", "depth_penalty"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejected(self, field, value):
        with pytest.raises(aa.InvalidConfig, match=field):
            aa.SurrogateConfig(**{field: value})


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

    @pytest.mark.parametrize("shift", [float("nan"), -1.0])
    def test_nan_or_negative_shift_with_penalty_raises(self, shift):
        # A NaN shift used to give the first architecture in encoding order.
        with pytest.raises(aa.DivisionByZeroShift):
            aa.oracle_best(TOY, _meta(0.5), aa.SurrogateConfig(), lam=0.1, shift=shift)

    def test_infinite_shift_with_penalty_raises(self):
        # lam / inf is 0, so it used to give the lam = 0 maximizer.
        with pytest.raises(aa.InvalidData, match="finite"):
            aa.oracle_best(TOY, _meta(0.5), aa.SurrogateConfig(), lam=0.1, shift=float("inf"))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1e-3])
    def test_nonfinite_or_negative_lam_raises(self, lam):
        with pytest.raises(aa.InvalidConfig, match="lam"):
            aa.oracle_best(TOY, _meta(0.5), aa.SurrogateConfig(), lam=lam, shift=1.0)


class TestOracleBruteForce:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    @pytest.mark.parametrize("reference", [None, "k3e3,k5e3;k5e3,k3e3,k3e3"])
    def test_equals_brute_force_max(self, lam, reference, tied):
        ref = aa.decode(reference, TOY) if reference is not None else None
        cfg = aa.SurrogateConfig(reference_arch=ref)
        meta, shift = _meta(0.4), 0.7
        if tied:
            # V depends on MAdds and depths only, so centering the bump on
            # this arch ties it with its twin whose last two layers swap.
            peak = aa.decode("k3e3,k3e3;k5e3,k5e3,k3e3", TOY)
            cap = aa.madds(peak, TOY) / aa.madds(ref or aa.max_arch(TOY), TOY)
            cfg = aa.SurrogateConfig(reference_arch=ref, opt_intercept=cap,
                                     opt_slope=0.0, depth_penalty=0.0)

        def rank(arch):
            v = surrogate_accuracy(arch, meta, cfg, TOY)
            cost = aa.madds(arch, TOY)
            # max of (objective, -madds), then the smaller encoding
            return (-(v - lam / shift * cost), cost, aa.encode(arch))

        ranked = sorted(aa.enumerate_space(TOY), key=rank)
        best = ranked[0]
        assert (rank(ranked[1])[:2] == rank(best)[:2]) is tied
        arch, v, cost = aa.oracle_best(TOY, meta, cfg, lam=lam, shift=shift)
        assert arch == best
        assert v == surrogate_accuracy(best, meta, cfg, TOY)
        assert cost == aa.madds(best, TOY)


class TestPricing:
    def _count_madds(self, monkeypatch):
        calls = []

        def counted(arch, space):
            calls.append(arch)
            return aa.madds(arch, space)

        monkeypatch.setattr(evaluator, "madds", counted)
        return calls

    def test_evaluator_prices_the_reference_once(self, monkeypatch):
        calls = self._count_madds(monkeypatch)
        evaluate = aa.make_evaluator(aa.SurrogateConfig(), TOY)
        assert calls == [aa.max_arch(TOY)]
        archs = aa.enumerate_space(TOY)[:5]
        values = [evaluate(a, _meta(0.5)) for a in archs]
        assert calls[1:] == archs
        assert values == [surrogate_accuracy(a, _meta(0.5), aa.SurrogateConfig(), TOY)
                          for a in archs]

    def test_oracle_prices_each_arch_once(self, monkeypatch):
        # The reference goes through madds once; every candidate is priced
        # from per-unit tables (search_space.unit_tables), none through madds.
        calls = self._count_madds(monkeypatch)
        aa.oracle_best(TOY, _meta(0.5), aa.SurrogateConfig(), lam=0.01)
        assert calls == [aa.max_arch(TOY)]


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
