"""Tests for the architecture grammar, cost model, and space enumeration."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import archadapt as aa
from archadapt.controller import arch_onehot
from archadapt.search_space import _validate, layer_madds, unit_tables

TOY = aa.SpaceConfig(
    n_units=2,
    depth_choices=(2, 3),
    kernel_choices=(3, 5),
    expansion_choices=(3, 6),
    input_resolution=32,
    stem_channels=16,
    unit_out_channels=(16, 24),
    unit_strides=(2, 2),
)

DEFAULT = aa.SpaceConfig()


def _arch_strategy(cfg):
    unit = st.lists(
        st.tuples(st.sampled_from(cfg.kernel_choices),
                  st.sampled_from(cfg.expansion_choices)),
        min_size=min(cfg.depth_choices),
        max_size=max(cfg.depth_choices),
    ).filter(lambda u: len(u) in cfg.depth_choices)
    return st.lists(unit, min_size=cfg.n_units, max_size=cfg.n_units).map(
        lambda units: aa.Architecture(
            units=tuple(tuple(layers) for layers in units))
    )


@st.composite
def _small_spaces(draw):
    """Spaces of 1-3 units whose depth choices may make one unit's text a prefix of another's."""
    n = draw(st.integers(min_value=1, max_value=3))

    def subset(values):
        return tuple(draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True)))

    space = aa.SpaceConfig(
        n_units=n,
        depth_choices=subset((1, 2, 3)),
        kernel_choices=subset((3, 5, 7)),
        expansion_choices=subset((3, 4, 6)),
        input_resolution=draw(st.sampled_from((32, 64))),
        stem_channels=draw(st.integers(min_value=1, max_value=16)),
        unit_out_channels=tuple(draw(st.integers(min_value=1, max_value=40)) for _ in range(n)),
        unit_strides=tuple(draw(st.sampled_from((1, 2))) for _ in range(n)),
    )
    assume(aa.space_size(space) <= 3000)
    return space


class TestGrammar:
    def test_encode_example(self):
        arch = aa.Architecture(units=(((3, 3), (5, 6)), ((3, 6), (3, 3), (5, 3))))
        assert aa.encode(arch) == "k3e3,k5e6;k3e6,k3e3,k5e3"

    def test_decode_example(self):
        arch = aa.decode("k3e3,k5e6;k3e6,k3e3,k5e3", TOY)
        assert arch.units == (((3, 3), (5, 6)), ((3, 6), (3, 3), (5, 3)))

    @given(arch=_arch_strategy(TOY))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, arch):
        assert aa.decode(aa.encode(arch), TOY) == arch

    def test_bad_token_position(self):
        with pytest.raises(aa.ParseError) as exc:
            aa.decode("k3e3,x5e6", TOY)
        assert exc.value.position == 5

    def test_kernel_not_in_choices(self):
        with pytest.raises(aa.InvalidToken):
            aa.decode("k7e3,k3e3;k3e3,k3e3", TOY)

    def test_expansion_not_in_choices(self):
        with pytest.raises(aa.InvalidToken):
            aa.decode("k3e4,k3e3;k3e3,k3e3", TOY)

    def test_depth_not_in_choices(self):
        with pytest.raises(aa.InvalidToken):
            aa.decode("k3e3;k3e3,k3e3", TOY)

    def test_wrong_unit_count(self):
        with pytest.raises(aa.ShapeError):
            aa.decode("k3e3,k3e3", TOY)

    def test_empty_string(self):
        with pytest.raises(aa.ParseError):
            aa.decode("", TOY)


def _token_positions(arch):
    """(unit, layer, slot) of every kernel (slot 0) and expansion (slot 1) token."""
    return [(u, layer, slot) for u, unit in enumerate(arch.units)
            for layer in range(len(unit)) for slot in (0, 1)]


def _choices(cfg, slot):
    return (cfg.kernel_choices, cfg.expansion_choices)[slot]


def _with_token(arch, u, layer, slot, value):
    units = [list(unit) for unit in arch.units]
    pair = list(units[u][layer])
    pair[slot] = value
    units[u][layer] = tuple(pair)
    return aa.Architecture(units=tuple(tuple(unit) for unit in units))


def _message(call, *args):
    with pytest.raises(aa.InvalidToken) as exc:
        call(*args)
    return str(exc.value)


SMALL_TRAINER = aa.TrainerConfig(hidden_size=8, encoder_hidden=8, arch_embed_dim=4,
                                 shift_embed_dim=2, token_embed_dim=4)


class TestSingleWalk:
    """search_space._validate is the one walk of the grammar; the choice
    indices it returns drive scoring and the one-hot encoding."""

    @given(arch=_arch_strategy(TOY))
    @settings(max_examples=200, deadline=None)
    def test_indices_rebuild_the_arch(self, arch):
        indices = iter(_validate(arch, TOY))
        units = []
        for _ in range(TOY.n_units):
            depth = TOY.depth_choices[next(indices)]
            units.append(tuple(
                (TOY.kernel_choices[next(indices)], TOY.expansion_choices[next(indices)])
                for _ in range(depth)))
        assert next(indices, None) is None
        assert aa.Architecture(units=tuple(units)) == arch

    @given(arch=_arch_strategy(TOY))
    @settings(max_examples=50, deadline=None)
    def test_score_takes_one_decision_per_index(self, arch):
        params = aa.init_params(TOY, SMALL_TRAINER, seed=0)
        pstate = aa.embed_state(params, aa.min_arch(TOY), 1.0, SMALL_TRAINER)
        traj = aa.score(params, pstate, arch)
        assert traj.arch == arch
        assert [d.choice for d in traj.decisions] == _validate(arch, TOY)

    @given(arch=_arch_strategy(TOY))
    @settings(max_examples=100, deadline=None)
    def test_onehot_sets_one_slot_per_token(self, arch):
        vec = arch_onehot(arch, TOY)
        assert set(vec.tolist()) == {0.0, 1.0}
        assert vec.sum() == TOY.n_units * (1 + 2 * TOY.depth_choices[-1])

    @given(arch=_arch_strategy(DEFAULT), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_larger_token_costs_more(self, arch, data):
        u, layer, slot = data.draw(st.sampled_from(_token_positions(arch)))
        larger = [c for c in _choices(DEFAULT, slot) if c > arch.units[u][layer][slot]]
        assume(larger)
        value = data.draw(st.sampled_from(larger))
        assert aa.madds(_with_token(arch, u, layer, slot, value), DEFAULT) > aa.madds(arch, DEFAULT)

    @given(arch=_arch_strategy(TOY), data=st.data(), value=st.integers(0, 9))
    @settings(max_examples=100, deadline=None)
    def test_token_outside_its_set_fails_alike(self, arch, data, value):
        u, layer, slot = data.draw(st.sampled_from(_token_positions(arch)))
        assume(value not in _choices(TOY, slot))
        bad = _with_token(arch, u, layer, slot, value)
        params = aa.init_params(TOY, SMALL_TRAINER, seed=0)
        expected = _message(aa.decode, aa.encode(bad), TOY)
        assert expected == f"{('kernel', 'expansion')[slot]} {value} not in {_choices(TOY, slot)}"
        assert _message(aa.madds, bad, TOY) == expected
        assert _message(arch_onehot, bad, TOY) == expected
        assert _message(aa.embed_state, params, bad, 1.0, SMALL_TRAINER) == expected


class TestCostModel:
    def test_layer_madds_hand_value(self):
        # 28x28 input, 16 in, 16 out, k3 e3: expand 28*28*16*48,
        # depthwise 28*28*48*9, project 28*28*48*16.
        got = layer_madds(c_in=16, c_out=16, expansion=3, kernel=3, h=28, w=28)
        expected = 28 * 28 * 16 * 48 + 28 * 28 * 48 * 9 + 28 * 28 * 48 * 16
        assert got == expected == 1_542_912

    def test_full_arch_hand_value(self):
        # Walk the toy space by hand: 32x32 input, stem halves to 16x16
        # with 3->16 channels (3x3 conv), each unit halves again.
        arch = aa.decode("k3e3,k3e3;k3e3,k3e3", TOY)
        stem = 16 * 16 * 3 * 16 * 9
        u1 = (layer_madds(16, 16, 3, 3, 8, 8)
              + layer_madds(16, 16, 3, 3, 8, 8))
        u2 = (layer_madds(16, 24, 3, 3, 4, 4)
              + layer_madds(24, 24, 3, 3, 4, 4))
        expected = (stem + u1 + u2) / 1e6
        assert aa.madds(arch, TOY) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_monotone_in_kernel_and_expansion(self):
        base = aa.decode("k3e3,k3e3;k3e3,k3e3", TOY)
        bigger_k = aa.decode("k5e3,k3e3;k3e3,k3e3", TOY)
        bigger_e = aa.decode("k3e6,k3e3;k3e3,k3e3", TOY)
        deeper = aa.decode("k3e3,k3e3,k3e3;k3e3,k3e3", TOY)
        c0 = aa.madds(base, TOY)
        assert aa.madds(bigger_k, TOY) > c0
        assert aa.madds(bigger_e, TOY) > c0
        assert aa.madds(deeper, TOY) > c0

    def test_rejects_arch_outside_space(self):
        arch = aa.Architecture(units=(((7, 3), (3, 3)), ((3, 3), (3, 3))))
        with pytest.raises(aa.InvalidToken):
            aa.madds(arch, TOY)


class TestSpaceSize:
    def test_toy_size(self):
        # 4 layer types (2 kernels x 2 expansions), depths 2 or 3:
        # 4^2 + 4^3 = 80 per unit, 80^2 = 6400 total.
        assert aa.space_size(TOY) == 80**2

    def test_acceptance_toy_size(self):
        toy = aa.SpaceConfig(
            n_units=2, depth_choices=(2, 3), kernel_choices=(3, 5),
            expansion_choices=(3,), input_resolution=32,
            stem_channels=16, unit_out_channels=(16, 24), unit_strides=(2, 2))
        # Per unit 2^2 + 2^3 = 12, squared = 144.
        assert aa.space_size(toy) == 144

    def test_default_size(self):
        # Five units, |K||E|=9, depths 2..4: (81 + 729 + 6561)^5.
        assert aa.space_size(DEFAULT) == 7371**5


class TestEnumerate:
    def test_sorted_unique_complete(self):
        archs = aa.enumerate_space(TOY)
        encs = [aa.encode(a) for a in archs]
        assert len(archs) == aa.space_size(TOY)
        assert encs == sorted(encs)
        assert len(set(encs)) == len(encs)

    def test_cap(self):
        with pytest.raises(aa.SpaceTooLarge):
            aa.enumerate_space(DEFAULT)
        with pytest.raises(aa.SpaceTooLarge):
            aa.enumerate_space(TOY, cap=100)

    @settings(max_examples=40, deadline=None)
    @given(space=_small_spaces())
    def test_sorted_for_any_layout(self, space):
        encs = [aa.encode(a) for a in aa.enumerate_space(space)]
        assert encs == sorted(encs)
        assert len(set(encs)) == len(encs) == aa.space_size(space)


class TestUnitTables:
    @settings(max_examples=40, deadline=None)
    @given(space=_small_spaces())
    def test_product_is_the_enumeration_and_sums_to_madds(self, space):
        stem, tables = unit_tables(space)
        combos = list(itertools.product(*tables))
        archs = aa.enumerate_space(space)
        assert len(combos) == len(archs)
        for arch, combo in zip(archs, combos):
            assert tuple(unit for unit, _ in combo) == arch.units
            assert (stem + sum(raw for _, raw in combo)) / 1e6 == aa.madds(arch, space)

    def test_cap(self):
        with pytest.raises(aa.SpaceTooLarge):
            unit_tables(DEFAULT)


class TestExtremes:
    def test_min_arch(self):
        arch = aa.min_arch(TOY)
        assert aa.encode(arch) == "k3e3,k3e3;k3e3,k3e3"
        space = aa.enumerate_space(TOY)
        assert aa.madds(arch, TOY) == min(aa.madds(a, TOY) for a in space)

    def test_max_arch(self):
        arch = aa.max_arch(TOY)
        assert aa.encode(arch) == "k5e6,k5e6,k5e6;k5e6,k5e6,k5e6"
        space = aa.enumerate_space(TOY)
        assert aa.madds(arch, TOY) == max(aa.madds(a, TOY) for a in space)


class TestConfigValidation:
    def test_rejects_empty_choices(self):
        with pytest.raises(aa.InvalidConfig):
            aa.SpaceConfig(depth_choices=())

    def test_rejects_mismatched_unit_lists(self):
        with pytest.raises(aa.InvalidConfig):
            aa.SpaceConfig(n_units=2, unit_out_channels=(16, 24, 32),
                           unit_strides=(2, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(aa.InvalidConfig):
            aa.SpaceConfig(input_resolution=0)

    @pytest.mark.parametrize("overrides, message", [
        ({"n_units": 0}, "n_units"),
        ({"kernel_choices": (3, 5, 3)}, "duplicates"),
        ({"unit_strides": (1, 2, 2, 2)}, "unit_strides needs 5"),
        ({"unit_strides": (1, 2, 3, 2, 2)}, "strides must be 1 or 2"),
        ({"unit_out_channels": (16, 24, 0, 80, 160)}, "channels must be positive"),
        ({"stem_channels": 0}, "stem_channels"),
    ], ids=["n_units", "duplicate", "strides-length", "stride-value", "unit-channel",
            "stem-channel"])
    def test_rejects_layout(self, overrides, message):
        with pytest.raises(aa.InvalidConfig, match=message):
            aa.SpaceConfig(**overrides)
