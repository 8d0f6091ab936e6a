"""Inverted-MobileBlock search space: encoding, cost model, enumeration.

An architecture is a fixed number of units, each a stack of inverted
residual layers. Per layer the searchable tokens are kernel size and
expansion ratio; per unit the searchable token is depth (number of
layers). The string encoding joins layers with "," and units with ";",
one token pair per layer, e.g. "k3e3,k5e6;k7e4,k7e4,k3e3".
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import InvalidConfig, InvalidToken, ParseError, ShapeError, SpaceTooLarge

__all__ = [
    "SpaceConfig",
    "Architecture",
    "encode",
    "decode",
    "layer_madds",
    "madds",
    "space_size",
    "enumerate_space",
    "unit_tables",
    "min_arch",
    "max_arch",
]

_TOKEN_RE = re.compile(r"^k(\d+)e(\d+)$")


@dataclass(frozen=True)
class SpaceConfig:
    """Search space layout plus the fixed channel/stride schedule.

    Choice tuples are kept sorted ascending so that choice index 0 is the
    smallest option everywhere.
    """

    n_units: int = 5
    depth_choices: tuple[int, ...] = (2, 3, 4)
    kernel_choices: tuple[int, ...] = (3, 5, 7)
    expansion_choices: tuple[int, ...] = (3, 4, 6)
    input_resolution: int = 224
    stem_channels: int = 16
    unit_out_channels: tuple[int, ...] = (16, 24, 40, 80, 160)
    unit_strides: tuple[int, ...] = (1, 2, 2, 2, 2)

    def __post_init__(self):
        object.__setattr__(self, "depth_choices", tuple(sorted(self.depth_choices)))
        object.__setattr__(self, "kernel_choices", tuple(sorted(self.kernel_choices)))
        object.__setattr__(
            self, "expansion_choices", tuple(sorted(self.expansion_choices))
        )
        object.__setattr__(self, "unit_out_channels", tuple(self.unit_out_channels))
        object.__setattr__(self, "unit_strides", tuple(self.unit_strides))
        if self.n_units < 1:
            raise InvalidConfig(f"n_units must be positive, got {self.n_units}")
        for name in ("depth_choices", "kernel_choices", "expansion_choices"):
            values = getattr(self, name)
            if not values or any(v < 1 for v in values):
                raise InvalidConfig(f"{name} must be nonempty positive ints: {values}")
            if len(set(values)) != len(values):
                raise InvalidConfig(f"{name} has duplicates: {values}")
        if len(self.unit_out_channels) != self.n_units:
            raise InvalidConfig(
                f"unit_out_channels needs {self.n_units} entries, "
                f"got {len(self.unit_out_channels)}"
            )
        if len(self.unit_strides) != self.n_units:
            raise InvalidConfig(
                f"unit_strides needs {self.n_units} entries, got {len(self.unit_strides)}"
            )
        if any(s not in (1, 2) for s in self.unit_strides):
            raise InvalidConfig(f"unit strides must be 1 or 2: {self.unit_strides}")
        if self.stem_channels < 1:
            raise InvalidConfig(f"stem_channels must be positive, got {self.stem_channels}")
        halvings = 1 + self.unit_strides.count(2)  # the stem and each stride-2 unit
        if self.input_resolution < 2**halvings:
            raise InvalidConfig(
                f"input_resolution must be >= 2**{halvings} = {2**halvings}, so that no unit "
                f"has spatial size 0, got {self.input_resolution}"
            )
        if any(c < 1 for c in self.unit_out_channels):
            raise InvalidConfig(f"channels must be positive: {self.unit_out_channels}")


@dataclass(frozen=True)
class Architecture:
    """Units, each a tuple of (kernel, expansion) layer pairs."""

    units: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "units",
            tuple(tuple((int(k), int(e)) for k, e in unit) for unit in self.units),
        )

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(len(unit) for unit in self.units)


def _validate(arch: Architecture, cfg: SpaceConfig) -> list[int]:
    """Check arch against the grammar and return its choice-index sequence.

    Per unit: the depth index, then the kernel and expansion index of each
    layer. A wrong unit count raises ShapeError, a token outside its choice
    set InvalidToken.
    """
    if len(arch.units) != cfg.n_units:
        raise ShapeError(f"expected {cfg.n_units} units, got {len(arch.units)}")
    indices = []
    for u, unit in enumerate(arch.units):
        if len(unit) not in cfg.depth_choices:
            raise InvalidToken(f"unit {u} depth {len(unit)} not in {cfg.depth_choices}")
        indices.append(cfg.depth_choices.index(len(unit)))
        for k, e in unit:
            if k not in cfg.kernel_choices:
                raise InvalidToken(f"kernel {k} not in {cfg.kernel_choices}")
            if e not in cfg.expansion_choices:
                raise InvalidToken(f"expansion {e} not in {cfg.expansion_choices}")
            indices += (cfg.kernel_choices.index(k), cfg.expansion_choices.index(e))
    return indices


def _unit_text(unit) -> str:
    return ",".join(f"k{k}e{e}" for k, e in unit)


def encode(arch: Architecture) -> str:
    return ";".join(_unit_text(unit) for unit in arch.units)


def decode(text: str, cfg: SpaceConfig) -> Architecture:
    """Parse an encoding string and validate it against the space.

    Malformed tokens raise ParseError with the character position; tokens
    outside their choice set raise InvalidToken; a wrong unit count raises
    ShapeError.
    """
    units = []
    pos = 0
    for unit_text in text.split(";"):
        layers = []
        unit_pos = pos
        for token in unit_text.split(","):
            m = _TOKEN_RE.match(token)
            if m is None:
                raise ParseError(f"malformed token {token!r}", position=unit_pos)
            layers.append((int(m.group(1)), int(m.group(2))))
            unit_pos += len(token) + 1
        units.append(tuple(layers))
        pos += len(unit_text) + 1
    arch = Architecture(units=tuple(units))
    _validate(arch, cfg)
    return arch


def layer_madds(c_in: int, c_out: int, expansion: int, kernel: int, h: int, w: int) -> int:
    """Raw multiply-add count of one inverted residual layer.

    1x1 expand + depthwise conv + 1x1 project, all at output spatial h x w.
    """
    mid = expansion * c_in
    return h * w * c_in * mid + h * w * mid * kernel * kernel + h * w * mid * c_out


def _stem_madds(cfg: SpaceConfig) -> int:
    # Fixed 3x3 stride-2 stem from 3 input channels.
    half = cfg.input_resolution // 2
    return half * half * 3 * cfg.stem_channels * 9


def _unit_shapes(cfg: SpaceConfig) -> list[tuple[int, int, int]]:
    """(c_in, c_out, spatial size) of each unit's first layer."""
    shapes = []
    spatial = cfg.input_resolution // 2
    c_in = cfg.stem_channels
    for c_out, stride in zip(cfg.unit_out_channels, cfg.unit_strides):
        if stride == 2:
            spatial //= 2
        shapes.append((c_in, c_out, spatial))
        c_in = c_out
    return shapes


def _unit_madds(unit, c_in: int, c_out: int, spatial: int) -> int:
    total = 0
    for k, e in unit:
        total += layer_madds(c_in, c_out, e, k, spatial, spatial)
        c_in = c_out
    return total


def madds(arch: Architecture, cfg: SpaceConfig) -> float:
    """Total multiply-adds of an architecture, in millions.

    Spatial resolution halves at the stem and at the first layer of every
    stride-2 unit. Strictly increasing in any token's depth, kernel, or
    expansion.
    """
    _validate(arch, cfg)
    total = _stem_madds(cfg)
    for unit, shape in zip(arch.units, _unit_shapes(cfg)):
        total += _unit_madds(unit, *shape)
    return total / 1e6


def _per_unit_count(cfg: SpaceConfig) -> int:
    tokens = len(cfg.kernel_choices) * len(cfg.expansion_choices)
    return sum(tokens**d for d in cfg.depth_choices)


def space_size(cfg: SpaceConfig) -> int:
    """Exact number of architectures in the space."""
    return _per_unit_count(cfg) ** cfg.n_units


_ENUMERATION_CAP = 1_000_000


def _unit_options(cfg: SpaceConfig) -> list[list[tuple]]:
    """Each unit's layer tuples, ordered so that their product runs in encoding order.

    A unit's text is followed by ";" unless it is the last, and ";" sorts
    after ",", so every unit but the last sorts by its text plus ";".
    """
    tokens = list(itertools.product(cfg.kernel_choices, cfg.expansion_choices))
    options = [layers for d in cfg.depth_choices for layers in itertools.product(tokens, repeat=d)]
    inner = sorted(options, key=lambda unit: _unit_text(unit) + ";")
    return [inner] * (cfg.n_units - 1) + [sorted(options, key=_unit_text)]


def _check_size(cfg: SpaceConfig, cap: int = _ENUMERATION_CAP) -> None:
    size = space_size(cfg)
    if size > cap:
        raise SpaceTooLarge(size, cap)


def enumerate_space(cfg: SpaceConfig, cap: int = _ENUMERATION_CAP) -> list[Architecture]:
    """All architectures, sorted lexicographically by encoding.

    Raises SpaceTooLarge (with the exact size) when the space exceeds cap.
    """
    _check_size(cfg, cap)
    return [Architecture(units=combo) for combo in itertools.product(*_unit_options(cfg))]


def unit_tables(cfg: SpaceConfig) -> tuple[int, list[list[tuple[tuple, int]]]]:
    """The stem's raw multiply-adds and, per unit, each option with its own.

    A unit's cost depends only on its own layers, since its first layer's
    input width is the previous unit's fixed output width. So
    ``madds(arch) * 1e6`` is the stem's entry plus one entry per unit, in
    exact integers, and the product of the tables, in order, runs over
    ``enumerate_space(cfg)``. Raises SpaceTooLarge as enumerate_space does
    at its default cap.
    """
    _check_size(cfg)
    tables = [
        [(unit, _unit_madds(unit, *shape)) for unit in options]
        for options, shape in zip(_unit_options(cfg), _unit_shapes(cfg))
    ]
    return _stem_madds(cfg), tables


def min_arch(cfg: SpaceConfig) -> Architecture:
    """Smallest architecture: minimum depth, kernel, and expansion."""
    layer = (cfg.kernel_choices[0], cfg.expansion_choices[0])
    return Architecture(units=tuple((layer,) * cfg.depth_choices[0] for _ in range(cfg.n_units)))


def max_arch(cfg: SpaceConfig) -> Architecture:
    """Largest architecture: maximum depth, kernel, and expansion."""
    layer = (cfg.kernel_choices[-1], cfg.expansion_choices[-1])
    return Architecture(units=tuple((layer,) * cfg.depth_choices[-1] for _ in range(cfg.n_units)))
