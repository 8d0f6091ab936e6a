"""Deterministic surrogate accuracy landscape and brute-force oracle.

Real accuracy-after-training is replaced by a closed-form landscape so
that search behavior can be studied and tested exactly. The landscape is
a Gaussian bump over normalized capacity whose optimum location grows
with dataset complexity, minus a penalty for missing a complexity-matched
target depth:

    V = clip(floor + a0 * exp(-(cap - c*)^2 / (2 w^2))
                   - depth_penalty * sum_u |depth_u - d*|, 0, 1)

with cap = madds(arch) / madds(reference), c* = intercept + slope * s,
d* = round(2 + 2 s), and s the complexity score of the snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .datagen import SnapshotMeta
from .errors import DivisionByZeroShift, InvalidConfig
from .search_space import (
    Architecture,
    SpaceConfig,
    encode,
    enumerate_space,
    madds,
    max_arch,
)

__all__ = [
    "SurrogateConfig",
    "Evaluator",
    "complexity_score",
    "target_capacity",
    "target_depth",
    "surrogate_accuracy",
    "make_evaluator",
    "oracle_best",
]

Evaluator = Callable[[Architecture, SnapshotMeta], float]


@dataclass(frozen=True)
class SurrogateConfig:
    peak_height: float = 0.45
    floor: float = 0.5
    bump_width: float = 0.15
    opt_intercept: float = 0.3
    opt_slope: float = 0.6
    depth_penalty: float = 0.02
    reference_arch: Architecture | None = None

    def __post_init__(self):
        for name in ("peak_height", "bump_width", "opt_intercept", "opt_slope", "depth_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.bump_width <= 0:
            raise InvalidConfig(f"bump_width must be positive, got {self.bump_width}")
        if self.peak_height < 0 or self.depth_penalty < 0:
            raise InvalidConfig("peak_height and depth_penalty must be nonnegative")
        if not (0.0 <= self.floor <= 1.0):
            raise InvalidConfig(f"floor must lie in [0, 1], got {self.floor}")


def complexity_score(meta: SnapshotMeta) -> float:
    """Scalar dataset complexity in [0, 1].

    Half from the volume fraction, half from the log class ratio, so both
    growth scenarios move the score.
    """
    if meta.max_classes < 2:
        raise InvalidConfig(f"max_classes must be >= 2, got {meta.max_classes}")
    if meta.n_classes < 1:
        raise InvalidConfig(f"n_classes must be >= 1, got {meta.n_classes}")
    class_term = math.log2(meta.n_classes) / math.log2(meta.max_classes)
    s = 0.5 * meta.volume_fraction + 0.5 * class_term
    return min(max(s, 0.0), 1.0)


def target_capacity(s: float, cfg: SurrogateConfig) -> float:
    return cfg.opt_intercept + cfg.opt_slope * s


def target_depth(s: float) -> int:
    # round half up, so the target moves at s = 0.25 and 0.75 exactly
    return int(math.floor(2.0 + 2.0 * s + 0.5))


def _reference_madds(cfg: SurrogateConfig, space: SpaceConfig) -> float:
    ref = cfg.reference_arch if cfg.reference_arch is not None else max_arch(space)
    return madds(ref, space)


def _value(arch: Architecture, cost: float, ref_cost: float, s: float, cfg: SurrogateConfig) -> float:
    """V of an architecture priced at cost MAdds, at complexity score s."""
    cap = cost / ref_cost
    c_star = target_capacity(s, cfg)
    d_star = target_depth(s)
    bump = cfg.peak_height * math.exp(-((cap - c_star) ** 2) / (2.0 * cfg.bump_width**2))
    depth_miss = sum(abs(d - d_star) for d in arch.depths)
    v = cfg.floor + bump - cfg.depth_penalty * depth_miss
    return min(max(v, 0.0), 1.0)


def surrogate_accuracy(
    arch: Architecture,
    meta: SnapshotMeta,
    cfg: SurrogateConfig,
    space: SpaceConfig,
    ref_cost: float | None = None,
) -> float:
    """V of arch on the snapshot; ref_cost, if given, is the reference's MAdds."""
    cost = madds(arch, space)
    ref_cost = _reference_madds(cfg, space) if ref_cost is None else ref_cost
    return _value(arch, cost, ref_cost, complexity_score(meta), cfg)


def make_evaluator(cfg: SurrogateConfig, space: SpaceConfig) -> Evaluator:
    """surrogate_accuracy bound to cfg and space; prices the reference once."""
    ref_cost = _reference_madds(cfg, space)

    def evaluate(arch: Architecture, meta: SnapshotMeta) -> float:
        return surrogate_accuracy(arch, meta, cfg, space, ref_cost)

    return evaluate


def oracle_best(
    space: SpaceConfig,
    meta: SnapshotMeta,
    cfg: SurrogateConfig,
    lam: float = 0.0,
    shift: float = 1.0,
) -> tuple[Architecture, float, float]:
    """Exhaustive maximizer of the reward objective V - (lam/shift) * madds.

    With lam = 0 this is the raw accuracy maximizer. Ties go to the lower
    MAdds architecture and then to the lexicographically smaller encoding.
    Returns (arch, V, madds).
    """
    if lam != 0.0 and shift <= 0.0:
        raise DivisionByZeroShift(f"shift must be positive when lam != 0, got {shift}")
    ref_cost = _reference_madds(cfg, space)
    s = complexity_score(meta)
    best = None
    # enumeration is sorted by encoding, so first-seen wins lexicographic ties
    for arch in enumerate_space(space):
        cost = madds(arch, space)
        v = _value(arch, cost, ref_cost, s, cfg)
        score = v - (lam / shift) * cost if lam != 0.0 else v
        key = (score, -cost)
        if best is None or key > best[0]:
            best = (key, arch, v, cost)
    return best[1], best[2], best[3]
