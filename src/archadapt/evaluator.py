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

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .datagen import SnapshotMeta
from .errors import DivisionByZeroShift, InvalidConfig, InvalidData
from .search_space import (  # noqa: F401 (enumerate_space: perfbench/tracer.py wraps it here)
    Architecture,
    SpaceConfig,
    enumerate_space,
    madds,
    max_arch,
    unit_tables,
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


def _value(cost: float, depth_miss: int, ref_cost: float, s: float, cfg: SurrogateConfig) -> float:
    """V of an architecture priced at cost MAdds whose depths miss d* by depth_miss in all."""
    cap = cost / ref_cost
    c_star = target_capacity(s, cfg)
    bump = cfg.peak_height * math.exp(-((cap - c_star) ** 2) / (2.0 * cfg.bump_width**2))
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
    s = complexity_score(meta)
    d_star = target_depth(s)
    return _value(cost, sum(abs(d - d_star) for d in arch.depths), ref_cost, s, cfg)


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
    Returns (arch, V, madds). Each unit's options are priced once
    (search_space.unit_tables) and only the winner is built, so V and
    MAdds are bit for bit what surrogate_accuracy and madds give it. A
    negative or non-finite lam raises InvalidConfig; with lam != 0, a
    shift that is not positive (NaN included) raises DivisionByZeroShift
    and an infinite one InvalidData.
    """
    if not 0.0 <= lam < math.inf:
        raise InvalidConfig(f"lam must be finite and >= 0, got {lam}")
    if lam != 0.0 and not shift > 0.0:
        raise DivisionByZeroShift(f"shift must be positive when lam != 0, got {shift}")
    if lam != 0.0 and shift == math.inf:
        raise InvalidData(f"shift must be finite when lam != 0, got {shift}")
    ref_cost = _reference_madds(cfg, space)
    s = complexity_score(meta)
    d_star = target_depth(s)
    stem, tables = unit_tables(space)
    priced = [[(raw, abs(len(unit) - d_star), unit) for unit, raw in table] for table in tables]
    best = None
    # the product runs in encoding order, so first-seen wins lexicographic ties
    for combo in itertools.product(*priced):
        raw, miss = stem, 0
        for unit_raw, unit_miss, _ in combo:
            raw += unit_raw
            miss += unit_miss
        cost = raw / 1e6
        v = _value(cost, miss, ref_cost, s, cfg)
        score = v - (lam / shift) * cost if lam != 0.0 else v
        key = (score, -cost)
        if best is None or key > best[0]:
            best = (key, combo, v, cost)
    _, combo, v, cost = best
    return Architecture(units=tuple(unit for _, _, unit in combo)), v, cost
