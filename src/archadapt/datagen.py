"""Synthetic growing datasets: Gaussian class clusters on a sphere.

Class prototypes are drawn uniformly on a radius-R sphere, one seeded
stream per class, so the prototypes for c classes are always the first c
prototypes of any larger request with the same seed. Samples are drawn
around the prototypes with isotropic spread sigma.

Two growth scenarios are supported. VolumeGrowth keeps the class count
fixed and reveals an increasing fraction of a fixed sample pool.
ClassGrowth keeps per-class volume fixed and adds whole classes. In both,
every snapshot's rows are an exact prefix of the next snapshot's rows.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidData, InvalidStep
from .gaussian import load_features_csv, save_features_csv

__all__ = [
    "VOLUME_GROWTH",
    "CLASS_GROWTH",
    "SnapshotMeta",
    "Snapshot",
    "GrowthPlan",
    "gen_prototypes",
    "gen_snapshot",
    "save_snapshot",
    "load_snapshot",
    "meta_path_for",
    "default_feature_extractor",
]

VOLUME_GROWTH = "volume_growth"
CLASS_GROWTH = "class_growth"

# Sub-stream tags for seed derivation, one per independent random purpose.
_PROTO_TAG = 11
_VOLUME_TAG = 12
_CLASS_TAG = 13


@dataclass(frozen=True)
class SnapshotMeta:
    """Bookkeeping the evaluator needs about one dataset snapshot."""

    t: int
    n_classes: int
    n_samples: int
    volume_fraction: float
    max_classes: int


# Parser of each sidecar value: the field's type.
_META_TYPES = typing.get_type_hints(SnapshotMeta)


@dataclass(eq=False)
class Snapshot:
    features: np.ndarray
    labels: np.ndarray | None
    meta: SnapshotMeta


@dataclass(frozen=True)
class GrowthPlan:
    """Schedule of dataset snapshots.

    For VolumeGrowth, steps are volume fractions in (0, 1] of a pool of
    base_samples rows over n_classes fixed classes. For ClassGrowth, steps
    are class counts and base_samples is the per-class row count. Steps
    must be non-decreasing; repeated steps yield identical snapshots,
    which is useful for no-shift baselines.
    """

    scenario: str
    steps: tuple
    feature_dim: int = 8
    sigma: float = 1.0
    seed: int = 0
    base_samples: int = 1000
    n_classes: int = 10
    max_classes: int | None = None
    proto_radius: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.scenario not in (VOLUME_GROWTH, CLASS_GROWTH):
            raise InvalidConfig(f"unknown scenario {self.scenario!r}")
        if not self.steps:
            raise InvalidConfig("growth plan needs at least one step")
        if any(b < a for a, b in zip(self.steps, self.steps[1:])):
            raise InvalidConfig(f"steps must be non-decreasing: {self.steps}")
        if self.feature_dim < 1:
            raise InvalidConfig(f"feature_dim must be positive, got {self.feature_dim}")
        if self.sigma <= 0 or self.proto_radius <= 0:
            raise InvalidConfig("sigma and proto_radius must be positive")
        if self.base_samples < 2:
            raise InvalidConfig(f"base_samples must be >= 2, got {self.base_samples}")
        if self.scenario == VOLUME_GROWTH:
            if self.n_classes < 1:
                raise InvalidConfig(f"n_classes must be positive, got {self.n_classes}")
            if any(not (0.0 < s <= 1.0) for s in self.steps):
                raise InvalidConfig(f"volume fractions must lie in (0, 1]: {self.steps}")
        else:
            if any(int(s) != s or s < 1 for s in self.steps):
                raise InvalidConfig(f"class counts must be positive ints: {self.steps}")
            object.__setattr__(self, "steps", tuple(int(s) for s in self.steps))
        if self.max_classes is not None and self.max_classes < self.plan_max_classes():
            raise InvalidConfig(
                f"max_classes {self.max_classes} below largest class count"
            )

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def plan_max_classes(self) -> int:
        if self.scenario == VOLUME_GROWTH:
            return self.n_classes
        return max(self.steps)

    def normalizer(self) -> int:
        return self.max_classes if self.max_classes is not None else self.plan_max_classes()


def gen_prototypes(
    n_classes: int, feature_dim: int, seed: int, radius: float = 5.0
) -> np.ndarray:
    """Class prototypes, uniform on the radius-R sphere in R^q.

    Each class uses its own derived seed, so the first c rows are identical
    for every request of at least c classes with the same seed.
    """
    if n_classes < 1 or feature_dim < 1:
        raise InvalidConfig("n_classes and feature_dim must be positive")
    protos = np.empty((n_classes, feature_dim))
    for c in range(n_classes):
        rng = np.random.default_rng([seed, _PROTO_TAG, c])
        direction = rng.standard_normal(feature_dim)
        norm = np.linalg.norm(direction)
        while norm == 0.0:
            direction = rng.standard_normal(feature_dim)
            norm = np.linalg.norm(direction)
        protos[c] = radius * direction / norm
    return protos


def _class_block(plan: GrowthPlan, protos: np.ndarray, c: int) -> np.ndarray:
    rng = np.random.default_rng([plan.seed, _CLASS_TAG, c])
    return protos[c] + plan.sigma * rng.standard_normal((plan.base_samples, plan.feature_dim))


def gen_snapshot(plan: GrowthPlan, step_index: int) -> Snapshot:
    """Materialize one snapshot of the plan.

    Rows of step i are an exact prefix of the rows of any step j >= i.
    Raises InvalidStep for an index outside the plan.
    """
    if not (0 <= step_index < plan.n_steps):
        raise InvalidStep(f"step {step_index} outside plan of {plan.n_steps} steps")

    if plan.scenario == VOLUME_GROWTH:
        protos = gen_prototypes(plan.n_classes, plan.feature_dim, plan.seed, plan.proto_radius)
        labels_full = np.arange(plan.base_samples) % plan.n_classes
        rng = np.random.default_rng([plan.seed, _VOLUME_TAG])
        noise = plan.sigma * rng.standard_normal((plan.base_samples, plan.feature_dim))
        n = int(round(plan.steps[step_index] * plan.base_samples))
        n = max(n, 1)
        features = protos[labels_full[:n]] + noise[:n]
        labels = labels_full[:n]
        meta = SnapshotMeta(
            t=step_index,
            n_classes=int(np.unique(labels).size),
            n_samples=n,
            volume_fraction=float(plan.steps[step_index]),
            max_classes=plan.normalizer(),
        )
        return Snapshot(features=features, labels=labels, meta=meta)

    n_classes = int(plan.steps[step_index])
    protos = gen_prototypes(n_classes, plan.feature_dim, plan.seed, plan.proto_radius)
    blocks = [_class_block(plan, protos, c) for c in range(n_classes)]
    features = np.vstack(blocks)
    labels = np.repeat(np.arange(n_classes), plan.base_samples)
    meta = SnapshotMeta(
        t=step_index,
        n_classes=n_classes,
        n_samples=features.shape[0],
        volume_fraction=1.0,
        max_classes=plan.normalizer(),
    )
    return Snapshot(features=features, labels=labels, meta=meta)


def meta_path_for(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta")


def save_snapshot(snapshot: Snapshot, csv_path) -> Path:
    """Write features as CSV plus a key=value sidecar; returns the sidecar path."""
    save_features_csv(csv_path, snapshot.features)
    sidecar = meta_path_for(csv_path)
    lines = [f"{f.name}={getattr(snapshot.meta, f.name)}" for f in fields(SnapshotMeta)]
    sidecar.write_text("\n".join(lines) + "\n")
    return sidecar


def load_snapshot(csv_path, meta_path=None) -> Snapshot:
    """Read a snapshot back; labels are not stored and come back as None."""
    features = load_features_csv(csv_path)
    sidecar = Path(meta_path) if meta_path is not None else meta_path_for(csv_path)
    if not sidecar.exists():
        raise InvalidData(f"missing snapshot meta file {sidecar}")
    values = {}
    for lineno, line in enumerate(sidecar.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidData(f"{sidecar}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    try:
        meta = SnapshotMeta(
            **{f.name: _META_TYPES[f.name](values[f.name]) for f in fields(SnapshotMeta)}
        )
    except KeyError as exc:
        raise InvalidData(f"{sidecar}: missing meta key {exc}") from exc
    if meta.n_samples != features.shape[0]:
        raise InvalidData(
            f"{sidecar}: n_samples {meta.n_samples} does not match "
            f"{features.shape[0]} CSV rows"
        )
    return Snapshot(features=features, labels=None, meta=meta)


def default_feature_extractor(snapshot: Snapshot) -> np.ndarray:
    """Identity feature hook; a learned extractor can be swapped in."""
    return snapshot.features
