"""End-to-end adaptation loop over a growing dataset.

For each pair of consecutive snapshots: fit Gaussians, measure the
squared Wasserstein shift d_t, evaluate the incumbent's accuracy drop
H_t, and only when H_t clears the gate train the controller (warm-started
from the previous round) and greedily decode the new architecture.

Every random purpose gets its own seed derived from the master seed and
a (step, purpose) tag, so runs are reproducible record for record; the
records JSON is byte-identical across repeated runs. Wall-clock timings
are volatile and therefore live in a separate timings file.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .controller import (
    TraceRow,
    TrainerConfig,
    default_bucket_edges,
    embed_state,
    greedy_decode,
    init_params,
    train,
    write_trace,
)
from .datagen import GrowthPlan, Snapshot, default_feature_extractor, gen_snapshot
from .errors import InvalidConfig
from .evaluator import SurrogateConfig, make_evaluator, oracle_best
from .gaussian import fit_gaussian, js_divergence_mc, wasserstein2_gaussian
from .gate import GateConfig, accuracy_drop, should_adapt
from .search_space import SpaceConfig, decode, encode, madds

__all__ = [
    "RunConfig",
    "AdaptationRecord",
    "derive_seed",
    "run_adaptation",
    "write_records",
    "load_records",
    "compare_distance_metrics",
    "lambda_sweep",
    "wd_ablation",
]


@dataclass(frozen=True)
class RunConfig:
    plan: GrowthPlan
    space: SpaceConfig = SpaceConfig()
    surrogate: SurrogateConfig = SurrogateConfig()
    gate: GateConfig = GateConfig()
    trainer: TrainerConfig = TrainerConfig()
    initial_arch: str = "oracle"
    master_seed: int = 0


@dataclass(frozen=True)
class AdaptationRecord:
    t: int
    shift: float
    drop: float
    adapted: bool
    prev_arch: str
    new_arch: str
    v_prev: float
    v_new: float
    madds_prev: float
    madds_new: float
    duration_s: float
    trace: tuple[TraceRow, ...]


def derive_seed(master: int, *tags) -> int:
    """Stable child seed for one (step, purpose) slot of a run."""
    parts = [int(master) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, (int, np.integer)):
            parts.append(int(tag) & 0xFFFFFFFF)
        else:
            parts.append(zlib.crc32(str(tag).encode()))
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _fit_snapshots(snapshots: list[Snapshot], feature_extractor):
    return [fit_gaussian(feature_extractor(snap)) for snap in snapshots]


def resolve_bucket_edges(trainer: TrainerConfig, shifts: list[float]) -> TrainerConfig:
    """Fill in bucket edges, log-spaced over the observed shift range."""
    if trainer.bucket_edges is not None or trainer.bucket_count < 2:
        return trainer
    positive = sorted(s for s in shifts if s > 0)
    if not positive:
        return replace(trainer, bucket_edges=default_bucket_edges(trainer.bucket_count))
    lo, hi = positive[0], positive[-1]
    if hi <= lo:
        lo, hi = lo / 10.0, lo * 10.0
    edges = np.logspace(np.log10(lo), np.log10(hi), trainer.bucket_count - 1)
    return replace(trainer, bucket_edges=tuple(edges))


def _setup(cfg: RunConfig, feature_extractor):
    """What every run over the plan starts from.

    Returns the snapshots, the consecutive shifts, the trainer config with
    its bucket edges resolved, the evaluator, the bootstrap architecture
    and the initial controller params.
    """
    plan = cfg.plan
    if plan.n_steps < 2:
        raise InvalidConfig("growth plan needs at least two steps to adapt over")
    snapshots = [gen_snapshot(plan, i) for i in range(plan.n_steps)]
    fits = _fit_snapshots(snapshots, feature_extractor)
    shifts = [wasserstein2_gaussian(fits[i], fits[i - 1]) for i in range(1, len(fits))]
    trainer = resolve_bucket_edges(cfg.trainer, shifts)
    evaluate = make_evaluator(cfg.surrogate, cfg.space)
    if cfg.initial_arch == "oracle":
        arch, _, _ = oracle_best(cfg.space, snapshots[0].meta, cfg.surrogate)
    else:
        arch = decode(cfg.initial_arch, cfg.space)
    params = init_params(cfg.space, trainer, seed=derive_seed(cfg.master_seed, 0, "init"))
    return snapshots, shifts, trainer, evaluate, arch, params


def run_adaptation(
    cfg: RunConfig,
    out_dir=None,
    feature_extractor=default_feature_extractor,
) -> list[AdaptationRecord]:
    """Run the full gate-then-adapt loop over the growth plan.

    Deterministic given the config and master seed. When out_dir is given,
    writes records.json, per-step trace CSVs, and timings.json there.
    """
    snapshots, shifts, trainer, evaluate, arch, params = _setup(cfg, feature_extractor)
    records: list[AdaptationRecord] = []
    for i in range(1, cfg.plan.n_steps):
        prev_meta = snapshots[i - 1].meta
        cur_meta = snapshots[i].meta
        shift = shifts[i - 1]
        drop = accuracy_drop(arch, prev_meta, cur_meta, evaluate)
        adapted = should_adapt(drop, cfg.gate)
        started = time.perf_counter()
        if adapted:
            step_cfg = replace(trainer, seed=derive_seed(cfg.master_seed, i, "train"))
            params, trace = train(params, arch, shift, cur_meta, evaluate, step_cfg)
            new_arch = greedy_decode(params, embed_state(params, arch, shift, step_cfg))
        else:
            new_arch = arch
            trace = []
        duration = time.perf_counter() - started
        records.append(
            AdaptationRecord(
                t=i,
                shift=float(shift),
                drop=float(drop),
                adapted=bool(adapted),
                prev_arch=encode(arch),
                new_arch=encode(new_arch),
                v_prev=float(evaluate(arch, cur_meta)),
                v_new=float(evaluate(new_arch, cur_meta)),
                madds_prev=float(madds(arch, cfg.space)),
                madds_new=float(madds(new_arch, cfg.space)),
                duration_s=duration,
                trace=tuple(trace),
            )
        )
        arch = new_arch

    if out_dir is not None:
        write_records(records, out_dir)
    return records


# Record fields kept out of records.json: wall time, and the trace, which
# goes to its own CSV.
_NOT_IN_JSON = ("duration_s", "trace")


def write_records(records: list[AdaptationRecord], out_dir) -> Path:
    """Write records.json (stable bytes), trace CSVs, and timings.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = []
    timings = {}
    for rec in records:
        trace_file = None
        if rec.adapted:
            trace_file = f"trace_t{rec.t}.csv"
            write_trace(out / trace_file, list(rec.trace))
        row = {f.name: getattr(rec, f.name) for f in fields(rec) if f.name not in _NOT_IN_JSON}
        payload.append({**row, "trace_file": trace_file})
        timings[f"step_{rec.t}"] = rec.duration_s
    path = out / "records.json"
    path.write_text(json.dumps({"records": payload}, indent=2, sort_keys=True) + "\n")
    (out / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return path


def load_records(path) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["records"]


def compare_distance_metrics(
    plan: GrowthPlan,
    base_step: int = 0,
    seeds: tuple[int, ...] = (0, 1, 2),
    n_samples: int = 20000,
) -> list[dict]:
    """Mean squared-Wasserstein and Jensen-Shannon from a base snapshot.

    Rebuilds the plan once per seed and averages both distances from the
    base snapshot to every later one.
    """
    if not (0 <= base_step < plan.n_steps):
        raise InvalidConfig(f"base_step {base_step} outside plan")
    later = [j for j in range(plan.n_steps) if j > base_step]
    wd_sums = {j: 0.0 for j in later}
    js_sums = {j: 0.0 for j in later}
    for seed in seeds:
        seeded = replace(plan, seed=seed)
        snapshots = [gen_snapshot(seeded, i) for i in range(seeded.n_steps)]
        fits = _fit_snapshots(snapshots, default_feature_extractor)
        base = fits[base_step]
        for j in later:
            wd_sums[j] += wasserstein2_gaussian(fits[j], base)
            js_sums[j] += js_divergence_mc(
                fits[j], base, n_samples=n_samples, seed=derive_seed(seed, j, "js")
            )
    return [
        {
            "step": j,
            "wd": wd_sums[j] / len(seeds),
            "js": js_sums[j] / len(seeds),
        }
        for j in later
    ]


def lambda_sweep(cfg: RunConfig, lambdas: tuple[float, ...]) -> list[dict]:
    """Train the first adaptation step once per lambda, sharing all seeds.

    Adaptation is forced (the gate is bypassed) so that every lambda sees
    the identical task; only the cost penalty differs. Returns one row per
    lambda with the greedy architecture, its V, and its MAdds.
    """
    snapshots, shifts, trainer, evaluate, arch, base_params = _setup(
        cfg, default_feature_extractor
    )
    shift = shifts[0]
    cur_meta = snapshots[1].meta
    train_seed = derive_seed(cfg.master_seed, 1, "train")

    rows = []
    for lam in lambdas:
        step_cfg = replace(trainer, lam=float(lam), seed=train_seed)
        params = base_params.copy()
        params, _ = train(params, arch, shift, cur_meta, evaluate, step_cfg)
        decoded = greedy_decode(params, embed_state(params, arch, shift, step_cfg))
        rows.append(
            {
                "lam": float(lam),
                "arch": encode(decoded),
                "v": float(evaluate(decoded, cur_meta)),
                "madds": float(madds(decoded, cfg.space)),
            }
        )
    return rows


def wd_ablation(cfg: RunConfig) -> dict[str, list[AdaptationRecord]]:
    """Paired full runs with and without the shift-scaled cost penalty.

    Both runs share the master seed, so snapshots, initial params, and all
    sampling randomness coincide; only lambda differs.
    """
    if cfg.trainer.lam <= 0:
        raise InvalidConfig("wd_ablation needs a positive trainer lam to compare against")
    with_penalty = run_adaptation(cfg)
    without = run_adaptation(replace(cfg, trainer=replace(cfg.trainer, lam=0.0)))
    return {"with": with_penalty, "without": without}
