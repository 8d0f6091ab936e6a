"""End-to-end adaptation loop over a growing dataset.

For each pair of consecutive snapshots: fit Gaussians, measure the
squared Wasserstein shift d_t, evaluate the incumbent's accuracy drop
H_t, and only when H_t clears the gate train the controller (warm-started
from the previous round) and greedily decode the new architecture.

Every random purpose gets its own seed derived from the master seed and
a (step, purpose) tag, so runs are reproducible record for record; the
records JSON is byte-identical across repeated runs. Wall-clock timings
are volatile and therefore live in a separate timings file. Each plan is
drawn once: earlier steps are read-only row-prefix views of the last one,
and one pass over the last one's rows fits every step (fit_prefixes).
"""

from __future__ import annotations

import json
import os
import threading
import time
import typing
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .controller import (
    TraceRow,
    TrainerConfig,
    _train_many,
    default_bucket_edges,
    embed_state,
    greedy_decode,
    init_params,
    train,
    write_trace,
)
from .datagen import GrowthPlan, Snapshot, default_feature_extractor, gen_snapshot, prefix_snapshot
from .errors import DimensionMismatch, DivisionByZeroShift, InvalidConfig, InvalidData
from .evaluator import SurrogateConfig, make_evaluator, oracle_best
from .gaussian import (  # noqa: F401 (fit_gaussian: perfbench/tracer.py wraps it here)
    fit_gaussian,
    fit_prefixes,
    js_divergence_mc,
    wasserstein2_gaussian,
)
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


def _snapshots(plan: GrowthPlan) -> list[Snapshot]:
    """Every step of the plan, drawn once, as read-only views of the last."""
    last = gen_snapshot(plan, plan.n_steps - 1)
    return [prefix_snapshot(last, plan, i) for i in range(plan.n_steps)]


def _fit_steps(snapshots: list[Snapshot], feature_extractor=default_feature_extractor):
    """One Gaussian fit per step, from the features of the last step.

    The extractor maps rows to rows, so step i's features are the first
    n_i rows of its output; any other row count raises DimensionMismatch.
    """
    lengths = [snap.meta.n_samples for snap in snapshots]
    features = feature_extractor(snapshots[-1])
    rows = np.shape(features)[0] if np.ndim(features) else 0
    if rows != lengths[-1]:
        raise DimensionMismatch(
            f"feature extractor returned {rows} rows for a snapshot of {lengths[-1]}"
        )
    return fit_prefixes(features, lengths)


def resolve_bucket_edges(trainer: TrainerConfig, shifts: list[float]) -> TrainerConfig:
    """Fill in bucket edges, log-spaced over the observed shift range.

    The end edges are the smallest and largest positive shifts exactly
    (a single edge is the smallest), so the smallest shift lands in
    bucket 0 and the largest in bucket bucket_count - 2 whatever the
    roundoff of the log spacing. A range too narrow for strictly
    increasing edges (one shift, or all within a few ulp) widens to
    (lo / 10, lo * 10). Where that also fails, because lo / 10 underflows
    or lo * 10 overflows, and where no shift is positive, the edges are
    default_bucket_edges.
    """
    if trainer.bucket_edges is not None or trainer.bucket_count < 2:
        return trainer
    fallback = replace(trainer, bucket_edges=default_bucket_edges(trainer.bucket_count))
    positive = sorted(s for s in shifts if s > 0)
    if not positive:
        return fallback
    for lo, hi in ((positive[0], positive[-1]), (positive[0] / 10.0, positive[0] * 10.0)):
        with np.errstate(all="ignore"):
            edges = np.logspace(np.log10(lo), np.log10(hi), trainer.bucket_count - 1)
        edges[-1] = hi
        edges[0] = lo
        if hi > lo and np.isfinite(edges).all() and np.all(edges[1:] > edges[:-1]):
            return replace(trainer, bucket_edges=tuple(edges))
    return fallback


def _setup(cfg: RunConfig, feature_extractor):
    """What every run over the plan starts from.

    Returns the snapshots, the consecutive shifts, the trainer config with
    its bucket edges resolved, the evaluator, the bootstrap architecture
    and the initial controller params.
    """
    plan = cfg.plan
    if plan.n_steps < 2:
        raise InvalidConfig("growth plan needs at least two steps to adapt over")
    snapshots = _snapshots(plan)
    fits = _fit_steps(snapshots, feature_extractor)
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
    A step whose gate fires with a zero shift raises DivisionByZeroShift
    naming the step: the reward scales the cost penalty by 1 / d_t.

    feature_extractor is called once, on the plan's last snapshot, and
    must map rows to rows without writing into ``snapshot.features`` (a
    read-only view): step i is fitted on the first n_i rows of its
    output. Another row count raises DimensionMismatch.
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
            if shift == 0.0:
                raise DivisionByZeroShift(
                    f"step {i}: the gate fired (drop {drop:g}) but the shift is 0"
                )
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
# The type each field of records.json must have; a JSON number may be an int.
_JSON_TYPES = {
    name: (int, float) if kind is float else kind
    for name, kind in typing.get_type_hints(AdaptationRecord).items()
    if name not in _NOT_IN_JSON
}


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
    """The records of a records.json; any other file raises InvalidData naming it.

    Each record must be an object holding every `AdaptationRecord` field
    that `write_records` writes, with that field's type.
    """
    try:
        with open(path) as fh:
            records = json.load(fh)["records"]
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, or no "records" key
        raise InvalidData(f"{path} is not a records.json: {exc!r}") from exc
    if not isinstance(records, list):
        raise InvalidData(f"{path} is not a records.json: \"records\" is not a list")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise InvalidData(f"{path} is not a records.json: record {i} is not an object")
        bad = [name for name, kind in _JSON_TYPES.items() if not isinstance(rec.get(name), kind)]
        if bad:
            raise InvalidData(
                f"{path} is not a records.json: record {i} lacks or mistypes {', '.join(bad)}"
            )
    return records


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_threads(fn, arg_tuples: list[tuple]) -> list:
    """[fn(*args) for args in arg_tuples], shared out over the cores.

    The calling thread and one thread per further core, up to one per
    call, each take every n-th call; with one core or one call no thread
    starts. fn must release the GIL for this to gain anything (numpy's
    draws, BLAS and LAPACK do). When calls raise, the calls past the
    lowest-index failure that have not started are skipped, and that
    failure's exception is raised, as a serial loop would raise it. An
    exception in the calling thread itself (Ctrl-C) skips every call not
    started. No thread started here is alive when this returns or raises.
    """
    n = max(1, min(len(arg_tuples), _cores()))
    results = [None] * len(arg_tuples)
    errors: dict[int, Exception] = {}
    skip_past = [len(arg_tuples)]  # calls with a higher index do not start
    lock = threading.Lock()

    def share(first: int) -> None:
        for i in range(first, len(arg_tuples), n):
            if i > skip_past[0]:
                return
            try:
                results[i] = fn(*arg_tuples[i])
            except Exception as exc:
                with lock:
                    errors[i] = exc
                    skip_past[0] = min(skip_past[0], i)
                return

    started = []
    try:
        for first in range(1, n):
            thread = threading.Thread(target=share, args=(first,))
            thread.start()
            started.append(thread)
        share(0)
        for thread in started:
            thread.join()
    except BaseException:
        skip_past[0] = -1
        for thread in started:
            thread.join()
        raise
    if errors:
        raise errors[min(errors)]
    return results


def _step_distances(fit, base, n_samples: int, js_seed: int) -> tuple[float, float]:
    return (
        wasserstein2_gaussian(fit, base),
        js_divergence_mc(fit, base, n_samples=n_samples, seed=js_seed),
    )


def compare_distance_metrics(
    plan: GrowthPlan,
    seeds: tuple[int, ...] = (0, 1, 2),
    n_samples: int = 20000,
) -> list[dict]:
    """Mean squared-Wasserstein and Jensen-Shannon from the first snapshot.

    Rebuilds the plan once per seed and averages both distances from
    step 0 to every later step. A seed's steps run in threads, up to one
    per core (_in_threads); the sums are taken in seed and step order, so
    the rows do not depend on the core count.
    """
    if not seeds:
        raise InvalidConfig("compare_distance_metrics needs at least one seed")
    sums = [[0.0, 0.0] for _ in range(1, plan.n_steps)]  # [wd, js] of steps 1, 2, ...
    for seed in seeds:
        fits = _fit_steps(_snapshots(replace(plan, seed=seed)))
        steps = [
            (fits[j], fits[0], n_samples, derive_seed(seed, j, "js"))
            for j in range(1, plan.n_steps)
        ]
        for pair, (wd, js) in zip(sums, _in_threads(_step_distances, steps)):
            pair[0] += wd
            pair[1] += js
    return [
        {"step": j, "wd": wd / len(seeds), "js": js / len(seeds)}
        for j, (wd, js) in enumerate(sums, start=1)
    ]


def lambda_sweep(cfg: RunConfig, lambdas: tuple[float, ...]) -> list[dict]:
    """Train the first adaptation step once per lambda, sharing all seeds.

    Adaptation is forced (the gate is bypassed) so that every lambda sees
    the identical task; only the cost penalty differs. The trainings share
    the initial params and the train seed, so they run in lockstep, one
    row of a tiled parameter buffer per lambda (see controller._train_many);
    each row is the one a lone training at that lambda gives. Returns one
    row per lambda with the greedy architecture, its V, and its MAdds; no
    lambdas give no rows. A zero first shift raises DivisionByZeroShift
    naming step 1, and a negative or non-finite lambda InvalidConfig.
    """
    if not lambdas:
        return []
    snapshots, shifts, trainer, evaluate, arch, base_params = _setup(
        cfg, default_feature_extractor
    )
    shift = shifts[0]
    if shift == 0.0:
        raise DivisionByZeroShift("step 1: lambda_sweep forces adaptation but the shift is 0")
    cur_meta = snapshots[1].meta
    seeds = [derive_seed(cfg.master_seed, 1, "train")] * len(lambdas)
    runs = base_params._over(np.tile(base_params.flat, (len(lambdas), 1)))
    _train_many(runs, arch, shift, cur_meta, evaluate, trainer, lambdas, seeds)

    rows = []
    for lam, flat in zip(lambdas, runs.flat):
        params = runs._over(flat)
        decoded = greedy_decode(params, embed_state(params, arch, shift, trainer))
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
