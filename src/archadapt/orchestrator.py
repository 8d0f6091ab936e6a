"""End-to-end adaptation loop over a growing dataset.

For each pair of consecutive snapshots: fit Gaussians, measure the
squared Wasserstein shift d_t, evaluate the incumbent's accuracy drop
H_t, and only when H_t clears the gate train the controller (warm-started
from the previous round) and greedily decode the new architecture.

Every random purpose gets its own seed derived from the master seed and
a (step, purpose) tag, so runs are reproducible record for record; the
records JSON is byte-identical across repeated runs. Wall-clock timings
are volatile and therefore live in a separate timings file. Each plan is
drawn once, one step's new rows at a time, into one array. Each step's
block of feature rows gets its mean and scatter on a thread pool of up
to one thread per core (_pool), and is merged into the step's fit in
step order on the calling thread (_drawn_fits). The identity extractor's
blocks go to the pool as their rows land, so fits and a run's shifts are
made while later rows are drawn; a custom extractor's output, made once
after the draw, is cut into the same blocks. compare_distance_metrics
queues a seed's distances once its draw is fitted, and reads them before
it draws the next seed.
The bootstrap oracle needs only step 0's meta, so it runs from the start.
No pool task waits on another's result: what several tasks share, such
as the base's Cholesky factor and the JS draws in compare_distance_metrics,
is made on the calling thread before they are queued (a fit keeps its
factor). Results are read in step order, so outputs and the first error
raised are those of a serial loop.
"""

from __future__ import annotations

import json
import os
import time
import typing
import zlib
from collections import deque
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .controller import (
    TraceRow,
    TrainerConfig,
    _train_many,
    embed_state,
    greedy_decode,
    init_params,
    resolve_bucket_edges,
    train,
    write_trace,
)
from .datagen import (
    GrowthPlan,
    Snapshot,
    default_feature_extractor,
    gen_snapshot,
    prefix_snapshot,
    snapshot_meta,
)
from .errors import DimensionMismatch, InvalidConfig, InvalidData, _check_lams, _check_seed, _checked_shift
from .evaluator import SurrogateConfig, make_evaluator, oracle_best
from .gaussian import (  # noqa: F401 (fit_gaussian, js_divergence_mc: perfbench/tracer.py wraps them here)
    _block_stats,
    _check_samples,
    _checked_lengths,
    _checked_matrix,
    _chol,
    _js_from_draws,
    _merged_fit,
    fit_gaussian,
    js_divergence_mc,
    wasserstein2_gaussian,
)
from .gate import GateConfig, accuracy_drop, should_adapt
from .search_space import SpaceConfig, _check_size, decode, encode, madds

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

    def __post_init__(self):
        _check_seed(self.master_seed)


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


def _drawn_fits(plan: GrowthPlan, pool, fitted, feature_extractor=default_feature_extractor):
    """Draw the plan once; call ``fitted(fit)`` here with each step's fit,
    in step order, as soon as it is made.

    Each step's block of new feature rows goes to the pool for its stats,
    which are merged in step order: between blocks those already done, at
    the end the rest. The identity extractor's blocks are the drawn rows,
    handed over as they land. Any other extractor is called once after the
    draw, on the read-only last snapshot; its output, checked for one row
    per row and for being 2-D (DimensionMismatch), is cut into the same
    blocks.
    """
    ends = [snapshot_meta(plan, i).n_samples for i in range(plan.n_steps)]
    _checked_lengths(ends, ends[-1])  # a first step of one row: DegenerateInput, before the draw
    queued = deque()  # (end, stats task or None for no new rows), in step order
    state = fit = None

    def merge(wait: bool):
        nonlocal state, fit
        while queued and (wait or queued[0][1] is None or queued[0][1].done()):
            end, stats = queued.popleft()
            if stats is not None:
                state, fit = _merged_fit(state, end, stats.result())
            fitted(fit)

    def landed(i, rows):
        queued.append((ends[i], pool.submit(_block_stats, rows) if len(rows) else None))
        merge(wait=False)

    identity = feature_extractor is default_feature_extractor
    last = gen_snapshot(plan, plan.n_steps - 1, on_step=landed if identity else None)
    if not identity:
        features = feature_extractor(prefix_snapshot(last, plan, plan.n_steps - 1))
        n_rows = np.shape(features)[0] if np.ndim(features) else 0
        if n_rows != ends[-1]:
            raise DimensionMismatch(f"feature extractor returned {n_rows} rows for a snapshot of {ends[-1]}")
        features = _checked_matrix(features)
        for i, (start, end) in enumerate(zip([0, *ends], ends)):
            landed(i, features[start:end])
    merge(wait=True)


def _setup(cfg: RunConfig, feature_extractor):
    """What every run over the plan starts from.

    Returns each step's meta, the consecutive shifts, the trainer config
    with its bucket edges resolved, the evaluator, the bootstrap
    architecture and the initial controller params.

    A bad initial arch, or an oracle space too large to enumerate, raises
    before anything is drawn. The oracle runs on the pool before any row
    is drawn, and each shift as soon as its two fits exist. Results are
    read in the serial order, so the values, and the error raised first,
    are a serial run's.
    """
    plan = cfg.plan
    if plan.n_steps < 2:
        raise InvalidConfig("growth plan needs at least two steps to adapt over")
    if cfg.initial_arch == "oracle":
        _check_size(cfg.space)
    else:
        arch = decode(cfg.initial_arch, cfg.space)
    metas = [snapshot_meta(plan, i) for i in range(plan.n_steps)]
    with _pool(plan) as pool:
        if cfg.initial_arch == "oracle":
            oracle = pool.submit(oracle_best, cfg.space, metas[0], cfg.surrogate)
        fits, shifts = [], []

        def fitted(fit):
            if fits:
                shifts.append(pool.submit(wasserstein2_gaussian, fit, fits[-1]))
            fits.append(fit)

        _drawn_fits(plan, pool, fitted, feature_extractor)
        shifts = [shift.result() for shift in shifts]
        trainer = resolve_bucket_edges(cfg.trainer, shifts)
        evaluate = make_evaluator(cfg.surrogate, cfg.space)
        if cfg.initial_arch == "oracle":
            arch, _, _ = oracle.result()
    params = init_params(cfg.space, trainer, seed=derive_seed(cfg.master_seed, 0, "init"))
    return metas, shifts, trainer, evaluate, arch, params


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
    output. Another row count, or an output that is not 2-D, raises
    DimensionMismatch.
    """
    metas, shifts, trainer, evaluate, arch, params = _setup(cfg, feature_extractor)
    records: list[AdaptationRecord] = []
    for i in range(1, cfg.plan.n_steps):
        prev_meta, cur_meta = metas[i - 1], metas[i]
        shift = shifts[i - 1]
        drop = accuracy_drop(arch, prev_meta, cur_meta, evaluate)
        adapted = should_adapt(drop, cfg.gate)
        started = time.perf_counter()
        if adapted:
            _checked_shift(shift, divided=True, when=f" at step {i}, where the gate fired (drop {drop:g})")
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


def _is_json_type(value, kind) -> bool:
    """isinstance, except that a JSON boolean, an int to Python, is only a bool."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


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
        bad = [name for name, kind in _JSON_TYPES.items() if not _is_json_type(rec.get(name), kind)]
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


def _pool(plan: GrowthPlan):
    """A thread pool for the plan's per-step work: up to one thread per core."""
    from concurrent.futures import ThreadPoolExecutor  # loads logging, so not at import

    return ThreadPoolExecutor(max(1, min(plan.n_steps - 1, _cores())))


def compare_distance_metrics(
    plan: GrowthPlan,
    seeds: tuple[int, ...] = (0, 1, 2),
    n_samples: int = 20000,
) -> list[dict]:
    """Mean squared-Wasserstein and Jensen-Shannon from the first snapshot.

    Rebuilds the plan once per seed and averages both distances from
    step 0 to every later step. Once a seed's plan is drawn and fitted,
    the base's Cholesky factor is made here, kept on the base fit, and each
    step's W2 goes to a thread pool of up to one thread per core. Then all
    steps of the seed share one set of n_samples standard normals for JS
    (common random numbers), drawn here from ``derive_seed(seed, "js")``,
    so step j's JS is, bit for bit, the mean over seeds of
    ``js_divergence_mc(fit_j, fit_0, n_samples, derive_seed(seed, "js"))``;
    each step's JS then goes to the pool and reads the factors the fits
    keep, so each fit is factored once. No task waits on another's result. A
    seed's results are summed, step by step and W2 before JS, before the
    next seed is drawn, so the rows and the first error raised are a
    serial loop's whatever the core count. A sample count below one, or
    a bad seed, raises before anything is drawn.
    """
    if not seeds:
        raise InvalidConfig("compare_distance_metrics needs at least one seed")
    _check_samples(n_samples)
    plans = [replace(plan, seed=seed) for seed in seeds]
    sums = [[0.0, 0.0] for _ in range(1, plan.n_steps)]  # [wd, js] of steps 1, 2, ...
    with _pool(plan) as pool:
        for seeded in plans:
            fits = []
            _drawn_fits(seeded, pool, fits.append)
            base, steps = fits[0], fits[1:]
            if steps:
                _chol(base, "cov of the first snapshot")
            w2_tasks = [pool.submit(wasserstein2_gaussian, fit, base) for fit in steps]
            z = np.random.default_rng(derive_seed(seeded.seed, "js")).standard_normal((n_samples, base.dim))
            sq = np.sum(z * z, axis=1)
            js_tasks = [pool.submit(_js_from_draws, fit, base, z, sq) for fit in steps]
            for pair, w2, js in zip(sums, w2_tasks, js_tasks):
                pair[0] += w2.result()
                pair[1] += js.result()
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
    lambdas give no rows. A negative or non-finite lambda raises
    InvalidConfig before anything is drawn, and a zero first shift
    DivisionByZeroShift naming step 1.
    """
    _check_lams(lambdas)
    if not lambdas:
        return []
    metas, shifts, trainer, evaluate, arch, base_params = _setup(cfg, default_feature_extractor)
    shift = _checked_shift(shifts[0], divided=True, when=" at step 1, where lambda_sweep forces adaptation")
    cur_meta = metas[1]
    seeds = [derive_seed(cfg.master_seed, 1, "train")] * len(lambdas)
    runs = base_params._over(np.tile(base_params.flat, (len(lambdas), 1)))
    _train_many(runs, arch, shift, cur_meta, evaluate, trainer, lambdas, seeds)

    rows = []
    pstate = embed_state(runs, arch, shift, trainer)
    for lam, flat in zip(lambdas, runs.flat):
        decoded = greedy_decode(runs._over(flat), pstate)
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
