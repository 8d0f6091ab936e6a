"""Recurrent architecture controller trained with REINFORCE.

The policy conditions on the previous architecture and the measured
distribution shift, one ``PolicyState`` made once by ``embed_state``, then
emits one architecture autoregressively: for each unit a depth token, then
kernel and expansion tokens for each active layer. Conditioning path:

    one-hot(prev arch) -> two-layer FC encoder -> arch embedding
    d_t -> log bucket -> learned shift embedding
    concat -> tanh projection -> initial hidden state of a GRU cell

Each decision reads a linear head off the hidden state; the chosen
token's embedding is the next GRU input. Training maximizes

    (R - b) * log pi(traj) + w_e * H(traj) - wd * ||theta||^2 / 2

by reverse-mode gradients written out by hand (numpy only), applied with
Adam by default or plain gradient ascent when ``use_adam`` is off. R is the
accuracy improvement minus a shift-scaled MAdds penalty, b an optional
exponential moving average baseline.

Parameters are stored by role: 13 arrays in a fixed order, each a view
into one contiguous buffer (``ControllerParams.flat``) fixed at
construction. They are the encoder (``enc_w1``, ``enc_b1``, ``enc_w2``,
``enc_b2``), ``shift_emb``, the initial projection (``init_w``,
``init_b``), ``token_emb`` (the start token in row 0, then the depth,
kernel and expansion tokens), the GRU with gates r, z, n stacked by rows
(``gru_w`` (3H, X), ``gru_u`` (3H, H), ``gru_b`` (3H,)) and one head
(``head_w``, ``head_b``) with rows for depth, then kernel, then expansion
choices. A decision kind is a row range s of the head, and its tokens are
rows 1 + s of ``token_emb`` (``_kinds``). Gradients use the same layout,
so Adam, weight decay and batch averaging each run as a single vector
operation. One guarded helper applies every update and refuses non-finite
gradients.

Lockstep runs. ``_train_many`` trains K independent runs (same snapshot,
prev arch, shift and config, each its own ``lam`` and ``seed``) together.
A run is a row of one ``ControllerParams`` whose ``flat`` is (K, P), each
role a (K, *shape) view of it, and of the arrays of rewards, entropies,
MAdds, baselines and Adam moments beside it, so every pass works on all K
at once. ``train`` (K = 1), ``sample``, ``score``, ``greedy_decode`` and
``objective_gradients`` run the same code on a (1, P) view of one
parameter set. Each run keeps its own ``rng`` and draws and evaluator and
``madds`` calls, and its numbers are bit for bit those of training it
alone, because (checked with numpy 2.4 on scipy-openblas 0.3.31):

- a stacked ``np.matmul`` over K gives each run the bits of its own
  product, and per-element arithmetic and each run's softmax reductions
  (a column of its kind's logits, or a single run's 1-D row) are the same
  stacked as alone;
- a run whose trajectory ends early keeps stepping with zero gradients,
  so every sum over steps, in a product or a reduction, only gains zeros
  at its end. At most they make a gradient's exact zero -0.0, which no
  update reads: x + (-0.0) is x, and the parameters and Adam's moments only
  ever add multiples of gradients to values that are not -0.0;
- a sum over a run's steps is a cumulative sum in step order (``_step_sum``),
  never numpy's reduction, which may go pairwise for a lone column only,
  nor builtin ``sum``, which compensates from Python 3.12 on.

A rollout writes each step once, into one dense record indexed by step and
run (``_Rollout``): the GRU's input rows, gates and states, and its decisions
by head row, zero where a run made none. ``_backward`` reads views of the
steps taken, and ``_train_many`` sums each run's entropies down it. A
``Trajectory`` (``sample``, ``score``) keeps its ``PolicyState`` and each
step's log-probability and entropy; its choices are ``_validate(traj.arch, space)``.

Each run walks the grammar as plain integers: its next decision kind, the
layers left in its unit and the units left after it. Its architecture is
built once, from its choice indices, when it retires. At every step, for
every K, the runs not yet retired are grouped by the kind each decides next,
and each kind's logits come from one stacked matmul over every run. A group
of every run indexes the record with a slice, and a group of one run writes
its log-probabilities and probabilities straight into its record rows. A
larger group's logits are the contiguous columns of a transposed (run,
choice) array, so numpy reduces each as it reduces a lone run's row
(pairwise from 8 choices on), into fresh arrays copied into the record.
The GRU's temporaries go into scratch arrays made once per rollout.
``_backward`` fills its gate coefficients into preallocated arrays and runs
the reverse recurrence in place, over reversed views of the steps.

``_train_many`` owns its (K, P) workspace: the batch's sum, which the first
gradient is written into, two scratch arrays and the finite check's mask.
``_backward`` and ``_apply_update`` write into it with ``out=``, one pass of
the plain expression at a time and in its order, so an iteration allocates
no (K, P) array (each one freed would be trimmed off the heap and faulted
back in) and every bit is the plain expression's.

Sampling draws exactly as ``Generator.choice(n, p=probs / probs.sum())``
would (cumulative sum, normalize by its last entry, right-side search of
one uniform), without choice's per-call validation; non-finite logits
raise NumericalError instead. A group of one run keeps its logits a 1-D
row, whose reductions give numpy scalars: that keeps a lone run's decisions
about as cheap as a loop written for one run.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .datagen import SnapshotMeta
from .errors import InvalidConfig, NumericalError, _check_lams, _checked_shift
from .evaluator import Evaluator
from .search_space import Architecture, SpaceConfig, _validate, madds, min_arch

__all__ = [
    "TrainerConfig",
    "ControllerParams",
    "PolicyState",
    "Trajectory",
    "TraceRow",
    "init_params",
    "arch_onehot",
    "bucket_index",
    "default_bucket_edges",
    "embed_state",
    "sample",
    "score",
    "greedy_decode",
    "reward",
    "objective_value",
    "objective_gradients",
    "train",
    "write_trace",
]

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainerConfig:
    """Training hyperparameters plus controller layout.

    Defaults follow the reference training recipe (Adam at 2e-4, weight
    decay 5e-4, entropy bonus 2e-4). ``use_baseline=False`` together with
    ``use_adam=False`` gives the literal update theta += lr * R * grad.
    ``run_adaptation``, ``lambda_sweep`` and ``wd_ablation`` replace ``seed``
    with one derived from the master seed, so it matters only to ``train``.
    """

    learning_rate: float = 2e-4
    weight_decay: float = 5e-4
    iterations: int = 6000
    entropy_weight: float = 2e-4
    lam: float = 2.5e-4
    baseline_decay: float = 0.95
    use_baseline: bool = True
    use_adam: bool = True
    batch_size: int = 1
    bucket_count: int = 8
    bucket_edges: tuple[float, ...] | None = None
    hidden_size: int = 64
    encoder_hidden: int = 64
    arch_embed_dim: int = 32
    shift_embed_dim: int = 16
    token_embed_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "entropy_weight"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        _check_lams([self.lam])
        if self.learning_rate <= 0:
            raise InvalidConfig(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 1 or self.batch_size < 1:
            raise InvalidConfig("iterations and batch_size must be >= 1")
        if self.weight_decay < 0 or self.entropy_weight < 0:
            raise InvalidConfig("weight_decay and entropy_weight must be >= 0")
        if not (0.0 <= self.baseline_decay < 1.0):
            raise InvalidConfig(f"baseline_decay must lie in [0, 1), got {self.baseline_decay}")
        if self.bucket_count < 1:
            raise InvalidConfig(f"bucket_count must be >= 1, got {self.bucket_count}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        for name in (
            "hidden_size",
            "encoder_hidden",
            "arch_embed_dim",
            "shift_embed_dim",
            "token_embed_dim",
        ):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if self.bucket_edges is not None:
            edges = tuple(float(e) for e in self.bucket_edges)
            if len(edges) != self.bucket_count - 1:
                raise InvalidConfig(
                    f"bucket_edges needs bucket_count - 1 = {self.bucket_count - 1} "
                    f"values, got {len(edges)}"
                )
            if not all(map(math.isfinite, edges)):
                raise InvalidConfig(f"bucket_edges must be finite, got {edges}")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise InvalidConfig(f"bucket_edges must be strictly increasing, got {edges}")
            object.__setattr__(self, "bucket_edges", edges)


def default_bucket_edges(bucket_count: int) -> tuple[float, ...]:
    """Log-spaced fallback edges covering shifts from 1e-3 to 1e3."""
    if bucket_count < 2:
        return ()
    return tuple(np.logspace(-3.0, 3.0, bucket_count - 1))


class ControllerParams:
    """The controller's parameter arrays, by role, in a fixed order.

    Every array is a view into one contiguous float64 buffer, ``flat``,
    laid out in the same order, so the optimizer can treat all parameters
    as one vector: (P,) for one parameter set, or (K, P) for K sets, one
    per row, each array then (K, *shape). Writing into an array writes the
    buffer; ``arrays`` itself is read-only, so an entry cannot be replaced.
    Equality is identity.
    """

    def __init__(self, space: SpaceConfig, arrays: Mapping[str, np.ndarray]):
        self.space = space
        shapes = {name: np.shape(a) for name, a in arrays.items()}
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()]).tolist()
        self._spans = list(zip(shapes.items(), [0, *ends], ends))
        self._flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=float)
        self.arrays = MappingProxyType(self.unflatten(self._flat))

    def _over(self, flat: np.ndarray) -> "ControllerParams":
        """Params of this layout over flat, (P,) or (K, P), sharing its memory."""
        params = object.__new__(ControllerParams)
        params.space, params._spans, params._flat = self.space, self._spans, flat
        params.arrays = MappingProxyType(self.unflatten(flat))
        return params

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    def unflatten(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a flat vector, shaped and named like the arrays.

        A (K, P) stack of flat vectors gives (K, *shape) views.
        """
        lead = vector.shape[:-1]
        return {name: vector[..., i:j].reshape(lead + shape) for (name, shape), i, j in self._spans}

    @cached_property
    def _row(self) -> "ControllerParams":
        """One (P,) parameter set as the row of a (1, P) params, made once."""
        return self._over(self._flat[None])

    def copy(self) -> "ControllerParams":
        return self._over(self._flat.copy())

    def l2_norm_sq(self) -> float:
        return float(self._flat @ self._flat)


_KIND_NAMES = ("depth", "kernel", "expansion")


def _kinds(space: SpaceConfig) -> dict[str, tuple[slice, tuple[int, ...]]]:
    """Each decision kind's rows s of ``head_w``/``head_b`` and its choice values.

    The kinds' tokens are rows 1 + s of ``token_emb``; row 0 is the start token.
    Kind codes 0, 1, 2 are the entries' positions.
    """
    out = {}
    start = 0
    choices = (space.depth_choices, space.kernel_choices, space.expansion_choices)
    for kind, values in zip(_KIND_NAMES, choices):
        out[kind] = (slice(start, start + len(values)), values)
        start += len(values)
    return out


def init_params(space: SpaceConfig, cfg: TrainerConfig, seed: int = 0) -> ControllerParams:
    """Fresh parameters, uniform in [-0.1, 0.1]; shapes depend only on config.

    The draws are made piece by piece in a fixed order: the encoder, shift
    embedding and initial projection; the start, depth, kernel and expansion
    token embeddings; for each GRU gate r, z, n its W, U and bias; for each
    kind its head weights and bias. Pieces of one array are stacked by rows.
    """
    rng = np.random.default_rng(seed)
    length = arch_onehot(min_arch(space), space).size
    h, eh = cfg.hidden_size, cfg.encoder_hidden
    a, s, x = cfg.arch_embed_dim, cfg.shift_embed_dim, cfg.token_embed_dim
    counts = [len(values) for _, values in _kinds(space).values()]
    pieces = [
        ("enc_w1", (eh, length)),
        ("enc_b1", (eh,)),
        ("enc_w2", (a, eh)),
        ("enc_b2", (a,)),
        ("shift_emb", (cfg.bucket_count, s)),
        ("init_w", (h, a + s)),
        ("init_b", (h,)),
        ("token_emb", (1, x)),
        *[("token_emb", (n, x)) for n in counts],
        *[piece for _ in "rzn" for piece in (("gru_w", (h, x)), ("gru_u", (h, h)), ("gru_b", (h,)))],
        *[piece for n in counts for piece in (("head_w", (n, h)), ("head_b", (n,)))],
    ]
    drawn: dict[str, list[np.ndarray]] = {}
    for name, shape in pieces:
        drawn.setdefault(name, []).append(rng.uniform(-0.1, 0.1, size=shape))
    return ControllerParams(space, {name: np.concatenate(parts) for name, parts in drawn.items()})


def arch_onehot(arch: Architecture, space: SpaceConfig) -> np.ndarray:
    """Flat one-hot token encoding; absent layers use an explicit off slot.

    Per unit: a depth one-hot, then for each of the d_max layer slots a
    kernel one-hot and an expansion one-hot, each with a trailing off slot.
    """
    actions = iter(_validate(arch, space))
    n_d, n_k, n_e = (
        len(space.depth_choices),
        len(space.kernel_choices),
        len(space.expansion_choices),
    )
    d_max = space.depth_choices[-1]
    hot = []
    base = 0
    for unit in arch.units:
        hot.append(base + next(actions))
        base += n_d
        for slot in range(d_max):
            on = slot < len(unit)
            hot.append(base + (next(actions) if on else n_k))
            base += n_k + 1
            hot.append(base + (next(actions) if on else n_e))
            base += n_e + 1
    vec = np.zeros(base)
    vec[hot] = 1.0
    return vec


def bucket_index(shift: float, cfg: TrainerConfig) -> int:
    """Bucket of a shift value; finite out-of-range shifts clamp to the end
    buckets, and a NaN, negative or infinite one raises InvalidData."""
    edges = cfg.bucket_edges if cfg.bucket_edges is not None else default_bucket_edges(cfg.bucket_count)
    return int(np.searchsorted(np.asarray(edges), _checked_shift(shift), side="left"))


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


@dataclass(frozen=True)
class PolicyState:
    """The conditioning inputs: previous architecture, shift and its bucket,
    and the architecture's one-hot, read-only and left out of == and hash."""

    prev_arch: Architecture
    shift: float
    bucket: int
    onehot: np.ndarray = field(compare=False, repr=False)


def _mv(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m[i] @ x[i] for every leading index i, as one stacked matrix-vector call."""
    return np.matmul(m, x[..., None])[..., 0]


@dataclass(frozen=True)
class _Encoded:
    """Encoder activations of K runs for one policy condition."""

    pstate: PolicyState
    e1: np.ndarray
    state_vec: np.ndarray
    h0: np.ndarray


def _encode(p: dict[str, np.ndarray], pstate: PolicyState) -> _Encoded:
    e1 = np.tanh(_mv(p["enc_w1"], pstate.onehot) + p["enc_b1"])
    arch_emb = _mv(p["enc_w2"], e1) + p["enc_b2"]
    state_vec = np.concatenate([arch_emb, p["shift_emb"][:, pstate.bucket]], axis=1)
    h0 = np.tanh(_mv(p["init_w"], state_vec) + p["init_b"])
    return _Encoded(pstate, e1, state_vec, h0)


def embed_state(
    params: ControllerParams,
    prev_arch: Architecture,
    shift: float,
    cfg: TrainerConfig,
) -> PolicyState:
    """Validated conditioning inputs; the encoder runs with each forward pass."""
    bucket = bucket_index(shift, cfg)
    onehot = arch_onehot(prev_arch, params.space)
    onehot.flags.writeable = False
    return PolicyState(prev_arch=prev_arch, shift=float(shift), bucket=bucket, onehot=onehot)


@dataclass(frozen=True)
class Trajectory:
    """One architecture under pstate: each decision's log-prob and entropy, and their sums."""

    arch: Architecture
    log_probs: tuple[float, ...]
    entropies: tuple[float, ...]
    log_prob: float
    entropy: float
    pstate: PolicyState


class _Rollout(NamedTuple):
    """K runs' passes over their decision sequences, as one dense record.

    Row t of each array is step t of every run, over the longest possible
    trajectory (t_max = n_units * (1 + 2 * max depth) steps), of which
    ``n_steps`` were taken; later rows of the GRU part are left unwritten.
    That part: ``sources``, the row of W @ x fed to each run (k * n_tokens
    + s for run k's token s); the r|z gates ``rz``, ``n`` and U @ h_prev
    ``uh``, each (t_max, K, ., 1); and ``h``, h0 and then each step's h, so
    h[t] is step t's h_prev. Past its last decision (its last hit), run k
    steps on its last token. The decisions, zero-filled: ``probs``, ``logp``
    and ``hit`` are (t_max, K, n_head), the head rows of the kind run k
    decided at step t holding its probabilities, log-probabilities and a
    one-hot of its choice, and ``entropy`` (t_max, K) that decision's
    entropy; other kinds' rows, and entries past a run's last decision, are 0.
    """

    enc: _Encoded
    archs: list[Architecture]
    n_steps: int
    sources: np.ndarray
    rz: np.ndarray
    n: np.ndarray
    uh: np.ndarray
    h: np.ndarray
    probs: np.ndarray
    logp: np.ndarray
    hit: np.ndarray
    entropy: np.ndarray


def _arch_from_choices(choices: list[int], space: SpaceConfig) -> Architecture:
    """The architecture a complete choice-index sequence spells (``_validate``'s inverse)."""
    kernels, expansions = space.kernel_choices, space.expansion_choices
    units, end = [], 0
    for _ in range(space.n_units):
        start = end + 1
        end = start + 2 * space.depth_choices[choices[end]]
        layers = zip(choices[start:end:2], choices[start + 1 : end : 2])
        units.append([(kernels[k], expansions[e]) for k, e in layers])
    return Architecture(units=units)


def _rollout(
    params: ControllerParams,
    enc: _Encoded,
    rngs: Sequence[np.random.Generator] | None = None,
    actions: Sequence[list[int]] | None = None,
    greedy: bool = False,
) -> _Rollout:
    """Run the GRU of every run from enc.h0 through one architecture's decisions.

    actions given: teacher-forced scoring of each run's choice sequence.
    greedy: argmax decoding (ties go to the lowest index via argmax).
    otherwise: ancestral sampling, run k drawing from rngs[k].

    All runs take a GRU step together; each kind decided at a step gets every
    run's logits, and its softmax and choices for the runs at that kind. A
    run is retired after its last unit.
    """
    # Hidden states are (K, H, 1) columns, so each stacked matrix-vector
    # product is one np.matmul call.
    p, space = params.arrays, params.space
    n_runs, hid = enc.h0.shape
    # Per kind code: its (K, n, H) head weights, (K, n, 1) bias, head rows,
    # and every run's (K, n, 1) logits, written in place, with their columns.
    heads = []
    for rows, _ in _kinds(space).values():
        logits = np.empty((n_runs, rows.stop - rows.start, 1))
        heads.append((p["head_w"][:, rows], p["head_b"][:, rows, None], rows, logits, logits[:, :, 0].T))
    runs = range(n_runs)
    w, u, b, tokens = p["gru_w"], p["gru_u"], p["gru_b"][..., None], p["token_emb"]
    b_rz, b_n = b[:, : 2 * hid], b[:, 2 * hid :]
    n_tokens = tokens.shape[1]
    # W @ x for every run and token row, computed once; row k * n_tokens + s
    # is run k's token s. Each step takes the runs' rows into wx.
    wx_all = np.matmul(w[:, None], tokens[..., None]).reshape(n_runs * n_tokens, 3 * hid, 1)
    wx = np.empty((n_runs, 3 * hid, 1))
    wx_rz, wx_n = wx[:, : 2 * hid], wx[:, 2 * hid :]
    exp, tanh, log, matmul = np.exp, np.tanh, np.log, np.matmul
    add, subtract, multiply = np.add, np.subtract, np.multiply
    t_max = space.n_units * (1 + 2 * space.depth_choices[-1])
    # The record (see _Rollout); step t writes row t of each array in place.
    sources = np.empty((t_max, n_runs), int)
    rzs, ns, uhs = [np.empty((t_max, n_runs, size, 1)) for size in (2 * hid, hid, 3 * hid)]
    hs = np.empty((t_max + 1, n_runs, hid, 1))
    hs[0, ..., 0] = enc.h0
    all_probs, all_logp, hits = np.zeros((3, t_max, n_runs, p["head_b"].shape[1]))
    entropies = np.zeros((t_max, n_runs))
    # Each step's GRU rows, as views, the gates' parts split off once.
    uh_gates, rz_gates = (uhs[:, :, : 2 * hid], uhs[:, :, 2 * hid :]), (rzs[:, :, :hid], rzs[:, :, hid:])
    steps = zip(hs, hs[1:], uhs, *uh_gates, rzs, *rz_gates, ns, sources)
    # Scratch for the GRU's temporaries, written with out= at each step.
    pre_rz, pre_n = np.empty((n_runs, 2 * hid, 1)), np.empty((n_runs, hid, 1))
    # 1.0 as a 0-d array: as an operand it costs less than the scalar, same values.
    ones = np.ones(())

    # The grammar as a table: per unit a depth decision (kind 0), then for
    # each of its layers a kernel (1) and an expansion (2). Each run keeps a
    # stack of the kinds it has still to decide; a depth choice pushes its
    # unit's layer kinds, and a run whose stack is empty retires.
    layer_kinds = [[2, 1] * depth for depth in space.depth_choices]
    kind = [0] * n_runs  # each run's next kind
    todo = [[0] * (space.n_units - 1) for _ in runs]
    chosen: list[list[int]] = [[] for _ in runs]  # each run's choice indices
    offsets = [k * n_tokens for k in runs]
    source = offsets[:]  # each run's next input row of wx_all
    archs = [None] * n_runs
    active = list(runs)
    t = 0

    while active:
        h_prev, h, uh, uh_rz, uh_n, rz, r, z, n, step_sources = next(steps)
        step_sources[...] = source
        # Every source is in range, so "clip" clips nothing; unlike the
        # default "raise", it writes into wx without a buffer.
        wx_all.take(step_sources, axis=0, out=wx, mode="clip")
        matmul(u, h_prev, out=uh)
        # rz = 1 / (1 + exp(-(wx_rz + uh_rz + b_rz)))
        add(wx_rz, uh_rz, out=pre_rz)
        add(pre_rz, b_rz, out=pre_rz)
        np.negative(pre_rz, out=pre_rz)
        exp(pre_rz, out=pre_rz)
        add(ones, pre_rz, out=pre_rz)
        np.divide(ones, pre_rz, out=rz)
        # n = tanh(wx_n + r * uh_n + b_n)
        multiply(r, uh_n, out=pre_n)
        add(wx_n, pre_n, out=pre_n)
        add(pre_n, b_n, out=pre_n)
        tanh(pre_n, out=n)
        # h = (1 - z) * h_prev + z * n
        subtract(ones, z, out=pre_n)
        multiply(pre_n, h_prev, out=pre_n)
        multiply(z, n, out=h)
        add(pre_n, h, out=h)

        # The runs still deciding, grouped by the kind each decides next.
        groups: dict[int, list[int]] = {}
        for k in active:
            groups.setdefault(kind[k], []).append(k)
        for code, idx in groups.items():
            head_w, head_b, rows, logits, all_cols = heads[code]
            # Every run's logits, also of runs at other kinds: a stacked
            # matmul gives each run the bits of its own product.
            add(matmul(head_w, h, out=logits), head_b, out=logits)
            # Each run's logits form a contiguous column (one run: a plain
            # 1-D row, whose reductions give numpy scalars, the cheapest
            # case), so every reduction runs down axis 0 and gives the bits
            # of that run's head alone.
            full, one = len(idx) == n_runs, len(idx) == 1
            if one:
                # A lone run's row goes straight into its record rows.
                cols = logits[idx[0], :, 0]
                logp, probs = all_logp[t, idx[0], rows], all_probs[t, idx[0], rows]
                shifted = cols - np.maximum.reduce(cols)
                subtract(shifted, log(add.reduce(exp(shifted))), out=logp)
                exp(logp, out=probs)
                entropy = -add.reduce(probs * logp)
                entropies[t, idx[0]] = entropy
            else:
                cols = all_cols if full else logits[idx, :, 0].T
                shifted = cols - np.maximum.reduce(cols)
                logp = shifted - log(add.reduce(exp(shifted)))
                probs = exp(logp)
                entropy = -add.reduce(probs * logp)
                at = slice(None) if full else idx
                all_probs[t, at, rows] = probs.T
                all_logp[t, at, rows] = logp.T
                entropies[t, at] = entropy
            if actions is None and not greedy:
                # The draw Generator.choice(n, p=probs / probs.sum()) makes,
                # without its validation passes: same uniform, same result.
                cdf = add.accumulate(probs / add.reduce(probs))
                cdf /= cdf[-1]
                # Each run's cdf as a list, non-decreasing: its right
                # bisection is searchsorted's right-side result.
                cdfs = [cdf.tolist()] if one else cdf.T.tolist()
            for i, (k, e) in enumerate(zip(idx, [float(entropy)] if one else entropy.tolist())):
                if not math.isfinite(e):
                    # NaN here means a non-finite logit somewhere in this head.
                    raise NumericalError(f"non-finite {_KIND_NAMES[code]} logits at decision {t}")
                if actions is not None:
                    c = actions[k][t]
                elif greedy:
                    c = int((cols if one else cols[:, i]).argmax())
                else:
                    c = bisect_right(cdfs[i], rngs[k].random())
                row = rows.start + c
                hits[t, k, row] = 1.0
                source[k] = offsets[k] + 1 + row  # token_emb row 0 is the start token
                chosen[k].append(c)
                if code == 0:
                    todo[k] += layer_kinds[c]
                if todo[k]:
                    kind[k] = todo[k].pop()
                else:
                    archs[k] = _arch_from_choices(chosen[k], space)
                    active.remove(k)
        t += 1
    return _Rollout(enc, archs, t, sources, rzs, ns, uhs, hs, all_probs, all_logp, hits, entropies)


def _forward(
    params: ControllerParams,
    pstate: PolicyState,
    actions: list[int] | None = None,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
) -> tuple[ControllerParams, _Rollout]:
    """Encode pstate with the current params as one row, then roll the GRU out once."""
    row = params._row
    enc = _encode(row.arrays, pstate)
    roll = _rollout(
        row,
        enc,
        rngs=None if rng is None else [rng],
        actions=None if actions is None else [actions],
        greedy=greedy,
    )
    return row, roll


def _step_sum(x: np.ndarray) -> np.ndarray:
    """Sum down axis 0 one term at a time, as CPython's float ``sum`` did
    before 3.12; the added 0.0 gives an all-zero sum the sign ``sum`` gives."""
    return np.add.accumulate(x, axis=0)[-1] + 0.0


def _make_trajectory(roll: _Rollout) -> Trajectory:
    """The one run of a single-run rollout as a Trajectory."""
    # One hit per decided step, in step order, at its chosen head row.
    steps, rows = np.nonzero(roll.hit[:, 0])
    log_probs, entropies = roll.logp[steps, 0, rows], roll.entropy[steps, 0]
    return Trajectory(
        arch=roll.archs[0],
        log_probs=tuple(log_probs.tolist()),
        entropies=tuple(entropies.tolist()),
        log_prob=float(_step_sum(log_probs)),
        entropy=float(_step_sum(entropies)),
        pstate=roll.enc.pstate,
    )


def sample(params: ControllerParams, pstate: PolicyState, rng: np.random.Generator) -> Trajectory:
    """Draw one architecture from the current policy."""
    _, roll = _forward(params, pstate, rng=rng)
    return _make_trajectory(roll)


def score(params: ControllerParams, pstate: PolicyState, arch: Architecture) -> Trajectory:
    """Teacher-forced log-probability of producing a given architecture."""
    _, roll = _forward(params, pstate, actions=_validate(arch, params.space))
    traj = _make_trajectory(roll)
    assert traj.arch == arch
    return traj


def greedy_decode(params: ControllerParams, pstate: PolicyState) -> Architecture:
    """Argmax decoding; equal logits resolve to the lowest choice index."""
    _, roll = _forward(params, pstate, greedy=True)
    return roll.archs[0]


def reward(
    v_new: float,
    v_prev: float,
    c_new: float,
    c_prev: float,
    lam: float,
    shift: float,
) -> float:
    """Accuracy gain minus the shift-scaled cost increase.

    R = (v_new - v_prev) - (lam / shift) * (c_new - c_prev), with MAdds in
    raw millions. A larger shift relaxes the cost penalty. A shift of 0
    raises DivisionByZeroShift, and a NaN, negative or infinite one
    InvalidData.
    """
    _checked_shift(shift, divided=True)
    return (v_new - v_prev) - (lam / shift) * (c_new - c_prev)


def _backward(
    params: ControllerParams,
    roll: _Rollout,
    advantages: Sequence[float],
    cfg: TrainerConfig,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(K, P) gradients of advantage*logpi + w_e*entropy - wd*||theta||^2/2.

    Row k is run k's flat gradient at its own advantage. Every per-step
    quantity is a (T, K, ...) view of the rollout's record, T its n_steps.
    A run's steps past its length get zero head gradients, so its hidden-state
    gradient stays zero there and every sum over steps ends in zeros (see the
    module docstring). Only the recurrence runs step by step, for all runs.

    The gradients go into out, a (K, P) array, and the weight decay's term
    through scratch, another; neither's contents are read, and each is
    allocated when None.
    """
    p, enc = params.arrays, roll.enc
    grad = np.zeros_like(params.flat) if out is None else out
    g = params.unflatten(grad)
    # Every other role is written whole below.
    g["token_emb"][...] = 0.0
    g["shift_emb"][...] = 0.0
    n_steps, (n_runs, hid) = roll.n_steps, enc.h0.shape
    sources, rz, n, uh, h_prev = [a[:n_steps] for a in (roll.sources, roll.rz, roll.n, roll.uh, roll.h)]
    hs, unh = roll.h[1 : n_steps + 1], uh[:, :, 2 * hid :]

    # Heads: d/dlogits of logp[choice] is hit - probs; of the entropy,
    # -probs * (logp + H), all (T, K, n_head) from the rollout's record, whose
    # head rows of the kinds a run did not decide, and entries past its
    # length, are zero.
    probs, logp, hit = roll.probs[:n_steps], roll.logp[:n_steps], roll.hit[:n_steps]
    adv = np.asarray(advantages, dtype=float)[:, None]
    dlogits = adv * (hit - probs) - cfg.entropy_weight * probs * (logp + roll.entropy[:n_steps, :, None])
    g["head_w"][...] = np.matmul(dlogits.transpose(1, 2, 0), hs[..., 0].transpose(1, 0, 2))
    g["head_b"][...] = dlogits.sum(axis=0)
    dhead = np.matmul(p["head_w"].transpose(0, 2, 1), dlogits[..., None])

    # h = (1 - z) h_prev + z n with n = tanh(W_n x + r * U_n h_prev + b_n):
    # at each step the gradients at the r, z and n pre-activations are dh
    # times coef, and those at U_r h_prev, U_z h_prev and U_n h_prev are
    # these times (1, 1, r). Both are (K, 3, H, 1), gates stacked as in gru_w.
    r, z = rz[:, :, :hid], rz[:, :, hid:]
    dn = z * (1.0 - n * n)
    coef, to_u, da, du = np.empty((4, n_steps, n_runs, 3, hid, 1))
    np.multiply(dn * unh * r, 1.0 - r, out=coef[:, :, 0])
    np.multiply((n - h_prev) * z, 1.0 - z, out=coef[:, :, 1])
    coef[:, :, 2] = dn
    to_u[:, :, :2] = 1.0
    to_u[:, :, 2] = r
    one_minus_z, u_t = 1.0 - z, p["gru_u"].transpose(0, 2, 1)
    du_cols = du.reshape(n_steps, n_runs, 3 * hid, 1)
    # Backwards over the steps, in place: dh = dh + dhead[t], and then
    # dh = dh * (1 - z[t]) + U^T du[t].
    dh, u_du = np.zeros((2, n_runs, hid, 1))
    dh_gates = dh[:, None]
    for dhead_t, coef_t, to_u_t, da_t, du_t, du_col_t, one_minus_z_t in zip(
        dhead[::-1], coef[::-1], to_u[::-1], da[::-1], du[::-1], du_cols[::-1], one_minus_z[::-1]
    ):
        dh += dhead_t
        np.multiply(dh_gates, coef_t, out=da_t)
        np.multiply(da_t, to_u_t, out=du_t)
        dh *= one_minus_z_t
        dh += np.matmul(u_t, du_col_t, out=u_du)
    # dh is now each run's gradient at h0.
    da, du = da.reshape(n_steps, n_runs, 3 * hid), du.reshape(n_steps, n_runs, 3 * hid)

    w, tokens = p["gru_w"], p["token_emb"]
    run, token = np.divmod(sources, tokens.shape[1])
    g["gru_b"][...] = da.sum(axis=0)
    g["gru_w"][...] = np.matmul(da.transpose(1, 2, 0), tokens[run, token].transpose(1, 0, 2))
    g["gru_u"][...] = np.matmul(du.transpose(1, 2, 0), h_prev[..., 0].transpose(1, 0, 2))
    # Steps fed by the same token row add into it in step order.
    np.add.at(g["token_emb"], (run, token), _mv(w.transpose(0, 2, 1), da))

    # into the initial state projection and the encoder
    dh0pre = dh[..., 0] * (1.0 - enc.h0 * enc.h0)
    g["init_w"][...] = dh0pre[:, :, None] * enc.state_vec[:, None, :]
    g["init_b"][...] = dh0pre
    dstate = _mv(p["init_w"].transpose(0, 2, 1), dh0pre)
    a_dim = p["enc_w2"].shape[1]
    darch_emb = dstate[:, :a_dim]
    g["shift_emb"][:, enc.pstate.bucket] = dstate[:, a_dim:]
    g["enc_w2"][...] = darch_emb[:, :, None] * enc.e1[:, None, :]
    g["enc_b2"][...] = darch_emb
    de1 = _mv(p["enc_w2"].transpose(0, 2, 1), darch_emb)
    de1pre = de1 * (1.0 - enc.e1 * enc.e1)
    g["enc_w1"][...] = de1pre[:, :, None] * enc.pstate.onehot
    g["enc_b1"][...] = de1pre

    if cfg.weight_decay != 0.0:
        grad -= np.multiply(cfg.weight_decay, params.flat, out=scratch)
    return grad


def objective_value(
    params: ControllerParams,
    traj: Trajectory,
    advantage: float,
    cfg: TrainerConfig,
) -> float:
    """Scalar objective for the trajectory's fixed action sequence.

    Recomputed teacher-forced under traj.pstate, so finite differences of
    this function validate the analytic gradients; cfg gives only weights.
    """
    rescored = score(params, traj.pstate, traj.arch)
    value = advantage * rescored.log_prob + cfg.entropy_weight * rescored.entropy
    return value - 0.5 * cfg.weight_decay * params.l2_norm_sq()


def objective_gradients(
    params: ControllerParams,
    traj: Trajectory,
    advantage: float,
    cfg: TrainerConfig,
) -> dict[str, np.ndarray]:
    """Analytic gradients of objective_value w.r.t. every parameter array."""
    row, roll = _forward(params, traj.pstate, actions=_validate(traj.arch, params.space))
    return params.unflatten(_backward(row, roll, [advantage], cfg)[0])


def _apply_update(
    params: ControllerParams,
    flat_grad: np.ndarray,
    cfg: TrainerConfig,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    scratch: Sequence[np.ndarray],
    finite: np.ndarray,
) -> None:
    """Ascend the objective of every run, as update number step of training.

    Adam's (K, P) moments m and v, one row per run, are updated in place,
    and scratch, two (K, P) float arrays, and finite, a (K, P) bool array,
    overwritten. Each pass is one of the textbook expression's, in its
    order, so the bits are its bits too. The one place parameters change:
    a non-finite gradient in any run raises NumericalError before anything
    is touched.
    """
    if not np.isfinite(flat_grad, out=finite).all():
        bad = [k for k, g in params.unflatten(flat_grad).items() if not np.isfinite(g).all()]
        raise NumericalError(f"non-finite gradient in {', '.join(map(repr, bad))}")
    flat, lr = params.flat, cfg.learning_rate
    num, den = scratch
    if not cfg.use_adam:
        flat += np.multiply(lr, flat_grad, out=num)
        return
    m *= _ADAM_BETA1
    m += np.multiply(1.0 - _ADAM_BETA1, flat_grad, out=num)
    v *= _ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - _ADAM_BETA2, flat_grad, out=num), flat_grad, out=num)
    # flat += lr * m_hat / (sqrt(v_hat) + eps)
    np.multiply(lr, np.divide(m, 1.0 - _ADAM_BETA1**step, out=num), out=num)
    np.add(np.sqrt(np.divide(v, 1.0 - _ADAM_BETA2**step, out=den), out=den), _ADAM_EPS, out=den)
    flat += np.divide(num, den, out=num)


def _advance_baseline(baseline: np.ndarray, rewards: np.ndarray, cfg: TrainerConfig) -> np.ndarray:
    """Each run's advantage; its baseline, NaN until a first reward, advances in place."""
    if not cfg.use_baseline:
        return rewards
    np.copyto(baseline, rewards, where=np.isnan(baseline))
    advantage = rewards - baseline
    baseline *= cfg.baseline_decay
    baseline += (1.0 - cfg.baseline_decay) * rewards
    return advantage


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    reward: float
    entropy: float
    madds: float


def _train_many(
    params: ControllerParams,
    prev_arch: Architecture,
    shift: float,
    meta: SnapshotMeta,
    evaluate: Evaluator,
    cfg: TrainerConfig,
    lams: Sequence[float],
    seeds: Sequence[int],
) -> list[list[TraceRow]]:
    """Train K independent runs in lockstep; run k is row k of params' (K, P) flat.

    Run k has cost penalty lams[k] and seed seeds[k]; cfg's own go unused.
    Updates params in place, also when a NumericalError ends the training,
    and returns one trace per run. Row k and trace k are bit for bit what
    ``train`` gives for ``replace(cfg, lam=lams[k], seed=seeds[k])`` from
    row k's starting values.
    """
    n_runs = len(params.flat) if params.flat.ndim == 2 else 0
    if not n_runs or len(lams) != n_runs or len(seeds) != n_runs:
        raise InvalidConfig(
            f"need (K, P) params with K >= 1 and one lam and one seed per run, got params of "
            f"shape {params.flat.shape}, {len(lams)} lams and {len(seeds)} seeds"
        )
    _check_lams(lams)
    space = params.space
    rngs = [np.random.default_rng(seed) for seed in seeds]
    v_prev = evaluate(prev_arch, meta)
    c_prev = madds(prev_arch, space)
    pstate = embed_state(params, prev_arch, shift, cfg)
    m, v = np.zeros((2, *params.flat.shape))
    # Every iteration's (K, P) workspace (see the module docstring).
    total, *scratch = np.empty((3, *params.flat.shape))
    finite = np.empty(params.flat.shape, bool)
    baseline = np.full(n_runs, np.nan)
    # stats[:, k, b]: run k's reward, entropy and MAdds at batch entry b.
    stats = np.empty((3, n_runs, cfg.batch_size))
    traces: list[list[TraceRow]] = [[] for _ in range(n_runs)]

    for it in range(cfg.iterations):
        # The weights are fixed within an iteration, so the encoder is
        # shared by the batch.
        enc = _encode(params.arrays, pstate)
        batch = []
        for b in range(cfg.batch_size):
            roll = _rollout(params, enc, rngs=rngs)
            batch.append(roll)
            for k, (arch, lam) in enumerate(zip(roll.archs, lams)):
                v_new = evaluate(arch, meta)
                c_new = madds(arch, space)
                stats[0, k, b] = reward(v_new, v_prev, c_new, c_prev, lam, shift)
                stats[2, k, b] = c_new
            # Entries past a run's length are 0 and add nothing.
            stats[1, :, b] = _step_sum(roll.entropy)
        # np.mean of each run's batch: its sum along the last axis over the count.
        means = np.add.reduce(stats, axis=2) / cfg.batch_size
        used = means[0] - _advance_baseline(baseline, means[0], cfg)
        # The batch's sum in entry order; scratch[1] is free until the update.
        advantages = stats[0] - used[:, None]
        _backward(params, batch[0], advantages[:, 0], cfg, out=total, scratch=scratch[0])
        for b in range(1, cfg.batch_size):
            total += _backward(params, batch[b], advantages[:, b], cfg, out=scratch[1], scratch=scratch[0])
        total /= cfg.batch_size
        _apply_update(params, total, cfg, m, v, it + 1, scratch, finite)

        for trace, *row in zip(traces, *means.tolist()):
            trace.append(TraceRow(it, *row))
    return traces


def train(
    params: ControllerParams,
    prev_arch: Architecture,
    shift: float,
    meta: SnapshotMeta,
    evaluate: Evaluator,
    cfg: TrainerConfig,
) -> tuple[ControllerParams, list[TraceRow]]:
    """Run cfg.iterations REINFORCE updates for one adaptation round.

    Deterministic given cfg.seed. Each iteration samples batch_size
    trajectories (default 1), averages their gradients, and applies one
    update. Updates params in place and returns it with the per-iteration
    trace.
    """
    [trace] = _train_many(params._row, prev_arch, shift, meta, evaluate, cfg, [cfg.lam], [cfg.seed])
    return params, trace


def write_trace(path, rows: list[TraceRow]) -> None:
    """CSV with one column per TraceRow field, each value written with repr."""
    names = [f.name for f in fields(TraceRow)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(row, name)) for name in names) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
