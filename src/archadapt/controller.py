"""Recurrent architecture controller trained with REINFORCE.

The policy conditions on the previous architecture and the measured
distribution shift, then emits one architecture autoregressively: for
each unit a depth token, then kernel and expansion tokens for each active
layer. Conditioning path:

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
  at its end. They change nothing but possibly the sign of an exact zero,
  which the batch sum in ``_train_many`` (0 + gradient) turns into 0.0;
- a sum over a run's steps is a cumulative sum in step order (``_step_sum``),
  never numpy's reduction, which may go pairwise for a lone column only,
  nor builtin ``sum``, which compensates from Python 3.12 on.

A rollout writes its decisions once, into one dense record indexed
(step, run, head row) and zero wherever a run made no decision (``_Rollout``).
``_backward`` reads it as its head arrays, ``sample`` and ``score`` read their
decisions off it, and ``_train_many`` sums each run's entropies down it.

Sampling draws exactly as ``Generator.choice(n, p=probs / probs.sum())``
would (cumulative sum, normalize by its last entry, right-side search of
one uniform), without choice's per-call validation; non-finite logits
raise NumericalError instead. A single run's logits stay a 1-D row, whose
reductions give numpy scalars: that, and slicing its one input row of
W @ x, keep its decisions about as cheap as a loop written for one run.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .datagen import SnapshotMeta
from .errors import (
    DivisionByZeroShift,
    InvalidConfig,
    InvalidData,
    NumericalError,
)
from .evaluator import Evaluator
from .search_space import Architecture, SpaceConfig, _validate, madds, min_arch

__all__ = [
    "TrainerConfig",
    "ControllerParams",
    "PolicyState",
    "Decision",
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
        for name in ("learning_rate", "weight_decay", "entropy_weight", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise InvalidConfig(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 1 or self.batch_size < 1:
            raise InvalidConfig("iterations and batch_size must be >= 1")
        if self.weight_decay < 0 or self.entropy_weight < 0 or self.lam < 0:
            raise InvalidConfig("weight_decay, entropy_weight and lam must be >= 0")
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
    """Bucket of a shift value; out-of-range shifts clamp to the end buckets."""
    edges = cfg.bucket_edges if cfg.bucket_edges is not None else default_bucket_edges(cfg.bucket_count)
    return int(np.searchsorted(np.asarray(edges), shift, side="left"))


def _checked_bucket(shift: float, cfg: TrainerConfig) -> int:
    if not np.isfinite(shift) or shift < 0:
        raise InvalidData(f"shift must be finite and nonnegative, got {shift}")
    return bucket_index(shift, cfg)


@dataclass(frozen=True)
class PolicyState:
    """The conditioning inputs: previous architecture, shift and its bucket."""

    prev_arch: Architecture
    shift: float
    bucket: int


def _mv(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m[i] @ x[i] for every leading index i, as one stacked matrix-vector call."""
    return np.matmul(m, x[..., None])[..., 0]


@dataclass(frozen=True)
class _Encoded:
    """Encoder activations of K runs for one (prev_arch, shift bucket) condition."""

    onehot: np.ndarray
    bucket: int
    e1: np.ndarray
    state_vec: np.ndarray
    h0: np.ndarray


def _encode(p: dict[str, np.ndarray], onehot: np.ndarray, bucket: int) -> _Encoded:
    e1 = np.tanh(_mv(p["enc_w1"], onehot) + p["enc_b1"])
    arch_emb = _mv(p["enc_w2"], e1) + p["enc_b2"]
    state_vec = np.concatenate([arch_emb, p["shift_emb"][:, bucket]], axis=1)
    h0 = np.tanh(_mv(p["init_w"], state_vec) + p["init_b"])
    return _Encoded(onehot, bucket, e1, state_vec, h0)


def embed_state(
    params: ControllerParams,
    prev_arch: Architecture,
    shift: float,
    cfg: TrainerConfig,
) -> PolicyState:
    """Validated conditioning inputs; the encoder runs with each forward pass."""
    bucket = _checked_bucket(shift, cfg)
    _validate(prev_arch, params.space)
    return PolicyState(prev_arch=prev_arch, shift=float(shift), bucket=bucket)


@dataclass(frozen=True)
class Decision:
    kind: str
    choice: int
    log_prob: float
    entropy: float


@dataclass(frozen=True)
class Trajectory:
    arch: Architecture
    decisions: tuple[Decision, ...]
    log_prob: float
    entropy: float
    prev_arch: Architecture
    shift: float


def _softmax_logprobs(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and log-probabilities of each column of logits."""
    z = logits - np.maximum.reduce(logits)
    logp = z - np.log(np.add.reduce(np.exp(z)))
    return np.exp(logp), logp


class _Rollout(NamedTuple):
    """K runs' passes over their decision sequences, plus what backward needs.

    ``steps[t]`` holds step t of every run: the rows of W @ x fed to it
    (row k * n_tokens + s for run k's token s), the r and z gate
    activations (concatenated), n, U_n @ h_prev and h, each (K, ., 1).
    Past its last decision (its last hit), run k steps on its last token.

    The decisions are one dense record, zero-filled, over the longest
    possible trajectory (t_max = n_units * (1 + 2 * max depth) steps):
    ``probs``, ``logp`` and ``hit`` are (t_max, K, n_head), the head rows
    of the kind run k decided at step t holding its probabilities,
    log-probabilities and a one-hot of its choice, and ``entropy`` (t_max,
    K) that decision's entropy. The rows of the other kinds, and every
    entry past a run's last decision, stay zero.
    """

    enc: _Encoded
    archs: list[Architecture]
    steps: list[tuple]
    probs: np.ndarray
    logp: np.ndarray
    hit: np.ndarray
    entropy: np.ndarray


def _grammar(space: SpaceConfig):
    """Walk the decision grammar: yield each decision's kind code, receive
    its choice index, and return the architecture the choices spell."""
    units = []
    for _ in range(space.n_units):
        layers = []
        for _ in range(space.depth_choices[(yield 0)]):
            kernel = space.kernel_choices[(yield 1)]
            layers.append((kernel, space.expansion_choices[(yield 2)]))
        units.append(layers)
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

    All runs take a GRU step together; a decision's head is computed per
    kind for the runs at that kind. A run is retired after its last unit.
    """
    # Hidden states are (K, H, 1) columns, so each stacked matrix-vector
    # product is one np.matmul call.
    p, space = params.arrays, params.space
    # Per kind code: its (K, n, H) head weights, (K, n, 1) bias and head rows.
    heads = [(p["head_w"][:, rows], p["head_b"][:, rows, None], rows) for rows, _ in _kinds(space).values()]
    h = enc.h0[:, :, None]
    n_runs, hid, _ = h.shape
    runs = range(n_runs)
    w, u, b, tokens = p["gru_w"], p["gru_u"], p["gru_b"][..., None], p["token_emb"]
    b_rz, b_n = b[:, : 2 * hid], b[:, 2 * hid :]
    n_tokens = tokens.shape[1]
    # W @ x for every run and token row, computed once and split by gate;
    # row k * n_tokens + s is run k's token s.
    wx_all = np.matmul(w[:, None], tokens[..., None]).reshape(n_runs * n_tokens, 3 * hid, 1)
    wx_rz_all, wx_n_all = wx_all[:, : 2 * hid], wx_all[:, 2 * hid :]
    exp, tanh, add, matmul = np.exp, np.tanh, np.add, np.matmul
    t_max = space.n_units * (1 + 2 * space.depth_choices[-1])
    out = _Rollout(
        enc,
        [None] * n_runs,
        [],
        *np.zeros((3, t_max, n_runs, p["head_b"].shape[1])),
        np.zeros((t_max, n_runs)),
    )
    offsets = [k * n_tokens for k in runs]
    source = offsets[:]  # each run's next input row of wx_all
    walks = [_grammar(space) for _ in runs]
    kind = [next(walk) for walk in walks]  # next decision kind per run
    active = list(runs)
    t = 0

    # Array operands of 1.0: cheaper than the scalar on these shapes, same values.
    one_rz = np.ones((n_runs, 2 * hid, 1))
    one_h = one_rz[:, :hid]

    while active:
        if n_runs == 1:  # a slice: cheaper than take on the per-decision path
            wx_rz, wx_n = wx_rz_all[source[0] : source[0] + 1], wx_n_all[source[0] : source[0] + 1]
        else:
            wx_rz, wx_n = wx_rz_all.take(source, axis=0), wx_n_all.take(source, axis=0)
        h_prev = h
        uh = matmul(u, h_prev)
        rz = one_rz / (one_rz + exp(-(wx_rz + uh[:, : 2 * hid] + b_rz)))
        z = rz[:, hid:]
        unh = uh[:, 2 * hid :]
        n = tanh(wx_n + rz[:, :hid] * unh + b_n)
        h = (one_h - z) * h_prev + z * n
        out.steps.append((source[:], rz, n, unh, h))

        groups: dict[int, list[int]] = {}
        for k in active:
            groups.setdefault(kind[k], []).append(k)
        for code, idx in groups.items():
            head_w, head_b, rows = heads[code]
            if len(idx) == n_runs:
                logits = matmul(head_w, h) + head_b
            else:
                logits = matmul(head_w[idx], h[idx]) + head_b[idx]
            # Each run's logits form a column (one run: a plain 1-D row,
            # whose reductions give numpy scalars, the cheapest case), so
            # every reduction runs down axis 0 and gives the bits of that
            # run's head alone.
            one = len(idx) == 1
            cols = logits[0, :, 0] if one else logits[:, :, 0].T
            probs, logp = _softmax_logprobs(cols)
            entropy = -add.reduce(probs * logp)
            if actions is None and not greedy:
                # The draw Generator.choice(n, p=probs / probs.sum()) makes,
                # without its validation passes: same uniform, same result.
                cdf = add.accumulate(probs / add.reduce(probs))
                cdf /= cdf[-1]
            # A lone run's index is an int and its head a 1-D row: basic
            # indexing, cheaper than a list, and no transpose.
            at = idx[0] if one else idx
            out.probs[t, at, rows] = probs if one else probs.T
            out.logp[t, at, rows] = logp if one else logp.T
            out.entropy[t, at] = entropy
            for i, (k, e) in enumerate(zip(idx, [float(entropy)] if one else entropy.tolist())):
                if not math.isfinite(e):
                    # NaN here means a non-finite logit somewhere in this head.
                    raise NumericalError(f"non-finite {_KIND_NAMES[code]} logits at decision {t}")
                if actions is not None:
                    c = actions[k][t]
                elif greedy:
                    c = int((cols if one else cols[:, i]).argmax())
                else:
                    c = int((cdf if one else cdf[:, i]).searchsorted(rngs[k].random(), "right"))
                row = rows.start + c
                out.hit[t, k, row] = 1.0
                source[k] = offsets[k] + 1 + row  # token_emb row 0 is the start token
                try:
                    kind[k] = walks[k].send(c)
                except StopIteration as done:
                    out.archs[k] = done.value
                    active.remove(k)
        t += 1
    return out


def _forward(
    params: ControllerParams,
    pstate: PolicyState,
    actions: list[int] | None = None,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
) -> tuple[ControllerParams, _Rollout]:
    """Encode pstate with the current params as one row, then roll the GRU out once."""
    row = params._over(params.flat[None])
    enc = _encode(row.arrays, arch_onehot(pstate.prev_arch, params.space), pstate.bucket)
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


def _make_trajectory(roll: _Rollout, pstate: PolicyState, space: SpaceConfig) -> Trajectory:
    """The one run of a single-run rollout as a Trajectory."""
    # One hit per decided step, in step order; its head row names the kind and choice.
    steps, rows = np.nonzero(roll.hit[:, 0])
    which = [(kind, c) for kind, (_, values) in _kinds(space).items() for c in range(len(values))]
    kinds, choices = zip(*[which[row] for row in rows.tolist()])
    log_probs, entropies = roll.logp[steps, 0, rows], roll.entropy[steps, 0]
    return Trajectory(
        arch=roll.archs[0],
        decisions=tuple(map(Decision, kinds, choices, log_probs.tolist(), entropies.tolist())),
        log_prob=float(_step_sum(log_probs)),
        entropy=float(_step_sum(entropies)),
        prev_arch=pstate.prev_arch,
        shift=pstate.shift,
    )


def sample(params: ControllerParams, pstate: PolicyState, rng: np.random.Generator) -> Trajectory:
    """Draw one architecture from the current policy."""
    _, roll = _forward(params, pstate, rng=rng)
    return _make_trajectory(roll, pstate, params.space)


def score(params: ControllerParams, pstate: PolicyState, arch: Architecture) -> Trajectory:
    """Teacher-forced log-probability of producing a given architecture."""
    _, roll = _forward(params, pstate, actions=_validate(arch, params.space))
    traj = _make_trajectory(roll, pstate, params.space)
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
    raw millions. A larger shift relaxes the cost penalty. A shift that
    is not positive (NaN included) raises DivisionByZeroShift, and an
    infinite one InvalidData.
    """
    if not shift > 0.0:
        raise DivisionByZeroShift(f"shift must be positive, got {shift}")
    if shift == math.inf:
        raise InvalidData(f"shift must be finite, got {shift}")
    return (v_new - v_prev) - (lam / shift) * (c_new - c_prev)


def _backward(
    params: ControllerParams,
    roll: _Rollout,
    advantages: Sequence[float],
    cfg: TrainerConfig,
) -> np.ndarray:
    """(K, P) gradients of advantage*logpi + w_e*entropy - wd*||theta||^2/2.

    Row k is run k's flat gradient at its own advantage. Every per-step
    quantity is stacked in rollout order as (T, K, ...). A run's steps past
    its length get zero head gradients, so its hidden-state gradient stays
    zero there and every sum over steps ends in zeros (see the module
    docstring). Only the recurrence runs step by step, for all runs at once.
    """
    p, enc = params.arrays, roll.enc
    grad = np.zeros_like(params.flat)
    g = params.unflatten(grad)
    sources, rz, n, unh, hs = map(np.array, zip(*roll.steps))
    n_steps, (n_runs, hid) = len(roll.steps), enc.h0.shape
    # The state each step started from: h0, then the previous step's.
    h_prev = np.concatenate((enc.h0[None, :, :, None], hs[:-1]))

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
    coef = np.stack((dn * unh * r * (1.0 - r), (n - h_prev) * z * (1.0 - z), dn), axis=2)
    to_u = np.stack((np.ones_like(r), np.ones_like(r), r), axis=2)
    one_minus_z, u_t = 1.0 - z, p["gru_u"].transpose(0, 2, 1)
    da, du = np.empty_like(coef), np.empty_like(coef)
    dh = np.zeros((n_runs, hid, 1))
    for t in reversed(range(n_steps)):
        dh = dh + dhead[t]
        np.multiply(dh[:, None], coef[t], out=da[t])
        np.multiply(da[t], to_u[t], out=du[t])
        dh = dh * one_minus_z[t] + np.matmul(u_t, du[t].reshape(n_runs, 3 * hid, 1))
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
    g["shift_emb"][:, enc.bucket] = dstate[:, a_dim:]
    g["enc_w2"][...] = darch_emb[:, :, None] * enc.e1[:, None, :]
    g["enc_b2"][...] = darch_emb
    de1 = _mv(p["enc_w2"].transpose(0, 2, 1), darch_emb)
    de1pre = de1 * (1.0 - enc.e1 * enc.e1)
    g["enc_w1"][...] = de1pre[:, :, None] * enc.onehot
    g["enc_b1"][...] = de1pre

    if cfg.weight_decay != 0.0:
        grad -= cfg.weight_decay * params.flat
    return grad


def objective_value(
    params: ControllerParams,
    traj: Trajectory,
    advantage: float,
    cfg: TrainerConfig,
) -> float:
    """Scalar objective for the trajectory's fixed action sequence.

    Recomputed teacher-forced, so finite differences of this function
    validate the analytic gradients.
    """
    pstate = embed_state(params, traj.prev_arch, traj.shift, cfg)
    rescored = score(params, pstate, traj.arch)
    value = advantage * rescored.log_prob + cfg.entropy_weight * rescored.entropy
    return value - 0.5 * cfg.weight_decay * params.l2_norm_sq()


def objective_gradients(
    params: ControllerParams,
    traj: Trajectory,
    advantage: float,
    cfg: TrainerConfig,
) -> dict[str, np.ndarray]:
    """Analytic gradients of objective_value w.r.t. every parameter array."""
    pstate = embed_state(params, traj.prev_arch, traj.shift, cfg)
    row, roll = _forward(params, pstate, actions=_validate(traj.arch, params.space))
    return params.unflatten(_backward(row, roll, [advantage], cfg)[0])


def _apply_update(
    params: ControllerParams,
    flat_grad: np.ndarray,
    cfg: TrainerConfig,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
) -> None:
    """Ascend the objective of every run, as update number step of training.

    Adam's (K, P) moments m and v, one row per run, are updated in place.
    The one place parameters change: a non-finite gradient in any run
    raises NumericalError before anything is touched.
    """
    if not np.isfinite(flat_grad).all():
        bad = [k for k, g in params.unflatten(flat_grad).items() if not np.isfinite(g).all()]
        raise NumericalError(f"non-finite gradient in {', '.join(map(repr, bad))}")
    flat = params.flat
    lr = cfg.learning_rate
    if not cfg.use_adam:
        flat += lr * flat_grad
        return
    m *= _ADAM_BETA1
    m += (1.0 - _ADAM_BETA1) * flat_grad
    v *= _ADAM_BETA2
    v += (1.0 - _ADAM_BETA2) * flat_grad * flat_grad
    m_hat, v_hat = m / (1.0 - _ADAM_BETA1**step), v / (1.0 - _ADAM_BETA2**step)
    flat += lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


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
    if not all(0.0 <= lam < math.inf for lam in lams):
        raise InvalidConfig(f"each lam must be finite and >= 0, got {list(lams)}")
    space = params.space
    rngs = [np.random.default_rng(seed) for seed in seeds]
    v_prev = evaluate(prev_arch, meta)
    c_prev = madds(prev_arch, space)
    onehot = arch_onehot(prev_arch, space)
    bucket = _checked_bucket(shift, cfg)
    m, v = np.zeros((2, *params.flat.shape))
    baseline = np.full(n_runs, np.nan)
    # stats[:, k, b]: run k's reward, entropy and MAdds at batch entry b.
    stats = np.empty((3, n_runs, cfg.batch_size))
    traces: list[list[TraceRow]] = [[] for _ in range(n_runs)]

    for it in range(cfg.iterations):
        # The weights are fixed within an iteration, so the encoder is
        # shared by the batch.
        enc = _encode(params.arrays, onehot, bucket)
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
        flat_grad = sum(_backward(params, roll, stats[0, :, b] - used, cfg) for b, roll in enumerate(batch))
        flat_grad /= cfg.batch_size
        _apply_update(params, flat_grad, cfg, m, v, it + 1)
        del flat_grad  # not alive through the next backward pass

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
    row = params._over(params.flat[None])
    [trace] = _train_many(row, prev_arch, shift, meta, evaluate, cfg, [cfg.lam], [cfg.seed])
    return params, trace


def write_trace(path, rows: list[TraceRow]) -> None:
    """CSV with one column per TraceRow field, each value written with repr."""
    names = [f.name for f in fields(TraceRow)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(row, name)) for name in names) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
