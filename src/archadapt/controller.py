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

The hot path keeps the numbers of a step-by-step implementation bit for
bit while making far fewer numpy calls:

- forward: the three GRU gates are computed together from the stacked
  blocks; W @ x is computed once per token;
- sampling draws exactly as ``Generator.choice(n, p=probs / probs.sum())``
  would (cumulative sum, normalize by its last entry, right-side search of
  one uniform), so the RNG stream and every sampled trajectory stay the
  same, without choice's per-call validation; non-finite logits raise
  NumericalError instead;
- backward: head and weight gradients are computed from the stacked steps,
  summed in the same order the per-step loop used, and each step's input
  gradient is scatter-added into its ``token_emb`` row; only the
  hidden-state recurrence runs step by step.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
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
    "TrainerState",
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
                    f"need {self.bucket_count - 1} bucket edges, got {len(edges)}"
                )
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise InvalidConfig(f"bucket edges must be strictly increasing: {edges}")
            object.__setattr__(self, "bucket_edges", edges)


def default_bucket_edges(bucket_count: int) -> tuple[float, ...]:
    """Log-spaced fallback edges covering shifts from 1e-3 to 1e3."""
    if bucket_count < 2:
        return ()
    return tuple(np.logspace(-3.0, 3.0, bucket_count - 1))


class ControllerParams:
    """The controller's parameter arrays, by role, in a fixed order.

    Every array is a view into one contiguous float64 buffer, ``flat``,
    made at construction and laid out in the same order, so the optimizer
    can treat all parameters as one vector. Writing into an array writes
    the buffer; ``arrays`` itself is read-only, so an entry cannot be
    replaced. Equality is identity.
    """

    def __init__(self, space: SpaceConfig, arrays: Mapping[str, np.ndarray]):
        self.space = space
        self._shapes = {name: np.shape(a) for name, a in arrays.items()}
        self._flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=float)
        self.arrays = MappingProxyType(self.unflatten(self._flat))

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    def unflatten(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a flat vector, shaped and named like the arrays."""
        out = {}
        offset = 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            out[name] = vector[offset : offset + size].reshape(shape)
            offset += size
        return out

    def copy(self) -> "ControllerParams":
        return ControllerParams(self.space, self.arrays)

    def l2_norm_sq(self) -> float:
        return float(self._flat @ self._flat)


def _kinds(space: SpaceConfig) -> dict[str, tuple[slice, tuple[int, ...]]]:
    """Each decision kind's rows s of ``head_w``/``head_b`` and its choice values.

    The kinds' tokens are rows 1 + s of ``token_emb``; row 0 is the start token.
    """
    out = {}
    start = 0
    choices = (space.depth_choices, space.kernel_choices, space.expansion_choices)
    for kind, values in zip(("depth", "kernel", "expansion"), choices):
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


@dataclass(frozen=True)
class _Encoded:
    """Encoder activations for one (prev_arch, shift bucket) condition."""

    onehot: np.ndarray
    bucket: int
    e1: np.ndarray
    state_vec: np.ndarray
    h0: np.ndarray


def _encode(p: dict[str, np.ndarray], onehot: np.ndarray, bucket: int) -> _Encoded:
    e1 = np.tanh(p["enc_w1"] @ onehot + p["enc_b1"])
    arch_emb = p["enc_w2"] @ e1 + p["enc_b2"]
    state_vec = np.concatenate([arch_emb, p["shift_emb"][bucket]])
    h0 = np.tanh(p["init_w"] @ state_vec + p["init_b"])
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


@dataclass
class TrainerState:
    """Optimizer state carried across the updates of one training run.

    ``m`` and ``v`` are Adam's moments over the flat parameter vector.
    """

    step: int = 0
    baseline: float | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def _softmax_logprobs(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = logits - np.maximum.reduce(logits)
    logp = z - np.log(np.add.reduce(np.exp(z)))
    return np.exp(logp), logp


@dataclass
class _Rollout:
    """One pass over the decision sequence plus what the backward pass needs.

    ``steps`` holds one _Step tuple per decision, in decision order.
    """

    enc: _Encoded
    units: list = field(default_factory=list)
    steps: list = field(default_factory=list)


class _Step(NamedTuple):
    kind: str
    choice: int
    log_prob: float  # of the chosen index
    entropy: float
    source: int  # the token_emb row fed to this step
    rz: np.ndarray  # r and z gate activations, concatenated
    n: np.ndarray
    unh: np.ndarray  # U_n @ h_prev
    h: np.ndarray
    probs: np.ndarray
    logp: np.ndarray


def _rollout(
    params: ControllerParams,
    enc: _Encoded,
    wx_cache: dict,
    actions: list[int] | None = None,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
) -> _Rollout:
    """Run the GRU from enc.h0 through one architecture's decisions.

    actions given: teacher-forced scoring of that choice sequence.
    greedy: argmax decoding (ties go to the lowest index via argmax).
    otherwise: ancestral sampling with rng.

    W @ x depends only on the input token, so it is computed once per
    token row and kept in wx_cache, which is valid for one set of weights.
    """
    p = params.arrays
    w, u, b, tokens = p["gru_w"], p["gru_u"], p["gru_b"], p["token_emb"]
    hid = enc.h0.size
    b_rz, b_n = b[: 2 * hid], b[2 * hid :]
    # Per kind: its head weights and bias, first token row and choice values.
    kinds = {
        kind: (p["head_w"][rows], p["head_b"][rows], 1 + rows.start, values)
        for kind, (rows, values) in _kinds(params.space).items()
    }
    exp, tanh, add = np.exp, np.tanh, np.add
    out = _Rollout(enc)
    h = enc.h0
    source = 0

    def consume(kind: str) -> int:
        nonlocal h, source
        wx = wx_cache.get(source)
        if wx is None:
            wx = w @ tokens[source]
            wx_cache[source] = wx = (wx[: 2 * hid], wx[2 * hid :])
        h_prev = h
        uh = u @ h_prev
        rz = 1.0 / (1.0 + exp(-(wx[0] + uh[: 2 * hid] + b_rz)))
        z = rz[hid:]
        unh = uh[2 * hid :]
        n = tanh(wx[1] + rz[:hid] * unh + b_n)
        h = (1.0 - z) * h_prev + z * n

        head_w, head_b, first_token, choice_values = kinds[kind]
        logits = head_w @ h + head_b
        probs, logp = _softmax_logprobs(logits)
        entropy = -float(add.reduce(probs * logp))
        if not math.isfinite(entropy):
            # NaN here means a non-finite logit somewhere in this head.
            raise NumericalError(f"non-finite {kind} logits at decision {len(out.steps)}")
        if actions is not None:
            choice = actions[len(out.steps)]
        elif greedy:
            choice = int(logits.argmax())
        else:
            # The draw Generator.choice(n, p=probs / probs.sum()) makes,
            # without its validation passes: same uniform, same result.
            cdf = add.accumulate(probs / add.reduce(probs))
            cdf /= cdf[-1]
            choice = int(cdf.searchsorted(rng.random(), "right"))
        out.steps.append(
            _Step(kind, choice, float(logp[choice]), entropy, source, rz, n, unh, h, probs, logp)
        )
        source = first_token + choice
        return choice_values[choice]

    for _ in range(params.space.n_units):
        depth = consume("depth")
        out.units.append(tuple((consume("kernel"), consume("expansion")) for _ in range(depth)))
    return out


def _forward(
    params: ControllerParams,
    pstate: PolicyState,
    actions: list[int] | None = None,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
) -> _Rollout:
    """Encode pstate with the current params, then roll the GRU out once."""
    enc = _encode(params.arrays, arch_onehot(pstate.prev_arch, params.space), pstate.bucket)
    return _rollout(params, enc, {}, actions=actions, rng=rng, greedy=greedy)


def _make_trajectory(roll: _Rollout, pstate: PolicyState) -> Trajectory:
    decisions = tuple(
        Decision(step.kind, step.choice, step.log_prob, step.entropy) for step in roll.steps
    )
    return Trajectory(
        arch=Architecture(units=tuple(roll.units)),
        decisions=decisions,
        log_prob=float(sum(step.log_prob for step in roll.steps)),
        entropy=float(sum(step.entropy for step in roll.steps)),
        prev_arch=pstate.prev_arch,
        shift=pstate.shift,
    )


def sample(params: ControllerParams, pstate: PolicyState, rng: np.random.Generator) -> Trajectory:
    """Draw one architecture from the current policy."""
    return _make_trajectory(_forward(params, pstate, rng=rng), pstate)


def score(params: ControllerParams, pstate: PolicyState, arch: Architecture) -> Trajectory:
    """Teacher-forced log-probability of producing a given architecture."""
    actions = _validate(arch, params.space)
    traj = _make_trajectory(_forward(params, pstate, actions=actions), pstate)
    assert traj.arch == arch
    return traj


def greedy_decode(params: ControllerParams, pstate: PolicyState) -> Architecture:
    """Argmax decoding; equal logits resolve to the lowest choice index."""
    return Architecture(units=tuple(_forward(params, pstate, greedy=True).units))


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
    raw millions. A larger shift relaxes the cost penalty. shift <= 0
    raises DivisionByZeroShift.
    """
    if shift <= 0.0:
        raise DivisionByZeroShift(f"shift must be positive, got {shift}")
    return (v_new - v_prev) - (lam / shift) * (c_new - c_prev)


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_t outer(a[t], b[t]), added in row order like a += loop.

    Not a.T @ b: a matrix product groups the sums its own way, and the
    last-bit differences it leaves grow over training into different
    trace values.
    """
    return (b[:, :, None] * a[:, None, :]).sum(axis=0).T


def _matvecs(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ rows[t] for every t, as one call of the same matrix-vector kernel."""
    return np.matmul(m, rows[:, :, None])[:, :, 0]


def _backward(
    params: ControllerParams,
    roll: _Rollout,
    advantage: float,
    cfg: TrainerConfig,
) -> np.ndarray:
    """Flat gradient of advantage*logpi + w_e*entropy - wd*||theta||^2/2.

    Every per-step quantity is stacked newest first, so each sum over steps
    adds in the order a step-by-step backward pass would, and the result is
    bit for bit the same. Only the hidden-state recurrence runs per step.
    """
    p = params.arrays
    enc = roll.enc
    flat_grad = np.zeros(params.flat.size)
    g = params.unflatten(flat_grad)
    we = cfg.entropy_weight
    newest_first = _Step(*zip(*reversed(roll.steps)))
    kinds, choices, sources = newest_first.kind, newest_first.choice, list(newest_first.source)
    hs = np.array(newest_first.h)

    # Heads: d/dlogits of logp[choice] is onehot - probs; of entropy is
    # -probs * (logp + H).
    dhead = np.empty_like(hs)
    for kind, (head_rows, _) in _kinds(params.space).items():
        rows = [i for i, k in enumerate(kinds) if k == kind]
        if not rows:
            continue
        probs = np.array([newest_first.probs[i] for i in rows])
        dlogits = advantage * (-probs)
        dlogits[np.arange(len(rows)), [choices[i] for i in rows]] += advantage
        if we != 0.0:
            logp = np.array([newest_first.logp[i] for i in rows])
            entropy = np.array([newest_first.entropy[i] for i in rows])
            dlogits += we * (-probs * (logp + entropy[:, None]))
        g["head_w"][head_rows] = _outer_sum(dlogits, hs[rows])
        g["head_b"][head_rows] = dlogits.sum(axis=0)
        dhead[rows] = _matvecs(p["head_w"][head_rows].T, dlogits)

    hid = hs.shape[1]
    rz = np.array(newest_first.rz)
    r, z = rz[:, :hid], rz[:, hid:]
    n = np.array(newest_first.n)
    h_prev = np.concatenate((hs[1:], enc.h0[None]))
    unh = np.array(newest_first.unh)
    w, u = p["gru_w"], p["gru_u"]
    ur_t, uz_t, un_t = u[:hid].T, u[hid : 2 * hid].T, u[2 * hid :].T
    da_r, da_z, da_n, dunh = [], [], [], []
    dh_next = np.zeros(hid)
    # Products and sums associate left to right, as the step-by-step pass
    # wrote them; regrouping them changes the last bits.
    for dh_head, n_minus_h, z_t, one_minus_z, one_minus_n2, unh_t, r_t, one_minus_r in zip(
        dhead, n - h_prev, z, 1.0 - z, 1.0 - n * n, unh, r, 1.0 - r
    ):
        dh = dh_head + dh_next
        dz = dh * n_minus_h
        dan = dh * z_t * one_minus_n2
        du = dan * r_t
        dar = dan * unh_t * r_t * one_minus_r
        daz = dz * z_t * one_minus_z
        dh_next = dh * one_minus_z + un_t @ du + ur_t @ dar + uz_t @ daz
        da_n.append(dan)
        dunh.append(du)
        da_r.append(dar)
        da_z.append(daz)
    da_r, da_z, da_n, dunh = (np.array(stack) for stack in (da_r, da_z, da_n, dunh))

    da = np.concatenate((da_r, da_z, da_n), axis=1)
    g["gru_w"][...] = _outer_sum(da, p["token_emb"][sources])
    g["gru_u"][...] = _outer_sum(np.concatenate((da_r, da_z, dunh), axis=1), h_prev)
    g["gru_b"][...] = da.sum(axis=0)

    # Token embeddings: steps fed by the same token row add up, newest first.
    dx = _matvecs(w[2 * hid :].T, da_n)
    dx += _matvecs(w[:hid].T, da_r)
    dx += _matvecs(w[hid : 2 * hid].T, da_z)
    np.add.at(g["token_emb"], sources, dx)

    # into the initial state projection and the encoder
    dh0pre = dh_next * (1.0 - enc.h0 * enc.h0)
    g["init_w"][...] = np.outer(dh0pre, enc.state_vec)
    g["init_b"][...] = dh0pre
    dstate = p["init_w"].T @ dh0pre
    a_dim = p["enc_w2"].shape[0]
    darch_emb = dstate[:a_dim]
    g["shift_emb"][enc.bucket] = dstate[a_dim:]
    g["enc_w2"][...] = np.outer(darch_emb, enc.e1)
    g["enc_b2"][...] = darch_emb
    de1 = p["enc_w2"].T @ darch_emb
    de1pre = de1 * (1.0 - enc.e1 * enc.e1)
    g["enc_w1"][...] = np.outer(de1pre, enc.onehot)
    g["enc_b1"][...] = de1pre

    if cfg.weight_decay != 0.0:
        flat_grad -= cfg.weight_decay * params.flat
    return flat_grad


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
    roll = _forward(params, pstate, actions=_validate(traj.arch, params.space))
    return params.unflatten(_backward(params, roll, advantage, cfg))


def _apply_update(
    params: ControllerParams,
    flat_grad: np.ndarray,
    cfg: TrainerConfig,
    state: TrainerState,
) -> None:
    """Ascend the objective; Adam moments live in the trainer state.

    The one place parameters change: a non-finite gradient raises
    NumericalError before anything is touched.
    """
    if not np.isfinite(flat_grad).all():
        bad = [k for k, g in params.unflatten(flat_grad).items() if not np.isfinite(g).all()]
        raise NumericalError(f"non-finite gradient in {', '.join(map(repr, bad))}")
    flat = params.flat
    lr = cfg.learning_rate
    if not cfg.use_adam:
        flat += lr * flat_grad
        state.step += 1
        return
    if state.m is None:
        state.m = np.zeros_like(flat)
        state.v = np.zeros_like(flat)
    state.step += 1
    t = state.step
    bias1 = 1.0 - _ADAM_BETA1**t
    bias2 = 1.0 - _ADAM_BETA2**t
    m, v = state.m, state.v
    m *= _ADAM_BETA1
    m += (1.0 - _ADAM_BETA1) * flat_grad
    v *= _ADAM_BETA2
    v += (1.0 - _ADAM_BETA2) * flat_grad * flat_grad
    flat += lr * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)


def _advance_baseline(state: TrainerState, reward_value: float, cfg: TrainerConfig) -> float:
    """Return the advantage and update the moving average."""
    if not cfg.use_baseline:
        return reward_value
    if state.baseline is None:
        state.baseline = reward_value
    advantage = reward_value - state.baseline
    state.baseline = cfg.baseline_decay * state.baseline + (1.0 - cfg.baseline_decay) * reward_value
    return advantage


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    reward: float
    entropy: float
    madds: float


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
    update. Returns the trained params and the per-iteration trace.
    """
    space = params.space
    rng = np.random.default_rng(cfg.seed)
    state = TrainerState()
    v_prev = evaluate(prev_arch, meta)
    c_prev = madds(prev_arch, space)
    onehot = arch_onehot(prev_arch, space)
    bucket = _checked_bucket(shift, cfg)
    trace: list[TraceRow] = []

    for it in range(cfg.iterations):
        # The weights are fixed within an iteration, so the encoder and
        # W @ x per token are shared by the batch.
        enc = _encode(params.arrays, onehot, bucket)
        wx_cache: dict = {}
        batch = []
        for _ in range(cfg.batch_size):
            roll = _rollout(params, enc, wx_cache, rng=rng)
            arch = Architecture(units=tuple(roll.units))
            v_new = evaluate(arch, meta)
            c_new = madds(arch, space)
            r = reward(v_new, v_prev, c_new, c_prev, cfg.lam, shift)
            batch.append((roll, r, c_new))

        mean_reward = float(np.mean([b[1] for b in batch]))
        mean_advantage = _advance_baseline(state, mean_reward, cfg)
        baseline_used = mean_reward - mean_advantage
        flat_grad = sum(_backward(params, roll, r - baseline_used, cfg) for roll, r, _ in batch)
        if cfg.batch_size > 1:
            flat_grad /= cfg.batch_size
        _apply_update(params, flat_grad, cfg, state)

        trace.append(
            TraceRow(
                iteration=it,
                reward=mean_reward,
                entropy=float(np.mean([float(sum(st.entropy for st in b[0].steps)) for b in batch])),
                madds=float(np.mean([b[2] for b in batch])),
            )
        )
    return params, trace


def write_trace(path, rows: list[TraceRow]) -> None:
    """CSV with one column per TraceRow field, each value written with repr."""
    names = [f.name for f in fields(TraceRow)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(row, name)) for name in names) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
