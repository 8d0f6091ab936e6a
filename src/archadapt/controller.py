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

All parameter arrays live in a ControllerParams dict in a fixed order.
Each array is a view into one contiguous buffer (``ControllerParams.flat``),
and gradients use the same layout, so Adam, weight decay and batch
averaging each run as a single vector operation. One guarded helper
applies every update and refuses non-finite gradients.

The hot path keeps the numbers of a step-by-step implementation bit for
bit while making far fewer numpy calls:

- forward: the three GRU gates are computed together from fused
  (3H, X), (3H, H) and (3H,) blocks, built from the named arrays on every
  pass so in-place edits are seen; W @ x is computed once per token;
- sampling draws exactly as ``Generator.choice(n, p=probs / probs.sum())``
  would (cumulative sum, normalize by its last entry, right-side search of
  one uniform), so the RNG stream and every sampled trajectory stay the
  same, without choice's per-call validation; non-finite logits raise
  NumericalError instead;
- backward: head and weight gradients are computed from the stacked steps,
  summed in the same order the per-step loop used; only the hidden-state
  recurrence runs step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
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


@dataclass(eq=False)
class ControllerParams:
    """Named parameter arrays in a fixed order.

    Every array is a view into one contiguous float64 buffer, ``flat``, laid
    out in the same order, so the optimizer can treat all parameters as one
    vector. Writing into an array updates the buffer. Replacing an entry of
    ``arrays`` is allowed too: the next read of ``flat`` packs the arrays
    into a fresh buffer and rebinds every entry to a view of it.
    """

    space: SpaceConfig
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        self._pack()

    def _pack(self) -> None:
        self._flat = np.concatenate([np.ravel(a) for a in self.arrays.values()], dtype=float)
        self._views = self.unflatten(self._flat)
        self.arrays.update(self._views)

    @property
    def flat(self) -> np.ndarray:
        views = self._views
        if views.keys() != self.arrays.keys() or any(
            self.arrays[k] is not v for k, v in views.items()
        ):
            self._pack()
        return self._flat

    def unflatten(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a flat vector, shaped and named like the arrays."""
        out = {}
        offset = 0
        for name, arr in self.arrays.items():
            out[name] = vector[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size
        return out

    def copy(self) -> "ControllerParams":
        return ControllerParams(
            space=self.space,
            arrays={k: v.copy() for k, v in self.arrays.items()},
        )

    def l2_norm_sq(self) -> float:
        flat = self.flat
        return float(flat @ flat)


def init_params(space: SpaceConfig, cfg: TrainerConfig, seed: int = 0) -> ControllerParams:
    """Fresh parameters, uniform in [-0.1, 0.1]; shapes depend only on config."""
    rng = np.random.default_rng(seed)
    n_d = len(space.depth_choices)
    n_k = len(space.kernel_choices)
    n_e = len(space.expansion_choices)
    length = arch_onehot(min_arch(space), space).size
    h, eh = cfg.hidden_size, cfg.encoder_hidden
    a, s, x = cfg.arch_embed_dim, cfg.shift_embed_dim, cfg.token_embed_dim

    shapes = [
        ("enc_w1", (eh, length)),
        ("enc_b1", (eh,)),
        ("enc_w2", (a, eh)),
        ("enc_b2", (a,)),
        ("shift_emb", (cfg.bucket_count, s)),
        ("init_w", (h, a + s)),
        ("init_b", (h,)),
        ("start_emb", (x,)),
        ("depth_emb", (n_d, x)),
        ("kernel_emb", (n_k, x)),
        ("expansion_emb", (n_e, x)),
        ("gru_wr", (h, x)),
        ("gru_ur", (h, h)),
        ("gru_br", (h,)),
        ("gru_wz", (h, x)),
        ("gru_uz", (h, h)),
        ("gru_bz", (h,)),
        ("gru_wn", (h, x)),
        ("gru_un", (h, h)),
        ("gru_bn", (h,)),
        ("head_depth_w", (n_d, h)),
        ("head_depth_b", (n_d,)),
        ("head_kernel_w", (n_k, h)),
        ("head_kernel_b", (n_k,)),
        ("head_expansion_w", (n_e, h)),
        ("head_expansion_b", (n_e,)),
    ]
    arrays = {name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in shapes}
    return ControllerParams(space=space, arrays=arrays)


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


_KINDS = ("depth", "kernel", "expansion")


def _fused_gates(p: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GRU weights as one (3H, X), one (3H, H) and one (3H,) block, gates r, z, n.

    Built from the named arrays on every call, so in-place edits of those
    arrays are always seen.
    """
    return (
        np.concatenate((p["gru_wr"], p["gru_wz"], p["gru_wn"])),
        np.concatenate((p["gru_ur"], p["gru_uz"], p["gru_un"])),
        np.concatenate((p["gru_br"], p["gru_bz"], p["gru_bn"])),
    )


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
    source: tuple[str, int]  # the token whose embedding x fed this step
    x: np.ndarray
    rz: np.ndarray  # r and z gate activations, concatenated
    n: np.ndarray
    unh: np.ndarray  # U_n @ h_prev
    h: np.ndarray
    probs: np.ndarray
    logp: np.ndarray


def _rollout(
    params: ControllerParams,
    enc: _Encoded,
    gates: tuple[np.ndarray, np.ndarray, np.ndarray],
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
    token and kept in wx_cache, which is valid for one set of weights.
    """
    p = params.arrays
    space = params.space
    w, u, b = gates
    hid = enc.h0.size
    b_rz, b_n = b[: 2 * hid], b[2 * hid :]
    # Per kind: its head weights and bias, token embeddings and choice values.
    kinds = {
        k: (p[f"head_{k}_w"], p[f"head_{k}_b"], p[f"{k}_emb"], getattr(space, f"{k}_choices"))
        for k in _KINDS
    }
    exp, tanh, add = np.exp, np.tanh, np.add
    out = _Rollout(enc)
    h = enc.h0
    source = ("start", 0)
    x = p["start_emb"]

    def consume(kind: str) -> int:
        nonlocal h, x, source
        wx = wx_cache.get(source)
        if wx is None:
            wx = w @ x
            wx_cache[source] = wx = (wx[: 2 * hid], wx[2 * hid :])
        h_prev = h
        uh = u @ h_prev
        rz = 1.0 / (1.0 + exp(-(wx[0] + uh[: 2 * hid] + b_rz)))
        z = rz[hid:]
        unh = uh[2 * hid :]
        n = tanh(wx[1] + rz[:hid] * unh + b_n)
        h = (1.0 - z) * h_prev + z * n

        head_w, head_b, emb, choice_values = kinds[kind]
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
            _Step(kind, choice, float(logp[choice]), entropy, source, x, rz, n, unh, h, probs, logp)
        )
        x = emb[choice]
        source = (kind, choice)
        return choice_values[choice]

    for _ in range(space.n_units):
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
    p = params.arrays
    enc = _encode(p, arch_onehot(pstate.prev_arch, params.space), pstate.bucket)
    return _rollout(params, enc, _fused_gates(p), {}, actions=actions, rng=rng, greedy=greedy)


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
    kinds, choices, sources = newest_first.kind, newest_first.choice, newest_first.source
    hs = np.array(newest_first.h)

    # Heads: d/dlogits of logp[choice] is onehot - probs; of entropy is
    # -probs * (logp + H).
    dhead = np.empty_like(hs)
    for kind in _KINDS:
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
        g[f"head_{kind}_w"][...] = _outer_sum(dlogits, hs[rows])
        g[f"head_{kind}_b"][...] = dlogits.sum(axis=0)
        dhead[rows] = _matvecs(p[f"head_{kind}_w"].T, dlogits)

    hid = hs.shape[1]
    rz = np.array(newest_first.rz)
    r, z = rz[:, :hid], rz[:, hid:]
    n = np.array(newest_first.n)
    h_prev = np.concatenate((hs[1:], enc.h0[None]))
    unh = np.array(newest_first.unh)
    ur_t, uz_t, un_t = p["gru_ur"].T, p["gru_uz"].T, p["gru_un"].T
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

    xs = np.array(newest_first.x)
    gw = _outer_sum(np.concatenate((da_r, da_z, da_n), axis=1), xs)
    gu = _outer_sum(np.concatenate((da_r, da_z, dunh), axis=1), h_prev)
    for j, gate in enumerate("rzn"):
        block = slice(j * hid, (j + 1) * hid)
        g["gru_w" + gate][...] = gw[block]
        g["gru_u" + gate][...] = gu[block]
    g["gru_br"][...] = da_r.sum(axis=0)
    g["gru_bz"][...] = da_z.sum(axis=0)
    g["gru_bn"][...] = da_n.sum(axis=0)

    # Token embeddings: rows fed by the same token add up, newest first.
    dx = _matvecs(p["gru_wn"].T, da_n)
    dx += _matvecs(p["gru_wr"].T, da_r)
    dx += _matvecs(p["gru_wz"].T, da_z)
    g["start_emb"][...] = dx[-1]
    for kind in _KINDS:
        rows = [i for i, (k, _) in enumerate(sources) if k == kind]
        if rows:
            np.add.at(g[f"{kind}_emb"], [sources[i][1] for i in rows], dx[rows])

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


def _trajectory_gradient(
    params: ControllerParams,
    traj: Trajectory,
    advantage: float,
    cfg: TrainerConfig,
) -> np.ndarray:
    pstate = embed_state(params, traj.prev_arch, traj.shift, cfg)
    actions = _validate(traj.arch, params.space)
    return _backward(params, _forward(params, pstate, actions=actions), advantage, cfg)


def objective_gradients(
    params: ControllerParams,
    traj: Trajectory,
    advantage: float,
    cfg: TrainerConfig,
) -> dict[str, np.ndarray]:
    """Analytic gradients of objective_value w.r.t. every parameter array."""
    return params.unflatten(_trajectory_gradient(params, traj, advantage, cfg))


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
        # The weights are fixed within an iteration, so the encoder, the
        # fused gate blocks and W @ x per token are shared by the batch.
        p = params.arrays
        enc = _encode(p, onehot, bucket)
        gates = _fused_gates(p)
        wx_cache: dict = {}
        batch = []
        for _ in range(cfg.batch_size):
            roll = _rollout(params, enc, gates, wx_cache, rng=rng)
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
