"""Trainable velocity fields with handwritten reverse-mode gradients.

The model is a small dense network (SiLU activations) over flattened
samples. Conditioning enters through a sinusoidal time embedding summed with
a label embedding and passed through a two-layer MLP whose output z is added
to every hidden pre-activation. The first pre-activation is x @ w_in[:D]
plus one condition term: b_in for class-conditional models, and
[m, 1-m] @ w_in[D:] + b_in for mask-conditional ones, with m the flattened
mask. Sampling binds a solve's condition and guidance weight once
(VelocityModel.bind), computing that term once per solve and z once per t.
A guided evaluation computes x @ w_in[:D] once for the conditional and null
halves, and combines them (classifier-free guidance) before the affine
output layer. A model is mask-conditional exactly when it is built with a
mask_shape. Everything is float64 numpy and bit-deterministic for a fixed
seed.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._files import write_file
from .errors import DomainError, ShapeError, TrainingError
from .schedules import (
    PathSchedule,
    RectifiedSchedule,
    cfg_combine,
    interpolate,
    rectified_interpolate,
    target_velocity,
)

__all__ = [
    "time_embedding",
    "VelocityModel",
    "TrainState",
    "TrainConfig",
    "init_train_state",
    "adam_step",
    "ema_update",
    "train_fm",
    "train_rf_injector",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"FMCK"
CHECKPOINT_VERSION = 2


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of s = 1e3*t as interleaved (sin, cos) pairs.

    Component 2i is sin(s / 10000^(2i/dim)), component 2i+1 the matching
    cosine. Scaling t by 1e3 spreads [0,1] over resolvable phases.
    """
    if dim <= 0 or dim % 2 != 0:
        raise DomainError(f"embedding dim must be even and positive, got {dim}")
    t = np.asarray(t, dtype=np.float64)
    s = 1e3 * t
    i = np.arange(dim // 2, dtype=np.float64)
    freqs = 10000.0 ** (2.0 * i / dim)
    angles = s[..., None] / freqs if t.ndim else s / freqs
    out = np.empty(t.shape + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


def _sigmoid(x):
    """Logistic function as 0.5*(1 + tanh(x/2)), computed in one temporary;
    unlike 1/(1 + exp(-x)) it cannot overflow, so it needs no sign split."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _silu_grad(g, h, sig):
    """g * SiLU'(x) written into g, with SiLU'(x) = sig + h*(1 - sig) taken
    from the forward cache (sig = sigmoid(x), h = x*sig)."""
    d = np.subtract(1.0, sig)
    d *= h
    d += sig
    g *= d
    return g


class VelocityModel:
    """Dense velocity network v(x, t, y) with exact manual gradients.

    Without mask_shape the model is class-conditional: it embeds integer
    labels, and row num_classes is the reserved null token. With mask_shape
    it is mask-conditional: the flattened one-hot mask enters the first layer
    through w_in's rows past data_dim, the time embedding alone feeds the
    conditioning path, and num_classes is ignored (recorded as 0).
    The conditioning vector z is added to every hidden pre-activation, so the
    label/time signal reaches each block rather than only the input. None
    always denotes the null condition (null token / all-zeros mask). The
    output layer starts at zero, so a fresh model is the zero velocity field.
    params, when given, is a flat parameter vector as get_params returns it
    (a loaded checkpoint's); the model copies it and draws nothing from seed.
    """

    def __init__(
        self,
        data_dim: int,
        num_classes: int = 10,
        mask_shape: tuple[int, int] | None = None,
        width: int = 128,
        hidden_layers: int = 2,
        time_embed_dim: int = 32,
        seed: int = 0,
        params: np.ndarray | None = None,
    ):
        if mask_shape is None:
            if num_classes < 1:
                raise DomainError(f"num_classes must be >= 1, got {num_classes}")
        elif len(mask_shape) != 2 or not all(
            isinstance(n, (int, np.integer)) and n >= 1 for n in mask_shape
        ):
            raise DomainError(f"mask_shape must be two ints >= 1, got {mask_shape}")
        if time_embed_dim <= 0 or time_embed_dim % 2 != 0:
            raise DomainError(f"time_embed_dim must be even and positive, got {time_embed_dim}")
        if data_dim < 1 or width < 1 or hidden_layers < 1:
            raise DomainError("data_dim, width and hidden_layers must be positive")
        self.data_dim = data_dim
        self.num_classes = num_classes if mask_shape is None else 0
        self.mask_shape = None if mask_shape is None else tuple(int(n) for n in mask_shape)
        self.width = width
        self.hidden_layers = hidden_layers
        self.time_embed_dim = time_embed_dim

        cond_dim = 0 if mask_shape is None else 2 * self.mask_shape[0] * self.mask_shape[1]
        self.input_dim = data_dim + cond_dim

        rng = np.random.default_rng(seed)
        dt, w = time_embed_dim, width
        shapes: list[tuple[str, tuple[int, ...]]] = []
        if mask_shape is None:
            shapes.append(("emb", (num_classes + 1, dt)))
        shapes += [
            ("wz1", (dt, w)),
            ("bz1", (w,)),
            ("wz2", (w, w)),
            ("bz2", (w,)),
            ("w_in", (self.input_dim, w)),
            ("b_in", (w,)),
        ]
        for layer in range(hidden_layers - 1):
            shapes += [(f"wh{layer}", (w, w)), (f"bh{layer}", (w,))]
        shapes += [("w_out", (w, data_dim)), ("b_out", (data_dim,))]
        self._hidden = [(f"wh{i}", f"bh{i}") for i in range(hidden_layers - 1)]

        # One contiguous parameter vector and one gradient vector; _p and _g
        # hold named, reshaped views into them, so the optimizer updates the
        # weights and backward writes the gradients without any copying.
        n_params = sum(int(np.prod(shape)) for _, shape in shapes)
        self._flat = np.zeros(n_params) if params is None else np.array(params, dtype=np.float64)
        if self._flat.shape != (n_params,):
            raise ShapeError(f"expected {n_params} parameters, got {self._flat.shape}")
        self._gflat = np.zeros(n_params)
        self._p: dict[str, np.ndarray] = {}
        self._g: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in shapes:
            size = int(np.prod(shape))
            self._p[name] = self._flat[offset : offset + size].reshape(shape)
            self._g[name] = self._gflat[offset : offset + size].reshape(shape)
            offset += size
            if params is not None:
                continue
            if name == "emb":
                self._p[name][...] = rng.normal(0.0, 1.0 / np.sqrt(dt), shape)
            elif not name.startswith("b") and name != "w_out":
                self._p[name][...] = rng.normal(0.0, np.sqrt(2.0 / shape[0]), shape)

    # -- parameter vector plumbing ------------------------------------------

    @property
    def n_params(self) -> int:
        return self._flat.size

    def get_params(self) -> np.ndarray:
        return self._flat.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self._flat.shape:
            raise ShapeError(f"expected {self.n_params} parameters, got {flat.shape}")
        self._flat[...] = flat

    # -- conditioning preparation -------------------------------------------

    def _prepare_cond(self, y, batch: int):
        """Normalize y into per-sample label indices or one-hot mask rows; None
        is the null condition, and a single label or mask serves every row."""
        if self.mask_shape is None:
            null_idx = self.num_classes
            labels = np.asarray(null_idx if y is None else y)
            if labels.ndim == 0:
                labels = np.full(batch, labels)
            labels = labels.astype(np.intp)
            if labels.shape != (batch,):
                raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
            if np.any(labels < 0) or np.any(labels > null_idx):
                raise DomainError(f"labels must lie in [0, {null_idx}]")
            return labels
        hw = self.mask_shape[0] * self.mask_shape[1]
        m = np.zeros((batch,) + self.mask_shape) if y is None else np.asarray(y, dtype=np.float64)
        if m.ndim == 2:
            m = np.broadcast_to(m, (batch,) + m.shape)
        if m.shape != (batch,) + self.mask_shape:
            raise ShapeError(f"mask shape {m.shape} does not match {(batch,) + self.mask_shape}")
        flat = m.reshape(batch, hw)
        return np.concatenate([flat, 1.0 - flat], axis=1)

    # -- forward / backward --------------------------------------------------

    def _rows(self, x) -> np.ndarray:
        """x (D,) or (B, D) as a float64 (B, D) batch; a wrong shape raises
        ShapeError."""
        x = np.asarray(x, dtype=np.float64)
        xb = x[None, :] if x.ndim == 1 else x
        if xb.ndim != 2 or xb.shape[1] != self.data_dim:
            raise ShapeError(f"x must have trailing dim {self.data_dim}, got {x.shape}")
        return xb

    def _batch(self, x, t, y):
        """Normalize forward/backward inputs to a batch: x (D,) or (B, D) as
        (B, D), t a scalar or (B,) as (B,), y prepared for B rows; the last
        item says whether x was a single sample."""
        xb = self._rows(x)
        tb = np.asarray(t, dtype=np.float64)
        if tb.ndim == 0:
            tb = np.full(xb.shape[0], float(tb))
        return xb, tb, self._prepare_cond(y, xb.shape[0]), np.ndim(x) == 1

    def _conditioning(self, t: np.ndarray, labels):
        """z = MLP(psi(t) + E(labels)), E only for class models (labels None
        otherwise). Returns z, e and the z-MLP's hidden activation and
        sigmoid, which backward needs."""
        p = self._p
        e = time_embedding(t, self.time_embed_dim)
        if labels is not None:
            e += p["emb"][labels]
        # Each SiLU overwrites its pre-activation; backward needs only the
        # activation h and the sigmoid.
        zh = e @ p["wz1"]
        zh += p["bz1"]
        zh_sig = _sigmoid(zh)
        zh *= zh_sig
        z = zh @ p["wz2"]
        z += p["bz2"]
        return z, e, zh, zh_sig

    def _first_term(self, cond) -> np.ndarray:
        """The first layer's condition term for the prepared cond: b_in for
        class models, [m, 1-m] @ w_in[D:] + b_in per row for mask models."""
        if self.mask_shape is None:
            return self._p["b_in"]
        return cond @ self._p["w_in"][self.data_dim :] + self._p["b_in"]

    def _forward_batch(self, x: np.ndarray, t: np.ndarray, cond, *, pre=None, z=None, omega=None):
        """Network output for the rows of x and the cache backward reads.

        The first pre-activation is x @ w_in[:D] + pre + z. Training passes
        the prepared cond alone, and pre (_first_term of cond) and z are
        computed from it. A bound solve also passes pre and z, either of
        which may be one row shared by every row of x.

        A guided bound solve also passes omega. x then holds the B rows that
        the conditional and null halves share: x @ w_in[:D] is computed once
        and stacked to 2B rows, and pre (mask models) or z (class models)
        holds 2B rows, conditional half first. cfg_combine combines the
        halves before the output layer, which then runs on B rows; since
        that layer is affine, this equals cfg_combine of the two outputs in
        real arithmetic. The cache serves backward only for calls without
        omega.
        """
        p = self._p
        e = zh = zh_sig = None
        if z is None:
            z, e, zh, zh_sig = self._conditioning(t, cond if self.mask_shape is None else None)
        if pre is None:
            pre = self._first_term(cond)
        h = x @ p["w_in"][: self.data_dim]
        if omega is not None:
            h = np.concatenate([h, h])
        hs, sigs = [], []
        for w, b in [(None, pre)] + [(p[w], p[b]) for w, b in self._hidden]:
            if w is not None:
                h = h @ w
            h += b
            h += z
            sig = _sigmoid(h)
            h *= sig
            hs.append(h)
            sigs.append(sig)
        if omega is not None:
            h = cfg_combine(*h.reshape(2, len(x), -1), omega)
        out = h @ p["w_out"]
        out += p["b_out"]
        cache = {"x": x, "cond": cond, "e": e, "zh": zh, "zh_sig": zh_sig, "hs": hs, "sigs": sigs}
        return out, cache

    def bind(self, y, omega: float | None, batch: int) -> Callable[[np.ndarray, float], np.ndarray]:
        """Velocity v(x, t) for one ODE solve of batch rows under condition y,
        guided with weight omega unless omega is None or 1.

        y is validated and prepared once, as forward would for batch rows,
        and raises the same errors. The first layer's condition term
        (_first_term) is computed once, and z once per t: as one row for
        mask models, and for the num_classes + 1 labels, gathered per row,
        for class models. v(x, t) takes x shaped (D,) or (B, D) and a scalar
        t, and returns the velocity shaped like x. Guided, the null
        condition's mask term or labels are stacked under the conditional
        ones, and one _forward_batch call with omega returns
        cfg_combine(v_cond, v_null, omega); omega None or 1 is the unguided
        path, so a solve at omega 1 is bit-identical to an unguided one.
        """
        if omega == 1.0:
            omega = None
        cond = self._prepare_cond(y, batch)
        pre, table = self._first_term(cond), None
        if self.mask_shape is None:
            table = np.arange(self.num_classes + 1)
            if omega is not None:
                cond = np.concatenate([cond, self._prepare_cond(None, batch)])
        elif omega is not None:
            null = self._first_term(self._prepare_cond(None, 1))
            pre = np.concatenate([pre, np.broadcast_to(null, pre.shape)])
        z_t, z = None, None

        def velocity(x, t: float) -> np.ndarray:
            nonlocal z_t, z
            xb = self._rows(x)
            if xb.shape[0] != batch:
                raise ShapeError(f"x has {xb.shape[0]} rows, bound for {batch}")
            if z_t != t:  # Heun's corrector and the next predictor share t
                tb = np.full(1 if table is None else len(table), float(t))
                z = self._conditioning(tb, table)[0]
                z_t, z = t, (z if table is None else z[cond])
            out, _ = self._forward_batch(xb, t, cond, pre=pre, z=z, omega=omega)
            return out.reshape(np.shape(x))

        return velocity

    def _backward_batch(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Write the parameter gradient into the model's gradient buffer and
        return that buffer; the next call overwrites it."""
        p, g = self._p, self._g
        hs, sigs = cache["hs"], cache["sigs"]

        np.matmul(hs[-1].T, grad_out, out=g["w_out"])
        grad_out.sum(axis=0, out=g["b_out"])
        gh = grad_out @ p["w_out"].T
        gz = np.zeros_like(gh)
        for layer in range(self.hidden_layers - 2, -1, -1):
            gpre = _silu_grad(gh, hs[layer + 1], sigs[layer + 1])
            np.matmul(hs[layer].T, gpre, out=g[f"wh{layer}"])
            gpre.sum(axis=0, out=g[f"bh{layer}"])
            gz += gpre
            gh = gpre @ p[f"wh{layer}"].T
        gpre0 = _silu_grad(gh, hs[0], sigs[0])
        np.matmul(cache["x"].T, gpre0, out=g["w_in"][: self.data_dim])
        if self.mask_shape is not None:  # the rows _first_term multiplies
            np.matmul(cache["cond"].T, gpre0, out=g["w_in"][self.data_dim :])
        gpre0.sum(axis=0, out=g["b_in"])
        gz += gpre0

        # z feeds every hidden pre-activation, so its gradient is the sum.
        np.matmul(cache["zh"].T, gz, out=g["wz2"])
        gz.sum(axis=0, out=g["bz2"])
        gzh_pre = _silu_grad(gz @ p["wz2"].T, cache["zh"], cache["zh_sig"])
        np.matmul(cache["e"].T, gzh_pre, out=g["wz1"])
        gzh_pre.sum(axis=0, out=g["bz1"])
        if self.mask_shape is None:
            g["emb"][...] = 0.0
            np.add.at(g["emb"], cache["cond"], gzh_pre @ p["wz1"].T)
        return self._gflat

    def forward(self, x, t, y=None) -> np.ndarray:
        """Velocity prediction for a single sample or a batch.

        x is (D,) or (B, D); t a scalar or (B,); y a label, mask, per-sample
        array thereof, or None for the null condition. A wrong x or y shape
        raises ShapeError.
        """
        xb, tb, cond, single = self._batch(x, t, y)
        out, _ = self._forward_batch(xb, tb, cond)
        return out[0] if single else out

    def backward(self, x, t, y, grad_out) -> np.ndarray:
        """Exact gradient of sum(forward(x,t,y) * grad_out) w.r.t. parameters;
        inputs as for forward, grad_out shaped like its output."""
        xb, tb, cond, single = self._batch(x, t, y)
        grad_out = np.asarray(grad_out, dtype=np.float64)
        gb = grad_out[None, :] if single else grad_out
        if gb.shape != xb.shape:
            raise ShapeError(f"grad_out shape {grad_out.shape} does not match output")
        _, cache = self._forward_batch(xb, tb, cond)
        return self._backward_batch(cache, gb).copy()

    def conditioning_vector(self, t: float, y) -> np.ndarray:
        """z = MLP(psi(t) + E(y)), the forward pass's z; class-conditional
        models only."""
        if self.mask_shape is not None:
            raise DomainError("conditioning_vector requires a class-conditional model")
        z = self._conditioning(np.asarray([t], dtype=np.float64), self._prepare_cond(y, 1))[0]
        return z[0]


# -- optimizer and EMA --------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, and the only copy of the Adam/EMA hyperparameters."""

    steps: int = 1000
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    ema_decay: float = 0.9999
    p_drop: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lr < np.inf:
            raise DomainError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.p_drop <= 1.0:
            raise DomainError(f"p_drop must lie in [0,1], got {self.p_drop}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise DomainError(f"ema_decay must lie in [0,1), got {self.ema_decay}")
        if self.steps < 1 or self.batch_size < 1:
            raise DomainError(
                f"steps and batch_size must be >= 1, got {self.steps} and {self.batch_size}"
            )


@dataclass
class TrainState:
    """Optimizer state; its hyperparameters are those of config. adam_step
    and ema_update mutate it in place; the training loops return it with
    params copied out of the model."""

    params: np.ndarray
    ema_params: np.ndarray
    step: int
    adam_m: np.ndarray
    adam_v: np.ndarray
    config: TrainConfig

    def __post_init__(self):
        if self.ema_params.shape != self.params.shape:
            raise ShapeError("ema_params must match params length")


def init_train_state(model: VelocityModel, config: TrainConfig) -> TrainState:
    params = model.get_params()
    zeros = np.zeros_like(params)
    return TrainState(params, params.copy(), 0, zeros, zeros.copy(), config)


def adam_step(state: TrainState, grads: np.ndarray) -> TrainState:
    """One bias-corrected Adam update of state, in place, with the
    hyperparameters of state.config; returns state.

    params -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m/c1 and
    v_hat = v/c2 is evaluated as params -= (lr*sqrt(c2)/c1) * m /
    (sqrt(v) + eps*sqrt(c2)), which folds both corrections into scalars.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != state.params.shape:
        raise ShapeError(f"gradient shape {grads.shape} does not match params")
    step = state.step + 1
    if not np.isfinite(grads).all():
        raise TrainingError(f"non-finite gradients at step {step}", step=step)
    cfg = state.config
    b1, b2 = cfg.beta1, cfg.beta2
    root_c2 = np.sqrt(1.0 - b2**step)
    m, v = state.adam_m, state.adam_v
    scratch = np.multiply(grads, 1.0 - b1)
    m *= b1
    m += scratch
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - b2
    v *= b2
    v += scratch
    np.sqrt(v, out=scratch)
    scratch += cfg.eps_adam * root_c2
    np.divide(m, scratch, out=scratch)
    scratch *= cfg.lr * root_c2 / (1.0 - b1**step)
    state.params -= scratch
    state.step = step
    return state


def ema_update(state: TrainState) -> TrainState:
    """ema <- d*ema + (1-d)*params with d = state.config.ema_decay, in place
    as params + d*(ema - params); returns state."""
    ema = state.ema_params
    ema -= state.params
    ema *= state.config.ema_decay
    ema += state.params
    return state


# -- training loops -----------------------------------------------------------


def _train_loop(
    model: VelocityModel,
    config: TrainConfig,
    sched: PathSchedule | RectifiedSchedule,
    x1_all: np.ndarray,
    cond_all: np.ndarray,
    backgrounds: np.ndarray | None,
    callback: Callable[[int, float], None] | None,
) -> TrainState:
    """Train model onto sched's velocity target: both trainers' batch draw.

    Each step draws, in this order: batch_size row indices into x1_all and
    cond_all, the base batch x0 (N(0, I), or rows of backgrounds when given),
    path noise xi ~ N(0, I), times t ~ U(0, 1) and the dropout flags, which
    set their rows to the null condition. Path noise is drawn whether or not
    the schedule uses it. cond_all must hold one condition per row of x1_all."""
    if np.shape(cond_all)[:1] != x1_all.shape[:1]:
        raise ShapeError(f"{np.shape(cond_all)} conditions for {len(x1_all)} data rows")
    rng = np.random.default_rng(config.seed)
    state = init_train_state(model, config)
    # Adam updates the model's own parameter buffer, so no per-step copy-back.
    state.params = model._flat
    null = model._prepare_cond(None, 1)[0]
    for _ in range(config.steps):
        idx = rng.integers(0, len(x1_all), config.batch_size)
        x1 = x1_all[idx]
        if backgrounds is None:
            x0 = rng.standard_normal(x1.shape)
        else:
            x0 = backgrounds[rng.integers(0, len(backgrounds), config.batch_size)]
        xi = rng.standard_normal(x1.shape)
        t = rng.random(config.batch_size)
        drop = rng.random(config.batch_size) < config.p_drop
        if isinstance(sched, RectifiedSchedule):
            xt, ut = rectified_interpolate(sched, x0, x1, xi, t)
        else:
            xt, ut = interpolate(sched, x0, x1, xi, t), target_velocity(sched, x0, x1, xi, t)
        cond = model._prepare_cond(cond_all[idx], config.batch_size)
        cond[drop] = null
        pred, cache = model._forward_batch(xt, t, cond)
        diff = pred - ut
        loss = float(np.mean(diff**2))
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged (non-finite) at step {state.step + 1}", step=state.step + 1)
        grads = model._backward_batch(cache, 2.0 * diff / diff.size)
        ema_update(adam_step(state, grads))
        if callback is not None:
            callback(state.step, loss)
    state.params = model.get_params()
    return state


def train_fm(
    model: VelocityModel,
    dataset: tuple[np.ndarray, np.ndarray],
    sched: PathSchedule,
    config: TrainConfig,
    callback: Callable[[int, float], None] | None = None,
) -> TrainState:
    """Flow-matching training against pairwise velocity targets.

    dataset is (x1, y): data rows (N, D) and per-row conditioning, integer
    labels for class models or (N, H, W) masks for mask models. The base
    batch x0 is N(0, I), and the network regresses onto the interpolant's
    velocity. Deterministic for a fixed config.seed.
    """
    x1_all = np.asarray(dataset[0], dtype=np.float64)
    if x1_all.ndim != 2 or x1_all.shape[1] != model.data_dim:
        raise ShapeError(f"data must be (N, {model.data_dim}), got {x1_all.shape}")
    if x1_all.shape[0] == 0:
        raise DomainError("dataset is empty")
    return _train_loop(model, config, sched, x1_all, np.asarray(dataset[1]), None, callback)


def train_rf_injector(
    model: VelocityModel,
    crack_pairs: tuple[np.ndarray, np.ndarray],
    backgrounds: np.ndarray,
    sched: RectifiedSchedule,
    config: TrainConfig,
    callback: Callable[[int, float], None] | None = None,
) -> TrainState:
    """Rectified-flow training that transports backgrounds onto crack images.

    crack_pairs is (images (N, D), masks (N, H, W)); backgrounds is (M, D).
    Each step pairs an independent background x0, _train_loop's base batch,
    with a crack image x1 and regresses onto u_t = phi'(t)(x1 - x0) along
    the rectified bridge, with the mask as (dropout-subjected) conditioning.
    """
    images = np.asarray(crack_pairs[0], dtype=np.float64)
    mask_arr = np.asarray(crack_pairs[1], dtype=np.float64)
    bgs = np.asarray(backgrounds, dtype=np.float64)
    if images.shape[0] == 0 or mask_arr.shape[0] == 0:
        raise DomainError("no training pairs")
    if images.shape[0] != mask_arr.shape[0]:
        raise ShapeError("images and masks must pair one-to-one")
    if bgs.shape[0] == 0:
        raise DomainError("no backgrounds")
    if model.mask_shape is None:
        raise DomainError("train_rf_injector requires a mask-conditional model")
    return _train_loop(model, config, sched, images, mask_arr, bgs, callback)


# -- checkpoint I/O -----------------------------------------------------------

# The 16-byte header (magic, version, parameter count), then the meta block's length.
_HEADER = struct.Struct("<4sIQI")


def _parse_meta(block: bytes) -> dict[str, str]:
    """The ASCII key=value lines of a checkpoint's meta block; later keys win."""
    if not block.isascii():
        raise DomainError("checkpoint meta block is not ASCII")
    lines = block.decode().splitlines()
    for line in lines:
        if "=" not in line:
            raise DomainError(f"checkpoint meta line {line!r} has no '='")
    return dict(line.split("=", 1) for line in lines)


def save_checkpoint(path, params: np.ndarray, ema_params: np.ndarray, meta, *before) -> None:
    """Write the flat little-endian checkpoint: magic, version, count, the
    meta block's length, the meta block (a key=value line per item of meta,
    which must read back as itself), params, ema. Each (path, chunks) pair
    of before is staged with it and renamed ahead of it (see write_file), so
    a failure on any of them leaves the previous checkpoint."""
    params = np.ascontiguousarray(params, dtype="<f8")
    ema_params = np.ascontiguousarray(ema_params, dtype="<f8")
    if params.shape != ema_params.shape or params.ndim != 1:
        raise ShapeError("params and ema_params must be equal-length vectors")
    meta = {str(key): str(value) for key, value in meta.items()}
    text = "".join(f"{key}={value}\n" for key, value in meta.items())
    if _parse_meta(text.encode()) != meta:
        raise DomainError(f"checkpoint meta {meta!r} does not read back as key=value lines")
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.size, len(text))
    first, *rest = (*before, (path, (header, text, params, ema_params)))
    write_file(*first, *rest)


def _read_checkpoint(path) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    """A checkpoint's meta, params and ema from one read, the last two as
    read-only views of the file's bytes. A file cut or padded anywhere, or
    one whose meta block save_checkpoint would not write, raises DomainError
    naming path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob[:4] != CHECKPOINT_MAGIC:
            raise DomainError(f"bad checkpoint magic {blob[:4]!r}")
        if len(blob) < _HEADER.size:
            raise DomainError("checkpoint header truncated")
        _, version, count, meta_len = _HEADER.unpack_from(blob)
        if version != CHECKPOINT_VERSION:
            raise DomainError(f"unsupported checkpoint version {version}")
        start = _HEADER.size + meta_len
        if len(blob) < start + 16 * count:
            raise DomainError("checkpoint truncated")
        if len(blob) > start + 16 * count:
            raise DomainError("trailing bytes after checkpoint data")
        meta = _parse_meta(blob[_HEADER.size : start])
    except DomainError as exc:
        raise DomainError(f"{exc} in {path}") from None
    params, ema = np.frombuffer(blob, dtype="<f8", offset=start).reshape(2, count)
    return meta, params, ema


def load_checkpoint(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a checkpoint's (params, ema_params) back as writable copies."""
    _, params, ema = _read_checkpoint(path)
    return params.copy(), ema.copy()
