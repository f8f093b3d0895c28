"""Decoder-conditioning primitives as standalone, forward-only layers.

Feature maps are (C, H, W) float arrays. These layers are verified
structurally (identities, linearity, limits); they do not participate in the
toy training path and carry no backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import masks as mask_ops
from .errors import DomainError, ShapeError

__all__ = [
    "group_norm",
    "SpadeParams",
    "random_spade_params",
    "identity_spade_params",
    "spade_modulate",
    "boundary_map",
    "boundary_gate",
    "attention_similarity",
    "attention_weights",
    "attention_forward",
    "one_hot_mask",
]

_COS_EPS = 1e-8


def _check_feature_map(h) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 3 or min(h.shape) < 1:
        raise ShapeError(f"feature map must be (C,H,W) with positive dims, got {h.shape}")
    return h


def group_norm(h, groups: int, eps: float) -> np.ndarray:
    """Per-group standardization to zero mean / unit variance, no affine.

    The learned affine is deliberately absent; scale and shift come from the
    mask pathway (spade_modulate) instead.
    """
    h = _check_feature_map(h)
    c = h.shape[0]
    if groups < 1 or c % groups != 0:
        raise DomainError(f"groups={groups} must divide channel count {c}")
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    g = h.reshape(groups, c // groups, h.shape[1], h.shape[2])
    mean = g.mean(axis=(1, 2, 3), keepdims=True)
    var = g.var(axis=(1, 2, 3), keepdims=True)
    return ((g - mean) / np.sqrt(var + eps)).reshape(h.shape)


def one_hot_mask(m, shape: tuple[int, int]) -> np.ndarray:
    """Resize a binary mask to (H, W) and encode as a 2-channel one-hot map.

    Channel 0 is foreground (crack), channel 1 background.
    """
    m = mask_ops.resize_nearest(m, shape).astype(np.float64)
    return np.stack([m, 1.0 - m])


def _conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-size 3x3 convolution with zero padding; x (Cin,H,W), w (Cout,Cin,3,3)."""
    cin, h, wd = x.shape
    padded = np.zeros((cin, h + 2, wd + 2), dtype=np.float64)
    padded[:, 1:-1, 1:-1] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    return np.einsum("ihwkl,oikl->ohw", windows, w) + b[:, None, None]


@dataclass(frozen=True)
class SpadeParams:
    """Mask-encoder weights: shared 3x3 projection then gamma/beta heads."""

    w_shared: np.ndarray  # (hidden, 2, 3, 3)
    b_shared: np.ndarray  # (hidden,)
    w_gamma: np.ndarray  # (C, hidden, 3, 3)
    b_gamma: np.ndarray  # (C,)
    w_beta: np.ndarray  # (C, hidden, 3, 3)
    b_beta: np.ndarray  # (C,)
    groups: int = 1

    def __post_init__(self):
        c = self.w_gamma.shape[0]
        if self.w_beta.shape[0] != c or self.b_gamma.shape[0] != c or self.b_beta.shape[0] != c:
            raise ShapeError("gamma/beta heads must share the feature channel count")
        if self.groups < 1 or c % self.groups != 0:
            raise DomainError(f"groups={self.groups} must divide channels {c}")


def random_spade_params(
    channels: int, hidden: int = 8, groups: int = 1, rng: np.random.Generator | None = None
) -> SpadeParams:
    rng = rng or np.random.default_rng(0)
    s = 1.0 / np.sqrt(9 * max(hidden, 2))
    return SpadeParams(
        w_shared=rng.normal(0.0, s, (hidden, 2, 3, 3)),
        b_shared=np.zeros(hidden),
        w_gamma=rng.normal(0.0, s, (channels, hidden, 3, 3)),
        b_gamma=np.ones(channels),
        w_beta=rng.normal(0.0, s, (channels, hidden, 3, 3)),
        b_beta=np.zeros(channels),
        groups=groups,
    )


def identity_spade_params(channels: int, hidden: int = 8, groups: int = 1) -> SpadeParams:
    """Heads that emit gamma==1 and beta==0; the modulation is the identity."""
    return SpadeParams(
        w_shared=np.zeros((hidden, 2, 3, 3)),
        b_shared=np.zeros(hidden),
        w_gamma=np.zeros((channels, hidden, 3, 3)),
        b_gamma=np.ones(channels),
        w_beta=np.zeros((channels, hidden, 3, 3)),
        b_beta=np.zeros(channels),
        groups=groups,
    )


def spade_gamma_beta(mask, shape: tuple[int, int], p: SpadeParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel scale and shift maps predicted from the mask."""
    onehot = one_hot_mask(mask, shape)
    shared = np.maximum(_conv3x3(onehot, p.w_shared, p.b_shared), 0.0)
    gamma = _conv3x3(shared, p.w_gamma, p.b_gamma)
    beta = _conv3x3(shared, p.w_beta, p.b_beta)
    return gamma, beta


def spade_modulate(h_norm, mask, p: SpadeParams) -> np.ndarray:
    """Per-pixel affine modulation gamma(M)*h_norm + beta(M)."""
    h_norm = _check_feature_map(h_norm)
    gamma, beta = spade_gamma_beta(mask, h_norm.shape[1:], p)
    if gamma.shape != h_norm.shape:
        raise ShapeError(f"head output {gamma.shape} does not match features {h_norm.shape}")
    return gamma * h_norm + beta


def boundary_map(mask, thicken: int = 0) -> np.ndarray:
    """Morphological gradient dilate(M) - erode(M) as a {0,1} float raster.

    thicken applies that many further dilations to widen the edge band.
    """
    if thicken < 0:
        raise DomainError(f"thicken must be nonnegative, got {thicken}")
    # Validate once; the private kernels skip dilate/erode's per-call checks.
    m = mask_ops.as_mask(mask)
    g = mask_ops._dilate(m) - mask_ops._erode(m)
    for _ in range(thicken):
        g = mask_ops._dilate(g)
    return g.astype(np.float64)


def boundary_gate(h_spade, g, gate_omega: float) -> np.ndarray:
    """Edge-band amplification h * (1 + omega * G), G broadcast over channels."""
    h_spade = _check_feature_map(h_spade)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != h_spade.shape[1:]:
        raise ShapeError(f"boundary map {g.shape} does not match spatial dims {h_spade.shape[1:]}")
    return h_spade * (1.0 + gate_omega * g[None, :, :])


def attention_similarity(x, w_f: np.ndarray, w_g: np.ndarray) -> np.ndarray:
    """Cosine similarity between projected tokens, guarded by a small epsilon."""
    x = _check_feature_map(x)
    c = x.shape[0]
    tokens = x.reshape(c, -1).T
    f = tokens @ np.asarray(w_f).T
    g = tokens @ np.asarray(w_g).T
    return (f @ g.T) / (
        np.linalg.norm(f, axis=1)[:, None] * np.linalg.norm(g, axis=1)[None, :] + _COS_EPS
    )


def attention_weights(x, w_f: np.ndarray, w_g: np.ndarray, temperature: float) -> np.ndarray:
    """Row-stochastic attention: softmax over temperature-scaled similarities."""
    if not np.isfinite(temperature):
        raise DomainError("temperature must be finite")
    logits = temperature * attention_similarity(x, w_f, w_g)
    logits -= logits.max(axis=1, keepdims=True)
    attn = np.exp(logits)
    attn /= attn.sum(axis=1, keepdims=True)
    return attn


def attention_forward(
    x,
    w_f: np.ndarray,
    w_g: np.ndarray,
    w_h: np.ndarray,
    w_v: np.ndarray,
    temperature: float,
) -> np.ndarray:
    """Cosine-similarity self-attention with a residual skip.

    Tokens are the HW spatial positions with channel features; the value
    aggregation is routed by attention_weights, then projected and added back
    onto the input.
    """
    x = _check_feature_map(x)
    c, h, w = x.shape
    for name, mat in (("w_f", w_f), ("w_g", w_g), ("w_h", w_h), ("w_v", w_v)):
        if np.asarray(mat).shape != (c, c):
            raise ShapeError(f"{name} must be ({c},{c}), got {np.asarray(mat).shape}")
    tokens = x.reshape(c, h * w).T  # (N, C)
    hh = tokens @ np.asarray(w_h).T
    attn = attention_weights(x, w_f, w_g, temperature)
    out = tokens + (attn @ hh) @ np.asarray(w_v).T
    return out.T.reshape(c, h, w)
