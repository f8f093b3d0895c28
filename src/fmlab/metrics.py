"""Distribution distances and segmentation losses/scores.

Feature sets are (n, dim) float matrices of caller-supplied embeddings; the
embedding extractor itself is out of scope. Segmentation inputs are binary
masks or probability rasters with matching shapes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._files import write_file
from .errors import DomainError, NumericError, ShapeError
from .masks import as_mask
from .neural import _sigmoid

__all__ = [
    "fid",
    "kid",
    "ConfusionCounts",
    "confusion",
    "iou",
    "f1",
    "focal_tversky",
    "focal_tversky_grad",
    "warmup_ramp",
    "sobel_edge_target",
    "combined_loss",
    "load_feature_set_tsv",
    "save_feature_set_tsv",
    "write_metric_report",
]

_TVERSKY_EPS = 1e-6
_SQRT_RESIDUAL_TOL = 1e-6


def _check_feature_set(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be (n, dim), got {a.shape}")
    if a.shape[0] < 2:
        raise DomainError(f"{name} needs at least 2 rows, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def _sqrtm_psd(mat: np.ndarray, label: str) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clamping roundoff."""
    sym = (mat + mat.T) / 2.0
    w, v = np.linalg.eigh(sym)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(w))))
    if w.min() < -tol:
        raise NumericError(f"{label} is not PSD: eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def fid(real, syn) -> float:
    """Frechet distance between Gaussian fits of two feature sets.

    ||mu_r - mu_s||^2 + Tr(S_r + S_s - 2 (S_r^1/2 S_s S_r^1/2)^1/2), with
    covariances the unbiased empirical ones and the matrix square roots
    computed by symmetric eigendecomposition.
    """
    real = _check_feature_set(real, "real")
    syn = _check_feature_set(syn, "syn")
    if real.shape[1] != syn.shape[1]:
        raise ShapeError(f"feature dims differ: {real.shape[1]} vs {syn.shape[1]}")
    mu_r, mu_s = real.mean(axis=0), syn.mean(axis=0)
    cov_r = np.atleast_2d(np.cov(real, rowvar=False))
    cov_s = np.atleast_2d(np.cov(syn, rowvar=False))
    sqrt_r = _sqrtm_psd(cov_r, "real covariance")
    inner = sqrt_r @ cov_s @ sqrt_r
    s = _sqrtm_psd(inner, "covariance product")
    inner_sym = (inner + inner.T) / 2.0
    residual = np.linalg.norm(s @ s - inner_sym)
    if residual > _SQRT_RESIDUAL_TOL * max(np.linalg.norm(inner_sym), 1e-30):
        raise NumericError(f"matrix sqrt residual {residual:.3e} beyond tolerance")
    return float(np.sum((mu_r - mu_s) ** 2) + np.trace(cov_r + cov_s - 2.0 * s))


def _poly_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dim = a.shape[1]
    return (a @ b.T / dim + 1.0) ** 3


def kid(real, syn) -> float:
    """Unbiased squared MMD with the cubic polynomial kernel (x.y/d + 1)^3.

    Diagonal terms are excluded from the within-set sums; with equally sized
    sets the cross term is likewise the u-statistic (diagonal excluded), so
    identical sets score exactly zero. Report x1000 at presentation layers.
    """
    real = _check_feature_set(real, "real")
    syn = _check_feature_set(syn, "syn")
    if real.shape[1] != syn.shape[1]:
        raise ShapeError(f"feature dims differ: {real.shape[1]} vs {syn.shape[1]}")
    n, m = real.shape[0], syn.shape[0]
    k_xx = _poly_kernel(real, real)
    k_yy = _poly_kernel(syn, syn)
    k_xy = _poly_kernel(real, syn)
    term_x = (k_xx.sum() - np.trace(k_xx)) / (n * (n - 1))
    term_y = (k_yy.sum() - np.trace(k_yy)) / (m * (m - 1))
    if n == m:
        cross = (k_xy.sum() - np.trace(k_xy)) / (n * (n - 1))
    else:
        cross = k_xy.sum() / (n * m)
    return float(term_x + term_y - 2.0 * cross)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: float
    fp: float
    fn: float
    tn: float

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DomainError("confusion counts must be nonnegative")


def confusion(pred, gt) -> ConfusionCounts:
    pred = as_mask(pred)
    gt = as_mask(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = pred.astype(bool)
    g = gt.astype(bool)
    return ConfusionCounts(
        tp=float(np.sum(p & g)),
        fp=float(np.sum(p & ~g)),
        fn=float(np.sum(~p & g)),
        tn=float(np.sum(~p & ~g)),
    )


def iou(c: ConfusionCounts) -> float:
    """TP / (TP+FP+FN); defined as 1 when both masks are empty."""
    denom = c.tp + c.fp + c.fn
    return 1.0 if denom == 0 else c.tp / denom


def f1(c: ConfusionCounts) -> float:
    """2TP / (2TP+FP+FN); defined as 1 when both masks are empty."""
    denom = 2 * c.tp + c.fp + c.fn
    return 1.0 if denom == 0 else 2 * c.tp / denom


def _soft_counts(probs: np.ndarray, gt: np.ndarray) -> tuple[float, float, float]:
    tp = float(np.sum(probs * gt))
    fp = float(np.sum(probs * (1.0 - gt)))
    fn = float(np.sum((1.0 - probs) * gt))
    return tp, fp, fn


def _check_probs(probs, gt) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    g = as_mask(gt).astype(np.float64)
    if probs.shape != g.shape:
        raise ShapeError(f"raster shapes differ: {probs.shape} vs {g.shape}")
    if np.any(probs < 0) or np.any(probs > 1):
        raise DomainError("probabilities must lie in [0,1]")
    return probs, g


def focal_tversky(probs, gt, alpha: float = 0.3, beta: float = 0.75, gamma: float = 1.33) -> float:
    """(1 - T)^gamma with T = TP/(TP + alpha*FP + beta*FN) on soft counts.

    A small epsilon in numerator and denominator keeps the empty-ground-truth
    case finite.
    """
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must be positive")
    probs, g = _check_probs(probs, gt)
    tp, fp, fn = _soft_counts(probs, g)
    t = (tp + _TVERSKY_EPS) / (tp + alpha * fp + beta * fn + _TVERSKY_EPS)
    return float((1.0 - t) ** gamma)


def focal_tversky_grad(
    probs, gt, alpha: float = 0.3, beta: float = 0.75, gamma: float = 1.33
) -> np.ndarray:
    """Analytic d loss / d probs for the smoothed focal Tversky loss."""
    probs, g = _check_probs(probs, gt)
    tp, fp, fn = _soft_counts(probs, g)
    num = tp + _TVERSKY_EPS
    den = tp + alpha * fp + beta * fn + _TVERSKY_EPS
    t = num / den
    dnum = g
    dden = g + alpha * (1.0 - g) - beta * g
    dt = (dnum * den - num * dden) / den**2
    return -gamma * (1.0 - t) ** (gamma - 1.0) * dt


def warmup_ramp(epoch: int, total_epochs: int, ramp_fraction: float = 0.1) -> float:
    """Linear ramp for the boundary term: 0 at epoch 0, 1 after the ramp.

    The ramp spans the first ramp_fraction of total_epochs (length is a
    config value); feed the result to combined_loss as warmup_scale.
    """
    if total_epochs < 1 or epoch < 0:
        raise DomainError("epoch must be >= 0 and total_epochs >= 1")
    if not 0.0 < ramp_fraction <= 1.0:
        raise DomainError(f"ramp_fraction must lie in (0,1], got {ramp_fraction}")
    ramp_len = ramp_fraction * total_epochs
    return float(min(1.0, epoch / ramp_len))


def sobel_edge_target(gt) -> np.ndarray:
    """Normalized Sobel gradient magnitude of the ground truth in [0,1].

    Edge-replicate padding, so constant masks map to all-zeros.
    """
    g = as_mask(gt).astype(np.float64)
    padded = np.pad(g, 1, mode="edge")
    kx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    ky = kx.T
    h, w = g.shape
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    gx = np.einsum("hwkl,kl->hw", windows, kx)
    gy = np.einsum("hwkl,kl->hw", windows, ky)
    mag = np.sqrt(gx**2 + gy**2)
    peak = mag.max()
    return mag / peak if peak > 0 else mag


def combined_loss(
    logits,
    gt,
    lambda_ft: float = 0.8,
    eta: float = 0.2,
    warmup_scale: float = 1.0,
    alpha: float = 0.3,
    beta: float = 0.75,
    gamma: float = 1.33,
) -> float:
    """lambda*FT(sigmoid(logits), gt) + eta*warmup*BCE(sigmoid(logits), edges).

    The boundary term is binary cross-entropy against the Sobel-derived soft
    edge map of the ground truth; warmup_scale in [0,1] implements its linear
    ramp during early training. Cross-entropy is evaluated from the logits
    (softplus form), so saturated predictions stay finite.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise DomainError("logits must be finite")
    if not 0.0 <= warmup_scale <= 1.0:
        raise DomainError(f"warmup_scale must lie in [0,1], got {warmup_scale}")
    g = as_mask(gt).astype(np.float64)
    if logits.shape != g.shape:
        raise ShapeError(f"raster shapes differ: {logits.shape} vs {g.shape}")
    probs = _sigmoid(logits)
    ft = focal_tversky(probs, gt, alpha=alpha, beta=beta, gamma=gamma)
    edges = sobel_edge_target(gt)
    # BCE from logits: -e*log(p) - (1-e)*log(1-p) = softplus(z) - e*z.
    softplus = np.logaddexp(0.0, logits)
    bce = float(np.mean(softplus - edges * logits))
    return lambda_ft * ft + eta * warmup_scale * bce


# -- file interfaces ----------------------------------------------------------


def save_feature_set_tsv(path, features) -> None:
    """One row per sample, tab-separated f64 columns, no header."""
    features = _check_feature_set(features, "features")
    write_file(path, ("\t".join(repr(float(v)) for v in row) + "\n" for row in features))


def load_feature_set_tsv(path) -> np.ndarray:
    """The (n, dim) finite float rows of a feature TSV; every error names path."""
    # DomainError is a ValueError, as are a non-number cell and a non-ASCII byte.
    try:
        with open(path, "r", encoding="ascii") as fh:
            rows = [[float(tok) for tok in line.split("\t")] for line in map(str.strip, fh) if line]
        if not rows:
            raise DomainError("empty feature set file")
        lengths = sorted({len(row) for row in rows})
        if len(lengths) > 1:
            raise DomainError(f"feature rows have {lengths} columns")
        features = np.asarray(rows, dtype=np.float64)
        if not np.isfinite(features).all():
            raise DomainError("feature set contains non-finite entries")
    except ValueError as exc:
        raise DomainError(f"{exc} in {path}") from None
    return features


def _metric_report(values: dict[str, float]) -> tuple[str, str]:
    """The header and the one row of a metric report."""
    return "\t".join(values) + "\n", "\t".join(repr(float(v)) for v in values.values()) + "\n"


def write_metric_report(path, values: dict[str, float]) -> None:
    """Single-row TSV with named metric columns (e.g. fid, kid_x1000, miou, f1)."""
    write_file(path, _metric_report(values))
