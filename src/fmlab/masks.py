"""Binary mask algebra: coverage binning, morphology, propagation, statistics.

Masks are 2D uint8 numpy arrays with values in {0,1}. All operations are
pure; randomized ones take explicit seeds and derive one child generator per
variant so results are reproducible element by element. Connected components
are labelled over row runs, not pixels: a union-find joins the runs of
adjacent rows that touch 8-connectedly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "as_mask",
    "coverage",
    "CoverageBinning",
    "uniform_bins",
    "assign_class",
    "SE3",
    "dilate",
    "erode",
    "translate",
    "connected_components",
    "PropagationPolicy",
    "MaskVariant",
    "propagate",
    "skeletonize",
    "TargetStats",
    "estimate_target_stats",
    "resize_nearest",
]

# 3x3 full square structuring element (8-connected neighborhood).
SE3 = np.ones((3, 3), dtype=bool)


def as_mask(m) -> np.ndarray:
    """Validate and coerce to a strictly binary uint8 raster."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"mask must be 2D with positive dims, got shape {m.shape}")
    # Check before the cast: uint8 would truncate 0.5 to 0 and wrap 257 to 1.
    if not ((m == 0) | (m == 1)).all():
        raise DomainError("mask values must be 0 or 1")
    return m.astype(np.uint8, copy=True)


def coverage(m) -> float:
    """Fraction of foreground pixels."""
    m = as_mask(m)
    return float(m.mean())


@dataclass(frozen=True)
class CoverageBinning:
    """Strictly increasing coverage-ratio edges; C = len(edges)-1 classes."""

    edges: tuple[float, ...]

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.float64)
        if e.ndim != 1 or len(e) < 2:
            raise DomainError("need at least two edges")
        # Negated, so that a NaN edge fails the check like an infinite one.
        if not (e[0] >= 0.0 and e[-1] <= 1.0 and np.all(np.diff(e) > 0)):
            raise DomainError(f"edges must be strictly increasing within [0,1], got {e.tolist()}")
        object.__setattr__(self, "edges", tuple(float(v) for v in e))

    @property
    def num_classes(self) -> int:
        return len(self.edges) - 1


def uniform_bins(num_classes: int = 10, max_coverage: float = 0.05) -> CoverageBinning:
    """Equal-width bins from 0 to max_coverage (default ten 0.5% bins)."""
    if not math.isfinite(max_coverage):
        # linspace would warn on an infinite end (0 * inf); the edge check
        # rejects a non-finite end as it is.
        return CoverageBinning(edges=(0.0, max_coverage))
    edges = np.linspace(0.0, max_coverage, num_classes + 1)
    return CoverageBinning(edges=tuple(edges))


def assign_class(rho: float, bins: CoverageBinning) -> int:
    """Class index with edges[i] <= rho < edges[i+1]; out-of-range clamps."""
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"coverage ratio must lie in [0,1], got {rho}")
    idx = int(np.searchsorted(bins.edges, rho, side="right")) - 1
    return int(np.clip(idx, 0, bins.num_classes - 1))


def _check_se(se) -> np.ndarray:
    se = np.asarray(se, dtype=bool)
    if se.ndim != 2 or se.shape[0] % 2 == 0 or se.shape[1] % 2 == 0:
        raise ShapeError(f"structuring element must be 2D with odd dims, got {se.shape}")
    return se


def _morph(m: np.ndarray, se: np.ndarray, op, init: int) -> np.ndarray:
    """Reduce a validated mask with op (np.maximum or np.minimum) over the
    window of a validated structuring element, zero outside the image; init is
    the result where the element selects nothing."""
    h, w = m.shape
    ph, pw = se.shape[0] // 2, se.shape[1] // 2
    padded = np.zeros((h + 2 * ph, w + 2 * pw), dtype=np.uint8)
    padded[ph : ph + h, pw : pw + w] = m
    if np.count_nonzero(se) == se.size:
        # A box element is separable: reduce along each row, then each column.
        rows = padded[:, :w]
        for dj in range(1, se.shape[1]):
            rows = op(rows, padded[:, dj : dj + w])
        out = rows[:h]
        for di in range(1, se.shape[0]):
            out = op(out, rows[di : di + h])
        return out
    out = np.full_like(m, init)
    for di, dj in zip(*np.nonzero(se)):
        op(out, padded[di : di + h, dj : dj + w], out=out)
    return out


def _dilate(m: np.ndarray, se: np.ndarray = SE3) -> np.ndarray:
    return _morph(m, se, np.maximum, 0)


def _erode(m: np.ndarray, se: np.ndarray = SE3) -> np.ndarray:
    return _morph(m, se, np.minimum, 1)


def dilate(m, se=SE3) -> np.ndarray:
    """Binary dilation under zero padding (background outside the image)."""
    return _dilate(as_mask(m), _check_se(se))


def erode(m, se=SE3) -> np.ndarray:
    """Binary erosion under zero padding (border pixels erode away)."""
    return _erode(as_mask(m), _check_se(se))


def _translate(m: np.ndarray, dx: int, dy: int) -> np.ndarray:
    out = np.zeros_like(m)
    h, w = m.shape
    src_rows = slice(max(0, -dy), min(h, h - dy))
    src_cols = slice(max(0, -dx), min(w, w - dx))
    dst_rows = slice(max(0, dy), min(h, h + dy))
    dst_cols = slice(max(0, dx), min(w, w + dx))
    out[dst_rows, dst_cols] = m[src_rows, src_cols]
    return out


def translate(m, dx: int, dy: int) -> np.ndarray:
    """Shift right by dx and down by dy; pixels moved past a border vanish."""
    return _translate(as_mask(m), dx, dy)


def _run_forest(m: np.ndarray) -> tuple[int, np.ndarray, list[int]]:
    """Union-find over the foreground runs of a validated mask's rows, after
    He, Chao & Suzuki, "A Run-Based Two-Scan Labeling Algorithm" (2008).

    Returns the 8-connected component count, each run's length and each
    run's parent link, runs in raster order. A link always points to a lower
    run index, so each component's root is its first run."""
    h, w = m.shape
    # One leading zero, then each row of m followed by a zero: along this
    # line the changes alternate between a run's start and its exclusive end,
    # at flat positions row * (w + 1) + column.
    line = np.zeros(h * (w + 1) + 1, dtype=bool)
    line[1:].reshape(h, w + 1)[:, :w] = m
    starts, ends = np.flatnonzero(np.diff(line)).reshape(-1, 2).T
    # Run i touches run j of the next row when s_i <= e_j and s_j <= e_i;
    # with run i moved one row down (w + 1 positions), those j are the slice
    # first[i]:last[i].
    first = np.searchsorted(ends, starts + (w + 1))
    last = np.searchsorted(starts, ends + (w + 1), side="right")
    touching = np.flatnonzero(last > first)
    parent = list(range(len(starts)))
    count = len(parent)
    for i, j0, j1 in zip(touching.tolist(), first[touching].tolist(), last[touching].tolist()):
        for j in range(j0, j1):
            # Find both roots, halving the paths on the way.
            a, b = i, j
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
                count -= 1
            elif b < a:
                parent[a] = b
                count -= 1
    return count, ends - starts, parent


def _count_components(m: np.ndarray) -> int:
    """8-connected component count of a validated mask; builds no raster."""
    return _run_forest(m)[0]


def _components(m: np.ndarray) -> tuple[int, np.ndarray]:
    count, lengths, parent = _run_forest(m)
    # Every link points to a lower run, so jumping to the parent's parent
    # reaches each run's root; roots number the components in raster order.
    root = np.array(parent, dtype=np.intp)
    while not np.array_equal(root[root], root):
        root = root[root]
    run_labels = np.cumsum(root == np.arange(len(root)), dtype=np.int32)[root]
    labels = np.zeros(m.size, dtype=np.int32)
    labels[np.flatnonzero(m)] = np.repeat(run_labels, lengths)
    return count, labels.reshape(m.shape)


def connected_components(m) -> tuple[int, np.ndarray]:
    """8-connected component count and label raster (labels start at 1, in
    raster order of each component's first pixel)."""
    return _components(as_mask(m))


@dataclass(frozen=True)
class PropagationPolicy:
    """Controls for structure-preserving mask perturbation."""

    variants: int = 3
    max_dilate: int = 1
    max_erode: int = 1
    jitter_px: int = 1
    preserve_connectivity: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.variants < 1:
            raise DomainError(f"variants must be >= 1, got {self.variants}")
        for name in ("max_dilate", "max_erode", "jitter_px"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class MaskVariant:
    mask: np.ndarray
    provenance: str


def _window_restricted(m: np.ndarray, op, rng: np.random.Generator) -> np.ndarray:
    """Apply a morphological op inside a random window only (local
    thinning/thickening); the rest of the mask passes through unchanged."""
    h, w = m.shape
    wh = max(1, h // 2)
    ww = max(1, w // 2)
    r0 = int(rng.integers(0, h - wh + 1))
    c0 = int(rng.integers(0, w - ww + 1))
    out = m.copy()
    out[r0 : r0 + wh, c0 : c0 + ww] = op(m)[r0 : r0 + wh, c0 : c0 + ww]
    return out


def propagate(m, policy: PropagationPolicy) -> list[MaskVariant]:
    """Generate policy.variants perturbed masks from m.

    Each variant draws its own generator from (policy.seed, index), composes
    dilation/erosion (globally or window-restricted) with an integer jitter,
    and, when preserve_connectivity is set, falls back to jitter-only (then
    identity) whenever the composition would empty the mask or split
    components. Fallbacks are recorded in the variant provenance. m is
    validated once, up front.
    """
    m = as_mask(m)
    if policy.preserve_connectivity:
        base_components = _count_components(m)
        if base_components == 0:
            raise DomainError("cannot preserve connectivity of an empty mask")
    out: list[MaskVariant] = []
    for j in range(policy.variants):
        rng = np.random.default_rng([policy.seed, j])
        n_d = int(rng.integers(0, policy.max_dilate + 1))
        n_e = int(rng.integers(0, policy.max_erode + 1))
        local = bool(rng.random() < 0.5)
        dx = int(rng.integers(-policy.jitter_px, policy.jitter_px + 1))
        dy = int(rng.integers(-policy.jitter_px, policy.jitter_px + 1))

        cand = m
        for _ in range(n_d):
            cand = _window_restricted(cand, _dilate, rng) if local else _dilate(cand)
        for _ in range(n_e):
            cand = _window_restricted(cand, _erode, rng) if local else _erode(cand)
        cand = _translate(cand, dx, dy)
        tag = f"dilate={n_d};erode={n_e};local={int(local)};jitter=({dx},{dy})"

        if policy.preserve_connectivity:
            n_comp = _count_components(cand)
            if n_comp == 0 or n_comp > base_components:
                cand = _translate(m, dx, dy)
                tag += ";fallback=jitter_only"
                if cand.sum() == 0:
                    cand = m.copy()
                    tag += ";fallback=identity"
        out.append(MaskVariant(mask=cand, provenance=tag))
    return out


# Neighbours p2..p9 of a pixel, clockwise from north; bit k of a pixel's
# neighbourhood code holds p(k+2).
_NEIGHBOURS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _zhang_suen_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each of the 256 neighbourhood codes, whether Zhang-Suen removes a
    foreground pixel in its first and in its second subiteration: 2 <= B <= 6
    foreground neighbours, A == 1 background-to-foreground transitions around
    p2..p9,p2, and p2*p4*p6 == p4*p6*p8 == 0 (first) or p2*p4*p8 == p2*p6*p8
    == 0 (second)."""
    p = (np.arange(256)[:, None] >> np.arange(8)) & 1
    b = p.sum(axis=1)
    a = ((p == 0) & (np.roll(p, -1, axis=1) == 1)).sum(axis=1)
    p2, p4, p6, p8 = p[:, 0], p[:, 2], p[:, 4], p[:, 6]
    base = (b >= 2) & (b <= 6) & (a == 1)
    first = base & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    second = base & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return first, second


_ZHANG_SUEN_TABLES = _zhang_suen_tables()


def skeletonize(m) -> np.ndarray:
    """Zhang-Suen thinning; returns a 1-px-wide skeleton mask.

    Each subiteration packs every pixel's eight neighbours into a uint8 code
    and removes, all at once, the foreground pixels whose code its table
    selects; thinning stops when a full iteration removes nothing."""
    img = as_mask(m)
    h, w = img.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    inner = padded[1:-1, 1:-1]
    inner[...] = img
    code = np.empty((h, w), dtype=np.uint8)
    shifted = np.empty_like(code)
    changed = True
    while changed:
        changed = False
        for table in _ZHANG_SUEN_TABLES:
            code[...] = 0
            for bit, (di, dj) in enumerate(_NEIGHBOURS):
                np.left_shift(padded[1 + di : h + 1 + di, 1 + dj : w + 1 + dj], bit, out=shifted)
                code |= shifted
            remove = table[code]
            remove &= inner == 1
            if remove.any():
                inner[remove] = 0
                changed = True
    return inner.copy()


@dataclass(frozen=True)
class TargetStats:
    """Empirical coverage-class distribution plus a width summary."""

    histogram: np.ndarray
    mean_width: float
    n_used: int

    def __post_init__(self):
        object.__setattr__(self, "histogram", np.asarray(self.histogram, dtype=np.float64))


def _check_fraction(fraction: float) -> None:
    """Reject a subsample fraction outside (0, 1], NaN included."""
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"fraction must lie in (0,1], got {fraction}")


def estimate_target_stats(
    masks: list[np.ndarray], fraction: float, bins: CoverageBinning, seed: int = 0
) -> TargetStats:
    """Subsample ceil(fraction*N) masks and summarize their statistics.

    The histogram is the empirical distribution over coverage classes; the
    width summary is foreground area divided by skeleton length (a stroke
    width proxy), averaged over nonempty masks in the subsample.
    """
    _check_fraction(fraction)
    if len(masks) == 0:
        raise DomainError("mask sample is empty")
    n_use = math.ceil(fraction * len(masks))
    order = np.random.default_rng(seed).permutation(len(masks))
    chosen = [masks[i] for i in order[:n_use]]

    hist = np.zeros(bins.num_classes, dtype=np.float64)
    widths = []
    for m in chosen:
        m = as_mask(m)
        hist[assign_class(coverage(m), bins)] += 1.0
        area = float(m.sum())
        if area > 0:
            skel = float(skeletonize(m).sum())
            widths.append(area / max(skel, 1.0))
    hist /= hist.sum()
    mean_width = float(np.mean(widths)) if widths else 0.0
    return TargetStats(histogram=hist, mean_width=mean_width, n_used=n_use)


def resize_nearest(m, shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resample to (H, W); binarity is preserved."""
    m = as_mask(m)
    h2, w2 = shape
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"target shape must be positive, got {shape}")
    rows = (np.arange(h2) * m.shape[0] // h2).astype(np.intp)
    cols = (np.arange(w2) * m.shape[1] // w2).astype(np.intp)
    return m[np.ix_(rows, cols)]
