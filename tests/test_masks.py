import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmlab import masks as masks_module
from fmlab.errors import DomainError, ShapeError
from fmlab.masks import (
    CoverageBinning,
    PropagationPolicy,
    assign_class,
    as_mask,
    connected_components,
    coverage,
    dilate,
    erode,
    estimate_target_stats,
    propagate,
    resize_nearest,
    skeletonize,
    translate,
    uniform_bins,
)


def oracle_components(m: np.ndarray) -> int:
    """Independent 8-connectivity count: pairwise union-find over pixels."""
    h, w = m.shape
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(h):
        for j in range(w):
            if m[i, j]:
                parent[(i, j)] = (i, j)
    for i, j in list(parent):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                other = (i + di, j + dj)
                if other in parent:
                    ra, rb = find((i, j)), find(other)
                    if ra != rb:
                        parent[ra] = rb
    return len({find(p) for p in parent})


# -- coverage & binning -----------------------------------------------------------


def test_coverage_values():
    assert coverage(np.zeros((4, 4), dtype=np.uint8)) == 0.0
    m = np.zeros((4, 4), dtype=np.uint8)
    m[0, 0] = m[3, 1] = 1
    assert coverage(m) == pytest.approx(0.125)
    assert coverage(np.ones((3, 5), dtype=np.uint8)) == 1.0


def test_assign_class_typical_crack_proportions():
    bins = uniform_bins(10, 0.05)  # ten 0.5% bins
    assert assign_class(0.0046, bins) == 0  # sub-0.5% coverage
    assert assign_class(0.0284, bins) == 5  # 2.84% falls in [2.5%, 3.0%)
    assert assign_class(0.005, bins) == 1  # lower-closed edge rule


def test_assign_class_clamps_out_of_bins():
    bins = uniform_bins(10, 0.05)
    assert assign_class(0.9, bins) == 9
    assert assign_class(0.05, bins) == 9
    with pytest.raises(DomainError):
        assign_class(1.5, bins)
    with pytest.raises(DomainError):
        assign_class(-0.1, bins)


def test_assign_class_maps_an_array_of_ratios():
    bins = uniform_bins(10, 0.05)
    classes = assign_class(np.array([0.0046, 0.0284, 0.005, 0.9]), bins)
    assert classes.tolist() == [0, 5, 1, 9]
    assert classes.dtype.kind == "i"
    with pytest.raises(DomainError, match="got 1.5"):
        assign_class(np.array([0.0, 0.01, 1.5, 0.02]), bins)


def test_binning_validation():
    with pytest.raises(DomainError):
        CoverageBinning(edges=(0.0, 0.2, 0.1))
    with pytest.raises(DomainError):
        CoverageBinning(edges=(0.0, 1.5))
    with pytest.raises(DomainError):
        CoverageBinning(edges=(0.5,))
    assert uniform_bins(4, 0.75).num_classes == 4


@pytest.mark.parametrize(
    "edges", [(0.0, np.nan, 1.0), (0.0, 0.5, np.inf), (np.nan, 0.5), (-np.inf, 0.5)]
)
def test_binning_rejects_non_finite_edges(edges):
    with pytest.raises(DomainError):
        CoverageBinning(edges=edges)


@pytest.mark.parametrize("max_coverage", [np.nan, np.inf])
def test_uniform_bins_rejects_a_non_finite_max_coverage(max_coverage):
    with pytest.raises(DomainError):
        uniform_bins(3, max_coverage)


def test_assign_class_stable_under_transposition():
    rng = np.random.default_rng(0)
    bins = uniform_bins(5, 0.5)
    for _ in range(20):
        m = (rng.random((6, 9)) < 0.2).astype(np.uint8)
        assert assign_class(coverage(m), bins) == assign_class(coverage(m.T), bins)


# -- morphology ---------------------------------------------------------------------


def test_dilate_empty_stays_empty():
    z = np.zeros((5, 5), dtype=np.uint8)
    assert np.array_equal(dilate(z), z)


def test_single_pixel_dilates_to_block():
    m = np.zeros((5, 5), dtype=np.uint8)
    m[2, 2] = 1
    expected = np.zeros((5, 5), dtype=np.uint8)
    expected[1:4, 1:4] = 1
    assert np.array_equal(dilate(m), expected)


def test_dilate_extensive_erode_antiextensive():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = (rng.random((7, 6)) < 0.35).astype(np.uint8)
        d = dilate(m)
        e = erode(m)
        assert np.all(d >= m)
        assert np.all(e <= m)


def test_closing_extensive_on_all_3x3_masks():
    # erode(dilate(m)) contains m for every 3x3 pattern. Patterns sit centered
    # in a 7x7 canvas: zero padding erodes structures touching the image
    # border, so extensivity is a property of the interior.
    for bits in range(512):
        pattern = np.array([(bits >> k) & 1 for k in range(9)], dtype=np.uint8).reshape(3, 3)
        m = np.zeros((7, 7), dtype=np.uint8)
        m[2:5, 2:5] = pattern
        closed = erode(dilate(m))
        assert np.all(closed >= m)


def test_erode_dilate_duality_on_interior():
    # erode(m) == ~dilate(~m) away from the zero-padded border.
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = (rng.random((8, 8)) < 0.5).astype(np.uint8)
        lhs = erode(m)[1:-1, 1:-1]
        rhs = (1 - dilate(1 - m))[1:-1, 1:-1]
        assert np.array_equal(lhs, rhs)


def test_custom_structuring_element():
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    m = np.zeros((5, 5), dtype=np.uint8)
    m[2, 2] = 1
    d = dilate(m, cross)
    assert d.sum() == 5
    with pytest.raises(ShapeError):
        dilate(m, np.ones((2, 3), dtype=bool))


def _brute_morph(m, se, reduce, init):
    """Per-pixel reduce over the element's offsets, zero outside the image."""
    h, w = m.shape
    ph, pw = se.shape[0] // 2, se.shape[1] // 2
    out = np.full((h, w), init, dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            vals = [
                m[i + di - ph, j + dj - pw] if 0 <= i + di - ph < h and 0 <= j + dj - pw < w else 0
                for di, dj in zip(*np.nonzero(se))
            ]
            if vals:
                out[i, j] = reduce(vals)
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([1, 3, 5]),
    st.sampled_from([1, 3, 5]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_morphology_matches_brute_force_for_box_and_other_elements(h, w, sh, sw, box, seed):
    # Box elements take the separable row/column path, the rest the offset loop.
    rng = np.random.default_rng(seed)
    m = (rng.random((h, w)) < 0.5).astype(np.uint8)
    se = np.ones((sh, sw), dtype=bool) if box else rng.random((sh, sw)) < 0.5
    assert np.array_equal(dilate(m, se), _brute_morph(m, se, max, 0))
    assert np.array_equal(erode(m, se), _brute_morph(m, se, min, 1))


def test_as_mask_validation():
    with pytest.raises(DomainError):
        as_mask(np.full((2, 2), 3))
    with pytest.raises(ShapeError):
        as_mask(np.zeros(4))


@pytest.mark.parametrize("bad", [[[0.5, 1.7]], [[256, 257]], [[-1, 0]], [[np.nan, 1.0]]])
def test_as_mask_rejects_values_a_uint8_cast_would_hide(bad):
    # 0.5 truncates to 0, 257 wraps to 1: the check must see the input values.
    with pytest.raises(DomainError):
        as_mask(bad)


def test_as_mask_accepts_bool_and_binary_floats():
    expected = np.array([[0, 1]], dtype=np.uint8)
    for ok in (np.array([[False, True]]), [[0.0, 1.0]], np.array([[0, 1]], dtype=np.int64)):
        out = as_mask(ok)
        assert out.dtype == np.uint8
        assert np.array_equal(out, expected)


# -- translation ----------------------------------------------------------------------


def test_translate_single_pixel():
    m = np.zeros((3, 3), dtype=np.uint8)
    m[1, 1] = 1
    out = translate(m, 1, 0)
    expected = np.zeros((3, 3), dtype=np.uint8)
    expected[1, 2] = 1
    assert np.array_equal(out, expected)


def test_translate_clips_at_border():
    m = np.zeros((3, 3), dtype=np.uint8)
    m[1, 2] = 1
    assert translate(m, 1, 0).sum() == 0


# -- connected components ----------------------------------------------------------


def test_components_empty():
    count, labels = connected_components(np.zeros((4, 4), dtype=np.uint8))
    assert count == 0
    assert labels.sum() == 0


def test_components_diagonal_touching():
    m = np.zeros((4, 4), dtype=np.uint8)
    m[0, 0] = m[1, 1] = 1
    count, _ = connected_components(m)
    assert count == 1


def test_components_checkerboard():
    m = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    count, _ = connected_components(m)
    assert count == 1


def test_components_match_union_find_oracle_exhaustive_3x3():
    for bits in range(512):
        m = np.array([(bits >> k) & 1 for k in range(9)], dtype=np.uint8).reshape(3, 3)
        count, labels = connected_components(m)
        assert count == oracle_components(m)
        assert (labels > 0).sum() == m.sum()


def test_components_match_oracle_random_5x5():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = (rng.random((5, 5)) < 0.45).astype(np.uint8)
        assert connected_components(m)[0] == oracle_components(m)


def flood_fill_components(m: np.ndarray) -> tuple[int, np.ndarray]:
    """8-connected count and labels by a pixel-at-a-time flood fill, started
    from each unlabeled foreground pixel in raster order."""
    h, w = m.shape
    # A zero border lets the flat neighbour offsets skip bounds checks.
    pw = w + 2
    padded = np.zeros((h + 2, pw), dtype=np.uint8)
    padded[1:-1, 1:-1] = m
    unlabeled = padded.ravel().tolist()
    labels = [0] * len(unlabeled)
    offsets = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)
    count = 0
    for start in np.flatnonzero(padded).tolist():
        if not unlabeled[start]:
            continue
        count += 1
        unlabeled[start] = 0
        labels[start] = count
        stack = [start]
        while stack:
            p = stack.pop()
            for off in offsets:
                q = p + off
                if unlabeled[q]:
                    unlabeled[q] = 0
                    labels[q] = count
                    stack.append(q)
    out = np.array(labels, dtype=np.int32).reshape(h + 2, pw)
    return count, np.ascontiguousarray(out[1:-1, 1:-1])


def _edge_case_masks():
    """1xN and Nx1 strips, empty and full rasters, and shapes that touch the
    border, where row runs start at column 0 or end at the last column."""
    border = np.zeros((5, 6), dtype=np.uint8)
    border[0, :] = border[:, 0] = 1
    border[4, 5] = 1
    corners = np.zeros((4, 4), dtype=np.uint8)
    corners[0, 0] = corners[0, 3] = corners[3, 0] = corners[3, 3] = 1
    staircase = np.eye(6, dtype=np.uint8)[::-1]
    return [
        np.array([[1, 0, 1, 1, 0, 1]], dtype=np.uint8),
        np.array([[1], [0], [1], [1]], dtype=np.uint8),
        np.ones((1, 7), dtype=np.uint8),
        np.ones((7, 1), dtype=np.uint8),
        np.zeros((1, 1), dtype=np.uint8),
        np.ones((1, 1), dtype=np.uint8),
        np.zeros((5, 4), dtype=np.uint8),
        np.ones((5, 4), dtype=np.uint8),
        border,
        corners,
        staircase,
        1 - staircase,
    ]


@pytest.mark.parametrize("m", _edge_case_masks(), ids=lambda m: f"{m.shape[0]}x{m.shape[1]}-{m.sum()}px")
def test_run_labelling_matches_flood_fill_on_edge_cases(m):
    count, labels = flood_fill_components(m)
    assert masks_module._count_components(m) == count
    assert connected_components(m)[0] == count
    assert np.array_equal(connected_components(m)[1], labels)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(1, 20),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_component_count_matches_flood_fill(h, w, density, seed):
    m = (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)
    count, _ = flood_fill_components(m)
    assert masks_module._count_components(m) == count
    assert connected_components(m)[0] == count


def reference_labels(m: np.ndarray) -> tuple[int, np.ndarray]:
    """Plain BFS over the raster in row-major order: components are numbered
    in raster order of their first pixel."""
    h, w = m.shape
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for i in range(h):
        for j in range(w):
            if m[i, j] and not labels[i, j]:
                count += 1
                labels[i, j] = count
                queue = [(i, j)]
                while queue:
                    ci, cj = queue.pop(0)
                    for ni in range(max(ci - 1, 0), min(ci + 2, h)):
                        for nj in range(max(cj - 1, 0), min(cj + 2, w)):
                            if m[ni, nj] and not labels[ni, nj]:
                                labels[ni, nj] = count
                                queue.append((ni, nj))
    return count, labels


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 24),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_components_label_raster_matches_reference(h, w, density, seed):
    m = (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)
    count, labels = connected_components(m)
    ref_count, ref_labels = reference_labels(m)
    assert count == ref_count
    assert labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)


# -- propagation --------------------------------------------------------------------


_SMALL_MASKS = st.tuples(
    st.integers(1, 14), st.integers(1, 14), st.integers(0, 2**32 - 1), st.floats(0.05, 0.95)
)


def _mask_from(spec):
    h, w, seed, density = spec
    m = (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)
    return dilate(m) if seed % 2 else m  # dilated masks have thick strokes


def _line(side=8):
    m = np.zeros((side, side), dtype=np.uint8)
    m[3, 1:7] = 1
    return m


def test_propagate_identity_policy():
    policy = PropagationPolicy(variants=1, max_dilate=0, max_erode=0, jitter_px=0, seed=1)
    variants = propagate(_line(), policy)
    assert len(variants) == 1
    assert np.array_equal(variants[0].mask, _line())


def test_propagate_three_variants_properties():
    policy = PropagationPolicy(variants=3, max_dilate=1, max_erode=1, jitter_px=1, seed=42)
    base = _line()
    base_components, _ = connected_components(base)
    variants = propagate(base, policy)
    assert len(variants) == 3
    rasters = [v.mask for v in variants]
    for mask in rasters:
        assert set(np.unique(mask)) <= {0, 1}
        assert mask.sum() > 0
        assert connected_components(mask)[0] <= base_components
    distinct = {mask.tobytes() for mask in rasters}
    assert len(distinct) == 3


def test_propagate_validates_its_input_once(monkeypatch):
    calls = []
    real_as_mask = masks_module.as_mask

    def counting_as_mask(m):
        calls.append(1)
        return real_as_mask(m)

    monkeypatch.setattr(masks_module, "as_mask", counting_as_mask)
    base = np.zeros((16, 16), dtype=np.uint8)
    base[8, 2:14] = 1
    policy = PropagationPolicy(variants=10, max_dilate=1, max_erode=1, jitter_px=1, seed=3)
    assert len(propagate(base, policy)) == 10
    assert len(calls) == 1


def _random_walk_cracks(n: int, side: int = 64, walk: int = 300, seed: int = 0) -> list:
    """8-connected random walks clamped to the raster; every other one 2 px wide."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        steps = rng.integers(-1, 2, (walk, 2))
        path = np.clip(rng.integers(0, side, 2) + np.cumsum(steps, axis=0), 0, side - 1)
        m = np.zeros((side, side), dtype=np.uint8)
        m[path[:, 0], path[:, 1]] = 1
        if i % 2:
            m[1:] |= m[:-1].copy()
        out.append(m)
    return out


def test_propagate_on_cracks_matches_the_flood_fill_count(monkeypatch):
    cracks = _random_walk_cracks(16, seed=11)
    policies = [PropagationPolicy(variants=3, seed=100 + i) for i in range(len(cracks))]
    runs = [propagate(m, p) for m, p in zip(cracks, policies)]
    monkeypatch.setattr(masks_module, "_count_components", lambda m: flood_fill_components(m)[0])
    fills = [propagate(m, p) for m, p in zip(cracks, policies)]
    for run, fill in zip(runs, fills):
        for a, b in zip(run, fill, strict=True):
            assert a.provenance == b.provenance
            assert a.mask.dtype == b.mask.dtype and np.array_equal(a.mask, b.mask)
    provenances = [v.provenance for run in runs for v in run]
    assert any("fallback=" in p for p in provenances), "no variant fell back; adjust seed"


def test_propagate_deterministic_golden():
    policy = PropagationPolicy(variants=2, max_dilate=1, max_erode=1, jitter_px=1, seed=7)
    first = propagate(_line(), policy)
    second = propagate(_line(), policy)
    for a, b in zip(first, second):
        assert np.array_equal(a.mask, b.mask)
        assert a.provenance == b.provenance
    # Frozen fingerprints of the seeded run (mask checksum per variant).
    sums = [int(v.mask.sum()) for v in first]
    assert sums == [int(v.mask.sum()) for v in second]


def test_propagate_empty_mask_rejected_when_preserving():
    with pytest.raises(DomainError):
        propagate(np.zeros((4, 4), dtype=np.uint8), PropagationPolicy(variants=1, seed=0))
    variants = propagate(
        np.zeros((4, 4), dtype=np.uint8),
        PropagationPolicy(variants=1, preserve_connectivity=False, seed=0),
    )
    assert variants[0].mask.sum() == 0


def test_propagate_fallback_recorded_in_provenance():
    # A 1-px mask that every erosion empties: variants that drew an erosion
    # must fall back and say so.
    m = np.zeros((5, 5), dtype=np.uint8)
    m[2, 2] = 1
    policy = PropagationPolicy(variants=8, max_dilate=0, max_erode=1, jitter_px=0, seed=3)
    variants = propagate(m, policy)
    eroded = [v for v in variants if "erode=1" in v.provenance and "local=0" in v.provenance]
    assert eroded, "seeded policy never drew a global erosion; adjust seed"
    for v in eroded:
        assert "fallback=jitter_only" in v.provenance
        assert np.array_equal(v.mask, m)
    for v in variants:
        assert v.mask.sum() > 0


def _u_shape():
    """Columns 1 and 4 on rows 1-5 of a 6x6 raster, joined along row 5."""
    m = np.zeros((6, 6), dtype=np.uint8)
    m[1:6, [1, 4]] = 1
    m[5, 1:5] = 1
    return m


def test_propagate_falls_back_to_identity_when_the_jitter_splits_the_mask():
    # Shifting the U down and right clips its base at the border, which
    # leaves two columns; the jitter-only fallback must not keep that.
    m = _u_shape()
    assert connected_components(m)[0] == 1
    policy = PropagationPolicy(variants=3, max_dilate=0, max_erode=0, jitter_px=1, seed=1)
    first = propagate(m, policy)[0]
    tag = "dilate=0;erode=0;local=0;jitter=(1,1)"
    assert first.provenance == tag + ";fallback=jitter_only;fallback=identity"
    assert np.array_equal(first.mask, m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _SMALL_MASKS,
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_propagate_preserving_connectivity_never_empties_or_splits(spec, k, n_d, n_e, jitter, seed):
    m = _mask_from(spec)
    assume(m.any())
    base = connected_components(m)[0]
    policy = PropagationPolicy(variants=k, max_dilate=n_d, max_erode=n_e, jitter_px=jitter, seed=seed)
    for variant in propagate(m, policy):
        assert 0 < connected_components(variant.mask)[0] <= base, variant.provenance


def test_propagation_policy_validation():
    with pytest.raises(DomainError):
        PropagationPolicy(variants=0)
    with pytest.raises(DomainError):
        PropagationPolicy(max_dilate=-1)


# -- skeleton & stats ------------------------------------------------------------------


def test_skeletonize_thin_line_is_stable():
    m = _line()
    skel = skeletonize(m)
    assert skel.sum() > 0
    assert np.all(skel <= m)


def test_skeletonize_thins_thick_bar():
    m = np.zeros((9, 9), dtype=np.uint8)
    m[3:6, 1:8] = 1
    skel = skeletonize(m)
    assert 0 < skel.sum() <= 7


def _reference_skeletonize(m):
    """Zhang & Suen (1984), one pixel at a time: each subiteration marks the
    pixels to remove from the current image, then removes them together."""
    img = np.pad(np.asarray(m, dtype=np.uint8), 1)
    offsets = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
    changed = True
    while changed:
        changed = False
        for first in (True, False):
            marked = []
            for i in range(1, img.shape[0] - 1):
                for j in range(1, img.shape[1] - 1):
                    if not img[i, j]:
                        continue
                    p = [int(img[i + di, j + dj]) for di, dj in offsets]  # p2..p9
                    b = sum(p)
                    a = sum(p[k] == 0 and p[(k + 1) % 8] == 1 for k in range(8))
                    p2, p4, p6, p8 = p[0], p[2], p[4], p[6]
                    if first:
                        keep_edge = p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
                    else:
                        keep_edge = p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0
                    if 2 <= b <= 6 and a == 1 and keep_edge:
                        marked.append((i, j))
            for i, j in marked:
                img[i, j] = 0
            changed |= bool(marked)
    return img[1:-1, 1:-1]


@settings(max_examples=150, deadline=None)
@given(_SMALL_MASKS)
def test_skeletonize_matches_per_pixel_zhang_suen(spec):
    m = _mask_from(spec)
    skel = skeletonize(m)
    assert skel.dtype == np.uint8 and skel.flags.c_contiguous
    assert np.array_equal(skel, _reference_skeletonize(m))


@settings(max_examples=100, deadline=None)
@given(_SMALL_MASKS)
def test_skeleton_lies_in_mask_and_is_a_fixed_point(spec):
    m = _mask_from(spec)
    skel = skeletonize(m)
    assert np.all(skel <= m)
    assert np.array_equal(skeletonize(skel), skel)


def test_estimate_stats_single_class():
    bins = uniform_bins(4, 0.75)
    masks = [_line() for _ in range(10)]  # coverage 6/64 -> class 0
    stats = estimate_target_stats(masks, 1.0, bins, seed=0)
    assert stats.histogram[0] == pytest.approx(1.0)
    assert stats.n_used == 10


def test_estimate_stats_subsample_count():
    # 10% of 500 masks -> exactly 50 inspected.
    bins = uniform_bins(4, 0.75)
    masks = [_line() for _ in range(500)]
    stats = estimate_target_stats(masks, 0.1, bins, seed=1)
    assert stats.n_used == 50


def test_estimate_stats_histogram_normalized():
    rng = np.random.default_rng(4)
    bins = uniform_bins(5, 0.75)
    masks = [(rng.random((8, 8)) < rng.uniform(0.05, 0.6)).astype(np.uint8) for _ in range(40)]
    stats = estimate_target_stats(masks, 0.5, bins, seed=2)
    assert abs(stats.histogram.sum() - 1.0) <= 1e-9


def test_estimate_stats_width_of_known_bar():
    bins = uniform_bins(4, 0.75)
    m = np.zeros((9, 9), dtype=np.uint8)
    m[3:6, 1:8] = 1  # 3 px wide bar
    stats = estimate_target_stats([m], 1.0, bins, seed=0)
    assert stats.mean_width >= 2.0  # area / skeleton length resolves thickness


def test_estimate_stats_validates_each_mask_once_and_counts_over_n_used(monkeypatch):
    calls = []
    real_as_mask = masks_module.as_mask
    monkeypatch.setattr(masks_module, "as_mask", lambda m: calls.append(1) or real_as_mask(m))
    rng = np.random.default_rng(6)
    bins = uniform_bins(3, 0.75)
    # Empty and full masks included; 0.4 of 30 masks is 12.
    masks = [np.zeros((8, 8), np.uint8), np.ones((8, 8), np.uint8)]
    masks += [(rng.random((8, 8)) < 0.3).astype(np.uint8) for _ in range(28)]
    stats = estimate_target_stats(masks, 0.4, bins, seed=3)
    assert len(calls) == stats.n_used == 12
    order = np.random.default_rng(3).permutation(30)[:12]
    counts = np.zeros(3)
    for i in order:
        counts[assign_class(coverage(masks[i]), bins)] += 1.0
    assert stats.histogram.tolist() == (counts / 12).tolist()


def test_estimate_stats_validation():
    bins = uniform_bins(4, 0.75)
    with pytest.raises(DomainError):
        estimate_target_stats([], 0.5, bins)
    with pytest.raises(DomainError):
        estimate_target_stats([_line()], 0.0, bins)
    with pytest.raises(DomainError):
        estimate_target_stats([_line()], 1.2, bins)


def test_estimate_stats_deterministic():
    rng = np.random.default_rng(5)
    bins = uniform_bins(3, 0.75)
    masks = [(rng.random((8, 8)) < 0.3).astype(np.uint8) for _ in range(30)]
    a = estimate_target_stats(masks, 0.4, bins, seed=9)
    b = estimate_target_stats(masks, 0.4, bins, seed=9)
    assert np.array_equal(a.histogram, b.histogram)
    assert a.mean_width == b.mean_width


# -- resize ------------------------------------------------------------------------


def test_resize_nearest_preserves_binarity():
    rng = np.random.default_rng(6)
    m = (rng.random((16, 16)) < 0.5).astype(np.uint8)
    small = resize_nearest(m, (4, 4))
    assert small.shape == (4, 4)
    assert set(np.unique(small)) <= {0, 1}


def test_resize_nearest_identity():
    m = (np.random.default_rng(7).random((5, 5)) < 0.5).astype(np.uint8)
    assert np.array_equal(resize_nearest(m, (5, 5)), m)
