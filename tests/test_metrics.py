import numpy as np
import pytest

from fmlab.errors import DomainError, NumericError, ShapeError
from fmlab.metrics import (
    ConfusionCounts,
    _sqrtm_psd,
    combined_loss,
    confusion,
    f1,
    fid,
    focal_tversky,
    focal_tversky_grad,
    iou,
    kid,
    load_feature_set_tsv,
    save_feature_set_tsv,
    sobel_edge_target,
    warmup_ramp,
    write_metric_report,
)


@pytest.mark.parametrize("distance", [fid, kid])
def test_fid_and_kid_name_both_sets_when_their_widths_differ(distance):
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError, match="real has 2 columns, syn has 3"):
        distance(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))


def exact_moment_set(rng, n, mean, var):
    """1D sample whose empirical mean/unbiased variance are exactly (mean, var)."""
    x = rng.standard_normal(n)
    x = (x - x.mean()) / x.std(ddof=1)
    return (mean + np.sqrt(var) * x)[:, None]


# -- fid ---------------------------------------------------------------------------


def test_fid_identical_sets_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 6))
    value = fid(a, a.copy())
    assert -1e-8 <= value <= 1e-8


def test_fid_analytic_1d_case():
    # mu 0 vs 1, both unit variance: (0-1)^2 + (1 + 1 - 2*sqrt(1)) = 1.
    rng = np.random.default_rng(1)
    a = exact_moment_set(rng, 64, 0.0, 1.0)
    b = exact_moment_set(rng, 80, 1.0, 1.0)
    assert fid(a, b) == pytest.approx(1.0, abs=1e-6)


def test_fid_symmetric():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 5))
    b = rng.standard_normal((45, 5)) + 0.3
    assert fid(a, b) == pytest.approx(fid(b, a), abs=1e-8)


def test_fid_nonnegative_randomized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((30, 4)) * rng.uniform(0.5, 2)
        b = rng.standard_normal((35, 4)) + rng.uniform(-1, 1)
        assert fid(a, b) >= -1e-8


def test_fid_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ShapeError):
        fid(rng.standard_normal((10, 3)), rng.standard_normal((10, 4)))
    with pytest.raises(DomainError):
        fid(rng.standard_normal((1, 3)), rng.standard_normal((10, 3)))
    with pytest.raises(DomainError):
        fid(np.full((5, 2), np.nan), rng.standard_normal((5, 2)))


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    mat = a @ a.T
    s = _sqrtm_psd(mat, "test")
    assert np.linalg.norm(s @ s - mat) <= 1e-6 * np.linalg.norm(mat)


def test_sqrtm_psd_rejects_negative_definite():
    with pytest.raises(NumericError, match="eigenvalue"):
        _sqrtm_psd(np.diag([1.0, -0.5]), "test")


# -- kid ---------------------------------------------------------------------------


def test_kid_identical_sets_is_zero():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((100, 8))
    assert abs(kid(a, a.copy())) <= 1e-6


def test_kid_split_sample_null_within_permutation_band():
    # Two halves of one iid sample: |KID| should sit inside 3x the spread of
    # reshuffled splits (the permutation null oracle).
    rng = np.random.default_rng(7)
    pool = rng.standard_normal((2000, 4))
    observed = kid(pool[:1000], pool[1000:])
    reshuffled = []
    for _ in range(20):
        perm = rng.permutation(2000)
        reshuffled.append(kid(pool[perm[:1000]], pool[perm[1000:]]))
    band = 3.0 * np.std(reshuffled)
    assert abs(observed) <= band


def test_kid_detects_shifted_gaussians():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((400, 4))
    b = rng.standard_normal((400, 4)) + 2.0
    shifted = kid(a, b)
    null_spread = np.std(
        [kid(a[rng.permutation(400)][:200], a[rng.permutation(400)][:200]) for _ in range(10)]
    )
    assert shifted > 0
    assert shifted > 3.0 * null_spread


def test_kid_unequal_sizes_supported():
    rng = np.random.default_rng(9)
    value = kid(rng.standard_normal((30, 3)), rng.standard_normal((50, 3)))
    assert np.isfinite(value)


def test_kid_validation():
    rng = np.random.default_rng(10)
    with pytest.raises(ShapeError):
        kid(rng.standard_normal((10, 3)), rng.standard_normal((10, 2)))


# -- confusion / iou / f1 --------------------------------------------------------------


def test_confusion_perfect_prediction():
    m = np.zeros((4, 4), dtype=np.uint8)
    m[1, 1:3] = 1
    c = confusion(m, m)
    assert (iou(c), f1(c)) == (1.0, 1.0)


def test_confusion_disjoint_masks():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 3] = 1
    c = confusion(a, b)
    assert (iou(c), f1(c)) == (0.0, 0.0)


def test_iou_f1_arithmetic():
    c = ConfusionCounts(tp=2, fp=1, fn=1, tn=10)
    assert iou(c) == pytest.approx(0.5)
    assert f1(c) == pytest.approx(2.0 / 3.0)


def test_empty_union_empty_convention():
    z = np.zeros((3, 3), dtype=np.uint8)
    c = confusion(z, z)
    assert (iou(c), f1(c)) == (1.0, 1.0)


def test_f1_iou_identity_randomized():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        c = ConfusionCounts(
            tp=rng.uniform(0, 50), fp=rng.uniform(0, 50), fn=rng.uniform(0, 50), tn=0.0
        )
        assert f1(c) == pytest.approx(2 * iou(c) / (1 + iou(c)), abs=1e-12)


def test_confusion_validation():
    with pytest.raises(ShapeError):
        confusion(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(DomainError):
        ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


# -- focal tversky -----------------------------------------------------------------------


def _gt_8x8():
    g = np.zeros((8, 8), dtype=np.uint8)
    g[3, 1:7] = 1
    return g


def test_focal_tversky_perfect_prediction():
    g = _gt_8x8()
    assert focal_tversky(g.astype(np.float64), g) == 0.0


def test_focal_tversky_total_miss():
    g = _gt_8x8()
    assert focal_tversky(np.zeros((8, 8)), g) == pytest.approx(1.0, abs=1e-3)


def test_focal_tversky_gradient_matches_finite_differences():
    # Default coefficients (0.3, 0.75, 1.33); central differences, h = 1e-6.
    rng = np.random.default_rng(12)
    g = _gt_8x8()
    probs = rng.uniform(0.05, 0.95, (8, 8))
    analytic = focal_tversky_grad(probs, g)
    h = 1e-6
    for idx in [(0, 0), (3, 2), (3, 6), (5, 5), (7, 7)]:
        up, down = probs.copy(), probs.copy()
        up[idx] += h
        down[idx] -= h
        fd = (focal_tversky(up, g) - focal_tversky(down, g)) / (2 * h)
        assert analytic[idx] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_focal_tversky_monotone_in_true_pixels():
    rng = np.random.default_rng(13)
    g = _gt_8x8()
    for _ in range(20):
        probs = rng.uniform(0, 0.9, (8, 8))
        before = focal_tversky(probs, g)
        bumped = probs.copy()
        crack = np.argwhere(g == 1)
        i, j = crack[rng.integers(0, len(crack))]
        bumped[i, j] = min(1.0, bumped[i, j] + 0.1)
        assert focal_tversky(bumped, g) <= before + 1e-12


def test_focal_tversky_validation():
    g = _gt_8x8()
    with pytest.raises(DomainError):
        focal_tversky(np.full((8, 8), 1.5), g)
    with pytest.raises(ShapeError):
        focal_tversky(np.zeros((4, 4)), g)
    with pytest.raises(DomainError):
        focal_tversky(np.zeros((8, 8)), g, alpha=0.0)


# -- sobel / combined loss -----------------------------------------------------------------


def test_sobel_constant_masks_have_no_edges():
    assert np.array_equal(sobel_edge_target(np.zeros((6, 6), dtype=np.uint8)), np.zeros((6, 6)))
    assert np.array_equal(sobel_edge_target(np.ones((6, 6), dtype=np.uint8)), np.zeros((6, 6)))


def test_sobel_range_and_peak():
    g = _gt_8x8()
    e = sobel_edge_target(g)
    assert np.all(e >= 0) and np.all(e <= 1)
    assert e.max() == pytest.approx(1.0)


def test_combined_loss_eta_zero_equals_weighted_ft():
    rng = np.random.default_rng(14)
    g = _gt_8x8()
    logits = rng.standard_normal((8, 8))
    lhs = combined_loss(logits, g, lambda_ft=0.8, eta=0.0, warmup_scale=1.0)
    probs = 1.0 / (1.0 + np.exp(-logits))
    assert lhs == pytest.approx(0.8 * focal_tversky(probs, g), abs=1e-12)


def test_combined_loss_finite_on_empty_gt_with_strong_negatives():
    g = np.zeros((8, 8), dtype=np.uint8)
    logits = np.full((8, 8), -30.0)
    value = combined_loss(logits, g)
    assert np.isfinite(value)
    assert value == pytest.approx(0.0, abs=1e-6)


def test_combined_loss_perfect_prediction_early_warmup():
    # Direct evaluation: saturated logits reproducing gt, boundary ramp near
    # its start (warmup 0.01). The region term is exactly zero; the boundary
    # term is damped by the ramp, keeping the total under 0.01.
    g = _gt_8x8()
    logits = 12.0 * (2.0 * g.astype(np.float64) - 1.0)
    value = combined_loss(logits, g, warmup_scale=0.01)
    assert value <= 0.01


def test_combined_loss_validation():
    g = _gt_8x8()
    with pytest.raises(DomainError):
        combined_loss(np.full((8, 8), np.inf), g)
    with pytest.raises(DomainError):
        combined_loss(np.zeros((8, 8)), g, warmup_scale=1.5)


def test_warmup_ramp_reaches_one_after_ramp_fraction():
    total = 100
    assert warmup_ramp(0, total) == 0.0
    assert warmup_ramp(5, total) == pytest.approx(0.5)
    assert warmup_ramp(10, total) == 1.0
    assert warmup_ramp(90, total) == 1.0
    assert warmup_ramp(3, total, ramp_fraction=0.3) == pytest.approx(0.1)


def test_warmup_ramp_validation():
    with pytest.raises(DomainError):
        warmup_ramp(-1, 10)
    with pytest.raises(DomainError):
        warmup_ramp(1, 0)
    with pytest.raises(DomainError):
        warmup_ramp(1, 10, ramp_fraction=0.0)


# -- file interfaces ------------------------------------------------------------------------


def test_feature_set_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    feats = rng.standard_normal((7, 3))
    path = tmp_path / "feats.tsv"
    save_feature_set_tsv(path, feats)
    loaded = load_feature_set_tsv(path)
    assert np.array_equal(loaded, feats)  # repr round-trips doubles exactly


def test_metric_report_columns(tmp_path):
    path = tmp_path / "report.tsv"
    write_metric_report(path, {"fid": 1.25, "kid_x1000": 0.5, "miou": 0.75, "f1": 0.8})
    lines = path.read_text().splitlines()
    assert lines[0] == "fid\tkid_x1000\tmiou\tf1"
    values = [float(tok) for tok in lines[1].split("\t")]
    assert values == [1.25, 0.5, 0.75, 0.8]


def test_feature_set_tsv_empty_rejected(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(DomainError):
        load_feature_set_tsv(path)
