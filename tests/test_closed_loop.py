"""Closed-loop check: target statistics steer synthesis back into the same bin."""
import numpy as np

from fmlab import toys
from fmlab.cli import main
from fmlab.manifest import read_manifest
from fmlab.masks import assign_class, coverage, uniform_bins
from fmlab.neural import save_checkpoint
from fmlab.rasters import load_mask, save_mask


def test_crossdomain_synthesis_follows_concentrated_histogram(mask_generator_run, tmp_path):
    model, state = mask_generator_run
    ckpt = tmp_path / "maskgen.fmck"
    arch = {key: getattr(model, key) for key in ("data_dim", "width", "hidden_layers")}
    meta = {**arch, "time_embed_dim": model.time_embed_dim, "num_classes": 2}
    meta.update(task="mask_generator", resolution=8, max_coverage=0.75)
    save_checkpoint(ckpt, state.params, state.ema_params, meta)

    renderer_dirs = tmp_path / "render_data"
    (renderer_dirs / "masks").mkdir(parents=True)
    (renderer_dirs / "images").mkdir()
    masks_arr, _ = toys.toy_mask_dataset(4, side=8, seed=3)
    images = toys.renderer_pairs(masks_arr, seed=4)
    for i, (m, img) in enumerate(zip(masks_arr, images)):
        save_mask(renderer_dirs / "masks" / f"r{i:02d}.pgm", m)
        from fmlab.rasters import save_image

        save_image(renderer_dirs / "images" / f"r{i:02d}.pgm", img.reshape(8, 8))
    render_cfg = tmp_path / "render.cfg"
    render_cfg.write_text(
        "task = image_renderer\n"
        f"data_masks = {renderer_dirs / 'masks'}\n"
        f"data_images = {renderer_dirs / 'images'}\n"
        "resolution = 8\nwidth = 16\nhidden_layers = 2\ntime_embed_dim = 8\n"
        "steps = 5\nbatch = 8\nseed = 2\n"
    )
    renderer = tmp_path / "render.fmck"
    assert main(["train", "--config", str(render_cfg), "--out", str(renderer)]) == 0

    # Target masks all sit in class 0 (single line, coverage 0.125 < 0.375).
    target_dir = tmp_path / "target_masks"
    target_dir.mkdir()
    rng = np.random.default_rng(8)
    for i in range(50):
        save_mask(target_dir / f"t{i:02d}.pgm", toys.line_mask(8, 1, rng))

    out = tmp_path / "synth"
    code = main(
        [
            "synthesize-crossdomain",
            "--mask-model", str(ckpt),
            "--image-model", str(renderer),
            "--target-masks", str(target_dir),
            "--fraction", "0.2",
            "--multiplier", "4",
            "--out", str(out),
            "--ode-steps", "50",
            "--cfg-omega", "1.2",
            "--seed", "21",
        ]
    )
    assert code == 0
    records, comments = read_manifest(out / "manifest.tsv")
    assert len(records) == 200

    hist_line = next(c for c in comments if c.startswith("histogram="))
    hist = [float(tok) for tok in hist_line.split("=", 1)[1].split(",")]
    assert hist[0] == 1.0  # estimated target statistics concentrate in class 0

    bins = uniform_bins(2, 0.75)
    classes = [assign_class(coverage(load_mask(out / r.mask_path)), bins) for r in records]
    assert np.mean(np.asarray(classes) == 0) >= 0.95
