import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlab import cli, rasters, toys
from fmlab.cli import main, parse_config, split_counts
from fmlab.errors import DivergenceError, DomainError, NumericError, TrainingError
from fmlab.masks import PropagationPolicy, assign_class, coverage, propagate, uniform_bins
from fmlab.sampler import IntegratorConfig
from fmlab.manifest import ManifestRecord, read_manifest, validate_manifest, write_manifest
from fmlab.neural import _read_checkpoint, save_checkpoint
from fmlab.rasters import load_image, load_mask, save_image, save_mask


def write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Raster data dirs plus tiny CLI-trained checkpoints (speed over quality)."""
    root = tmp_path_factory.mktemp("cli_ws")
    side = 8
    masks_arr, _ = toys.toy_mask_dataset(6, side=side, seed=0)
    images = toys.renderer_pairs(masks_arr, seed=1)
    (root / "masks").mkdir()
    (root / "images").mkdir()
    (root / "backgrounds").mkdir()
    for i, (m, img) in enumerate(zip(masks_arr, images)):
        save_mask(root / "masks" / f"s{i:02d}.pgm", m)
        save_image(root / "images" / f"s{i:02d}.pgm", img.reshape(side, side))
    rng = np.random.default_rng(2)
    for i in range(4):
        save_image(root / "backgrounds" / f"b{i}.pgm", np.full((side, side), rng.uniform(0.7, 0.8)))

    common = dict(resolution=8, width=16, hidden_layers=2, time_embed_dim=8, steps=5, batch=8)
    mask_cfg = write_config(
        root / "mask.cfg",
        task="mask_generator",
        data_masks=root / "masks",
        num_classes=2,
        max_coverage=0.75,
        seed=5,
        **common,
    )
    render_cfg = write_config(
        root / "render.cfg",
        task="image_renderer",
        data_masks=root / "masks",
        data_images=root / "images",
        seed=6,
        **common,
    )
    inject_cfg = write_config(
        root / "inject.cfg",
        task="injector",
        data_masks=root / "masks",
        data_images=root / "images",
        data_backgrounds=root / "backgrounds",
        sigma=0.0,
        lr=0.0,  # keep the zero-initialized (zero-velocity) output layer
        seed=7,
        **common,
    )
    assert main(["train", "--config", mask_cfg, "--out", str(root / "mask.fmck")]) == 0
    assert main(["train", "--config", render_cfg, "--out", str(root / "render.fmck")]) == 0
    assert main(["train", "--config", inject_cfg, "--out", str(root / "inject.fmck")]) == 0
    return root


# -- config parsing -------------------------------------------------------------


def test_parse_config(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\nkey = value\n\nsteps=12 # trailing\n")
    parsed = parse_config(cfg)
    assert parsed == {"key": "value", "steps": "12"}


def test_parse_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("not a pair\n")
    with pytest.raises(DomainError):
        parse_config(cfg)


def test_missing_config_exits_2(capsys):
    assert main(["train", "--config", "/nonexistent.cfg", "--out", "/tmp/x.fmck"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_config_with_a_non_ascii_byte_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_bytes(b"task = two_gaussians\n# caf\xc3\xa9\nsteps = 2\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.fmck")]) == 2
    assert f"cannot read config {cfg}: 'ascii' codec" in capsys.readouterr().err
    assert not (tmp_path / "m.fmck").exists()


# -- split counts ------------------------------------------------------------------


def test_split_counts_reference_cases():
    assert split_counts(50_000, (0.8, 0.1, 0.1)) == [40_000, 5_000, 5_000]
    assert split_counts(500, (0.8, 0.1, 0.1)) == [400, 50, 50]


def test_split_counts_randomized_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5000))
        raw = rng.uniform(0.05, 1.0, 3)
        fractions = tuple(raw / raw.sum())
        counts = split_counts(n, fractions)
        assert sum(counts) == n
        for c, f in zip(counts, fractions):
            assert abs(c - f * n) < 1.0


# -- train -------------------------------------------------------------------------


def test_train_two_gaussians_writes_artifacts(tmp_path):
    cfg = write_config(
        tmp_path / "tg.cfg", task="two_gaussians", steps=10, batch=8, width=16,
        time_embed_dim=8, n_per_class=20, seed=1,
    )
    out = tmp_path / "tg.fmck"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tg.cfg", "tg.fmck", "tg.fmck.log.tsv"]
    meta = _read_checkpoint(out)[0]
    assert list(meta) == [
        "data_dim", "width", "hidden_layers", "time_embed_dim", "num_classes", "task"
    ]
    assert meta["task"] == "two_gaussians"
    assert cli.load_model(out)[0].mask_shape is None
    log_lines = (tmp_path / "tg.fmck.log.tsv").read_text().splitlines()
    assert log_lines[0] == "step\tloss"
    assert len(log_lines) >= 2


def test_train_checkpoints_deterministic(tmp_path):
    cfg = write_config(
        tmp_path / "tg.cfg", task="two_gaussians", steps=15, batch=8, width=16,
        time_embed_dim=8, n_per_class=20, seed=9,
    )
    a, b = tmp_path / "a.fmck", tmp_path / "b.fmck"
    assert main(["train", "--config", cfg, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fmlab_seed_env_overrides_config(tmp_path, monkeypatch):
    cfg1 = write_config(
        tmp_path / "s1.cfg", task="two_gaussians", steps=10, batch=8, width=16,
        time_embed_dim=8, n_per_class=20, seed=1,
    )
    cfg2 = write_config(
        tmp_path / "s2.cfg", task="two_gaussians", steps=10, batch=8, width=16,
        time_embed_dim=8, n_per_class=20, seed=2,
    )
    monkeypatch.setenv("FMLAB_SEED", "77")
    a, b = tmp_path / "a.fmck", tmp_path / "b.fmck"
    assert main(["train", "--config", cfg1, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg2, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "typo.cfg", task="two_gaussians", step=3, width=8, time_embed_dim=8,
        n_per_class=10,
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x.fmck")]) == 2
    assert "error: unknown config key step" in capsys.readouterr().err
    assert not (tmp_path / "x.fmck").exists()


def test_train_names_the_missing_data_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "bare.cfg", task="mask_generator", steps=5, resolution=8)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x.fmck")]) == 2
    assert "error: task mask_generator needs config key data_masks" in capsys.readouterr().err


def test_train_rejects_p_drop_outside_unit_interval(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "p.cfg", task="two_gaussians", steps=5, batch=4, width=8, time_embed_dim=8,
        n_per_class=10, p_drop=1.5,
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x.fmck")]) == 2
    assert "p_drop must lie in [0,1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("steps", 0), ("steps", -3), ("batch", 0), ("log_every", 0),
        ("width", 0), ("hidden_layers", 0), ("time_embed_dim", 3), ("resolution", 0),
        ("sigma", -1), ("sigma", "nan"), ("sigma", "inf"),
        ("lr", -1), ("lr", "nan"), ("lr", "inf"),
    ],
)
def test_train_rejects_a_bad_setting_before_reading_data(
    workspace, tmp_path, monkeypatch, capsys, key, value
):
    monkeypatch.setattr(rasters, "load_pgm", lambda *a: pytest.fail("a raster was read"))
    cfg = write_config(
        tmp_path / "i.cfg", task="injector", data_masks=workspace / "masks",
        data_images=workspace / "images", data_backgrounds=workspace / "backgrounds",
        **{"resolution": 8, "width": 8, "time_embed_dim": 4, "steps": 5, "batch": 4, key: value},
    )
    out = tmp_path / "i.fmck"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_readme_train_key_table_matches_the_train_defaults():
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        key, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        table[key.strip("`")] = default
    required = {"task", *cli._TASKS["injector"][1]}  # the injector needs every data key
    assert set(table) == required | set(cli._TRAIN_DEFAULTS)
    assert all(table[key].startswith("required") for key in required)
    assert {key: type(d)(table[key]) for key, d in cli._TRAIN_DEFAULTS.items()} == cli._TRAIN_DEFAULTS


@pytest.mark.parametrize("key, value", [("width", "abc"), ("sigma", "x"), ("resolution", "8.0")])
def test_train_names_the_config_and_the_key_of_a_malformed_value(
    workspace, tmp_path, monkeypatch, capsys, key, value
):
    monkeypatch.setattr(rasters, "load_pgm", lambda *a: pytest.fail("a raster was read"))
    cfg = write_config(
        tmp_path / "i.cfg", task="injector", data_masks=workspace / "masks",
        data_images=workspace / "images", data_backgrounds=workspace / "backgrounds",
        **{"resolution": 8, "width": 8, "time_embed_dim": 4, "steps": 5, key: value},
    )
    out = tmp_path / "i.fmck"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {cfg}: '{key}' is '{value}', not " in capsys.readouterr().err
    assert not out.exists()


def test_readme_checkpoint_table_matches_the_recorded_keys():
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    lines = [line.strip() for line in lines]
    start = lines.index("| task | meta keys, in the order `train` writes them |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        task, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table[task.strip("`")] = [key.strip(" `") for key in keys.split(",")]
    assert set(table) == set(cli._TASKS)
    for task, (mask_conditional, _, recorded) in cli._TASKS.items():
        mask_keys = ["mask_height", "mask_width"] if mask_conditional else []
        assert table[task] == [*cli._ARCH_KEYS, *mask_keys, "task", *recorded], task


def test_train_writes_the_recorded_keys_of_its_task(workspace):
    for name, task in (("mask", "mask_generator"), ("render", "image_renderer"), ("inject", "injector")):
        meta, _, _ = _read_checkpoint(workspace / f"{name}.fmck")
        after_task = list(meta)[list(meta).index("task") + 1 :]
        assert after_task == list(cli._TASKS[task][2])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 12), st.data())
def test_coverage_classes_equal_assign_class_of_coverage(h, w, num_classes, data):
    # Every coverage c/n of an h x w mask. The edges lie on multiples of
    # step/n, so some coverages fall exactly on an edge, and those above
    # num_classes*step/n lie above max_coverage.
    n = h * w
    step = data.draw(st.integers(1, n))
    bins = uniform_bins(num_classes, min(1.0, num_classes * step / n))
    masks = np.stack([(np.arange(n) < c).astype(np.uint8).reshape(h, w) for c in range(n + 1)])
    want = [assign_class(coverage(m), bins) for m in masks]
    assert assign_class(masks.mean(axis=(1, 2)), bins).tolist() == want


@pytest.mark.parametrize(
    "task, folder",
    [("mask_generator", "masks"), ("image_renderer", "images"), ("injector", "images"), ("injector", "backgrounds")],
)
def test_train_names_the_raster_whose_size_is_wrong(workspace, tmp_path, capsys, task, folder):
    data = {}
    for name in ("masks", "images", "backgrounds"):
        data[name] = tmp_path / name
        data[name].mkdir()
        for src in sorted((workspace / name).iterdir()):
            (data[name] / src.name).write_bytes(src.read_bytes())
    odd = sorted(data[folder].iterdir())[2]
    save_mask(odd, np.eye(4, dtype=np.uint8))
    sizes = dict(resolution=8, width=8, time_embed_dim=4, steps=2, batch=4)
    data_keys = {f"data_{name}": path for name, path in data.items()}
    cfg = write_config(tmp_path / "odd.cfg", task=task, **data_keys, **sizes)
    out = tmp_path / "m.fmck"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {odd} is (4, 4), config resolution is 8" in capsys.readouterr().err
    assert not out.exists()


def test_train_names_a_mask_with_no_paired_image(workspace, tmp_path, capsys):
    images = tmp_path / "images"
    images.mkdir()
    for src in sorted((workspace / "images").iterdir())[1:]:
        (images / src.name).write_bytes(src.read_bytes())
    cfg = write_config(
        tmp_path / "r.cfg", task="image_renderer", data_masks=workspace / "masks", data_images=images,
        resolution=8, width=8, time_embed_dim=4, steps=2, batch=4,
    )
    out = tmp_path / "m.fmck"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "error: no image paired with mask s00.pgm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env, seed, source", [(None, -1, "config"), ("-3", 1, "FMLAB_SEED")])
def test_train_names_a_negative_seed_before_reading_data(
    workspace, tmp_path, monkeypatch, capsys, env, seed, source
):
    monkeypatch.setattr(rasters, "load_pgm", lambda *a: pytest.fail("a raster was read"))
    if env is not None:
        monkeypatch.setenv("FMLAB_SEED", env)
    cfg = write_config(
        tmp_path / "i.cfg", task="injector", data_masks=workspace / "masks",
        data_images=workspace / "images", data_backgrounds=workspace / "backgrounds",
        resolution=8, width=8, time_embed_dim=4, steps=2, seed=seed,
    )
    out = tmp_path / "i.fmck"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    name = f"{cfg}: 'seed'" if source == "config" else source
    assert f"error: {name} must be >= 0, got {env or seed}" in capsys.readouterr().err
    assert not out.exists()


def test_train_missing_data_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "bad.cfg", task="mask_generator", data_masks=tmp_path / "nope",
        steps=5, batch=4, width=8, time_embed_dim=8, resolution=8,
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x.fmck")]) == 2
    assert "error:" in capsys.readouterr().err



def test_train_rejects_a_nan_max_coverage(workspace, tmp_path, capsys):
    cfg = write_config(
        tmp_path / "nan.cfg", task="mask_generator", data_masks=workspace / "masks", steps=1,
        batch=4, width=8, time_embed_dim=4, resolution=8, max_coverage="nan",
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x.fmck")]) == 2
    assert "edges must be strictly increasing within [0,1]" in capsys.readouterr().err
    assert not (tmp_path / "x.fmck").exists()

# -- synthesize --------------------------------------------------------------------


def test_synthesize_indomain_counts_and_closure(workspace, tmp_path):
    out = tmp_path / "indomain"
    code = main(
        [
            "synthesize-indomain",
            "--mask-model", str(workspace / "mask.fmck"),
            "--image-model", str(workspace / "render.fmck"),
            "--real-count", "3",
            "--k", "2",
            "--out", str(out),
            "--ode-steps", "6",
            "--seed", "11",
        ]
    )
    assert code == 0
    records = validate_manifest(out / "manifest.tsv")
    assert len(records) == 6
    assert all(r.strategy == "A_mask_gen" for r in records)
    referenced = [r.image_path for r in records] + [r.mask_path for r in records]
    assert len(referenced) == len(set(referenced))
    on_disk = {f"images/{p.name}" for p in (out / "images").iterdir()} | {
        f"masks/{p.name}" for p in (out / "masks").iterdir()
    }
    assert on_disk == set(referenced)
    # Generated mask files round-trip byte-identically.
    for rec in records[:3]:
        src = out / rec.mask_path
        again = tmp_path / "rt.pgm"
        save_mask(again, load_mask(src))
        assert src.read_bytes() == again.read_bytes()


def test_synthesize_draws_independent_mask_and_image_noise(workspace, tmp_path, monkeypatch):
    # Each record's generator draws its class, then its mask noise, then its
    # image noise; neither noise may be a shifted copy of the other.
    calls = []
    real_integrate = cli.integrate

    def spy(model, x0, cond, icfg):
        calls.append(x0.copy())
        return real_integrate(model, x0, cond, icfg)

    monkeypatch.setattr(cli, "integrate", spy)
    argv = [
        "synthesize-indomain",
        "--mask-model", str(workspace / "mask.fmck"),
        "--image-model", str(workspace / "render.fmck"),
        "--real-count", "4",
        "--k", "1",
        "--seed", "3",
        "--ode-steps", "2",
        "--out", str(tmp_path / "noise"),
    ]
    assert main(argv) == 0
    mask_x0, image_x0 = calls
    for i, s in enumerate(cli._record_seeds(3, 4)):
        assert np.intersect1d(mask_x0[i], image_x0[i]).size == 0
        rng = np.random.default_rng(int(s))
        rng.choice(2, p=[0.5, 0.5])
        assert np.array_equal(rng.standard_normal(64), mask_x0[i])
        assert np.array_equal(rng.standard_normal(64), image_x0[i])


def test_synthesize_indomain_k1(workspace, tmp_path):
    out = tmp_path / "k1"
    code = main(
        [
            "synthesize-indomain",
            "--mask-model", str(workspace / "mask.fmck"),
            "--image-model", str(workspace / "render.fmck"),
            "--real-count", "4",
            "--k", "1",
            "--out", str(out),
            "--ode-steps", "4",
        ]
    )
    assert code == 0
    assert len(read_manifest(out / "manifest.tsv")[0]) == 4


def test_policy_cardinalities_randomized(workspace, tmp_path):
    # Output sizes are exact functions of (x, k) and (x_target, multiplier).
    rng = np.random.default_rng(19)
    for trial in range(3):
        x = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        out = tmp_path / f"rand_in_{trial}"
        assert (
            main(
                [
                    "synthesize-indomain",
                    "--mask-model", str(workspace / "mask.fmck"),
                    "--image-model", str(workspace / "render.fmck"),
                    "--real-count", str(x),
                    "--k", str(k),
                    "--out", str(out),
                    "--ode-steps", "2",
                    "--seed", str(trial),
                ]
            )
            == 0
        )
        assert len(read_manifest(out / "manifest.tsv")[0]) == k * x
    for trial, multiplier in enumerate((0.5, 2.25)):
        out = tmp_path / f"rand_cross_{trial}"
        assert (
            main(
                [
                    "synthesize-crossdomain",
                    "--mask-model", str(workspace / "mask.fmck"),
                    "--image-model", str(workspace / "render.fmck"),
                    "--target-masks", str(workspace / "masks"),
                    "--fraction", "0.5",
                    "--multiplier", str(multiplier),
                    "--out", str(out),
                    "--ode-steps", "2",
                ]
            )
            == 0
        )
        import math

        assert len(read_manifest(out / "manifest.tsv")[0]) == math.ceil(multiplier * 12)


def test_synthesize_crossdomain_counts_and_stats_header(workspace, tmp_path):
    out = tmp_path / "crossdomain"
    code = main(
        [
            "synthesize-crossdomain",
            "--mask-model", str(workspace / "mask.fmck"),
            "--image-model", str(workspace / "render.fmck"),
            "--target-masks", str(workspace / "masks"),
            "--fraction", "0.25",
            "--multiplier", "1.5",
            "--perturb",
            "--out", str(out),
            "--ode-steps", "4",
            "--seed", "13",
        ]
    )
    assert code == 0
    records, comments = read_manifest(out / "manifest.tsv")
    assert len(records) == 18  # ceil(1.5 * 12)
    stats_line = next(c for c in comments if c.startswith("stats_masks_used="))
    assert stats_line == "stats_masks_used=3 fraction=0.25"  # ceil(0.25 * 12)
    assert any(c.startswith("histogram=") for c in comments)
    validate_manifest(out / "manifest.tsv")



@pytest.mark.parametrize(
    "command",
    [
        "synthesize-crossdomain --target-masks {ws}/masks --multiplier inf",
        "synthesize-crossdomain --target-masks {ws}/masks --multiplier nan",
        "synthesize-crossdomain --target-masks {ws}/masks --multiplier -1",
        "synthesize-indomain --real-count -2",
    ],
)
def test_synthesize_rejects_a_bad_count_before_reading_a_file(
    workspace, tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(cli, "load_model", lambda *a: pytest.fail("a model was loaded"))
    monkeypatch.setattr(rasters, "load_pgm", lambda *a: pytest.fail("a raster was read"))
    out = tmp_path / "out"
    argv = command.format(ws=workspace).split() + ["--mask-model", str(workspace / "mask.fmck")]
    argv += ["--image-model", str(workspace / "render.fmck"), "--ode-steps", "2", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(("error: multiplier must", "error: need k >= 1"))
    assert not out.exists()


@pytest.mark.parametrize("command", ["synthesize-indomain --real-count 2", "synthesize-crossdomain"])
@pytest.mark.parametrize("omega", [["--cfg-omega", "nan"], ["--cfg-omega", "inf"], ["--cfg-omega=-inf"]])
def test_synthesize_rejects_a_non_finite_cfg_omega_before_loading_a_model(
    workspace, tmp_path, capsys, monkeypatch, command, omega
):
    monkeypatch.setattr(cli, "load_model", lambda *a: pytest.fail("a model was loaded"))
    out = tmp_path / "out"
    argv = command.split() + ["--target-masks", str(workspace / "masks")] * ("cross" in command)
    argv += ["--mask-model", str(workspace / "mask.fmck"), "--image-model", str(workspace / "render.fmck")]
    assert main(argv + omega + ["--ode-steps", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cfg_omega must be finite, got ")
    assert not out.exists()


@pytest.mark.parametrize("omega", ["-0.5", "0", "1", "3"])
def test_synthesize_takes_any_finite_cfg_omega(workspace, tmp_path, omega):
    out = tmp_path / "out"
    argv = ["synthesize-indomain", "--real-count", "2", "--k", "1", "--cfg-omega", omega]
    argv += ["--mask-model", str(workspace / "mask.fmck"), "--image-model", str(workspace / "render.fmck")]
    assert main(argv + ["--ode-steps", "2", "--out", str(out)]) == 0
    assert len(read_manifest(out / "manifest.tsv")[0]) == 2


# -- inject -------------------------------------------------------------------------


def test_inject_zero_velocity_returns_backgrounds(workspace, tmp_path):
    out = tmp_path / "inj"
    code = main(
        [
            "inject",
            "--model", str(workspace / "inject.fmck"),
            "--backgrounds", str(workspace / "backgrounds"),
            "--masks", str(workspace / "masks"),
            "--out", str(out),
            "--ode-steps", "4",
        ]
    )
    assert code == 0
    records = validate_manifest(out / "manifest.tsv")
    assert len(records) == 4  # zip pairing: min(4 backgrounds, 12 masks)
    assert all(r.strategy == "C_background_injected" for r in records)
    bg_files = sorted((workspace / "backgrounds").iterdir())
    for rec, bg in zip(records, bg_files):
        assert np.array_equal(load_image(out / rec.image_path), load_image(bg))


def test_inject_cartesian_pairing(workspace, tmp_path):
    out = tmp_path / "inj_cart"
    code = main(
        [
            "inject",
            "--model", str(workspace / "inject.fmck"),
            "--backgrounds", str(workspace / "backgrounds"),
            "--masks", str(workspace / "masks"),
            "--pairing", "cartesian",
            "--out", str(out),
            "--ode-steps", "2",
        ]
    )
    assert code == 0
    assert len(read_manifest(out / "manifest.tsv")[0]) == 4 * 12


def test_inject_skips_mismatched_dims(workspace, tmp_path, capsys):
    bad_masks = tmp_path / "bad_masks"
    bad_masks.mkdir()
    save_mask(bad_masks / "tiny.pgm", np.ones((4, 4), dtype=np.uint8))
    out = tmp_path / "inj_skip"
    code = main(
        [
            "inject",
            "--model", str(workspace / "inject.fmck"),
            "--backgrounds", str(workspace / "backgrounds"),
            "--masks", str(bad_masks),
            "--out", str(out),
            "--ode-steps", "2",
        ]
    )
    assert code == 0
    assert "skipped" in capsys.readouterr().err
    records, comments = read_manifest(out / "manifest.tsv")
    assert records == []
    assert any("skipped pair" in c for c in comments)
    # No pair kept, so no image written and no images/ directory.
    assert assert_files_match_manifest(out) == []


def test_inject_names_the_model_mask_size_when_skipping(workspace, tmp_path):
    bad_masks = tmp_path / "bad_masks"
    bad_masks.mkdir()
    save_mask(bad_masks / "tiny.pgm", np.ones((4, 4), dtype=np.uint8))
    out = tmp_path / "inj_skip_text"
    argv = ["inject", "--model", str(workspace / "inject.fmck"), "--masks", str(bad_masks)]
    argv += ["--backgrounds", str(workspace / "backgrounds"), "--out", str(out)]
    assert main(argv) == 0
    _, comments = read_manifest(out / "manifest.tsv")
    assert "skipped pair (b0.pgm, tiny.pgm): dims do not match 8x8" in comments


@pytest.mark.parametrize(
    "command",
    [
        "synthesize-indomain --mask-model {ws}/mask.fmck --image-model {ws}/mask.fmck "
        "--real-count 2",
        "inject --model {ws}/mask.fmck --backgrounds {ws}/backgrounds --masks {ws}/masks",
    ],
)
def test_synthesize_and_inject_reject_a_class_conditional_renderer(
    workspace, tmp_path, capsys, command
):
    out = tmp_path / "out"
    argv = command.format(ws=workspace).split() + ["--ode-steps", "2", "--out", str(out)]
    assert main(argv) == 2
    flag, task = ("--image-model", "image_renderer")
    if command.startswith("inject"):
        flag, task = ("--model", "injector")
    err = capsys.readouterr().err
    assert f"{flag} {workspace}/mask.fmck: need task={task}, got task=mask_generator" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["synthesize-indomain --real-count 2", "synthesize-crossdomain --target-masks {ws}/masks"],
)
@pytest.mark.parametrize("mask_model", ["two_gaussians", "render.fmck"])
def test_synthesize_rejects_a_mask_model_that_is_not_a_mask_generator(
    workspace, tmp_path, capsys, monkeypatch, command, mask_model
):
    path = workspace / mask_model
    if mask_model == "two_gaussians":
        path = tmp_path / "tg.fmck"
        cfg = write_config(
            tmp_path / "tg.cfg", task="two_gaussians", steps=1, batch=4, width=8,
            time_embed_dim=4, n_per_class=4,
        )
        assert main(["train", "--config", cfg, "--out", str(path)]) == 0
    capsys.readouterr()
    load_task = cli._load_task

    def load_mask_model_only(flag, *rest):
        assert flag == "--mask-model", "the renderer was loaded"
        return load_task(flag, *rest)

    monkeypatch.setattr(cli, "_load_task", load_mask_model_only)
    out = tmp_path / "out"
    argv = command.format(ws=workspace).split() + ["--mask-model", str(path)]
    argv += ["--image-model", str(workspace / "render.fmck"), "--ode-steps", "2", "--out", str(out)]
    assert main(argv) == 2
    assert f"--mask-model {path}: need task=mask_generator" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, model",
    [
        ("synthesize-indomain --real-count 2", "--image-model", "inject"),
        ("synthesize-crossdomain --target-masks {ws}/masks", "--image-model", "inject"),
        ("propagate --masks {ws}/masks", "--image-model", "inject"),
        ("inject --backgrounds {ws}/backgrounds --masks {ws}/masks", "--model", "render"),
    ],
)
def test_a_renderer_and_an_injector_cannot_stand_in_for_each_other(
    workspace, tmp_path, capsys, command, flag, model
):
    path = workspace / f"{model}.fmck"
    out = tmp_path / "out"
    argv = command.format(ws=workspace).split() + [flag, str(path)]
    if command.startswith("synthesize"):
        argv += ["--mask-model", str(workspace / "mask.fmck")]
    assert main(argv + ["--ode-steps", "2", "--out", str(out)]) == 2
    need, got = ("injector", "image_renderer")
    if model == "inject":
        need, got = got, need
    assert f"{flag} {path}: need task={need}, got task={got}" in capsys.readouterr().err
    assert not out.exists()


def _propagate_with(workspace, tmp_path, image_model):
    """Exit code of propagate --image-model image_model; it must leave no output."""
    out = tmp_path / "out"
    argv = ["propagate", "--masks", str(workspace / "masks"), "--image-model", str(image_model)]
    code = main(argv + ["--ode-steps", "2", "--out", str(out)])
    assert not out.exists()
    return code


def test_a_checkpoint_cut_anywhere_in_its_header_exits_2(workspace, tmp_path, capsys):
    blob = (workspace / "render.fmck").read_bytes()
    cut = tmp_path / "cut.fmck"
    for length in range(4, 20):
        cut.write_bytes(blob[:length])
        assert _propagate_with(workspace, tmp_path, cut) == 2
        assert "error: checkpoint header truncated" in capsys.readouterr().err


def test_a_checkpoint_cut_or_padded_past_its_header_exits_2(workspace, tmp_path, capsys):
    blob = (workspace / "render.fmck").read_bytes()
    meta_end = 20 + int.from_bytes(blob[16:20], "little")
    assert meta_end > 20  # the meta block is not empty
    bad = tmp_path / "bad.fmck"
    # Every length in the meta block and the first data bytes, then a few more.
    for length in [*range(20, meta_end + 9), meta_end + 8 * 101, len(blob) // 2, len(blob) - 1]:
        bad.write_bytes(blob[:length])
        assert _propagate_with(workspace, tmp_path, bad) == 2
        assert "error: checkpoint truncated" in capsys.readouterr().err
    # One byte inserted anywhere in the header or the meta block, or in the data.
    for at in [*range(meta_end + 9), len(blob) // 2, len(blob)]:
        bad.write_bytes(blob[:at] + b"x" + blob[at:])
        assert _propagate_with(workspace, tmp_path, bad) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_a_version_1_checkpoint_exits_2(workspace, tmp_path, capsys):
    _, params, ema = _read_checkpoint(workspace / "render.fmck")
    old = tmp_path / "old.fmck"
    old.write_bytes(b"FMCK" + (1).to_bytes(4, "little") + params.size.to_bytes(8, "little")
                    + params.tobytes() + ema.tobytes())
    assert _propagate_with(workspace, tmp_path, old) == 2
    assert "error: unsupported checkpoint version 1" in capsys.readouterr().err


def _with_meta(src, dst, key, value):
    """dst, a copy of checkpoint src whose meta key is deleted (value None) or set to value."""
    meta, params, ema = _read_checkpoint(src)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    save_checkpoint(dst, params, ema, meta)
    return dst


@pytest.mark.parametrize(
    "key, value",
    [("width", None), ("data_dim", None), ("mask_width", None), ("width", "8.0")],
    ids=["width", "data_dim", "mask_width", "width=8.0"],
)
def test_load_model_names_the_meta_and_its_missing_key(workspace, tmp_path, capsys, key, value):
    ckpt = _with_meta(workspace / "render.fmck", tmp_path / "m.fmck", key, value)
    assert _propagate_with(workspace, tmp_path, ckpt) == 2
    err = capsys.readouterr().err
    if value is None:
        assert f"error: {ckpt} has no key '{key}'" in err
    else:
        assert f"error: {ckpt}: '{key}' is '{value}', not int" in err


_SYNTHESIZE = [
    "synthesize-indomain --real-count 2 --k 2",
    "synthesize-crossdomain --target-masks {ws}/masks",
]


def _synthesize_with(workspace, out, command, mask_model):
    """Exit code of the synthesize command with mask_model and the workspace
    renderer, writing to out."""
    argv = command.format(ws=workspace).split() + ["--mask-model", str(mask_model)]
    argv += ["--image-model", str(workspace / "render.fmck")]
    return main(argv + ["--ode-steps", "2", "--out", str(out)])


@pytest.mark.parametrize("command", _SYNTHESIZE, ids=["indomain", "crossdomain"])
@pytest.mark.parametrize(
    "value, message",
    [
        (None, "{ckpt} has no key 'max_coverage'"),
        ("lots", "{ckpt}: 'max_coverage' is 'lots', not float"),
        ("0", "--mask-model {ckpt}: max_coverage must lie in (0, 1], got 0.0"),
        ("2", "--mask-model {ckpt}: max_coverage must lie in (0, 1], got 2.0"),
        ("nan", "--mask-model {ckpt}: max_coverage must lie in (0, 1], got nan"),
    ],
    ids=[f"max_coverage-{value}" for value in (None, "lots", "0", "2", "nan")],
)
def test_a_generator_with_a_missing_or_malformed_recorded_key_exits_2(
    workspace, tmp_path, capsys, command, value, message
):
    # Without its max_coverage a generator's class labels have no bins; no
    # default stands in for them.
    ckpt = _with_meta(workspace / "mask.fmck", tmp_path / "m.fmck", "max_coverage", value)
    out = tmp_path / "out"
    assert _synthesize_with(workspace, out, command, ckpt) == 2
    assert f"error: {message.format(ckpt=ckpt)}" in capsys.readouterr().err
    assert not out.exists()


def _train_4x4_generator(tmp_path, capsys):
    """A mask_generator checkpoint of 4x4 masks, against the workspace's 8x8 renderer."""
    masks = tmp_path / "masks4"
    masks.mkdir()
    for i, m in enumerate(toys.toy_mask_dataset(2, side=4, seed=0)[0]):
        save_mask(masks / f"m{i}.pgm", m)
    cfg = write_config(
        tmp_path / "mask4.cfg", task="mask_generator", data_masks=masks, resolution=4,
        num_classes=2, max_coverage=0.75, width=8, time_embed_dim=4, steps=1, batch=4,
    )
    ckpt = tmp_path / "mask4.fmck"
    assert main(["train", "--config", cfg, "--out", str(ckpt)]) == 0
    capsys.readouterr()
    return ckpt


@pytest.mark.parametrize("command", _SYNTHESIZE, ids=["indomain", "crossdomain"])
def test_a_generator_and_a_renderer_of_other_mask_sizes_exit_2_naming_both(
    workspace, tmp_path, capsys, command
):
    ckpt = _train_4x4_generator(tmp_path, capsys)
    out = tmp_path / "out"
    assert _synthesize_with(workspace, out, command, ckpt) == 2
    err = capsys.readouterr().err
    render = workspace / "render.fmck"
    assert f"error: --mask-model {ckpt} makes 16-pixel masks, --image-model {render} takes (8, 8)" in err
    assert not out.exists()


@pytest.mark.parametrize("command", _SYNTHESIZE, ids=["indomain", "crossdomain"])
def test_synthesize_checks_both_models_before_reading_a_target_mask(
    workspace, tmp_path, capsys, monkeypatch, command
):
    ckpt = _train_4x4_generator(tmp_path, capsys)
    monkeypatch.setattr(rasters, "load_pgm", lambda *a: pytest.fail("a raster was read"))
    assert _synthesize_with(workspace, tmp_path / "out", command, ckpt) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --mask-model")
    assert "target stats" not in err


@pytest.mark.parametrize("command", _SYNTHESIZE, ids=["indomain", "crossdomain"])
def test_a_generator_whose_meta_still_records_a_resolution_ignores_it(
    workspace, tmp_path, command
):
    # Older checkpoints record resolution beside data_dim; the renderer's
    # mask shape sizes the masks, so not even a wrong one changes the output.
    stale = _with_meta(workspace / "mask.fmck", tmp_path / "m.fmck", "resolution", "5")
    outputs = []
    for name, ckpt in (("stale", stale), ("fresh", workspace / "mask.fmck")):
        assert _synthesize_with(workspace, tmp_path / name, command, ckpt) == 0
        files = sorted(p for p in (tmp_path / name).rglob("*") if p.is_file())
        outputs.append({str(p.relative_to(tmp_path / name)): p.read_bytes() for p in files})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 1


@pytest.mark.parametrize(
    "leftover", [{"mode": "mask_conditional"}, {"resolution": "5"}, {"sigma": "x"}],
    ids=["mode", "resolution", "sigma"],
)
def test_a_checkpoint_whose_meta_still_names_a_mode_loads(workspace, tmp_path, leftover):
    # Keys that older checkpoints record and no loader reads are ignored.
    meta, params, ema = _read_checkpoint(workspace / "render.fmck")
    ckpt = tmp_path / "m.fmck"
    save_checkpoint(ckpt, params, ema, {**leftover, **meta})
    model, _ = cli.load_model(ckpt)
    assert model.mask_shape == (8, 8)
    assert np.array_equal(model.get_params(), ema)
    out = tmp_path / "out"
    argv = ["propagate", "--masks", str(workspace / "masks"), "--image-model", str(ckpt)]
    assert main(argv + ["--ode-steps", "2", "--out", str(out)]) == 0
    assert len(read_manifest(out / "manifest.tsv")[0]) == 3 * len(list((workspace / "masks").iterdir()))


def test_a_mask_generator_without_classes_exits_2(workspace, tmp_path, capsys):
    meta, params, ema = _read_checkpoint(workspace / "mask.fmck")
    # The label table (num_classes + 1 rows of time_embed_dim) comes first;
    # keep only its null row, so the parameter count matches num_classes = 0.
    cut = int(meta["num_classes"]) * int(meta["time_embed_dim"])
    ckpt = tmp_path / "m.fmck"
    save_checkpoint(ckpt, params[cut:], ema[cut:], {**meta, "num_classes": 0})
    out = tmp_path / "out"
    argv = ["synthesize-indomain", "--real-count", "2", "--mask-model", str(ckpt)]
    argv += ["--image-model", str(workspace / "render.fmck"), "--ode-steps", "2", "--out", str(out)]
    assert main(argv) == 2
    assert "error: num_classes must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_an_injector_with_a_negative_mask_shape_exits_2(workspace, tmp_path, capsys):
    meta, params, ema = _read_checkpoint(workspace / "inject.fmck")
    ckpt = tmp_path / "m.fmck"
    # (-8) * (-8) keeps the parameter count of an 8x8 injector.
    save_checkpoint(ckpt, params, ema, {**meta, "mask_height": -8, "mask_width": -8})
    out = tmp_path / "out"
    argv = ["inject", "--model", str(ckpt), "--backgrounds", str(workspace / "backgrounds")]
    argv += ["--masks", str(workspace / "masks"), "--ode-steps", "2", "--out", str(out)]
    assert main(argv) == 2
    assert "error: mask_shape must be two ints >= 1, got (-8, -8)" in capsys.readouterr().err
    assert not out.exists()


# Each float flag a command takes, with the rest of a command line that works;
# synthesize-* also get both models.
_FLOAT_FLAGS = [
    ("synthesize-indomain --real-count 2 --k 2", "--cfg-omega"),
    ("synthesize-crossdomain --target-masks {ws}/masks", "--multiplier"),
    ("synthesize-crossdomain --target-masks {ws}/masks", "--fraction"),
    ("synthesize-crossdomain --target-masks {ws}/masks", "--cfg-omega"),
    (
        "inject --model {ws}/inject.fmck --backgrounds {ws}/backgrounds --masks {ws}/masks",
        "--max-coverage",
    ),
    ("propagate --masks {ws}/masks --k 1", "--max-coverage"),
    ("stats --masks {ws}/masks", "--max-coverage"),
    ("evaluate --pred {ws}/masks --gt {ws}/masks", "--threshold"),
]


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("command, flag", _FLOAT_FLAGS)
def test_float_flags_never_raise_out_of_main(workspace, tmp_path, command, flag, value):
    argv = command.format(ws=workspace).split() + [flag, value, "--out", str(tmp_path / "out")]
    if command.startswith("synthesize"):
        argv += ["--mask-model", str(workspace / "mask.fmck")]
        argv += ["--image-model", str(workspace / "render.fmck")]
    if not command.startswith(("stats", "evaluate")):
        argv += ["--ode-steps", "2"]
    assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize(
    "command",
    [
        "stats --masks {ws}/masks",
        "propagate --masks {ws}/masks --k 1",
        "inject --model {ws}/inject.fmck --backgrounds {ws}/backgrounds --masks {ws}/masks",
    ],
)
def test_a_nan_max_coverage_exits_2(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = command.format(ws=workspace).split() + ["--max-coverage", "nan", "--out", str(out)]
    assert main(argv) == 2
    assert "edges must be strictly increasing within [0,1]" in capsys.readouterr().err
    assert not out.exists()


_INJECT = "inject --model {ws}/inject.fmck --backgrounds {ws}/backgrounds --masks {ws}/masks"


@pytest.mark.parametrize(
    "command",
    [
        "propagate --masks {ws}/masks --image-model {ws}/render.fmck --ode-steps 0",
        "propagate --masks {ws}/masks --ode-steps 0",
        "propagate --masks {ws}/masks --k 0",
        "propagate --masks {ws}/masks --max-coverage nan",
        _INJECT + " --ode-steps 0",
        _INJECT + " --num-classes 0",
        "stats --masks {ws}/masks --fraction 0",
        "stats --masks {ws}/masks --max-coverage nan",
        "synthesize-crossdomain --target-masks {ws}/masks --mask-model {ws}/mask.fmck "
        "--image-model {ws}/render.fmck --fraction 0",
    ],
)
def test_every_flag_is_checked_before_the_first_read(workspace, tmp_path, monkeypatch, capsys, command):
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "load_model")
    counted(rasters, "load_pgm")
    counted(cli.mask_ops, "propagate")
    out = tmp_path / "out"
    assert main(command.format(ws=workspace).split() + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert not out.exists()


def test_inject_lists_pgm_backgrounds_only(workspace, tmp_path, capsys):
    bgs = tmp_path / "bgs"
    bgs.mkdir()
    save_image(bgs / "c.ppm", np.full((8, 8, 3), 0.75))
    out = tmp_path / "out"
    argv = ["inject", "--model", str(workspace / "inject.fmck"), "--backgrounds", str(bgs)]
    argv += ["--masks", str(workspace / "masks"), "--ode-steps", "2", "--out", str(out)]
    assert main(argv) == 2
    assert f"error: no raster files in {bgs}" in capsys.readouterr().err
    assert not out.exists()
    save_image(bgs / "b.pgm", np.full((8, 8), 0.75))
    assert main(argv) == 0
    records, comments = read_manifest(out / "manifest.tsv")
    assert [r.provenance for r in records] == ["inject;background=b.pgm;mask=s00.pgm"]
    assert not any("c.ppm" in c for c in comments)

@pytest.mark.parametrize(
    "command, output",
    [
        ("propagate --masks {ws}/masks --image-model {ws}/render.fmck --ode-steps 2", "out"),
        ("inject --model {ws}/inject.fmck --backgrounds {ws}/backgrounds --masks {ws}/masks "
         "--ode-steps 2", "out"),
        ("stats --masks {ws}/masks --fraction 0.5", "out.tsv"),
    ],
)
def test_fmlab_seed_env_overrides_the_seed_flag(workspace, tmp_path, monkeypatch, command, output):
    argv = command.format(ws=workspace).split()

    def run(name, seed):
        (tmp_path / name).mkdir()
        assert main(argv + ["--seed", seed, "--out", str(tmp_path / name / output)]) == 0
        files = sorted(p for p in (tmp_path / name).rglob("*") if p.is_file())
        return {str(p.relative_to(tmp_path / name)): p.read_bytes() for p in files}

    expected = run("flag", "9")
    monkeypatch.setenv("FMLAB_SEED", "9")
    assert run("env", "3") == expected
    monkeypatch.delenv("FMLAB_SEED")
    assert run("other", "3") != expected


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_a_malformed_fmlab_seed_exits_2_naming_it(workspace, tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("FMLAB_SEED", value)
    out = tmp_path / "out.tsv"
    assert main(["stats", "--masks", str(workspace / "masks"), "--out", str(out)]) == 2
    assert f"error: environment: 'FMLAB_SEED' is '{value}', not int" in capsys.readouterr().err
    assert not out.exists()


def test_an_empty_fmlab_seed_means_unset(workspace, tmp_path, monkeypatch):
    monkeypatch.delenv("FMLAB_SEED", raising=False)
    argv = ["stats", "--masks", str(workspace / "masks"), "--fraction", "0.5", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "unset.tsv")]) == 0
    monkeypatch.setenv("FMLAB_SEED", "")
    assert main(argv + ["--out", str(tmp_path / "empty.tsv")]) == 0
    assert (tmp_path / "empty.tsv").read_bytes() == (tmp_path / "unset.tsv").read_bytes()


def test_inject_zip_reports_unpaired_files(workspace, tmp_path, capsys):
    out = tmp_path / "inj_zip"
    code = main(
        [
            "inject",
            "--model", str(workspace / "inject.fmck"),
            "--backgrounds", str(workspace / "backgrounds"),
            "--masks", str(workspace / "masks"),
            "--out", str(out),
            "--ode-steps", "2",
        ]
    )
    assert code == 0
    assert "8 file(s) unpaired" in capsys.readouterr().err
    records, comments = read_manifest(out / "manifest.tsv")
    assert len(records) == 4
    assert any("8 file(s) unpaired" in c for c in comments)


def test_inject_cartesian_reads_each_raster_once(workspace, tmp_path, monkeypatch):
    loads = []
    real_load = rasters.load_image

    def counting_load(path):
        loads.append(path.name)
        return real_load(path)

    monkeypatch.setattr(rasters, "load_image", counting_load)
    code = main(
        [
            "inject",
            "--model", str(workspace / "inject.fmck"),
            "--backgrounds", str(workspace / "backgrounds"),
            "--masks", str(workspace / "masks"),
            "--pairing", "cartesian",
            "--out", str(tmp_path / "inj_once"),
            "--ode-steps", "2",
        ]
    )
    assert code == 0
    assert sorted(loads) == sorted(p.name for p in (workspace / "backgrounds").iterdir())


@pytest.mark.parametrize("folder", ["backgrounds", "masks"])
@pytest.mark.parametrize("name", ["a\tb.pgm", "\u00e9.pgm"])
def test_inject_rejected_record_costs_no_solve(
    workspace, tmp_path, monkeypatch, capsys, folder, name
):
    # The provenance background=<name> or mask=<name> is a field the manifest cannot carry.
    dirs = {sub: tmp_path / sub for sub in ("backgrounds", "masks")}
    for sub, d in dirs.items():
        d.mkdir()
        files = sorted((workspace / sub).iterdir())[:2]
        for src, dst in zip(files, [files[0].name, name if sub == folder else files[1].name]):
            (d / dst).write_bytes(src.read_bytes())
    solves = []
    real_solve = cli.integrate_from_background
    monkeypatch.setattr(
        cli, "integrate_from_background", lambda *a: solves.append(a) or real_solve(*a)
    )
    out = tmp_path / "inj_rejected"
    argv = ["inject", "--model", str(workspace / "inject.fmck"), "--pairing", "cartesian"]
    argv += ["--backgrounds", str(dirs["backgrounds"]), "--masks", str(dirs["masks"])]
    assert main(argv + ["--ode-steps", "2", "--out", str(out)]) == 2
    assert "manifest field" in capsys.readouterr().err
    assert solves == []
    assert not out.exists()


@pytest.mark.parametrize(
    "error",
    [
        DivergenceError("integration state diverged at step 3", step=3),
        TrainingError("non-finite loss at step 3", step=3),
        NumericError("covariance is not positive semi-definite"),
    ],
)
def test_numerical_failures_exit_2(workspace, tmp_path, monkeypatch, capsys, error):
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "integrate_from_background", failing_solve)
    code = main(
        [
            "inject",
            "--model", str(workspace / "inject.fmck"),
            "--backgrounds", str(workspace / "backgrounds"),
            "--masks", str(workspace / "masks"),
            "--pairing", "cartesian",
            "--out", str(tmp_path / "inj_fail"),
            "--ode-steps", "2",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {error}"


# -- split --------------------------------------------------------------------------


def _manifest_with(tmp_path, n):
    records = [
        ManifestRecord(f"images/{i}.pgm", f"masks/{i}.pgm", 0, "real", "", i, "") for i in range(n)
    ]
    path = tmp_path / "manifest.tsv"
    write_manifest(path, records)
    return path


def test_split_assigns_counts_and_is_deterministic(tmp_path):
    path = _manifest_with(tmp_path, 20)
    out1, out2 = tmp_path / "s1.tsv", tmp_path / "s2.tsv"
    args = ["split", "--manifest", str(path), "--fractions", "0.8,0.1,0.1", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records, comments = read_manifest(out1)
    splits = [r.split for r in records]
    assert splits.count("train") == 16
    assert splits.count("val") == 2
    assert splits.count("test") == 2
    assert any("split rule" in c for c in comments)


def test_split_to_another_directory_rebases_record_paths(tmp_path):
    data = tmp_path / "data"
    (data / "images").mkdir(parents=True)
    (data / "masks").mkdir()
    for i in range(5):
        save_image(data / "images" / f"{i}.pgm", np.full((4, 4), 0.5))
        save_mask(data / "masks" / f"{i}.pgm", np.eye(4, dtype=np.uint8))
    path = _manifest_with(data, 5)
    out = tmp_path / "splits" / "split.tsv"
    out.parent.mkdir()
    assert main(["split", "--manifest", str(path), "--seed", "1", "--out", str(out)]) == 0
    records = validate_manifest(out)
    assert records[0].image_path == "../data/images/0.pgm"
    assert records[0].mask_path == "../data/masks/0.pgm"


def test_split_rejects_bad_fractions(tmp_path, capsys):
    path = _manifest_with(tmp_path, 10)
    assert (
        main(
            ["split", "--manifest", str(path), "--fractions", "0.5,0.2,0.2", "--out", str(tmp_path / "o.tsv")]
        )
        == 2
    )
    assert "sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("fractions", ["1.5,-0.25,-0.25", "nan,0.5,0.5", "-0.0001,0.5,0.5001"])
def test_split_rejects_fractions_outside_the_unit_interval(tmp_path, capsys, monkeypatch, fractions):
    path = _manifest_with(tmp_path, 4)
    monkeypatch.setattr(cli, "read_manifest", lambda *a: pytest.fail("the manifest was read"))
    out = tmp_path / "o.tsv"
    assert main(["split", "--manifest", str(path), f"--fractions={fractions}", "--out", str(out)]) == 2
    assert f"fractions must lie in [0, 1] and sum to 1, got {fractions}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fractions", ["a,b,c", "0.5,0.5", "0.5,0.25,0.25,0"])
def test_split_names_fractions_that_are_not_three_numbers(tmp_path, capsys, monkeypatch, fractions):
    path = _manifest_with(tmp_path, 4)
    monkeypatch.setattr(cli, "read_manifest", lambda *a: pytest.fail("the manifest was read"))
    out = tmp_path / "o.tsv"
    assert main(["split", "--manifest", str(path), f"--fractions={fractions}", "--out", str(out)]) == 2
    assert f"error: --fractions must be three comma-separated numbers, got {fractions}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env, flag, source", [(None, "-2", "--seed"), ("-3", "4", "FMLAB_SEED")])
def test_split_names_a_negative_seed_before_reading_the_manifest(
    tmp_path, capsys, monkeypatch, env, flag, source
):
    path = _manifest_with(tmp_path, 4)
    monkeypatch.setattr(cli, "read_manifest", lambda *a: pytest.fail("the manifest was read"))
    if env is not None:
        monkeypatch.setenv("FMLAB_SEED", env)
    out = tmp_path / "o.tsv"
    assert main(["split", "--manifest", str(path), "--seed", flag, "--out", str(out)]) == 2
    assert f"error: {source} must be >= 0, got {env or flag}" in capsys.readouterr().err
    assert not out.exists()


# -- evaluate -----------------------------------------------------------------------


def test_evaluate_identical_dirs(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    rng = np.random.default_rng(4)
    for i in range(3):
        m = (rng.random((6, 6)) < 0.4).astype(np.uint8)
        save_mask(pred / f"{i}.pgm", m)
        save_mask(gt / f"{i}.pgm", m)
    out = tmp_path / "metrics.tsv"
    report = tmp_path / "report.tsv"
    code = main(
        ["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "file\tiou\tf1"
    mean_row = lines[-1].split("\t")
    assert mean_row[0] == "__mean__"
    assert float(mean_row[1]) == 1.0 and float(mean_row[2]) == 1.0
    rep = report.read_text().splitlines()
    assert rep[0] == "miou\tf1"


def test_evaluate_inverted_predictions(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    m = np.zeros((5, 5), dtype=np.uint8)
    m[2, 1:4] = 1
    save_mask(gt / "x.pgm", m)
    save_mask(pred / "x.pgm", 1 - m)
    out = tmp_path / "metrics.tsv"
    assert main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 0
    mean_row = out.read_text().splitlines()[-1].split("\t")
    assert float(mean_row[1]) == 0.0


def test_evaluate_hand_computed_means(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    g1 = np.zeros((4, 4), dtype=np.uint8)
    g1[1, 1:3] = 1
    save_mask(gt / "a.pgm", g1)
    save_mask(pred / "a.pgm", g1)  # IoU 1, F1 1
    g2 = np.zeros((4, 4), dtype=np.uint8)
    g2[0, 0] = 1
    p2 = np.zeros((4, 4), dtype=np.uint8)
    p2[3, 3] = 1
    save_mask(gt / "b.pgm", g2)
    save_mask(pred / "b.pgm", p2)  # IoU 0, F1 0
    g3 = np.zeros((4, 4), dtype=np.uint8)
    g3[2, 0:3] = 1  # three gt pixels
    p3 = np.zeros((4, 4), dtype=np.uint8)
    p3[2, 1:4] = 1  # tp=2, fp=1, fn=1
    save_mask(gt / "c.pgm", g3)
    save_mask(pred / "c.pgm", p3)
    out = tmp_path / "metrics.tsv"
    assert main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 0
    mean_row = out.read_text().splitlines()[-1].split("\t")
    assert float(mean_row[1]) == pytest.approx((1.0 + 0.0 + 0.5) / 3)
    assert float(mean_row[2]) == pytest.approx((1.0 + 0.0 + 2.0 / 3.0) / 3)


def test_evaluate_soft_predictions_thresholded(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    g = np.zeros((1, 4), dtype=np.uint8)
    g[0, 2:] = 1
    save_mask(gt / "s.pgm", g)
    save_image(pred / "s.pgm", np.array([[0.1, 0.4, 0.9, 0.7]]))
    out = tmp_path / "m.tsv"
    assert main(
        ["evaluate", "--pred", str(pred), "--gt", str(gt), "--threshold", "0.5", "--out", str(out)]
    ) == 0
    assert float(out.read_text().splitlines()[-1].split("\t")[1]) == 1.0


def test_evaluate_reports_fid_and_kid_from_feature_tsvs(tmp_path):
    from fmlab.metrics import fid, kid, save_feature_set_tsv

    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    m = np.zeros((4, 4), dtype=np.uint8)
    m[1, 1] = 1
    save_mask(pred / "a.pgm", m)
    save_mask(gt / "a.pgm", m)
    rng = np.random.default_rng(17)
    real = rng.standard_normal((30, 3))
    syn = rng.standard_normal((30, 3)) + 0.5
    save_feature_set_tsv(tmp_path / "real.tsv", real)
    save_feature_set_tsv(tmp_path / "syn.tsv", syn)
    report = tmp_path / "report.tsv"
    code = main(
        [
            "evaluate",
            "--pred", str(pred),
            "--gt", str(gt),
            "--out", str(tmp_path / "m.tsv"),
            "--report", str(report),
            "--features-real", str(tmp_path / "real.tsv"),
            "--features-syn", str(tmp_path / "syn.tsv"),
        ]
    )
    assert code == 0
    header, values = report.read_text().splitlines()
    assert header == "fid\tkid_x1000\tmiou\tf1"
    fid_val, kid_val, miou, f1_val = (float(tok) for tok in values.split("\t"))
    assert fid_val == pytest.approx(fid(real, syn))
    assert kid_val == pytest.approx(1000.0 * kid(real, syn))
    assert miou == 1.0 and f1_val == 1.0


@pytest.mark.parametrize(
    "body, message",
    [
        (b"1.0\t2.0\n3.0\tx\n", "could not convert string to float: 'x'"),
        (b"1.0\t2.0\n3.0\tnan\n", "feature set contains non-finite entries"),
        (b"1.0\t2.0\n3.0\t\xc3\xa9\n", "can't decode byte 0xc3 in position 12: ordinal not in range(128)"),
        (b"1.0\t2.0\n3.0\t4.0\t5.0\n", "feature rows have [2, 3] columns"),
    ],
    ids=["not-a-number", "nan", "non-ascii", "ragged"],
)
def test_evaluate_names_a_malformed_feature_tsv(tmp_path, capsys, body, message):
    from fmlab.metrics import save_feature_set_tsv

    masks = tmp_path / "masks"
    masks.mkdir()
    save_mask(masks / "a.pgm", np.eye(4, dtype=np.uint8))
    real, syn = tmp_path / "real.tsv", tmp_path / "syn.tsv"
    real.write_bytes(body)
    save_feature_set_tsv(syn, np.random.default_rng(0).standard_normal((5, 2)))
    out = tmp_path / "eval.tsv"
    argv = ["evaluate", "--pred", str(masks), "--gt", str(masks), "--out", str(out)]
    assert main(argv + ["--features-real", str(real), "--features-syn", str(syn)]) == 2
    assert f"{message} in {real}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, dim", [(1, 2), (5, 3)], ids=["one-row", "other-width"])
def test_evaluate_names_feature_tsvs_that_do_not_pair(tmp_path, capsys, rows, dim):
    masks = tmp_path / "masks"
    masks.mkdir()
    save_mask(masks / "a.pgm", np.eye(4, dtype=np.uint8))
    real, syn = tmp_path / "real.tsv", tmp_path / "syn.tsv"
    real.write_text("1.0\t2.0\n" * rows)
    syn.write_text("\t".join(["0.5"] * dim) + "\n" + "\t".join(["1.5"] * dim) + "\n")
    out = tmp_path / "eval.tsv"
    argv = ["evaluate", "--pred", str(masks), "--gt", str(masks), "--out", str(out)]
    assert main(argv + ["--features-real", str(real), "--features-syn", str(syn)]) == 2
    err = capsys.readouterr().err
    if rows == 1:
        assert f"error: {real} needs at least 2 rows, got 1" in err
    else:
        assert f"error: {real} has 2 columns, {syn} has 3" in err
    assert not out.exists()


def test_evaluate_names_a_pred_file_of_another_size(tmp_path, capsys):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    save_mask(pred / "a.pgm", np.eye(8, dtype=np.uint8))
    save_mask(gt / "a.pgm", np.eye(4, dtype=np.uint8))
    out = tmp_path / "eval.tsv"
    assert main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 2
    assert f"error: {pred / 'a.pgm'} is (8, 8), {gt / 'a.pgm'} is (4, 4)" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_feature_flags_must_pair(tmp_path, capsys):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    save_mask(pred / "a.pgm", np.ones((2, 2), dtype=np.uint8))
    save_mask(gt / "a.pgm", np.ones((2, 2), dtype=np.uint8))
    code = main(
        [
            "evaluate",
            "--pred", str(pred),
            "--gt", str(gt),
            "--out", str(tmp_path / "m.tsv"),
            "--features-real", str(tmp_path / "real.tsv"),
        ]
    )
    assert code == 2
    assert "together" in capsys.readouterr().err


def test_evaluate_unpaired_feature_flag_writes_no_output(tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    for i in range(4):
        save_mask(masks / f"m{i}.pgm", np.eye(4, dtype=np.uint8))
    out = tmp_path / "eval.tsv"
    argv = ["evaluate", "--pred", str(masks), "--gt", str(masks), "--out", str(out)]
    assert main(argv + ["--features-real", str(tmp_path / "x.tsv")]) == 2
    assert "together" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["b\tc.pgm", "b\nc.pgm", "z\u00e9.pgm"])
def test_evaluate_rejects_a_name_a_tsv_row_cannot_carry(tmp_path, capsys, name):
    masks = tmp_path / "masks"
    masks.mkdir()
    for stem in ("a.pgm", name):
        save_mask(masks / stem, np.eye(4, dtype=np.uint8))
    out, report = tmp_path / "eval.tsv", tmp_path / "report.tsv"
    argv = ["evaluate", "--pred", str(masks), "--gt", str(masks)]
    assert main(argv + ["--out", str(out), "--report", str(report)]) == 2
    assert f"file name {name!r}" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("flag", [["--threshold", "nan"], ["--threshold", "inf"], ["--threshold=-inf"]])
def test_evaluate_rejects_a_non_finite_threshold_before_reading(tmp_path, capsys, monkeypatch, flag):
    masks = tmp_path / "masks"
    masks.mkdir()
    save_mask(masks / "a.pgm", np.eye(4, dtype=np.uint8))
    reads = []
    for name in ("load_image", "load_mask"):
        read = getattr(rasters, name)
        monkeypatch.setattr(cli.rasters, name, lambda path, read=read: reads.append(path) or read(path))
    out = tmp_path / "eval.tsv"
    argv = ["evaluate", "--pred", str(masks), "--gt", str(masks), "--out", str(out), *flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--threshold" in err
    assert not reads and not out.exists()


def test_evaluate_missing_counterpart_exits_3(tmp_path, capsys):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir(), gt.mkdir()
    save_mask(gt / "only_gt.pgm", np.ones((2, 2), dtype=np.uint8))
    assert (
        main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "m.tsv")])
        == 3
    )
    assert "only_gt.pgm" in capsys.readouterr().err


# -- record layout ------------------------------------------------------------------


def assert_files_match_manifest(out):
    """masks/ and images/ hold exactly the files the manifest names, and
    images/ exists only when some record has an image."""
    records = validate_manifest(out / "manifest.tsv")

    def listed(sub):
        return {f"{sub}/{p.name}" for p in (out / sub).iterdir()} if (out / sub).exists() else set()

    image_paths = {r.image_path for r in records if r.image_path}
    assert listed("masks") == {r.mask_path for r in records}
    assert listed("images") == image_paths
    assert (out / "images").exists() == bool(image_paths)
    return records


@pytest.mark.parametrize(
    "command, n_records, with_images",
    [
        ("inject --model {ws}/inject.fmck --backgrounds {ws}/backgrounds", 4, True),
        ("inject --model {ws}/inject.fmck --backgrounds {ws}/backgrounds --pairing cartesian",
         4 * 12, True),
        ("propagate --k 2", 12 * 2, False),
        ("propagate --k 2 --image-model {ws}/render.fmck", 12 * 2, True),
    ],
)
def test_outputs_hold_exactly_the_manifest_files(workspace, tmp_path, command, n_records, with_images):
    argv = command.format(ws=workspace).split()
    out = tmp_path / "out"
    argv += ["--masks", str(workspace / "masks"), "--ode-steps", "2", "--out", str(out)]
    assert main(argv) == 0
    records = assert_files_match_manifest(out)
    assert len(records) == n_records
    assert all(bool(r.image_path) == with_images for r in records)


# -- propagate / stats -----------------------------------------------------------------


def test_propagate_cli(workspace, tmp_path):
    out = tmp_path / "prop"
    code = main(
        [
            "propagate",
            "--masks", str(workspace / "masks"),
            "--k", "3",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    records = validate_manifest(out / "manifest.tsv")
    assert len(records) == 12 * 3
    assert all(r.strategy == "B_propagated" for r in records)
    assert all(r.image_path == "" for r in records)
    assert all("variant=" in r.provenance for r in records)


def test_propagate_skips_empty_mask(workspace, tmp_path, capsys):
    src = tmp_path / "with_empty"
    src.mkdir()
    for name in ("s00.pgm", "s01.pgm"):
        save_mask(src / name, load_mask(workspace / "masks" / name))
    save_mask(src / "s00a.pgm", np.zeros((8, 8), dtype=np.uint8))
    out = tmp_path / "prop_empty"
    code = main(["propagate", "--masks", str(src), "--k", "2", "--out", str(out)])
    assert code == 0
    assert "skipped mask s00a.pgm" in capsys.readouterr().err
    records, comments = read_manifest(out / "manifest.tsv")
    assert [r.provenance.split(";")[0] for r in records] == ["base=s00.pgm"] * 2 + [
        "base=s01.pgm"
    ] * 2
    assert any("skipped mask s00a.pgm" in c for c in comments)
    # Without the connectivity constraint an empty mask has variants too.
    out = tmp_path / "prop_empty_topo"
    argv = ["propagate", "--masks", str(src), "--k", "2", "--allow-topology-change"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(validate_manifest(out / "manifest.tsv")) == 3 * 2


def test_propagate_renders_each_variant_with_its_own_seed(workspace, tmp_path):
    out = tmp_path / "prop_img"
    code = main(
        [
            "propagate",
            "--masks", str(workspace / "masks"),
            "--k", "3",
            "--seed", "5",
            "--image-model", str(workspace / "render.fmck"),
            "--ode-steps", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    records = validate_manifest(out / "manifest.tsv")
    mask_files = sorted((workspace / "masks").iterdir())
    assert len(records) == len(mask_files) * 3
    image_model, _ = cli.load_model(workspace / "render.fmck")
    icfg = IntegratorConfig("euler", 3)
    for i, src in enumerate(mask_files):
        policy = PropagationPolicy(variants=3, seed=5 + i)
        seeds = cli._record_seeds(5 + i, 3)
        for j, variant in enumerate(propagate(load_mask(src), policy)):
            rec = records[3 * i + j]
            assert rec.image_path == f"images/prop_{i:04d}_{j}.pgm"
            assert np.array_equal(load_mask(out / rec.mask_path), variant.mask)
            x0 = np.random.default_rng(int(seeds[j])).standard_normal((1, 64))
            expected = cli._solve_rows(
                cli.integrate, image_model, x0, variant.mask[None].astype(np.float64), icfg
            )
            image = load_image(out / rec.image_path)
            assert np.max(np.abs(image - expected[0].reshape(8, 8))) <= 1.0 / 255


@pytest.mark.parametrize("masks_side, model", [(8, "mask.fmck"), (4, "render.fmck")])
def test_propagate_rejects_a_renderer_for_other_masks(
    workspace, tmp_path, monkeypatch, capsys, masks_side, model
):
    # A class-conditional checkpoint, or a renderer of 8x8 masks given 4x4 masks.
    src = tmp_path / "src"
    src.mkdir()
    mask = np.zeros((masks_side, masks_side), dtype=np.uint8)
    mask[1, :] = 1
    save_mask(src / "a.pgm", mask)
    reads = []
    real_load = cli.rasters.load_mask
    monkeypatch.setattr(cli.rasters, "load_mask", lambda p: reads.append(p) or real_load(p))
    out = tmp_path / "prop_bad_renderer"
    argv = ["propagate", "--masks", str(src), "--image-model", str(workspace / model)]
    assert main(argv + ["--ode-steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if model == "mask.fmck":
        # The flag is checked before any mask is read.
        assert "need task=image_renderer, got task=mask_generator" in err
        assert reads == []
    else:
        assert f"error: {src / 'a.pgm'} is (4, 4), --image-model takes (8, 8) masks" in err
    assert not out.exists()


def test_propagate_with_an_image_model_rejects_masks_of_mixed_size(
    workspace, tmp_path, monkeypatch, capsys
):
    src = tmp_path / "src"
    src.mkdir()
    save_mask(src / "a.pgm", load_mask(workspace / "masks" / "s00.pgm"))
    save_mask(src / "b.pgm", np.ones((4, 4), dtype=np.uint8))
    calls = []
    real_propagate = cli.mask_ops.propagate
    monkeypatch.setattr(cli.mask_ops, "propagate", lambda *a: calls.append(a) or real_propagate(*a))
    out = tmp_path / "out"
    argv = ["propagate", "--masks", str(src), "--image-model", str(workspace / "render.fmck")]
    assert main(argv + ["--ode-steps", "2", "--out", str(out)]) == 2
    assert f"error: {src / 'b.pgm'} is (4, 4), --image-model takes (8, 8) masks" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("name", ["a\tb.pgm", "\u00e9.pgm"])
@pytest.mark.parametrize("render", [False, True])
def test_propagate_rejected_record_leaves_no_output(
    workspace, tmp_path, monkeypatch, capsys, name, render
):
    # The provenance base=<name> is a field the manifest cannot carry.
    src = tmp_path / "src"
    src.mkdir()
    save_mask(src / "a.pgm", load_mask(workspace / "masks" / "s00.pgm"))
    save_mask(src / name, load_mask(workspace / "masks" / "s01.pgm"))
    solves = []
    real_solve = cli.integrate
    monkeypatch.setattr(cli, "integrate", lambda *a: solves.append(a) or real_solve(*a))
    out = tmp_path / "prop_rejected"
    argv = ["propagate", "--masks", str(src), "--k", "2", "--out", str(out)]
    if render:
        argv += ["--image-model", str(workspace / "render.fmck"), "--ode-steps", "2"]
    assert main(argv) == 2
    assert "manifest field" in capsys.readouterr().err
    assert solves == []
    assert not out.exists()


def test_propagate_rejected_comment_leaves_no_output(workspace, tmp_path, capsys):
    # An empty mask is skipped, and the skip comment names its non-ASCII file.
    src = tmp_path / "src"
    src.mkdir()
    save_mask(src / "a.pgm", load_mask(workspace / "masks" / "s00.pgm"))
    save_mask(src / "\u00e9.pgm", np.zeros((8, 8), dtype=np.uint8))
    out = tmp_path / "prop_rejected"
    assert main(["propagate", "--masks", str(src), "--k", "2", "--out", str(out)]) == 2
    assert "non-ASCII" in capsys.readouterr().err
    assert not out.exists()


def test_main_reuses_one_parser_and_each_call_starts_from_the_defaults(workspace, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    masks = str(workspace / "masks")
    first = ["stats", "--masks", masks, "--fraction", "1", "--num-classes", "3", "--seed", "4"]
    assert main(first + ["--out", str(tmp_path / "s3.tsv")]) == 0
    assert main(["propagate", "--masks", masks, "--k", "1", "--out", str(tmp_path / "prop")]) == 0
    assert main(["stats", "--masks", masks, "--out", str(tmp_path / "s.tsv")]) == 0
    lines = (tmp_path / "s3.tsv").read_text().splitlines()
    assert [l.split("\t")[0] for l in lines[1:4]] == ["class_0", "class_1", "class_2"]
    n = len(list((workspace / "masks").iterdir()))
    assert lines[-1] == f"n_used\t{n}"
    # The defaults again: ten classes and a tenth of the masks, rounded up.
    lines = (tmp_path / "s.tsv").read_text().splitlines()
    assert len(lines) == 1 + 10 + 2 and lines[-1] == f"n_used\t{-(-n // 10)}"
    records, _ = read_manifest(tmp_path / "prop" / "manifest.tsv")
    assert len(records) == n and all(r.image_path == "" for r in records)


def test_stats_cli(workspace, tmp_path):
    out = tmp_path / "stats.tsv"
    code = main(
        [
            "stats",
            "--masks", str(workspace / "masks"),
            "--fraction", "1.0",
            "--num-classes", "2",
            "--max-coverage", "0.75",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = dict(line.split("\t") for line in out.read_text().splitlines()[1:])
    freqs = [float(rows[f"class_{c}"]) for c in range(2)]
    assert sum(freqs) == pytest.approx(1.0)
    assert int(rows["n_used"]) == 12
    assert float(rows["mean_width"]) > 0
