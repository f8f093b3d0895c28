"""Workload plans, seeded inputs, CLI command rounds and output checks.

Every workload runs the same user journey through `fmlab.cli.main`:
train the three velocity models, synthesize in-domain (strategy A, CFG
1.2, Euler-50) and cross-domain (`--perturb`, Heun) pairs, split and
evaluate them, inject masks onto backgrounds (strategy C, cartesian), and
propagate masks (strategy B) at 16x16 with images and at 64x64 without,
then summarize the 64x64 masks with `stats`. A workload's plan sizes these
steps so that one group of layers dominates its timed phase:

- `train`: the three `train` commands run inside the timed phase; the
  commands after them are a small smoke test of the fresh checkpoints.
- `pipeline`: checkpoints come from set-up; few, large, guided ODE batches.
- `edit`: checkpoints come from set-up; about 150 batch-1 ODE solves a
  round and mask morphology / connected components / skeletons at 64x64.

Every command runs in every workload, so every end-to-end metric has a
value on every workload; the small steps keep their share of the timed
phase low.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fmlab import cli, metrics, rasters, toys
from fmlab.manifest import read_manifest, validate_manifest
from fmlab.neural import load_checkpoint

SIDE = 16
CRACK_SIDE = 64
NUM_CLASSES = 3
MAX_COVERAGE = 0.25
MODELS = (("mask", "mask_generator"), ("render", "image_renderer"), ("inject", "injector"))
LOG_TAIL = 5
# Initialisation and batch order stay fixed; the data vary with the workload
# seed. Quality guards then vary with the inputs, not with the init draw.
TRAIN_SEED = 5


@dataclass(frozen=True)
class Plan:
    n_real: int  # 16x16 line masks with paired images; training data
    n_bg: int  # constant backgrounds; injector training and inject inputs
    n_targets: int  # target masks for synthesize-crossdomain
    n_edit: int  # 16x16 masks fed to inject and propagate
    n_crack: int  # 64x64 random-walk crack masks for propagate and stats
    train_steps: int  # steps per model
    train_in_round: bool  # False: the checkpoints are trained in set-up
    ind_x: int
    ind_k: int
    cross_mult: int
    prop_k: int
    crack_k: int
    setup_reps: int = 3
    crack_walk: int = 300
    ode_steps: int = 50


PLANS = {
    "train": Plan(
        n_real=48, n_bg=4, n_targets=8, n_edit=8, n_crack=12, train_steps=60,
        train_in_round=True, ind_x=8, ind_k=2, cross_mult=2, prop_k=2, crack_k=2,
        setup_reps=9,  # set-up only writes inputs, so more reps cost little
    ),
    "pipeline": Plan(
        n_real=48, n_bg=4, n_targets=32, n_edit=8, n_crack=12, train_steps=100,
        train_in_round=False, ind_x=32, ind_k=4, cross_mult=2, prop_k=2, crack_k=2,
    ),
    "edit": Plan(
        n_real=48, n_bg=4, n_targets=8, n_edit=24, n_crack=50, train_steps=100,
        train_in_round=False, ind_x=8, ind_k=2, cross_mult=2, prop_k=2, crack_k=3,
    ),
}

# Seconds-long sizes for the self-test; same journey, same checks.
TINY = Plan(
    n_real=6, n_bg=2, n_targets=4, n_edit=3, n_crack=3, train_steps=4,
    train_in_round=False, ind_x=2, ind_k=2, cross_mult=1, prop_k=2, crack_k=2,
    setup_reps=2, crack_walk=60, ode_steps=3,
)


# -- inputs ---------------------------------------------------------------------


def _line_masks(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.stack([toys.line_mask(SIDE, int(rng.integers(1, 4)), rng) for _ in range(n)])


def _stratified(n: int, rng: np.random.Generator) -> np.ndarray:
    """Brightness levels in [0.68, 0.82] (the toys range), one per stratum in
    random order. The injector's error outside the mask depends on how far
    background levels lie from the crack images' levels, so every seed gets
    the whole range rather than a lucky or unlucky draw."""
    return 0.68 + 0.14 * rng.permutation((np.arange(n) + rng.random(n)) / n)


def _crack_masks(n: int, walk: int, rng: np.random.Generator) -> np.ndarray:
    """8-connected random walks clamped to the raster; every other one 2 px wide."""
    out = np.zeros((n, CRACK_SIDE, CRACK_SIDE), dtype=np.uint8)
    for i in range(n):
        start = rng.integers(0, CRACK_SIDE, 2)
        path = np.clip(start + np.cumsum(rng.integers(-1, 2, (walk, 2)), axis=0), 0, CRACK_SIDE - 1)
        out[i, path[:, 0], path[:, 1]] = 1
        if i % 2:
            out[i, 1:] |= out[i, :-1].copy()
    return out


def _save_masks(directory: Path, stack: np.ndarray, prefix: str) -> None:
    directory.mkdir(parents=True)
    for i, m in enumerate(stack):
        rasters.save_mask(directory / f"{prefix}{i:03d}.pgm", m)


def _write_config(path: Path, task: str, inputs: Path, plan: Plan) -> None:
    path.write_text(
        f"task = {task}\n"
        f"data_masks = {inputs / 'real' / 'masks'}\n"
        f"data_images = {inputs / 'real' / 'images'}\n"
        f"data_backgrounds = {inputs / 'backgrounds'}\n"
        f"resolution = {SIDE}\nnum_classes = {NUM_CLASSES}\nmax_coverage = {MAX_COVERAGE}\n"
        f"width = 128\nbatch = 64\nsteps = {plan.train_steps}\nema_decay = 0.99\n"
        f"log_every = 10\nseed = {TRAIN_SEED}\n",
        encoding="ascii",
    )


def make_inputs(plan: Plan, seed: int, inputs: Path) -> None:
    """Write every input the CLI reads, all drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    real = _line_masks(plan.n_real, rng)
    images = (_stratified(plan.n_real, rng)[:, None, None] * (1 - real)).reshape(plan.n_real, -1)
    _save_masks(inputs / "real" / "masks", real, "r")
    (inputs / "real" / "images").mkdir()
    for i, img in enumerate(images):
        rasters.save_image(inputs / "real" / "images" / f"r{i:03d}.pgm", img.reshape(SIDE, SIDE))
    (inputs / "backgrounds").mkdir()
    for i, level in enumerate(_stratified(plan.n_bg, rng)):
        rasters.save_image(inputs / "backgrounds" / f"b{i:03d}.pgm", np.full((SIDE, SIDE), level))
    _save_masks(inputs / "targets", _line_masks(plan.n_targets, rng), "t")
    _save_masks(inputs / "edit", _line_masks(plan.n_edit, rng), "e")
    _save_masks(inputs / "cracks", _crack_masks(plan.n_crack, plan.crack_walk, rng), "c")
    metrics.save_feature_set_tsv(inputs / "real_features.tsv", images)
    for name, task in MODELS:
        _write_config(inputs / f"{name}.cfg", task, inputs, plan)


def train_commands(inputs: Path, ckpt: Path) -> list[list[str]]:
    return [["train", "--config", str(inputs / f"{n}.cfg"), "--out", str(ckpt / f"{n}.fmck")] for n, _ in MODELS]


# -- one round of the timed phase -------------------------------------------------


@dataclass(frozen=True)
class Step:
    argv: list[str]
    work: int  # train steps, pairs or variants the command produces
    manifest: str | None = None  # relative to the round directory


def round_steps(plan: Plan, seed: int, inputs: Path, ckpt: Path, out: Path) -> list[Step]:
    """The commands of one round, in order, with the work each must produce."""
    cli_seed = str(seed % 100003)
    sample = ["--ode-steps", str(plan.ode_steps), "--seed", cli_seed]
    binning = ["--num-classes", str(NUM_CLASSES), "--max-coverage", str(MAX_COVERAGE)]
    models = ["--mask-model", str(ckpt / "mask.fmck"), "--image-model", str(ckpt / "render.fmck")]
    steps = []
    if plan.train_in_round:
        steps += [Step(argv, plan.train_steps) for argv in train_commands(inputs, ckpt)]
    n_cross = math.ceil(plan.cross_mult * plan.n_targets)
    steps += [
        Step(
            ["synthesize-indomain", *models, "--real-count", str(plan.ind_x), "--k", str(plan.ind_k),
             "--cfg-omega", "1.2", "--out", str(out / "ind"), *sample],
            plan.ind_x * plan.ind_k, "ind/manifest.tsv",
        ),
        Step(
            ["synthesize-crossdomain", *models, "--target-masks", str(inputs / "targets"),
             "--fraction", "0.25", "--multiplier", str(plan.cross_mult), "--perturb",
             "--method", "heun", "--out", str(out / "cross"), *sample],
            n_cross, "cross/manifest.tsv",
        ),
        Step(
            ["split", "--manifest", str(out / "ind" / "manifest.tsv"), "--fractions", "0.8,0.1,0.1",
             "--seed", cli_seed, "--out", str(out / "ind" / "split.tsv")],
            plan.ind_x * plan.ind_k, "ind/split.tsv",
        ),
        Step(
            ["evaluate", "--pred", str(out / "ind" / "masks"), "--gt", str(out / "ind" / "masks"),
             "--features-real", str(inputs / "real_features.tsv"),
             "--features-syn", str(out / "syn_features.tsv"),
             "--out", str(out / "eval.tsv"), "--report", str(out / "report.tsv")],
            plan.ind_x * plan.ind_k,
        ),
        Step(
            ["inject", "--model", str(ckpt / "inject.fmck"), "--backgrounds", str(inputs / "backgrounds"),
             "--masks", str(inputs / "edit"), "--pairing", "cartesian", "--out", str(out / "inj"),
             *sample, *binning],
            plan.n_bg * plan.n_edit, "inj/manifest.tsv",
        ),
        Step(
            ["propagate", "--masks", str(inputs / "edit"), "--k", str(plan.prop_k),
             "--image-model", str(ckpt / "render.fmck"), "--out", str(out / "prop16"), *sample, *binning],
            plan.n_edit * plan.prop_k, "prop16/manifest.tsv",
        ),
        Step(
            ["propagate", "--masks", str(inputs / "cracks"), "--k", str(plan.crack_k),
             "--out", str(out / "prop64"), "--seed", cli_seed, *binning],
            plan.n_crack * plan.crack_k, "prop64/manifest.tsv",
        ),
        Step(
            ["stats", "--masks", str(inputs / "cracks"), "--fraction", "0.5", "--num-classes", "5",
             "--max-coverage", "0.2", "--seed", cli_seed, "--out", str(out / "stats.tsv")],
            math.ceil(0.5 * plan.n_crack),
        ),
    ]
    return steps


def write_syn_features(out: Path) -> None:
    """The evaluate step's synthesized feature set: the flattened in-domain images."""
    files = sorted((out / "ind" / "images").iterdir())
    feats = np.stack([rasters.load_image(p).reshape(-1) for p in files])
    metrics.save_feature_set_tsv(out / "syn_features.tsv", feats)


# -- checks -------------------------------------------------------------------------


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_manifest(out: Path, step: Step) -> None:
    """validate_manifest passes, the record count matches the policy
    arithmetic, masks are binary, images lie in [0,1] at the right size."""
    path = out / step.manifest
    records = validate_manifest(path)
    if len(records) != step.work:
        raise AssertionError(f"{step.manifest}: {len(records)} records, policy gives {step.work}")
    for rec in records:
        raw = rasters.load_pgm(path.parent / rec.mask_path)
        if not np.all((raw == 0) | (raw == 255)):
            raise AssertionError(f"{rec.mask_path} is not a binary mask")
        if rec.image_path:
            img = rasters.load_image(path.parent / rec.image_path)
            if img.shape != raw.shape or img.min() < 0.0 or img.max() > 1.0:
                raise AssertionError(f"{rec.image_path} is not a [0,1] image of the mask's size")


def check_checkpoints(ckpt: Path) -> None:
    """Every checkpoint reloads through the CLI loader with finite parameters."""
    for name, _ in MODELS:
        params, ema = load_checkpoint(ckpt / f"{name}.fmck")
        model, _ = cli.load_model(ckpt / f"{name}.fmck")
        if params.size != model.n_params or not (np.all(np.isfinite(params)) and np.all(np.isfinite(ema))):
            raise AssertionError(f"{name}.fmck does not reload with finite parameters")


def check_report(out: Path) -> None:
    """Self-evaluation scores exactly 1; FID and KID are finite."""
    report = read_report(out / "report.tsv")
    if report["miou"] != 1.0 or report["f1"] != 1.0:
        raise AssertionError(f"masks evaluated against themselves score {report}")
    if not (math.isfinite(report["fid"]) and math.isfinite(report["kid_x1000"])):
        raise AssertionError(f"non-finite FID/KID {report}")


def check_stats(out: Path, step: Step) -> None:
    """The stats subsample has ceil(fraction*N) masks and a normalized histogram."""
    rows = dict(line.split("\t") for line in (out / "stats.tsv").read_text().splitlines()[1:])
    hist = sum(float(v) for k, v in rows.items() if k.startswith("class_"))
    if int(rows["n_used"]) != step.work or abs(hist - 1.0) > 1e-9 or float(rows["mean_width"]) <= 0.0:
        raise AssertionError(f"stats over {rows['n_used']} masks, histogram sum {hist}")


# -- quality guards ---------------------------------------------------------------


def read_report(path: Path) -> dict[str, float]:
    keys, values = path.read_text(encoding="ascii").splitlines()[:2]
    return dict(zip(keys.split("\t"), (float(v) for v in values.split("\t"))))


def loss_tail(ckpt: Path) -> float:
    """Mean over the three models of the mean of the last logged losses."""
    tails = []
    for name, _ in MODELS:
        rows = (ckpt / f"{name}.fmck.log.tsv").read_text(encoding="ascii").splitlines()[1:]
        tails.append(np.mean([float(r.split("\t")[1]) for r in rows[-LOG_TAIL:]]))
    return float(np.mean(tails))


def inject_bg_err(out: Path, inputs: Path) -> float:
    """Mean |out - background| outside the mask over all injected pairs."""
    records, _ = read_manifest(out / "inj" / "manifest.tsv")
    errs = []
    for rec in records:
        fields = dict(kv.split("=", 1) for kv in rec.provenance.split(";")[1:])
        background = rasters.load_image(inputs / "backgrounds" / fields["background"])
        image = rasters.load_image(out / "inj" / rec.image_path)
        outside = rasters.load_mask(out / "inj" / rec.mask_path) == 0
        errs.append(np.mean(np.abs(image - background)[outside]))
    return float(np.mean(errs))
