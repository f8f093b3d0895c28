"""Command-line orchestration of training, synthesis policies, and evaluation.

Subcommands: train, synthesize-indomain, synthesize-crossdomain, inject,
split, evaluate, propagate, stats. Configs are plain key=value text files,
and train rejects any key it does not read; the FMLAB_SEED environment
variable overrides any configured seed or --seed flag. Exit
codes: 0 success, 2 config/data error or numerical failure (a diverging ODE,
non-finite training, a statistic outside its validity range), 3 evaluation
mismatch.

Every command solves its ODE rows through _solve_rows, in batched calls of
at most _SOLVE_ROWS rows, so a command's cost scales with rows x steps and
its solver memory does not grow with the number of pairs it writes. Every
model flag is loaded through _load_task, which requires the checkpoint's meta
to name the task the flag needs and returns the settings that task records
(_TASKS); a renderer's mask_shape alone sizes the masks it is given.
_value parses every config and meta value, with no fallback: a missing or
malformed one raises DomainError naming its file and its key.

Every setting is checked where it is built, and it is built before the
first read of a raster or a checkpoint: main builds the flag groups that
commands share (args.icfg from the sampling flags, args.bins from the
binning flags) and checks --fraction before it runs the command, and
cmd_train builds its TrainConfig, schedule and VelocityModel from the
config before it loads any data.

Outputs other than rasters are built whole, then replaced by
_files.write_file, which stages the files a command writes together (the
checkpoint and its log; evaluate's --out and --report) and renames them only
once all are written. _write_records checks every record before any image
solve or raster write, and writes its manifest last.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import masks as mask_ops
from . import metrics, rasters, toys
from ._files import write_file
from .errors import DivergenceError, DomainError, NumericError, ShapeError, TrainingError
from .manifest import ManifestRecord, check_cell, check_comments, read_manifest, write_manifest
from .neural import (
    TrainConfig,
    VelocityModel,
    _read_checkpoint,
    load_checkpoint,  # unused here; perfbench's tracer wraps cli.load_checkpoint
    save_checkpoint,
    train_fm,
    train_rf_injector,
)
from .sampler import IntegratorConfig, integrate, integrate_from_background
from .schedules import linear_schedule, rectified_schedule

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3

# Most rows one ODE solve takes. Larger batches amortize the per-call and
# per-step overhead; the cap bounds the solver's activations.
_SOLVE_ROWS = 256

# Default coverage binning: ten equal classes up to 5 % crack coverage.
_NUM_CLASSES = 10
_MAX_COVERAGE = 0.05


# -- config files --------------------------------------------------------------


def parse_config(path) -> dict[str, str]:
    """key=value lines; '#' starts a comment; later keys override earlier."""
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _value(source, values: dict, key: str, kind: type):
    """values[key], read from source, as kind, or DomainError naming source and key."""
    if key not in values:
        raise DomainError(f"{source} has no key '{key}'")
    try:
        return kind(values[key])
    except ValueError:
        raise DomainError(f"{source}: '{key}' is {values[key]!r}, not {kind.__name__}") from None


def effective_seed(seed: int, source: str) -> int:
    """FMLAB_SEED when it is set and not empty, else seed; DomainError naming source if < 0."""
    if os.environ.get("FMLAB_SEED"):
        seed, source = _value("environment", os.environ, "FMLAB_SEED", int), "FMLAB_SEED"
    if seed < 0:
        raise DomainError(f"{source} must be >= 0, got {seed}")
    return seed


# -- shared helpers -------------------------------------------------------------


# The VelocityModel arguments a checkpoint's meta records first, in order;
# mask models add mask_height and mask_width, then come task and its _TASKS keys.
# A meta with mask_height is a mask-conditional model's, one without it a
# class-conditional model's; load_model ignores every key it does not name.
_ARCH_KEYS = ("data_dim", "width", "hidden_layers", "time_embed_dim", "num_classes")


def load_model(checkpoint_path) -> tuple[VelocityModel, dict[str, str]]:
    """Rebuild a model with its EMA weights, and its meta, from one checkpoint read."""
    meta, _, ema = _read_checkpoint(checkpoint_path)
    size = partial(_value, checkpoint_path, meta, kind=int)
    mask_shape = (size("mask_height"), size("mask_width")) if "mask_height" in meta else None
    sizes = {key: size(key) for key in _ARCH_KEYS}
    return VelocityModel(mask_shape=mask_shape, params=ema, **sizes), meta


def _sorted_files(directory) -> list[Path]:
    d = Path(directory)
    if not d.is_dir():
        raise DomainError(f"not a directory: {directory}")
    files = sorted(p for p in d.iterdir() if p.suffix == ".pgm")
    if not files:
        raise DomainError(f"no raster files in {directory}")
    return files


def _read_raster(load, path, shape=None, wanted: str = "") -> np.ndarray:
    """load(path); given shape, ShapeError "<path> is (h, w), <wanted>" for any other size."""
    raster = load(path)
    if shape is not None and raster.shape != shape:
        raise ShapeError(f"{path} is {raster.shape}, {wanted}")
    return raster


def _record_seeds(base_seed: int, count: int) -> np.ndarray:
    """Per-record generating seeds, reproducibly derived from the base seed."""
    return np.random.SeedSequence(base_seed).generate_state(count, dtype=np.uint64)


def _solve_rows(solve, model: VelocityModel, x0: np.ndarray, cond, icfg) -> np.ndarray:
    """solve(model, x0, cond, icfg), integrate or integrate_from_background,
    over consecutive chunks of at most _SOLVE_ROWS rows of x0 and cond. Every
    row is a raster in [0, 1], so the result is clipped to that range, which
    leaves a mask thresholded at 0.5 unchanged."""
    out = np.empty_like(x0)
    for start in range(0, len(x0), _SOLVE_ROWS):
        rows = slice(start, start + _SOLVE_ROWS)
        out[rows] = solve(model, x0[rows], cond[rows], icfg)
    return np.clip(out, 0.0, 1.0, out=out)


def _load_task(flag: str, path, task: str) -> tuple[VelocityModel, dict]:
    """Model of the checkpoint at path, given by flag, and the settings its
    task records (_TASKS), typed as in _TRAIN_DEFAULTS. The meta must name
    task, and the model must be of the kind task trains (mask-conditional or not)."""
    model, meta = load_model(path)
    mask_conditional, _, recorded = _TASKS[task]
    if meta.get("task") != task or (model.mask_shape is not None) != mask_conditional:
        raise DomainError(f"{flag} {path}: need task={task}, got task={meta.get('task')}")
    return model, {key: _value(path, meta, key, type(_TRAIN_DEFAULTS[key])) for key in recorded}


def _write_records(out_dir: Path, rows, strategy: str, bins, comments, render=None) -> int:
    """Write each row (stem, mask, seed, provenance) as masks/<stem>.pgm and
    list them all in out_dir/manifest.tsv; returns the number of records.
    render, when given, maps the stack of row masks to one image per row,
    written as images/<stem>.pgm. Every record and comment is checked before
    render runs, and the manifest is written last, so a rejected one costs
    no ODE solve and leaves no output."""
    classes = mask_ops.assign_class(np.array([row[1].mean() for row in rows]), bins)
    records = [
        ManifestRecord(
            image_path="" if render is None else f"images/{stem}.pgm",
            mask_path=f"masks/{stem}.pgm",
            coverage_class=int(c),
            strategy=strategy,
            seed=int(seed),
            provenance=provenance,
        )
        for (stem, _, seed, provenance), c in zip(rows, classes)
    ]
    check_comments(comments)
    images = render(np.stack([row[1] for row in rows])) if render and rows else [None] * len(rows)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    if render and rows:
        (out_dir / "images").mkdir(exist_ok=True)
    for rec, (_, mask, _, _), image in zip(records, rows, images):
        if image is not None:
            rasters.save_image(out_dir / rec.image_path, image.reshape(mask.shape))
        rasters.save_mask(out_dir / rec.mask_path, mask)
    write_manifest(out_dir / "manifest.tsv", records, comments=comments or None)
    return len(records)


# -- train ----------------------------------------------------------------------

# Each training task: whether its model is mask-conditional, the data keys
# it requires, and the config keys its checkpoint records after task, in
# that order, which _load_task reads back.
_TASKS = {
    "two_gaussians": (False, (), ()),
    "mask_generator": (False, ("data_masks",), ("max_coverage",)),
    "image_renderer": (True, ("data_masks", "data_images"), ()),
    "injector": (True, ("data_masks", "data_images", "data_backgrounds"), ()),
}

# Every key cmd_train reads besides task and the data keys, with its default;
# a config value parses as its default's type. Any other key is an error.
_TRAIN_DEFAULTS = {
    "seed": 0, "resolution": 16, "width": 128, "hidden_layers": 2, "time_embed_dim": 32,
    "steps": 1000, "batch": 64, "lr": 1e-3, "ema_decay": 0.9999, "p_drop": 0.1,
    "log_every": 50, "n_per_class": 500, "num_classes": _NUM_CLASSES,
    "max_coverage": _MAX_COVERAGE, "sigma": 0.1,
}


def cmd_train(args) -> int:
    cfg = {**_TRAIN_DEFAULTS, **parse_config(args.config)}
    task = cfg.pop("task", None)
    unknown = sorted(set(cfg) - {*_TRAIN_DEFAULTS, *_TASKS["injector"][1]})  # every data key
    if unknown:
        raise DomainError(f"unknown config key {', '.join(unknown)}")
    if task not in _TASKS:
        raise DomainError(f"config must set task to a known value, got {task!r}")
    mask_conditional, data_keys, recorded = _TASKS[task]
    for key in data_keys:
        if key not in cfg:
            raise DomainError(f"task {task} needs config key {key}")
    cfg.update({key: _value(args.config, cfg, key, type(d)) for key, d in _TRAIN_DEFAULTS.items()})

    # Every setting is built, and so checked, before any data is read.
    seed = effective_seed(cfg["seed"], f"{args.config}: 'seed'")
    side, log_every = cfg["resolution"], cfg["log_every"]
    rates = {key: cfg[key] for key in ("lr", "ema_decay", "p_drop")}
    tcfg = TrainConfig(steps=cfg["steps"], batch_size=cfg["batch"], seed=seed, **rates)
    if log_every < 1:
        raise DomainError(f"log_every must be >= 1, got {log_every}")
    num_classes = 2  # two_gaussians; mask models have no label table
    if task == "mask_generator":
        bins = mask_ops.uniform_bins(cfg["num_classes"], cfg["max_coverage"])
        num_classes = bins.num_classes
    sched = rectified_schedule(cfg["sigma"]) if task == "injector" else linear_schedule()
    data_dim = 2 if task == "two_gaussians" else side * side
    mask_shape = (side, side) if mask_conditional else None
    sizes = {key: cfg[key] for key in ("width", "hidden_layers", "time_embed_dim")}
    model = VelocityModel(data_dim, num_classes, mask_shape, seed=seed, **sizes)

    if task == "two_gaussians":
        data = toys.two_gaussians(cfg["n_per_class"], seed=seed + 1)
    else:
        read = partial(_read_raster, shape=(side, side), wanted=f"config resolution is {side}")
        mask_files = _sorted_files(cfg["data_masks"])
        masks = np.stack([read(rasters.load_mask, p) for p in mask_files])
    if task == "mask_generator":
        labels = mask_ops.assign_class(masks.mean(axis=(1, 2)), bins)
        data = (masks.reshape(len(masks), -1).astype(np.float64), labels)
    elif mask_conditional:
        # Images pair with masks by file name.
        img_paths = [Path(cfg["data_images"]) / mf.name for mf in mask_files]
        for img_path in img_paths:
            if not img_path.exists():
                raise DomainError(f"no image paired with mask {img_path.name}")
        images = np.stack([read(rasters.load_image, p) for p in img_paths]).reshape(-1, data_dim)
        data = (images, masks.astype(np.float64))

    log = ["step\tloss\n"]

    def on_step(step: int, loss: float):
        if step % log_every == 0 or step == tcfg.steps:
            log.append(f"{step}\t{loss!r}\n")

    if task == "injector":
        bg_files = _sorted_files(cfg["data_backgrounds"])
        backgrounds = np.stack([read(rasters.load_image, p) for p in bg_files]).reshape(-1, data_dim)
        state = train_rf_injector(model, data, backgrounds, sched, tcfg, callback=on_step)
    else:
        state = train_fm(model, data, sched, tcfg, callback=on_step)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    meta = {key: getattr(model, key) for key in _ARCH_KEYS}
    if model.mask_shape is not None:
        meta["mask_height"], meta["mask_width"] = model.mask_shape
    # The log is renamed first, so a failed write leaves the previous checkpoint.
    log_file = (str(out) + ".log.tsv", log)
    meta.update(task=task, **{key: cfg[key] for key in recorded})
    save_checkpoint(out, state.params, state.ema_params, meta, log_file)
    print(f"wrote checkpoint {out} ({state.step} steps)")
    return EXIT_OK


# -- synthesis policies ----------------------------------------------------------


def _load_models(args) -> tuple[VelocityModel, mask_ops.CoverageBinning, VelocityModel]:
    """The --mask-model generator, the coverage bins its class labels index
    (from its num_classes and its recorded max_coverage) and the
    --image-model renderer, which must take the generator's masks."""
    mask_model, recorded = _load_task("--mask-model", args.mask_model, "mask_generator")
    top = recorded["max_coverage"]
    if not 0.0 < top <= 1.0:
        raise DomainError(f"--mask-model {args.mask_model}: max_coverage must lie in (0, 1], got {top}")
    bins = mask_ops.uniform_bins(mask_model.num_classes, top)
    image_model, _ = _load_task("--image-model", args.image_model, "image_renderer")
    shape, dim = image_model.mask_shape, mask_model.data_dim
    if dim != math.prod(shape):
        msg = f"--mask-model {args.mask_model} makes {dim}-pixel masks"
        raise DomainError(f"{msg}, --image-model {args.image_model} takes {shape} masks")
    return mask_model, bins, image_model


def _synthesize(
    args,
    mask_model: VelocityModel,
    bins,
    image_model: VelocityModel,
    n_total: int,
    class_probs: np.ndarray,
    prefix: str,
    header: list[str],
    perturb: bool = False,
) -> None:
    """Sample n_total masks from mask_model with classes drawn from
    class_probs, render an image for each with image_model (both solves
    follow args.icfg), and write the pairs under args.out with comment lines
    header. The models and bins are as _load_models returns them."""
    shape, dim = image_model.mask_shape, mask_model.data_dim
    seeds = _record_seeds(args.seed, n_total)

    # Each record's generator draws its class, its mask noise and its image
    # noise, in that order; the rows are then batched through the ODE.
    labels = np.empty(n_total, dtype=np.intp)
    x0 = np.empty((n_total, dim))
    image_x0 = np.empty((n_total, image_model.data_dim))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        labels[i] = rng.choice(len(class_probs), p=class_probs)
        x0[i] = rng.standard_normal(dim)
        image_x0[i] = rng.standard_normal(image_model.data_dim)
    sampled = _solve_rows(integrate, mask_model, x0, labels, args.icfg)
    mask_stack = (sampled >= 0.5).astype(np.uint8).reshape(n_total, *shape)

    if perturb:
        for i, m in enumerate(mask_stack):
            if m.any():
                policy = mask_ops.PropagationPolicy(
                    variants=1, max_dilate=1, max_erode=1, jitter_px=0, seed=int(seeds[i])
                )
                mask_stack[i] = mask_ops.propagate(m, policy)[0].mask

    digits = len(str(max(n_total - 1, 1)))
    tag = ";perturbed" if perturb else ""
    rows = [
        (f"{prefix}_{i:0{digits}d}", m, s, f"{prefix};requested_class={c}{tag}")
        for i, (m, s, c) in enumerate(zip(mask_stack, seeds, labels))
    ]
    render = partial(_solve_rows, integrate, image_model, image_x0, icfg=args.icfg)
    n = _write_records(Path(args.out), rows, "A_mask_gen", bins, header, render)
    print(f"synthesized {n} pairs into {args.out}")


def cmd_synthesize_indomain(args) -> int:
    if args.k < 1 or args.real_count < 0:
        raise DomainError(f"need k >= 1 and real-count >= 0, got {args.k} and {args.real_count}")
    n_total = args.k * args.real_count
    mask_model, bins, image_model = _load_models(args)
    class_probs = np.full(bins.num_classes, 1.0 / bins.num_classes)
    header = [f"policy=indomain x={args.real_count} k={args.k} total={n_total}"]
    _synthesize(args, mask_model, bins, image_model, n_total, class_probs, "indomain", header)
    return EXIT_OK


def cmd_synthesize_crossdomain(args) -> int:
    if not 0.0 <= args.multiplier < math.inf:
        raise DomainError(f"multiplier must be finite and >= 0, got {args.multiplier}")
    mask_model, bins, image_model = _load_models(args)
    target_masks = [rasters.load_mask(p) for p in _sorted_files(args.target_masks)]
    x_target = len(target_masks)
    n_total = math.ceil(args.multiplier * x_target)
    stats = mask_ops.estimate_target_stats(target_masks, args.fraction, bins, seed=args.seed)
    print(
        f"target stats from {stats.n_used}/{x_target} masks: "
        f"histogram={np.array2string(stats.histogram, precision=3)} "
        f"mean_width={stats.mean_width:.3f}",
        file=sys.stderr,
    )
    header = [
        f"policy=crossdomain x_target={x_target} multiplier={args.multiplier} total={n_total}",
        f"stats_masks_used={stats.n_used} fraction={args.fraction}",
        "histogram=" + ",".join(repr(float(v)) for v in stats.histogram),
        f"mean_width={repr(stats.mean_width)}",
    ]
    _synthesize(
        args, mask_model, bins, image_model, n_total, stats.histogram, "crossdomain", header, args.perturb
    )
    return EXIT_OK


def cmd_inject(args) -> int:
    model, _ = _load_task("--model", args.model, "injector")
    bg_files = _sorted_files(args.backgrounds)
    mask_files = _sorted_files(args.masks)
    notes = []
    if args.pairing == "cartesian":
        pairs = [(b, m) for b in bg_files for m in mask_files]
    else:
        pairs = list(zip(bg_files, mask_files))
        unpaired = abs(len(bg_files) - len(mask_files))
        if unpaired:
            notes.append(
                f"zip pairing left {unpaired} file(s) unpaired "
                f"({len(bg_files)} backgrounds, {len(mask_files)} masks)"
            )
            print(f"warning: {notes[-1]}", file=sys.stderr)
    # Each distinct raster is read once, however many pairs use it.
    backgrounds = {p: rasters.load_image(p) for p in dict.fromkeys(b for b, _ in pairs)}
    mask_rasters = {p: rasters.load_mask(p) for p in dict.fromkeys(m for _, m in pairs)}
    h, w = dims = model.mask_shape
    digits = len(str(max(len(pairs) - 1, 1)))
    rows, bg_rows = [], []
    for i, (bg_path, mask_path) in enumerate(pairs):
        if backgrounds[bg_path].shape != dims or mask_rasters[mask_path].shape != dims:
            msg = f"skipped pair ({bg_path.name}, {mask_path.name}): dims do not match {h}x{w}"
            print(f"warning: {msg}", file=sys.stderr)
            notes.append(msg)
            continue
        provenance = f"inject;background={bg_path.name};mask={mask_path.name}"
        rows.append((f"inject_{i:0{digits}d}", mask_rasters[mask_path], args.seed, provenance))
        bg_rows.append(backgrounds[bg_path])

    bg_stack = np.array(bg_rows).reshape(len(rows), h * w)
    render = partial(_solve_rows, integrate_from_background, model, bg_stack, icfg=args.icfg)
    n = _write_records(Path(args.out), rows, "C_background_injected", args.bins, notes, render)
    print(f"injected {n} pairs into {args.out} ({len(pairs) - n} skipped)")
    return EXIT_OK


# -- split / evaluate -------------------------------------------------------------


def split_counts(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Floor each share, then hand out the remainder by largest fractional part
    (ties to earlier splits)."""
    raw = [f * n for f in fractions]
    counts = [math.floor(r) for r in raw]
    remainder = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in range(remainder):
        counts[order[i % len(order)]] += 1
    return counts


def cmd_split(args) -> int:
    try:
        fractions = tuple(float(tok) for tok in args.fractions.split(","))
    except ValueError:
        fractions = ()
    if len(fractions) != 3:
        raise DomainError(f"--fractions must be three comma-separated numbers, got {args.fractions}")
    if not (all(0.0 <= f <= 1.0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
        raise DomainError(f"--fractions must lie in [0, 1] and sum to 1, got {args.fractions}")
    records, comments = read_manifest(args.manifest)
    src_dir = os.path.dirname(os.path.abspath(args.manifest))
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if out_dir != src_dir:
        # Record paths are relative to their manifest's directory.
        def rebase(path: str) -> str:
            if not path or os.path.isabs(path):
                return path
            return os.path.relpath(os.path.join(src_dir, path), out_dir)

        records = [
            replace(r, image_path=rebase(r.image_path), mask_path=rebase(r.mask_path))
            for r in records
        ]
    order = np.random.default_rng(args.seed).permutation(len(records))
    counts = split_counts(len(records), fractions)
    # The shuffled order falls into contiguous blocks of counts[i] records.
    names = [name for name, count in zip(("train", "val", "test"), counts) for _ in range(count)]
    assigned = list(records)
    for idx, name in zip(order, names):
        assigned[idx] = records[idx].with_split(name)
    out_comments = comments + [
        f"split rule: seeded shuffle (seed={args.seed}) then contiguous blocks; "
        "counts floor(f*N) with remainder to largest fractional part (ties to earlier split)",
        "split counts: " + "/".join(str(c) for c in counts),
    ]
    write_manifest(args.out, assigned, comments=out_comments)
    print(f"split {len(records)} records into {counts[0]}/{counts[1]}/{counts[2]}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if not math.isfinite(args.threshold):
        raise DomainError(f"--threshold must be finite, got {args.threshold}")
    if (args.features_real is None) != (args.features_syn is None):
        raise DomainError("--features-real and --features-syn must be given together")
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    if not pred_dir.is_dir() or not gt_dir.is_dir():
        raise DomainError("pred and gt must be directories")
    pred_names = {p.name for p in pred_dir.iterdir() if p.suffix == ".pgm"}
    gt_names = {p.name for p in gt_dir.iterdir() if p.suffix == ".pgm"}
    missing = sorted(pred_names ^ gt_names)
    if missing:
        for name in missing:
            where = "gt" if name in pred_names else "pred"
            print(f"missing counterpart in {where}: {name}", file=sys.stderr)
        return EXIT_EVAL
    if not gt_names:
        raise DomainError("no mask files to evaluate")

    rows = []
    for name in sorted(gt_names):
        check_cell(name, "file name")
        gt = rasters.load_mask(gt_dir / name)
        soft = _read_raster(rasters.load_image, pred_dir / name, gt.shape, f"{gt_dir / name} is {gt.shape}")
        counts = metrics.confusion(soft >= args.threshold, gt)
        rows.append((name, metrics.iou(counts), metrics.f1(counts)))
    miou = float(np.mean([r[1] for r in rows]))
    mf1 = float(np.mean([r[2] for r in rows]))
    report: dict[str, float] = {}
    if args.features_real is not None:
        paths = (args.features_real, args.features_syn)
        real, syn = metrics._check_pair(*map(metrics.load_feature_set_tsv, paths), names=paths)
        report["fid"] = metrics.fid(real, syn)
        report["kid_x1000"] = 1000.0 * metrics.kid(real, syn)
    report.update(miou=miou, f1=mf1)
    body = [f"{name}\t{i_val!r}\t{f_val!r}\n" for name, i_val, f_val in rows]
    table = ["file\tiou\tf1\n", *body, f"__mean__\t{miou!r}\t{mf1!r}\n"]
    # Both files are written before either is renamed.
    report_file = [(args.report, metrics._metric_report(report))] if args.report else []
    write_file(args.out, table, *report_file)
    print(f"evaluated {len(rows)} pairs: mIoU={miou:.4f} F1={mf1:.4f}")
    return EXIT_OK


# -- propagate / stats -------------------------------------------------------------


def cmd_propagate(args) -> int:
    preserve = not args.allow_topology_change
    policy = mask_ops.PropagationPolicy(
        variants=args.k,
        max_dilate=args.max_dilate,
        max_erode=args.max_erode,
        jitter_px=args.jitter,
        preserve_connectivity=preserve,
        seed=args.seed,
    )
    shape = None
    if args.image_model:
        image_model, _ = _load_task("--image-model", args.image_model, "image_renderer")
        shape = image_model.mask_shape
    files = _sorted_files(args.masks)
    wanted = f"--image-model takes {shape} masks"
    mask_list = [_read_raster(rasters.load_mask, p, shape, wanted) for p in files]

    rows, render_seeds, skipped = [], [], []
    for i, (m, src) in enumerate(zip(mask_list, files)):
        if preserve and not m.any():
            msg = f"skipped mask {src.name}: empty, so its connectivity cannot be preserved"
            print(f"warning: {msg}", file=sys.stderr)
            skipped.append(msg)
            continue
        if args.image_model:
            render_seeds.extend(_record_seeds(args.seed + i, args.k))
        for j, variant in enumerate(mask_ops.propagate(m, replace(policy, seed=args.seed + i))):
            provenance = f"base={src.name};variant={j};{variant.provenance}"
            rows.append((f"prop_{i:04d}_{j}", variant.mask, args.seed + i, provenance))

    render = None
    if args.image_model:
        # Each variant renders from its own record seed.
        dim = image_model.data_dim
        x0 = np.array([np.random.default_rng(int(s)).standard_normal(dim) for s in render_seeds])
        render = partial(_solve_rows, integrate, image_model, x0, icfg=args.icfg)
    n = _write_records(Path(args.out), rows, "B_propagated", args.bins, skipped, render)
    print(f"propagated {len(files) - len(skipped)} masks into {n} variants")
    return EXIT_OK


def cmd_stats(args) -> int:
    mask_list = [rasters.load_mask(p) for p in _sorted_files(args.masks)]
    stats = mask_ops.estimate_target_stats(mask_list, args.fraction, args.bins, seed=args.seed)
    classes = [f"class_{c}\t{float(freq)!r}\n" for c, freq in enumerate(stats.histogram)]
    tail = [f"mean_width\t{stats.mean_width!r}\n", f"n_used\t{stats.n_used}\n"]
    write_file(args.out, ["key\tvalue\n", *classes, *tail])
    print(f"stats over {stats.n_used}/{len(mask_list)} masks written to {args.out}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------------


@cache  # main reuses the one parser; each parse_args returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fmlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, about: str, *required: str, out_help: str | None = None):
        """Subcommand name running fn, with the string flags required and --out."""
        p = sub.add_parser(name, help=about)
        for flag in required:
            p.add_argument(flag, required=True)
        p.add_argument("--out", required=True, help=out_help)
        p.set_defaults(fn=fn)
        return p

    def add_sampling_flags(p, with_cfg=True):
        p.add_argument("--ode-steps", type=int, default=50)
        p.add_argument("--method", choices=("euler", "heun"), default="euler")
        p.add_argument("--seed", type=int, default=0)
        if with_cfg:
            p.add_argument("--cfg-omega", type=float, default=1.2)

    def add_binning_flags(p):
        p.add_argument("--num-classes", type=int, default=_NUM_CLASSES)
        p.add_argument("--max-coverage", type=float, default=_MAX_COVERAGE)

    about = "train a model from a key=value config"
    command("train", cmd_train, about, "--config", out_help="checkpoint path, .log.tsv beside it")

    models = ("--mask-model", "--image-model")
    about = "sample k*x mask/image pairs"
    p = command("synthesize-indomain", cmd_synthesize_indomain, about, *models)
    p.add_argument("--real-count", type=int, required=True, help="real training set size x")
    p.add_argument("--k", type=int, default=16)
    add_sampling_flags(p)

    about = "target-statistics-guided synthesis of multiplier*x pairs"
    p = command("synthesize-crossdomain", cmd_synthesize_crossdomain, about, *models, "--target-masks")
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--multiplier", type=float, default=4.0)
    p.add_argument("--perturb", action="store_true", help="apply width perturbations to masks")
    add_sampling_flags(p)

    about = "render masks onto backgrounds via the injector model"
    p = command("inject", cmd_inject, about, "--model", "--backgrounds", "--masks")
    p.add_argument("--pairing", choices=("zip", "cartesian"), default="zip")
    add_sampling_flags(p, with_cfg=False)
    add_binning_flags(p)

    p = command("split", cmd_split, "assign train/val/test splits to a manifest", "--manifest")
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)

    about = "IoU/F1 of predicted masks against ground truth"
    p = command("evaluate", cmd_evaluate, about, "--pred", "--gt")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--report", default=None, help="optional named-column summary TSV")
    p.add_argument("--features-real", default=None, help="feature TSV for FID/KID reporting")
    p.add_argument("--features-syn", default=None, help="feature TSV for FID/KID reporting")

    p = command("propagate", cmd_propagate, "structure-preserving mask variants", "--masks")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--max-dilate", type=int, default=1)
    p.add_argument("--max-erode", type=int, default=1)
    p.add_argument("--jitter", type=int, default=1)
    p.add_argument("--allow-topology-change", action="store_true")
    p.add_argument("--image-model", default=None, help="optionally render images for variants")
    add_sampling_flags(p, with_cfg=False)
    add_binning_flags(p)

    p = command("stats", cmd_stats, "coverage-class histogram and width summary", "--masks")
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    add_binning_flags(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = vars(args)
    # DomainError and ShapeError are ValueErrors, so they exit 2 here too.
    try:
        # The flag groups commands share are built, and so checked, once and
        # before the command reads anything.
        if "seed" in flags:
            args.seed = effective_seed(args.seed, "--seed")
        if "ode_steps" in flags:
            args.icfg = IntegratorConfig(args.method, args.ode_steps, flags.get("cfg_omega"))
        if "num_classes" in flags:
            args.bins = mask_ops.uniform_bins(args.num_classes, args.max_coverage)
        if "fraction" in flags:
            mask_ops._check_fraction(args.fraction)
        return args.fn(args)
    except (OSError, KeyError, ValueError, DivergenceError, TrainingError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
