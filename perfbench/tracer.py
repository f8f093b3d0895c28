"""Outside-in span tracer for the fmlab layers; only traced runs import it.

Each layer's public functions are replaced, where callers look them up, by
a wrapper that records a span (name, start, end, parent id) while a
benchmark span is open. `fmlab.cli` imports by name, so its bindings are
wrapped as well as the modules' own. `VelocityModel` methods are wrapped on
the class. Spans stay in memory in flat arrays and are written at the end.
A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import os
import time
import types
from array import array
from pathlib import Path

import numpy as np

import fmlab.cli
import fmlab.masks
import fmlab.metrics
import fmlab.neural
import fmlab.rasters
import fmlab.sampler

COMMANDS = (
    "train", "synthesize-indomain", "synthesize-crossdomain", "inject",
    "split", "evaluate", "propagate", "stats",
)
LAYERS = ("cli", "neural", "sampler", "schedules", "masks", "rasters", "manifest", "metrics")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace owner.attr by a recording wrapper; counts(args, result)
        returns the span's work counts. Outside a benchmark span it only
        forwards the call."""
        original = getattr(owner, attr)
        open_spans, clock = self._open, time.perf_counter
        nid, names, parents, starts, ends = self._name_id(name), self.name, self.parent, self.start, self.end
        attrs = self.attrs

        def traced(*args, **kwargs):
            if not open_spans:
                return original(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(sid)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[sid] = clock()
                open_spans.pop()
            if counts is not None:
                attrs[sid] = counts(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}\t"
                    f"{self.start[sid]!r}\t{self.end[sid]!r}\n"
                )


# -- what gets wrapped ------------------------------------------------------------


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0]), "path": str(args[0])}


def _integrate(args, result) -> dict:
    x0 = np.asarray(args[1])
    return {"rows": 1 if x0.ndim == 1 else x0.shape[0], "steps": args[3].steps}


def _propagate(args, result) -> dict:
    return {"variants": len(result), "fallbacks": sum("fallback" in v.provenance for v in result)}


COUNTS = {
    "masks.connected_components": lambda args, result: {"pixels": np.asarray(args[0]).size},
    "masks.propagate": _propagate,
    "rasters.save_pgm": _file_bytes,
    "rasters.save_ppm": _file_bytes,
    "rasters.load_pgm": _file_bytes,
    "rasters.load_ppm": _file_bytes,
}


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    cli, neural, sampler = fmlab.cli, fmlab.neural, fmlab.sampler
    w(cli, "load_model", "cli.load_model")
    w(cli, "train_fm", "neural.train")
    w(cli, "train_rf_injector", "neural.train")
    w(cli, "save_checkpoint", "neural.save_checkpoint")
    w(cli, "load_checkpoint", "neural.load_checkpoint")
    w(cli, "write_manifest", "manifest.write", lambda args, result: {"rows": len(args[1])})
    w(cli, "read_manifest", "manifest.read", lambda args, result: {"rows": len(result[0])})
    # cli.integrate and sampler.integrate are separate bindings of one function;
    # integrate_from_background reaches the latter, so no call is counted twice.
    w(cli, "integrate", "sampler.integrate", _integrate)
    w(cli, "integrate_from_background", "sampler.integrate_from_background")
    w(sampler, "integrate", "sampler.integrate", _integrate)
    w(sampler, "cfg_combine", "schedules.cfg_combine")
    for fn in ("interpolate", "target_velocity", "rectified_interpolate"):
        w(neural, fn, f"schedules.{fn}")
    for fn in ("adam_step", "ema_update"):
        w(neural, fn, f"neural.{fn}")
    model = neural.VelocityModel
    w(model, "forward", "neural.forward")
    w(model, "_forward_batch", "neural.forward_batch", lambda args, result: {"rows": args[1].shape[0]})
    w(model, "_backward_batch", "neural.backward_batch")
    w(model, "set_params", "neural.set_params")
    w(model, "get_params", "neural.get_params")
    for module, layer in ((fmlab.masks, "masks"), (fmlab.rasters, "rasters"), (fmlab.metrics, "metrics")):
        for fn in module.__all__:
            if isinstance(getattr(module, fn), types.FunctionType):
                name = f"{layer}.{fn}"
                w(module, fn, name, COUNTS.get(name))


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(tracer: Tracer, rounds: int, round_elapsed_s: float) -> dict[str, tuple[float, str]]:
    """Per-round sums (counts, self seconds), ratios and percentiles from the spans.

    round_elapsed_s is the summed elapsed time of the traced rounds, so
    trace.cli_coverage says how much of it the cli.<command> spans cover.
    """
    n = len(tracer.start)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    names = tracer.names

    def ids(pred) -> np.ndarray:
        return np.flatnonzero(np.isin(name, [i for i, s in enumerate(names) if pred(s)]))

    def named(*wanted) -> np.ndarray:
        return ids(lambda s: s in wanted)

    def attr_sum(spans, key) -> float:
        return float(sum(tracer.attrs[int(s)][key] for s in spans))

    per = 1.0 / rounds
    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit):
        out[metric] = (float(value), unit)

    def self_s(metric, spans):
        put(metric, self_t[spans].sum() * per, "s")

    # Nearest sampler.integrate ancestor of each span; parents precede children.
    integ = set(named("sampler.integrate").tolist())
    under = np.full(n, -1, dtype=np.int64)
    for sid in range(n):
        p = parent[sid]
        under[sid] = sid if sid in integ else (under[p] if p >= 0 else -1)

    fwd = named("neural.forward_batch")
    self_s("neural.train.self_s", named("neural.train"))
    put("neural.forward_batch.calls", len(fwd) * per, "count")
    put("neural.forward_batch.rows", attr_sum(fwd, "rows") * per, "count")
    self_s("neural.forward_batch.self_s", fwd)
    for fn in ("backward_batch", "adam_step", "ema_update", "set_params", "forward"):
        self_s(f"neural.{fn}.self_s", named(f"neural.{fn}"))

    integ_ids = np.asarray(sorted(integ), dtype=np.int64)
    call_ms = 1e3 * dur[integ_ids]
    put("sampler.integrate.calls", len(integ_ids) * per, "count")
    self_s("sampler.integrate.self_s", named("sampler.integrate", "sampler.integrate_from_background"))
    put("sampler.integrate.call_p50_ms", np.percentile(call_ms, 50) if len(call_ms) else 0.0, "ms")
    put("sampler.integrate.call_p99_ms", np.percentile(call_ms, 99) if len(call_ms) else 0.0, "ms")
    put("sampler.integrate.n", len(call_ms), "count")
    rows = attr_sum(integ_ids, "rows")
    row_steps = sum(tracer.attrs[int(s)]["rows"] * tracer.attrs[int(s)]["steps"] for s in integ_ids)
    steps = attr_sum(integ_ids, "steps")
    put("sampler.integrate.rows_per_call", rows / len(integ_ids) if len(integ_ids) else 0.0, "count")
    fwd_in = fwd[under[fwd] >= 0]
    put("sampler.nfe_per_step", len(fwd_in) / steps if steps else 0.0, "count")
    fwd_rows = attr_sum(fwd_in, "rows")
    put("sampler.useful_rows_ratio", row_steps / fwd_rows if fwd_rows else 0.0, "ratio")

    for fn in ("cfg_combine", "interpolate", "target_velocity", "rectified_interpolate"):
        self_s(f"schedules.{fn}.self_s", named(f"schedules.{fn}"))

    cc = named("masks.connected_components")
    put("masks.connected_components.calls", len(cc) * per, "count")
    put("masks.connected_components.pixels", attr_sum(cc, "pixels") * per, "count")
    self_s("masks.connected_components.self_s", cc)
    for fn in ("dilate", "erode", "skeletonize"):
        self_s(f"masks.{fn}.self_s", named(f"masks.{fn}"))
    prop = named("masks.propagate")
    variants = attr_sum(prop, "variants")
    put("masks.propagate.variants", variants * per, "count")
    self_s("masks.propagate.self_s", prop)
    put("masks.propagate.fallback_ratio", attr_sum(prop, "fallbacks") / variants if variants else 0.0, "ratio")

    for kind in ("save", "load"):
        files = named(f"rasters.{kind}_pgm", f"rasters.{kind}_ppm")
        put(f"rasters.{kind}.calls", len(files) * per, "count")
        put(f"rasters.{kind}.bytes", attr_sum(files, "bytes") * per, "B")
        self_s(f"rasters.{kind}.self_s", ids(lambda s, k=kind: s.startswith(f"rasters.{k}_")))
    distinct = len({tracer.attrs[int(s)]["path"] for s in named("rasters.load_pgm", "rasters.load_ppm")})
    loads = len(named("rasters.load_pgm", "rasters.load_ppm"))
    put("rasters.load.per_distinct_file", loads / distinct if distinct else 0.0, "ratio")

    for kind in ("write", "read"):
        spans = named(f"manifest.{kind}")
        put(f"manifest.{kind}.rows", attr_sum(spans, "rows") * per, "count")
        self_s(f"manifest.{kind}.self_s", spans)
    for fn in ("fid", "kid", "confusion", "load_feature_set_tsv"):
        self_s(f"metrics.{fn}.self_s", named(f"metrics.{fn}"))

    for fn in ("save_checkpoint", "load_checkpoint"):
        spans = named(f"neural.{fn}")
        put(f"neural.{fn}.calls", len(spans) * per, "count")
        self_s(f"neural.{fn}.self_s", spans)

    cmd_spans = ids(lambda s: s in {f"cli.{c}" for c in COMMANDS})
    loads_by_cmd: dict[int, int] = {}
    for s in named("cli.load_model"):
        top = int(s)
        while parent[top] >= 0:
            top = int(parent[top])
        loads_by_cmd[top] = loads_by_cmd.get(top, 0) + 1
    put(
        "cli.load_model.per_command",
        sum(loads_by_cmd.values()) / len(loads_by_cmd) if loads_by_cmd else 0.0,
        "calls/cmd",
    )
    for c in COMMANDS:
        put(f"cli.{c}.s", dur[named(f"cli.{c}")].sum() * per, "s")
    for layer in LAYERS:
        self_s(f"{layer}.self_s", ids(lambda s, l=layer: s.startswith(l + ".")))
    put("trace.cli_coverage", dur[cmd_spans].sum() / round_elapsed_s if round_elapsed_s else 0.0, "ratio")
    return out
