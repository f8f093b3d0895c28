"""fmlab benchmark: drives the real CLI in-process, one client, closed loop.

    python3 perfbench/run.py --workload {train,pipeline,edit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/`. Set-up draws every input from --seed (and, for `pipeline` and
`edit`, trains the checkpoints through `fmlab train`); it is repeated
`setup_reps` times, between rounds, and must give byte-identical files each
time. An untimed round 0 warms up; the timed phase then repeats one round
of CLI commands (see workloads.py) until the rounds have taken --seconds,
each command starting when the previous one ends. Every round must
reproduce round 0's artifacts byte for byte.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a run whose first half is untraced and whose second half
records spans (tracer.py), so the two halves give the tracing overhead.
The last line of standard output is one JSON object; the exit code is 1
when any command or check failed and 2 when the program cannot be found.
"""
from __future__ import annotations

import os

# One BLAS thread: the single-threaded baseline, and steadier on a small box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI lets FMLAB_SEED override every seed; the workload seed must win.
os.environ.pop("FMLAB_SEED", None)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train", "pipeline", "edit")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "train_steps_per_s": "1/s",
    "train_loss_tail": "loss",
    "synth_pairs_per_s": "1/s",
    "synth_fid": "fid",
    "inject_pairs_per_s": "1/s",
    "propagate_variants_per_s": "1/s",
    "inject_bg_err": "abs",
}


def import_program() -> None:
    """Import fmlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import fmlab

    if not Path(fmlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fmlab imported from {fmlab.__file__}, not from {src}")


def machine_info(out_dir: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        models = [l.split(":", 1)[1].strip() for l in Path("/proc/cpuinfo").read_text().splitlines() if l.startswith("model name")]
        cpu = models[0] if models else cpu
    fs = "unknown"
    with contextlib.suppress(OSError):
        best = ""
        for line in Path("/proc/self/mounts").read_text().splitlines():
            _, mount, fstype = line.split()[:3]
            if str(out_dir).startswith(mount) and len(mount) >= len(best):
                best, fs = mount, f"{fstype} on {mount}"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": os.getloadavg(),
        "output_fs": fs,
    }


class Run:
    """Counts attempted and failed operations: CLI commands and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set while a traced round runs

    def command(self, argv: list[str]) -> float:
        """Run one CLI command in-process; returns its wall time."""
        from fmlab import cli

        self.attempted += 1
        sink = io.StringIO()
        span = self.tracer.open(f"cli.{argv[0]}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception:
            rc = None
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        if rc != 0:
            self.failed += 1
            print(f"FAILED (exit {rc}): fmlab {' '.join(argv)}\n{sink.getvalue()[-2000:]}", file=sys.stderr)
        return elapsed

    def check(self, what: str, fn, *args):
        """Run one check; returns its result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"CHECK FAILED: {what}\n{traceback.format_exc()}", file=sys.stderr)
            return None


def _same_digest(first: dict, again: dict) -> None:
    if first != again:
        differ = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
        raise AssertionError(f"{len(differ)} artifacts differ, e.g. {differ[:3]}")


class Setup:
    """Set-up repetitions: the inputs drawn from the seed and, for `pipeline`
    and `edit`, the checkpoints trained through `fmlab train`.

    Rep 0 runs before the rounds and its files serve them. The other reps
    run between rounds, outside the timed commands, so that their median
    spans the run instead of one moment of the shared host's disk and CPU
    contention. Every rep must write files byte-identical to rep 0's.
    """

    def __init__(self, run: Run, W, plan, seed: int, work: Path):
        self.run, self.W, self.plan, self.seed, self.work = run, W, plan, seed, work
        self.times: list[float] = []
        self.train_times: list[float] = []  # seconds per train command
        self.rep()
        self.inputs, self.ckpt = work / "setup0" / "inputs", work / "setup0" / "ckpt"

    @property
    def pending(self) -> bool:
        return len(self.times) < self.plan.setup_reps

    def rep(self) -> None:
        rep, W = len(self.times), self.W
        base = self.work / f"setup{rep}"
        inputs, ckpt = base / "inputs", base / "ckpt"
        t0 = time.perf_counter()
        inputs.mkdir(parents=True)
        W.make_inputs(self.plan, self.seed, inputs)
        if not self.plan.train_in_round:
            self.train_times += [self.run.command(argv) for argv in W.train_commands(inputs, ckpt)]
        self.times.append(time.perf_counter() - t0)
        # Paths inside the configs name the rep directory; compare what the CLI reads and writes.
        digest = {k: v for k, v in W.tree_digest(base).items() if not k.endswith(".cfg")}
        if rep == 0:
            self.digest = digest
            if not self.plan.train_in_round:
                self.run.check("set-up checkpoints reload", W.check_checkpoints, ckpt)
        else:
            self.run.check(f"set-up rep {rep} is byte-identical to rep 0", _same_digest, self.digest, digest)
            shutil.rmtree(base)


def timed_round(run: Run, W, plan, seed: int, inputs: Path, ckpt: Path, out: Path) -> dict:
    """One round of CLI commands; returns each command's seconds and work."""
    round_ckpt = out / "ckpt" if plan.train_in_round else ckpt
    steps = W.round_steps(plan, seed, inputs, round_ckpt, out)
    timings = []
    t0 = time.perf_counter()
    for step in steps:
        if step.argv[0] == "evaluate":
            run.check("synthesized features written", W.write_syn_features, out)
        timings.append((step, run.command(step.argv)))
    elapsed = time.perf_counter() - t0
    return {"steps": timings, "elapsed": elapsed}


def check_round(run: Run, W, out: Path, steps) -> None:
    for step in steps:
        if step.manifest:
            run.check(f"{step.manifest} records and rasters", W.check_manifest, out, step)
    if (out / "ckpt").is_dir():
        run.check("round checkpoints reload", W.check_checkpoints, out / "ckpt")
    run.check("evaluate report", W.check_report, out)
    run.check("stats output", W.check_stats, out, steps[-1])


def rate(rounds: list[dict], *commands: str) -> float:
    """Work per second of the named commands over all the given rounds.

    Pooled rather than a median of per-round rates: some commands take a
    tenth of a second, and on a shared host such short samples fall wholly
    into fast or slow spells, so their median jumps between the two.
    """
    work = secs = 0.0
    for r in rounds:
        for step, t in r["steps"]:
            if step.argv[0] in commands:
                work += step.work
                secs += t
    return work / secs


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, plan=None) -> dict:
    import workloads as W

    plan = plan or W.PLANS[workload]
    work = ROOT / ".perfbench_out" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = machine_info(work)
    run = Run()
    setup = Setup(run, W, plan, seed, work)
    inputs, ckpt = setup.inputs, setup.ckpt

    rounds: list[dict] = []
    state: dict = {}

    def play(min_rounds: int, seconds: float) -> None:
        """Closed loop: rounds back to back, at least min_rounds, until they
        have taken the given seconds."""
        start, spent = len(rounds), 0.0
        while len(rounds) - start < min_rounds or spent < seconds:
            out = work / f"round{len(rounds)}"
            out.mkdir()
            rounds.append(timed_round(run, W, plan, seed, inputs, ckpt, out))
            spent += rounds[-1]["elapsed"]
            # Checks and set-up reps run untraced, outside the timed commands.
            tracer, run.tracer = run.tracer, None
            if setup.pending:
                setup.rep()
            if not state:
                check_round(run, W, out, [s for s, _ in rounds[-1]["steps"]])
                round_ckpt = out / "ckpt" if plan.train_in_round else ckpt
                state["quality"] = {
                    "train_loss_tail": run.check("loss tail", W.loss_tail, round_ckpt),
                    "synth_fid": run.check("FID in report", lambda: W.read_report(out / "report.tsv")["fid"]),
                    "inject_bg_err": run.check("background error", W.inject_bg_err, out, inputs),
                }
                state["digest"] = W.tree_digest(out)
            else:
                run.check(f"{out.name} is byte-identical to round0", _same_digest, state["digest"], W.tree_digest(out))
            run.tracer = tracer

    # Round 0 warms caches and lazy imports, is fully checked and is the
    # reference the later rounds must reproduce; it is not timed.
    play(1, 0.0)
    play(2, seconds / 2 if trace else seconds)
    if trace:
        import tracer as T

        run.tracer = T.Tracer()
        T.install(run.tracer)
        traced_from = len(rounds)
        play(2, seconds / 2)
        run.tracer.uninstall()
    while setup.pending:
        setup.rep()

    walls = [sum(t for _, t in r["steps"]) for r in rounds]
    result = {"workload": workload, "seed": seed, "machine": machine, "rounds": len(rounds)}
    if trace:
        traced = walls[traced_from:]
        layer = T.layer_metrics(run.tracer, len(traced), sum(r["elapsed"] for r in rounds[traced_from:]))
        overhead = statistics.median(traced) / statistics.median(walls[1:traced_from]) - 1.0
        layer["trace.overhead_ratio"] = (overhead, "ratio")
        run.tracer.write(work / "trace.tsv")
        metrics = layer
    else:
        timed = rounds[1:]
        train_times = setup.train_times
        if plan.train_in_round:
            train_times = [t for r in timed for step, t in r["steps"] if step.argv[0] == "train"]
        values = {
            "setup_s": statistics.median(setup.times),
            "wall_s": statistics.median(walls[1:]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_steps_per_s": plan.train_steps * len(train_times) / sum(train_times),
            "synth_pairs_per_s": rate(timed, "synthesize-indomain", "synthesize-crossdomain"),
            "inject_pairs_per_s": rate(timed, "inject"),
            "propagate_variants_per_s": rate(timed, "propagate"),
            **state["quality"],
        }
        result["step_s"] = [[(st.argv[0], t) for st, t in r["steps"]] for r in timed]
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        op_fail_ratio=run.failed / run.attempted,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        round_walls_s=walls,
        setup_reps_s=setup.times,
    )
    for leftover in work.glob("setup*"):
        shutil.rmtree(leftover)
    for leftover in work.glob("round*"):
        shutil.rmtree(leftover)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine: " + json.dumps(result["machine"]))
    print(f"{args.workload} seed={args.seed} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"  {'op_fail_ratio':<40} {result['op_fail_ratio']:.6g} ratio")
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
