"""Seconds-long self-test of the benchmark; not part of the test suite.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that
each run passes its checks and emits exactly the end-to-end or per-layer
metrics BENCHMARK.json names, each with its unit, and that an untraced run
never imports the tracer.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def main() -> int:
    run.import_program()
    import workloads

    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        tiny = dataclasses.replace(workloads.TINY, train_in_round=workloads.PLANS[name].train_in_round)
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_benchmark(name, 1, 0.0, trace, plan=tiny)
            assert result["failed"] == 0, f"{name} trace={trace}: {result['failed']} failed operations"
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expect(kind), f"{name} trace={trace}: metrics differ from BENCHMARK.json: " + str(
                sorted(set(got.items()) ^ set(expect(kind).items()))
            )
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values()), result["metrics"]
            if not trace:
                assert "tracer" not in sys.modules, "an untraced run imported the tracer"
            print(f"ok {name} trace={int(trace)} rounds={result['rounds']} attempted={result['attempted']}")
        sys.modules.pop("tracer", None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
