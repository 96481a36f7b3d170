#!/usr/bin/env python
"""Guard recorded benchmark numbers against regression.

Re-runs nothing itself: it compares the numbers ``repro bench`` (and
``repro check bounds``) wrote into ``BENCH_substrate.json`` against the
one table of performance bounds the repo promises, :data:`THRESHOLDS`.

Every row names its own fail value and, where shared-runner noise
warrants one, a warn value: for a ``min`` row a value below ``fail``
fails the job and one below ``warn`` only warns; a ``max`` row mirrors
this (fail above ``fail``, warn above ``warn``).  A row without a warn
value is a hard bound.

Usage::

    python tools/check_bench_thresholds.py [BENCH_substrate.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (section, key-path, direction, fail, warn) — key-path walks nested
#: dicts; direction "min" is a floor, "max" a ceiling; warn is None for
#: a hard bound.
THRESHOLDS: tuple[tuple[str, tuple[str, ...], str, float, float | None], ...] = (
    ("kernel", ("batched_speedup",), "min", 1.2, None),
    # Counters-only tracing skips record construction: at least 25%
    # faster than full tracing on the replayed gateway-pipeline calls.
    ("gateway_pipeline", ("counters_speedup",), "min", 1 / 0.75, None),
    ("round_template", ("tdma_cluster", "speedup"), "min", 3.0, None),
    ("round_template", ("tt_vn_pipeline", "speedup"), "min", 3.0, None),
    # Round templates on the mixed TT/ET car scenario: live-event
    # punctuation bounds this structurally, so the floor is the measured
    # reality, not a target.
    ("round_template_v2", ("cold_speedup",), "min", 1.2, 1.3),
    ("runtime", ("paced_overhead_x",), "max", 10 / 0.85, 10.0),
    # Durable provenance must stay effectively free: running the smoke
    # scenarios with the fsync'd ledger enabled may cost at most 5% over
    # running them without it.
    ("ledger", ("append_overhead_x",), "max", 1.05, None),
    # Static flow bounds must stay useful, not just sound.
    ("flow_bounds", ("min_tightness",), "max", 2.0 / 0.85, 2.0),
    # Campaign-scale throughput: the batched result-cache + ledger
    # machinery may cost at most 5% over a persistence-free run of the
    # same generated scenarios, cold campaigns must sustain the rate
    # floor (measured ~12-14 runs/s on the 1-CPU reference host), and a
    # warm re-campaign must be orders of magnitude faster than execution.
    ("campaign", ("batch_overhead_x",), "max", 1.05, None),
    ("campaign", ("cold_runs_per_s",), "min", 6.8, 8.0),
    ("campaign", ("warm_runs_per_s",), "min", 425.0, 500.0),
    # Tracing over the car, relative to a trace-off run.
    ("observability", ("counters_overhead_x",), "max", 1.5, None),
    ("observability", ("flow_overhead_x",), "max", 1.5, None),
)


def _lookup(node: object, path: tuple[str, ...]) -> float | None:
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def judge(direction: str, fail: float, warn: float | None, value: float) -> str:
    """``"FAIL"``, ``"WARN"`` or ``"OK"`` for one value against one row."""
    def past(bound: float) -> bool:
        return value < bound if direction == "min" else value > bound

    if past(fail):
        return "FAIL"
    if warn is not None and past(warn):
        return "WARN"
    return "OK"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", nargs="?", default="BENCH_substrate.json",
                    help="path to the recorded benchmark JSON")
    args = ap.parse_args(argv)

    path = Path(args.bench)
    try:
        bench = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL cannot read {path}: {exc}")
        return 2

    failures = warnings = 0
    for section_name, key_path, direction, fail, warn in THRESHOLDS:
        label = f"{section_name}.{'.'.join(key_path)}"
        value = _lookup(bench.get(section_name), key_path)
        if value is None:
            print(f"FAIL {label}: missing from {path}")
            failures += 1
            continue
        verdict = judge(direction, fail, warn, value)
        op = "<" if direction == "min" else ">"
        bounds = f"fail {op} {fail:.3f}" + (
            "" if warn is None else f", warn {op} {warn:.3f}")
        print(f"{verdict:4s} {label}: {value:.3f} ({bounds})")
        failures += verdict == "FAIL"
        warnings += verdict == "WARN"

    if failures:
        print(f"{failures} benchmark threshold(s) regressed")
        return 1
    if warnings:
        print(f"{warnings} threshold(s) in the warn band — shared-runner "
              "noise, or the start of a regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
