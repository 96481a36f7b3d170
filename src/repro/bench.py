"""One benchmark harness: ``repro bench [SECTION ...] [--out PATH]``.

Every performance section of ``BENCH_substrate.json`` is measured here,
through one interleaved best-of timer (:func:`best_of`) and written
through one provenance/merge call.  Each section keeps its workload,
horizon and repeat count as module constants, so a re-run measures the
same thing the committed numbers measured.

The harness fails (exit 1) only on *correctness*: diverging digests,
errored results, a failed ledger append, a template engine that never
replayed, unequal workloads.  A section that fails is not written.
Speed is judged separately, row by row, by
``tools/check_bench_thresholds.py`` — the one table of perf bounds.
"""

from __future__ import annotations

import heapq
import os
import sys
import tempfile
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from dataclasses import field as dc_field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .apps import CarConfig, build_car
from .generate import admit, generate_candidates
from .ledger import RunLedger, record_from_result
from .runner import (
    ScenarioSpec,
    SweepRunner,
    build_scenario,
    code_digest,
    default_registry,
    filter_scenarios,
    provenance,
    run_scenario,
    update_bench_json,
)
from .sim import MS, SEC, CounterSink, Simulator, TraceLog

#: ``kernel``: burst-shaped self-rescheduling chains, batched vs seed loop.
KERNEL_CHAINS = 128
KERNEL_PERIOD = 10_000  # 10 us
KERNEL_HORIZON = 4 * MS  # ~400 bursts of 128 events
KERNEL_REPEAT = 5
#: ``gateway_pipeline``: trace front-ends replayed over the E5 shape.
GATEWAY_SEED = 5
GATEWAY_HORIZON = 500 * MS
GATEWAY_REPEAT = 5
#: ``round_template``/``round_template_v2``: replay vs event by event.
ROUND_TEMPLATE_SCENARIOS = ("tdma-cluster", "tt-vn-pipeline")
ROUND_TEMPLATE_V2_SCENARIO = "car-baseline"
ROUND_TEMPLATE_REPEAT = 3
#: ``runtime``: paced dispatch at a pacing ratio high enough that
#: sleeping is negligible and the loop itself is measured.
RUNTIME_SCENARIO = "car-smoke"
RUNTIME_PACE = 1e6
RUNTIME_REPEAT = 3
#: ``ledger``: the smoke scenarios with and without the fsync'd ledger.
LEDGER_FILTER = "smoke"
LEDGER_REPEAT = 3
LEDGER_APPENDS = 64
#: ``campaign``: a generated bench-profile campaign, cold and warm.
CAMPAIGN_CANDIDATES = 120
CAMPAIGN_PROFILE = "bench"
CAMPAIGN_BASE_SEED = 0
CAMPAIGN_WORKERS = 1
CAMPAIGN_WARMUP = 8
CAMPAIGN_REPEAT = 3
#: ``observability``: tracing modes over the car vs trace off.
OBSERVABILITY_SECONDS = 2.0
OBSERVABILITY_REPEAT = 3
#: ``sweep``: the whole registry serial-cold, parallel-cold and warm.
SWEEP_WORKERS = os.cpu_count() or 1


class BenchFailure(Exception):
    """A correctness check failed: the section's numbers are not valid."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise BenchFailure(message)


def _require_clean(results: Sequence[dict]) -> None:
    """Fail on any result that errored or whose ledger append raised."""
    for result in results:
        for key in ("error", "ledger_error"):
            _require(key not in result,
                     f"{result.get('name', '?')}: {key}: {result.get(key)}")


def best_of(repeat: int, *legs: Callable[[], Callable[[], Any]]) -> list[tuple[float, Any]]:
    """Interleaved best-of timing.

    Each leg is a factory: calling it does the untimed setup and returns
    the thunk to time.  Every repetition runs every leg once, in order,
    so machine-state drift hits all legs alike.  Returns, per leg, the
    best wall time and the thunk's result from that best run.
    """
    best: list[tuple[float, Any]] = [(float("inf"), None)] * len(legs)
    for _ in range(repeat):
        for i, prepare in enumerate(legs):
            thunk = prepare()
            t0 = time.perf_counter()
            result = thunk()
            elapsed = time.perf_counter() - t0
            if elapsed < best[i][0]:
                best[i] = (elapsed, result)
    return best


def _call(fn: Callable[..., Any], *args: Any) -> Callable[[], Callable[[], Any]]:
    """A :func:`best_of` leg with no setup: time ``fn(*args)``."""
    return lambda: lambda: fn(*args)


# ----------------------------------------------------------------------
# kernel: the batched tuple-heap run loop vs the seed's peek/pop loop
# ----------------------------------------------------------------------
@dataclass(order=True, slots=True)
class _SeedEvent:
    """The seed's heap entry, field-for-field: a dataclass compared via
    its generated ``__lt__``, which builds two ``(time, priority, seq)``
    tuples per heap-sift comparison."""

    time: int
    priority: int
    seq: int
    callback: object = dc_field(compare=False)
    cancelled: bool = dc_field(default=False, compare=False)
    label: str = dc_field(default="", compare=False)
    _queue: object = dc_field(default=None, compare=False, repr=False)


class _SeedKernel:
    """Faithful replica of the seed's hot path, for comparison.

    Events sit directly in the heap (Python-level ``__lt__`` on every
    sift step), ``push`` constructs the full seven-field event with the
    queue backref, and ``run_until`` runs the seed's peek / bail /
    ``step()`` sequence — ``step()`` re-peeked, so every event cost two
    ``peek_time`` calls plus a ``pop``.
    """

    def __init__(self) -> None:
        self._heap: list[_SeedEvent] = []
        self._seq = 0
        self.now = 0
        self.events_executed = 0

    def _push(self, t: int, callback, priority: int, label: str) -> _SeedEvent:
        if t < 0:
            raise ValueError(t)
        ev = _SeedEvent(time=t, priority=priority, seq=self._seq,
                        callback=callback, label=label, _queue=self)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def at(self, t: int, callback, priority: int = 30, label: str = "") -> _SeedEvent:
        if t < self.now:
            raise ValueError(t)
        return self._push(t, callback, priority, label)

    def after(self, delay: int, callback, priority: int = 30,
              label: str = "") -> _SeedEvent:
        if delay < 0:
            raise ValueError(delay)
        return self._push(self.now + delay, callback, priority, label)

    def _peek_time(self) -> int | None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    def _step(self) -> None:
        self._peek_time()  # the seed's step() re-peeked before popping
        ev = heapq.heappop(self._heap)
        ev._queue = None
        self.now = ev.time
        self.events_executed += 1
        ev.callback()

    def run_until(self, t: int) -> None:
        while True:
            nxt = self._peek_time()
            if nxt is None or nxt > t:
                break
            self._step()
        if self.now < t:
            self.now = t


def bench_kernel() -> dict:
    """The real :class:`Simulator` (int-tuple heap, batched drain) vs
    :class:`_SeedKernel` on aligned self-rescheduling chains — the burst
    shape TDMA rounds produce, where every instant offers a deep batch."""

    def chains(make: Callable[[], Any]) -> Callable[[], Callable[[], int]]:
        def prepare() -> Callable[[], int]:
            kernel = make()
            count = {"n": 0}

            def tick() -> None:
                count["n"] += 1
                kernel.after(KERNEL_PERIOD, tick)

            for _ in range(KERNEL_CHAINS):
                kernel.at(0, tick)

            def drain() -> int:
                kernel.run_until(KERNEL_HORIZON)
                return count["n"]
            return drain
        return prepare

    (batched_s, batched_n), (seed_s, seed_n) = best_of(
        KERNEL_REPEAT, chains(Simulator), chains(_SeedKernel))
    _require(batched_n == seed_n,
             f"workloads differ: batched {batched_n} vs seed {seed_n} events")
    return {
        "workload": f"{KERNEL_CHAINS} aligned chains, {batched_n} events",
        "events": batched_n,
        "batched_s": round(batched_s, 6),
        "seed_loop_s": round(seed_s, 6),
        "batched_speedup": round(seed_s / batched_s, 3),
    }


# ----------------------------------------------------------------------
# gateway_pipeline: counters-only vs full tracing on the E5 shape
# ----------------------------------------------------------------------
def _gateway_spec(trace_mode: str) -> ScenarioSpec:
    return ScenarioSpec(name="bench-gateway-pipeline", builder="gateway_pipeline",
                        horizon_ns=GATEWAY_HORIZON, seed=GATEWAY_SEED,
                        trace_mode=trace_mode, params=(("round_template", False),))


def bench_gateway_pipeline() -> dict:
    """Replay the pipeline's captured instrumentation calls against the
    full front-end (a ``TraceRecord`` per call) and the counters path
    (``wants()``/``tick()``); end-to-end runs per mode are informational."""
    sim = build_scenario(_gateway_spec("full"))
    sim.run_until(GATEWAY_HORIZON)
    ops = [(r.time, r.category, r.source, dict(r.detail))
           for r in sim.trace.records()]
    _require(len(ops) > 10_000, f"only {len(ops)} trace ops captured")

    def replay_full() -> Callable[[], int]:
        tr = TraceLog()

        def go() -> int:
            for t, cat, src, detail in ops:
                tr.record(t, cat, src, **detail)
            return len(tr)
        return go

    def replay_counters() -> Callable[[], int]:
        tr = TraceLog(sinks=[CounterSink()])

        def go() -> int:
            for t, cat, src, detail in ops:
                if tr.wants(cat):
                    tr.record(t, cat, src, **detail)
                else:
                    tr.tick(cat)
            return sum(tr.category_counts().values())
        return go

    (full_s, full_n), (counters_s, counters_n) = best_of(
        GATEWAY_REPEAT, replay_full, replay_counters)
    _require(full_n == counters_n == len(ops),
             f"replay record counts {full_n}/{counters_n} != {len(ops)} ops")

    def end_to_end(mode: str) -> Callable[[], Callable[[], None]]:
        def prepare() -> Callable[[], None]:
            sim = build_scenario(_gateway_spec(mode))
            return lambda: sim.run_until(GATEWAY_HORIZON)
        return prepare

    (e2e_full_s, _), (e2e_counters_s, _) = best_of(
        1, end_to_end("full"), end_to_end("counters"))
    return {
        "trace_ops": len(ops),
        "replay_full_s": round(full_s, 6),
        "replay_counters_s": round(counters_s, 6),
        "counters_speedup": round(full_s / counters_s, 3),
        "end_to_end_full_s": round(e2e_full_s, 6),
        "end_to_end_counters_s": round(e2e_counters_s, 6),
    }


# ----------------------------------------------------------------------
# round_template / round_template_v2: replay vs exact execution
# ----------------------------------------------------------------------
def _replay_vs_exact(spec: ScenarioSpec) -> tuple[float, dict, float]:
    """Best-of times for templates on and off, digests asserted equal."""
    (fast_s, fast), (slow_s, slow) = best_of(
        ROUND_TEMPLATE_REPEAT, _call(run_scenario, spec),
        _call(run_scenario, spec.with_param("round_template", False)))
    _require_clean([fast, slow])
    _require(fast["digest"] == slow["digest"],
             f"{spec.name}: replayed digest differs from event-by-event")
    return fast_s, fast, slow_s


def bench_round_template() -> dict:
    """The pure-TT sweep scenarios, each of which must actually replay."""
    registry = default_registry()
    section: dict = {}
    for name in ROUND_TEMPLATE_SCENARIOS:
        fast_s, fast, slow_s = _replay_vs_exact(registry[name])
        stats = fast["round_template"]
        _require(stats["rounds_replayed"] > 0, f"{name}: no round replayed")
        section[name.replace("-", "_")] = {
            "fast_forward_s": round(fast_s, 6),
            "event_by_event_s": round(slow_s, 6),
            "speedup": round(slow_s / fast_s, 3),
            "rounds_replayed": stats["rounds_replayed"],
            "round_length_ns": stats["round_length_ns"],
            "digests_identical": True,
        }
    return section


def bench_round_template_v2() -> dict:
    """The mixed TT/ET car: ET punctuation and 2 ms partition-guard
    windows cap replay spans, so this speedup is bounded by structure."""
    spec = default_registry()[ROUND_TEMPLATE_V2_SCENARIO]
    cold_s, cold, slow_s = _replay_vs_exact(spec)
    return {
        "scenario": spec.name,
        "event_by_event_s": round(slow_s, 6),
        "cold_s": round(cold_s, 6),
        "cold_speedup": round(slow_s / cold_s, 3),
        "rounds_replayed_cold": cold["round_template"]["rounds_replayed"],
        "digests_identical": True,
    }


# ----------------------------------------------------------------------
# runtime: paced real-time dispatch vs the simulated runtime
# ----------------------------------------------------------------------
def bench_runtime() -> dict:
    spec = default_registry()[RUNTIME_SCENARIO]
    paced_spec = (spec.with_param("runtime", "realtime")
                      .with_param("pace", RUNTIME_PACE))
    (sim_s, base), (paced_s, paced) = best_of(
        RUNTIME_REPEAT, _call(run_scenario, spec), _call(run_scenario, paced_spec))
    _require_clean([base, paced])
    _require(paced["digest"] == base["digest"],
             "paced digest differs from simulated")
    stats = paced.get("runtime_stats", {})
    return {
        "scenario": spec.name,
        "pace": RUNTIME_PACE,
        "sim_s": round(sim_s, 6),
        "paced_s": round(paced_s, 6),
        "paced_overhead_x": round(paced_s / sim_s, 3),
        "digest_match": True,
        "deadline_misses": stats.get("deadline_misses"),
        "max_lag_ms": round(stats.get("max_lag_ns", 0) / MS, 3),
        "slept_s": round(stats.get("slept_ns", 0) / SEC, 6),
    }


# ----------------------------------------------------------------------
# ledger: the fsync'd provenance append vs no ledger
# ----------------------------------------------------------------------
def bench_ledger(specs: Sequence[ScenarioSpec]) -> dict:
    """Run ``specs`` event by event with and without the durable ledger.

    Every ledgered result is checked: a run whose append raised carries
    ``ledger_error`` and fails the section instead of timing as fast.
    """
    specs = [s.with_param("round_template", False) for s in specs]
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = str(Path(tmp) / "bench-ledger.ndjsonl")

        def leg(path: str | None) -> Callable[[], Callable[[], list[dict]]]:
            return _call(lambda: [run_scenario(s, ledger_path=path) for s in specs])

        for spec in specs:  # warm-up: imports, first model build
            run_scenario(spec)
        (off_s, _), (on_s, on) = best_of(LEDGER_REPEAT, leg(None), leg(ledger_path))
        _require_clean(on)
        # Micro append rate: serialize + O_APPEND + fsync for one record.
        record = record_from_result(specs[0], on[0], code_digest())
        micro = RunLedger(Path(tmp) / "micro.ndjsonl")
        t0 = time.perf_counter()
        for _ in range(LEDGER_APPENDS):
            micro.append(record)
        append_s = (time.perf_counter() - t0) / LEDGER_APPENDS
    return {
        "scenarios": [s.name for s in specs],
        "off_s": round(off_s, 6),
        "on_s": round(on_s, 6),
        "append_overhead_x": round(on_s / off_s, 3),
        "append_ms": round(append_s * 1e3, 3),
        "appends_per_s": round(1.0 / append_s, 1),
    }


# ----------------------------------------------------------------------
# campaign: generated-sweep throughput, cold and warm
# ----------------------------------------------------------------------
def bench_campaign() -> dict:
    """Cold and warm runs/s of a generated campaign, plus the batched
    durability machinery (result cache + ledger) against the same
    executions with no persistence."""
    t0 = time.perf_counter()
    candidates = generate_candidates(CAMPAIGN_CANDIDATES, CAMPAIGN_PROFILE,
                                     base_seed=CAMPAIGN_BASE_SEED)
    specs, summary = admit(candidates)
    admission_s = time.perf_counter() - t0
    _require(bool(specs), "every generated candidate was rejected by admission")
    n = len(specs)

    with tempfile.TemporaryDirectory() as tmp:
        runners: list[SweepRunner] = []

        def cold() -> Callable[[], dict]:
            # A fresh directory per repetition, so every cold leg is cold.
            runner = SweepRunner(workers=CAMPAIGN_WORKERS,
                                 cache_dir=tempfile.mkdtemp(dir=tmp))
            runners.append(runner)
            return lambda: runner.run(specs)

        for spec in specs[:CAMPAIGN_WARMUP]:
            run_scenario(spec)
        (off_s, bare), (cold_s, cold_report) = best_of(
            CAMPAIGN_REPEAT, _call(lambda: [run_scenario(s) for s in specs]), cold)
        [(warm_s, warm)] = best_of(1, _call(runners[-1].run, specs))
        chunk = runners[-1]._chunk_size_for(n)

    _require_clean(bare + cold_report["scenarios"] + warm["scenarios"])
    digests = [[r.get("digest") for r in results]
               for results in (bare, cold_report["scenarios"], warm["scenarios"])]
    _require(digests[0] == digests[1] == digests[2],
             "bare, cold and warm campaign digests diverged")
    return {
        "n_candidates": CAMPAIGN_CANDIDATES,
        "profile": CAMPAIGN_PROFILE,
        "admitted": n,
        "rejection_rate": round(summary.rejection_rate, 4),
        "admission_s": round(admission_s, 3),
        "off_s": round(off_s, 3),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "cold_runs_per_s": round(n / cold_s, 2),
        "warm_runs_per_s": round(n / warm_s, 2),
        "batch_overhead_x": round(cold_s / off_s, 3),
        "chunk_size": chunk,
        "workers": CAMPAIGN_WORKERS,
        "digests_identical": True,
    }


# ----------------------------------------------------------------------
# observability: counters and flow tracing vs trace off, over the car
# ----------------------------------------------------------------------
def bench_observability() -> dict:
    horizon = int(OBSERVABILITY_SECONDS * SEC)

    def car(**cfg: Any) -> Callable[[], Callable[[], None]]:
        def prepare() -> Callable[[], None]:
            # Event by event in every leg: flow tracing disables round
            # templates, so replay would otherwise count as trace cost.
            system = build_car(CarConfig(seed=0, round_template=False, **cfg))

            def go() -> None:
                system.run_for(horizon)
                system.sim.trace.close()
            return go
        return prepare

    (off_s, _), (counters_s, _), (flow_s, _) = best_of(
        OBSERVABILITY_REPEAT, car(trace_mode="off"), car(trace_mode="counters"),
        car(trace_mode="counters", flow_tracing=True))
    return {
        "horizon_s": OBSERVABILITY_SECONDS,
        "off_s": round(off_s, 6),
        "counters_s": round(counters_s, 6),
        "flow_s": round(flow_s, 6),
        "counters_overhead_x": round(counters_s / off_s, 3),
        "flow_overhead_x": round(flow_s / off_s, 3),
    }


# ----------------------------------------------------------------------
# sweep: serial cold vs parallel cold vs warm cache, whole registry
# ----------------------------------------------------------------------
def bench_sweep() -> dict:
    """On a single-core host a "parallel" pool can only time-slice one
    CPU, so the parallel leg is skipped and the section says so."""
    specs = list(default_registry().values())
    with tempfile.TemporaryDirectory() as tmp:
        def sweep(workers: int, use_cache: bool) -> dict:
            return SweepRunner(workers=workers, cache_dir=tmp,
                               use_cache=use_cache).run(specs)

        serial = sweep(1, False)
        parallel = sweep(SWEEP_WORKERS, False) if SWEEP_WORKERS > 1 else None
        warm = sweep(SWEEP_WORKERS, True)
    reports = [r for r in (serial, parallel, warm) if r is not None]
    _require_clean([res for r in reports for res in r["scenarios"]])
    digests = [[res.get("digest") for res in r["scenarios"]] for r in reports]
    _require(all(d == digests[0] for d in digests),
             "serial, parallel and warm sweep digests diverged")
    cold_s = (parallel or serial)["wall_s"]
    return {
        "scenarios": [s.name for s in specs],
        "cpu_count": os.cpu_count() or 1,
        "round_template": True,
        "serial_s": serial["wall_s"],
        "parallel_s": None if parallel is None else parallel["wall_s"],
        "parallel_workers": None if parallel is None else parallel["workers"],
        "parallel_speedup": None if parallel is None else round(
            serial["wall_s"] / parallel["wall_s"], 3),
        "parallel_skipped": parallel is None,
        "warm_s": warm["wall_s"],
        "warm_speedup_vs_cold": round(cold_s / warm["wall_s"], 3),
        "warm_cache_hits": warm["cache_hits"],
        "digests_identical": True,
    }


#: section name -> (measurement, repetitions recorded in its provenance)
SECTIONS: dict[str, tuple[Callable[[], dict], int | None]] = {
    "kernel": (bench_kernel, KERNEL_REPEAT),
    "gateway_pipeline": (bench_gateway_pipeline, GATEWAY_REPEAT),
    "round_template": (bench_round_template, ROUND_TEMPLATE_REPEAT),
    "round_template_v2": (bench_round_template_v2, ROUND_TEMPLATE_REPEAT),
    "runtime": (bench_runtime, RUNTIME_REPEAT),
    "ledger": (lambda: bench_ledger(filter_scenarios(default_registry(), [LEDGER_FILTER])),
               LEDGER_REPEAT),
    "campaign": (bench_campaign, CAMPAIGN_REPEAT),
    "observability": (bench_observability, OBSERVABILITY_REPEAT),
    "sweep": (bench_sweep, None),
}


def _summary(section: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in section.items():
        if isinstance(value, dict):
            lines += _summary(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            lines.append(f"  {prefix}{key} = {value}")
    return lines


def run(names: Sequence[str], out: str | Path = "BENCH_substrate.json") -> int:
    """Measure ``names`` (every section when empty) into ``out``.

    Returns 2 for an unknown section (nothing is measured or written),
    1 if any section failed a correctness check, else 0.
    """
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        print(f"error: unknown bench section(s) {', '.join(unknown)} "
              f"(known: {', '.join(SECTIONS)})", file=sys.stderr)
        return 2
    failures = 0
    for name in names or list(SECTIONS):
        measure, repeat = SECTIONS[name]
        print(f"bench {name}:")
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        try:
            section = measure()
        except BenchFailure as exc:
            print(f"  FAIL {exc} (section not written)")
            failures += 1
            continue
        section["provenance"] = provenance(timestamp=timestamp, iterations=repeat)
        update_bench_json(out, name, section)
        print("\n".join(_summary({k: v for k, v in section.items()
                                  if k != "provenance"})))
    print(f"wrote {len(names or SECTIONS) - failures} section(s) to {out}"
          + (f"; {failures} failed" if failures else ""))
    return 1 if failures else 0
