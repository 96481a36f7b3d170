"""The repository benchmark: three workloads over the public API.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, as host times scaled to
a reference host speed (see ``hostspeed.py``); ``--trace 1`` pairs
untraced and traced iterations (see ``layers.py``) and reports the
per-layer table.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
provenance line precedes it, and the human-readable layer table goes to
standard error.  Why each workload exists is recorded in ``README.md``
next to this file.
"""

import time

# set-up time counts from here, before any other import
_T0 = time.perf_counter()

import argparse  # noqa: E402
import datetime  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import SpeedProbe  # noqa: E402
from layers import SpanTracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for cache directories and span files (git-ignored)
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"

#: Input seeds are taken modulo this, the size of the pinned reference.
PINNED_SEEDS = 32
CAMPAIGN_SIZE = 40
GEN_PROFILE = "bench"
LIVE = ("gw-pipeline-s5", "fault-controller-crash", "car-flow")
PERIODIC = ("car-baseline", "car-strict-separation", "tdma-cluster",
            "tt-vn-pipeline")
SETUP_SAMPLES = 5
EXCLUDED_FAMILIES = ("profile.", "runtime.")


def load_repro():
    """Import the package from this checkout's ``src``, never from
    anywhere else on the path."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def fingerprint(snapshot: dict) -> str:
    """Digest of a run's deterministic metrics: counters and histograms
    minus the wall-clock ``profile.*``/``runtime.*`` families."""
    kept = {
        kind: {name: value for name, value in snapshot.get(kind, {}).items()
               if not name.startswith(EXCLUDED_FAMILIES)}
        for kind in ("counters", "histograms")
    }
    payload = json.dumps(kept, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def run_key(result: dict) -> str:
    """What a pinned reference records for one run."""
    return f"{result['digest'][:16]}:{fingerprint(result['metrics'])}"


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One timed pass: its wall time and what it produced.  ``scale``
    converts the wall time to the reference host speed."""

    wall_s: float
    results: list[dict]
    admission: dict | None = None
    cache_hits: int = 0
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Iteration:
    """A cold pass over fresh caches, then warm passes over them."""

    cold: Pass
    warm: list[Pass] = field(default_factory=list)
    stores: dict = field(default_factory=dict)

    @property
    def passes(self) -> list[Pass]:
        return [self.cold, *self.warm]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.passes)


class Workload:
    """Specs swept by a serial ``SweepRunner`` with its default result
    cache, ledger and template store: a cold pass over a fresh cache
    directory, then warm passes that re-sweep the same specs over the
    filled caches.  With ``admission``, specs first go through
    ``admit`` with a fresh ``CheckCache`` and the sweep is strict.
    """

    def __init__(self, name: str, scenarios: tuple[str, ...] = (),
                 size: int = CAMPAIGN_SIZE) -> None:
        self.name = name
        self.scenarios = scenarios
        self.size = size
        self.admission = not scenarios
        # About a second of warm passes per iteration: a registry warm
        # pass serves 3-4 runs in ~5 ms, a campaign one ~35 in ~40 ms.
        self.warm_passes = 20 if self.admission else 60

    def inputs(self, seed: int) -> list:
        if self.admission:
            from repro.generate import campaign

            return campaign.generate_candidates(self.size, GEN_PROFILE, seed)
        from repro.runner import scenarios

        registry = scenarios.default_registry(seed)
        return [registry[name] for name in self.scenarios]

    def sweep(self, specs: list, cache_dir: Path) -> Pass:
        from repro.generate import campaign
        from repro.runner import cache, executor

        t0 = time.perf_counter()
        admission = None
        if self.admission:
            specs, summary = campaign.admit(specs, cache.CheckCache(cache_dir))
        report = executor.SweepRunner(workers=1, cache_dir=str(cache_dir),
                                      strict=self.admission).run(specs)
        wall = time.perf_counter() - t0
        if self.admission:
            admission = summary.as_dict()
            admission["rejected_names"] = sorted(summary.rejected_names)
        return Pass(wall, report["scenarios"], admission, report["cache_hits"])

    def iterate(self, specs: list, cache_dir: Path, probe: bool = True) -> Iteration:
        """Cold pass then warm passes; with ``probe``, each pass's time
        is scaled to the reference host speed (see ``hostspeed.py``)."""
        passes = []
        for _ in range(1 + self.warm_passes):
            # each pass starts with an empty young generation, so a
            # collection the previous pass left due does not land in it
            gc.collect()
            if not probe:
                passes.append(self.sweep(specs, cache_dir))
                continue
            with SpeedProbe() as speed:
                p = self.sweep(specs, cache_dir)
            p.wall_s -= speed.probe_s
            p.scale = speed.scale
            passes.append(p)
        return Iteration(passes[0], passes[1:])

    def read_stores(self, it: Iteration, cache_dir: Path) -> None:
        from repro.ledger import RunLedger
        from repro.runner import LEDGER_FILENAME, cache

        checks = cache.CheckCache(cache_dir).stats()
        it.stores = {
            "check_hits": checks["hits"],
            "check_misses": checks["misses"],
            "ledger_records": RunLedger(cache_dir / LEDGER_FILENAME).stats()["entries"],
        }


WORKLOADS = {
    "campaign": Workload("campaign"),
    "registry-live": Workload("registry-live", LIVE),
    "registry-periodic": Workload("registry-periodic", PERIODIC),
}


def run_iteration(workload, specs: list, tracer=None) -> Iteration:
    """One iteration in a fresh cache directory, removed afterwards."""
    WORK.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK))
    try:
        if tracer is None:
            it = workload.iterate(specs, cache_dir)
        else:
            with tracer:
                it = workload.iterate(specs, cache_dir, probe=False)
        workload.read_stores(it, cache_dir)
        return it
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def traced_iteration(workload, specs: list) -> tuple[Iteration, SpanTracer, int]:
    """One iteration under a fresh :class:`SpanTracer`; also returns the
    number of trace records the runs produced."""
    records = [0]

    def count_records(sim) -> None:
        records[0] += sum(sim.trace.category_counts().values())

    tracer = SpanTracer(observers={
        "repro.runner.executor:trace_digest": count_records})
    it = run_iteration(workload, specs, tracer)
    return it, tracer, records[0]


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def pin(it: Iteration) -> dict:
    """The reference entry an iteration's cold pass defines."""
    entry = {"runs": {r["name"]: run_key(r) for r in it.cold.results
                      if "error" not in r}}
    if it.cold.admission is not None:
        entry["rejected_rules"] = it.cold.admission["rejected_rules"]
        entry["rejected_names"] = it.cold.admission["rejected_names"]
    return entry


def check(it: Iteration, ref: dict) -> tuple[int, int, list[str]]:
    """Compare every pass with the pinned reference and the warm passes
    with the cold one.  Returns (attempted, failed, problems): one item
    per expected or produced run, plus one per admission verdict."""
    attempted = failed = 0
    problems: list[str] = []
    cold = {r["name"]: r for r in it.cold.results}
    for index, p in enumerate(it.passes):
        label = "cold" if index == 0 else f"warm{index}"
        if p.admission is not None:
            attempted += 1
            if (p.admission["rejected_rules"] != ref.get("rejected_rules")
                    or p.admission["rejected_names"] != ref.get("rejected_names")):
                failed += 1
                problems.append(f"{label}: admission split {p.admission['rejected_rules']}"
                                f" != pinned {ref.get('rejected_rules')}")
        got = {r["name"]: r for r in p.results}
        for name in sorted(set(got) | set(ref["runs"])):
            attempted += 1
            result = got.get(name)
            if result is None:
                why = "not run"
            elif "error" in result:
                why = "raised: " + result["error"].strip().splitlines()[-1]
            elif name not in ref["runs"]:
                why = "not in the pinned reference"
            elif run_key(result) != ref["runs"][name]:
                why = f"{run_key(result)} != pinned {ref['runs'][name]}"
            elif index and run_key(result) != run_key(cold[name]):
                why = "warm differs from cold"
            else:
                continue
            failed += 1
            problems.append(f"{label} {name}: {why}")
    return attempted, failed, problems


def fidelity(plain: Iteration, traced: Iteration) -> list[str]:
    """Differences between the untraced and the traced iteration."""
    problems = []
    for index, (a, b) in enumerate(zip(plain.passes, traced.passes)):
        if a.admission != b.admission:
            problems.append(f"pass {index}: admission differs under tracing")
        if [r["name"] for r in a.results] != [r["name"] for r in b.results]:
            problems.append(f"pass {index}: run set differs under tracing")
            continue
        for ra, rb in zip(a.results, b.results):
            for what, va, vb in (
                ("digest", ra.get("digest"), rb.get("digest")),
                ("metrics", ra.get("metrics"), rb.get("metrics")),
                ("events", ra.get("events_executed"), rb.get("events_executed")),
                ("rounds_replayed",
                 ra.get("round_template", {}).get("rounds_replayed"),
                 rb.get("round_template", {}).get("rounds_replayed")),
            ):
                if va != vb:
                    problems.append(f"pass {index} {ra['name']}: {what} differs "
                                    "under tracing")
    if len(plain.passes) != len(traced.passes):
        problems.append("pass count differs under tracing")
    return problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def executed_runs(p: Pass) -> list[dict]:
    return [r for r in p.results if "error" not in r and not r.get("cached")]


def end_to_end(its: list[Iteration], setup_s: float, attempted: int,
               failed: int) -> dict:
    cold = [it.cold for it in its]
    warm = [p for it in its for p in it.warm]
    sim_s = [sum(r["horizon_ns"] for r in executed_runs(p)) / 1e9 for p in cold]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.ref_s for p in cold), "s"),
        "runs_per_s": (statistics.median(len(executed_runs(p)) / p.ref_s
                                         for p in cold), "1/s"),
        "warm_runs_per_s": (statistics.median(len(p.results) / p.ref_s
                                              for p in warm), "1/s"),
        "sim_s_per_host_s": (statistics.median(s / p.ref_s
                                               for s, p in zip(sim_s, cold)), "s/s"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(it: Iteration, tracer, plain: Iteration, records: int) -> dict:
    """The per-layer table of one traced iteration."""
    runs = [r for p in it.passes for r in executed_runs(p)]
    counters: dict[str, int] = {}
    for r in runs:
        for name, value in r["metrics"].get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    rt = {key: sum(r["round_template"].get(key, 0) for r in runs)
          for key in ("rounds_replayed", "recordings", "failed_recordings")}
    rounds = sum(r["horizon_ns"] // r["round_template"]["round_length_ns"]
                 for r in runs if r["round_template"].get("round_length_ns"))
    events = sum(r["events_executed"] for r in runs)
    frames = counters.get("bus.frames_tx", 0)
    admissions = [p.admission for p in it.passes if p.admission is not None]
    checks = it.stores["check_hits"] + it.stores["check_misses"]
    tpl = [r.get("template_cache", {}) for r in runs]
    selfs = tracer.layer_self_s()
    wall = it.wall_s
    attributed = sum(s for layer, s in selfs.items() if layer != "unattributed")

    def calls(*targets: str) -> int:
        return sum(tracer.calls(t) for t in targets)

    return {
        "sim.kernel.events": (events, "count"),
        "sim.kernel.self_s": (selfs["sim.kernel"], "s"),
        "sim.kernel.ns_per_event": (selfs["sim.kernel"] * 1e9 / events
                                    if events else 0.0, "ns"),
        "core_network.frames_tx": (frames, "count"),
        "core_network.frames_rx": (counters.get("ctrl.frames_rx", 0), "count"),
        "core_network.frames_blocked": (counters.get("bus.frames_blocked", 0),
                                        "count"),
        "core_network.sync_rounds": (counters.get("ctrl.sync_rounds", 0), "count"),
        "core_network.self_s": (selfs["core_network"], "s"),
        "core_network.ns_per_frame": (selfs["core_network"] * 1e9 / frames
                                      if frames else 0.0, "ns"),
        "sim.round_template.rounds_replayed": (rt["rounds_replayed"], "count"),
        "sim.round_template.recordings": (rt["recordings"], "count"),
        "sim.round_template.failed_recordings": (rt["failed_recordings"], "count"),
        "sim.round_template.replayed_share": (rt["rounds_replayed"] / rounds
                                              if rounds else 0.0, "ratio"),
        "sim.round_template.self_s": (selfs["sim.round_template"], "s"),
        "sim.trace.records": (records, "count"),
        "sim.trace.self_s": (selfs["sim.trace"], "s"),
        "sim.trace.digest_s": (selfs["sim.trace.digest"], "s"),
        "vn.instances_delivered": (counters.get("vn.instances_delivered", 0),
                                   "count"),
        "vn.tt_dispatches": (counters.get("vn.tt.dispatches", 0), "count"),
        "vn.et_sends": (counters.get("vn.et.sends", 0), "count"),
        "vn.self_s": (selfs["vn"], "s"),
        "gateway.forwards": (counters.get("gateway.forwards", 0), "count"),
        "gateway.receptions": (counters.get("gateway.receptions", 0), "count"),
        "gateway.blocks": (counters.get("gateway.blocks", 0), "count"),
        "gateway.self_s": (selfs["gateway"], "s"),
        "platform.job_activations": (counters.get("job.activations", 0), "count"),
        "platform.partition_windows": (counters.get("partition.windows", 0),
                                       "count"),
        "platform.self_s": (selfs["platform"], "s"),
        "messaging.self_s": (selfs["messaging"], "s"),
        "generate.build_s": (selfs["generate"], "s"),
        "check.candidates": (sum(a["total"] for a in admissions), "count"),
        "check.rejected": (sum(a["rejected"] for a in admissions), "count"),
        "check.cache_hit_ratio": (it.stores["check_hits"] / checks
                                  if checks else 0.0, "ratio"),
        "check.self_s": (selfs["check"], "s"),
        "ledger.records": (it.stores["ledger_records"], "count"),
        "ledger.batches": (calls("repro.ledger.store:RunLedger.append",
                                 "repro.ledger.store:RunLedger.append_many"),
                           "count"),
        "ledger.self_s": (selfs["ledger"], "s"),
        "runner.executor.self_s": (selfs["runner.executor"], "s"),
        "runner.cache.gets": (calls("repro.runner.cache:ResultCache.get",
                                    "repro.runner.cache:TemplateStore.get"),
                              "count"),
        "runner.cache.hits": (sum(p.cache_hits for p in it.passes)
                              + sum(1 for t in tpl if t.get("hit")), "count"),
        "runner.cache.puts": (len(runs) + sum(1 for t in tpl if t.get("stored")),
                              "count"),
        "runner.cache.self_s": (selfs["runner.cache"], "s"),
        "unattributed.self_s": (wall - attributed, "s"),
        "trace_overhead_x": (wall / plain.wall_s, "x"),
    }


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric medians; ``median_low`` keeps counts whole."""
    return {name: (statistics.median_low(s[name][0] for s in samples), unit)
            for name, (_value, unit) in samples[0].items()}


# ----------------------------------------------------------------------
# set-up, provenance, output
# ----------------------------------------------------------------------
def setup_probe(workload, seed: int) -> float:
    """What a run does before its first timed call, from process start,
    at the reference host speed."""
    with SpeedProbe() as speed:
        load_repro()
        from repro.runner import cache

        cache.code_digest()
        workload.inputs(seed)
        elapsed = time.perf_counter() - _T0
    return (elapsed - speed.probe_s) * speed.scale


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreter processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with code {proc.returncode}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def filesystem_of(path: Path) -> str:
    """The type of the filesystem holding ``path`` (ledger fsync cost
    depends on it)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                point = parts[1]
                if (str(path) == point or str(path).startswith(point.rstrip("/") + "/")) \
                        and len(point) > len(best):
                    best, fstype = point, parts[2]
    except OSError:
        pass
    return fstype


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def provenance(args, input_seed: int, plain: list[Iteration]) -> dict:
    from repro.runner import cache, report

    info = report.provenance(
        datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        iterations=len(plain))
    info.update({
        "nproc": len(os.sched_getaffinity(0)),
        "code_digest": cache.code_digest(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_fs": filesystem_of(WORK.resolve()),
        # unscaled figures, and the factor that scaled them
        "raw_wall_s": statistics.median(it.cold.wall_s for it in plain),
        "host_scale": statistics.median(p.scale for it in plain for p in it.passes),
    })
    return info


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def self_times(layers: dict) -> dict[str, float]:
    """The per-layer metrics that partition the traced wall time."""
    return {name: value for name, (value, _unit) in layers.items()
            if name.endswith("self_s") or name in ("generate.build_s",
                                                   "sim.trace.digest_s")}


def print_layer_table(layers: dict, tracer) -> None:
    selfs = self_times(layers)
    wall = sum(selfs.values())
    sys.stderr.write("layer self time (traced iteration):\n")
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        share = value / wall if wall else 0.0
        sys.stderr.write(f"  {name:<28} {value:9.3f} s {share:6.1%}\n")
    if tracer.missing:
        sys.stderr.write(f"  not wrapped (gone from the code): {tracer.missing}\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    input_seed = args.seed % PINNED_SEEDS
    if args.setup_probe:
        print(setup_probe(workload, input_seed))
        return 0

    setup_s = 0.0 if args.trace else measure_setup(args)
    load_repro()
    reference = json.loads(REFERENCE.read_text())[workload.name][str(input_seed)]
    specs = workload.inputs(input_seed)

    deadline = time.perf_counter() + args.seconds
    plain: list[Iteration] = []
    traced: list[tuple[Iteration, dict]] = []
    problems: list[str] = []
    while not plain or time.perf_counter() < deadline:
        plain.append(run_iteration(workload, specs))
        if args.trace:
            it, tracer, records = traced_iteration(workload, specs)
            problems += fidelity(plain[-1], it)
            traced.append((it, per_layer(it, tracer, plain[-1], records)))

    attempted = failed = 0
    for it in plain + [t[0] for t in traced]:
        a, f, why = check(it, reference)
        attempted += a
        failed += f
        problems += why

    print(json.dumps({"provenance": provenance(args, input_seed, plain)}))
    if args.trace:
        layers = median_metrics([t[1] for t in traced])
        print_layer_table(layers, tracer)
        (WORK / f"spans-{workload.name}-seed{args.seed}.json").write_text(
            json.dumps({"spans": tracer.table(), "missing": tracer.missing},
                       indent=1) + "\n")
        metrics = layers
    else:
        metrics = end_to_end(plain, setup_s, attempted, failed)
    for problem in problems[:20]:
        sys.stderr.write(f"FAIL {problem}\n")
    correct = not problems
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
