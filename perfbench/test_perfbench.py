"""Self-tests of the benchmark harness (not of the program under test).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from layers import LAYERS, SpanTracer  # noqa: E402

run.load_repro()

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _resolve(target: str):
    import importlib

    module, _, path = target.partition(":")
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name)
    return vars(owner).get(attr)


def resolve_all() -> dict:
    return {t: _resolve(t) for targets in LAYERS.values() for t in targets}


@pytest.fixture(scope="module")
def campaign():
    """A three-candidate campaign, untraced and traced, plus the layer
    functions as they were before the traced run."""
    workload = run.Workload("campaign", size=3)
    specs = workload.inputs(0)
    plain = run.run_iteration(workload, specs)
    before = resolve_all()
    traced, tracer, records = run.traced_iteration(workload, specs)
    return plain, traced, tracer, records, before


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_names_and_units_are_well_formed():
    for kind in ("end_to_end", "per_layer"):
        for name, unit in declared(kind).items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert {w["name"] for w in DECLARED["workloads"]} == set(run.WORKLOADS)


def test_every_metric_prints_by_name_with_its_declared_unit(campaign, capsys):
    plain, traced, tracer, records, _before = campaign
    e2e = run.end_to_end([plain], 0.5, 10, 0)
    layers = run.per_layer(traced, tracer, plain, records)
    for metrics, kind in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert {name: unit for name, (_v, unit) in metrics.items()} == declared(kind)
        run.emit(True, 10, 0, metrics)
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for name, value in line["metrics"].items():
            assert set(value) == {"value", "unit"}
            assert isinstance(value["value"], (int, float)), name


def test_a_corrupted_pin_drives_failed_share_above_zero(campaign):
    plain = campaign[0]
    reference = run.pin(plain)
    attempted, failed, problems = run.check(plain, reference)
    assert failed == 0 and not problems and attempted > 0
    assert run.end_to_end([plain], 0.5, attempted, failed)["ok_share"][0] == 1.0

    name = sorted(reference["runs"])[0]
    digest, fp = reference["runs"][name].split(":")
    reference["runs"][name] = f"{'0' * len(digest)}:{fp}"
    attempted, failed, problems = run.check(plain, reference)
    assert failed == len(plain.passes)  # the cold pass and every warm pass
    assert run.end_to_end([plain], 0.5, attempted, failed)["ok_share"][0] < 1.0

    reference = run.pin(plain)
    reference["rejected_rules"] = {"FLOW999": 1}
    assert run.check(plain, reference)[1] == len(plain.passes)


def test_traced_run_reproduces_the_untraced_run(campaign):
    plain, traced = campaign[:2]
    assert run.fidelity(plain, traced) == []


def test_traced_run_reproduces_template_replay():
    workload = run.Workload("periodic-smoke", ("tdma-smoke",))
    specs = workload.inputs(0)
    plain = run.run_iteration(workload, specs)
    traced, _tracer, _records = run.traced_iteration(workload, specs)
    assert plain.cold.results[0]["round_template"]["rounds_replayed"] > 0
    assert run.fidelity(plain, traced) == []


def test_wrappers_are_restored_after_the_traced_run(campaign):
    tracer, before = campaign[2], campaign[4]
    assert all(fn is not None for fn in before.values())
    assert tracer.leftovers() == []
    assert resolve_all() == before
    assert not tracer.missing, tracer.missing


def test_layer_self_times_account_for_the_traced_wall(campaign):
    plain, traced, tracer, records, _before = campaign
    layers = run.per_layer(traced, tracer, plain, records)
    assert layers["unattributed.self_s"][0] >= 0
    assert sum(run.self_times(layers).values()) == pytest.approx(traced.wall_s,
                                                                 rel=1e-9)


def test_reference_pins_every_input_seed():
    reference = json.loads(run.REFERENCE.read_text())
    for name in run.WORKLOADS:
        assert sorted(reference[name], key=int) == [
            str(s) for s in range(run.PINNED_SEEDS)]


class Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.02)

    @classmethod
    def make(cls):
        return cls()


def test_self_time_excludes_enclosed_spans():
    layers = {"a": (f"{__name__}:Toy.outer", f"{__name__}:Toy.make"),
              "b": (f"{__name__}:Toy.inner",),
              "c": (f"{__name__}:Toy.gone",)}
    originals = dict(vars(Toy))
    with SpanTracer(layers) as tracer:
        Toy.make().outer()
    selfs = tracer.layer_self_s()
    assert selfs["a"] >= 0.02 and selfs["b"] >= 0.02
    # outer's self time leaves out inner's, so the two add up to the
    # time spent inside outermost spans
    assert selfs["a"] + selfs["b"] == pytest.approx(tracer.covered_ns / 1e9)
    assert tracer.calls(f"{__name__}:Toy.make") == 1
    assert tracer.missing == [f"{__name__}:Toy.gone"]
    assert dict(vars(Toy)) == originals
