"""Tests for the bench harness (``repro bench``) and its bounds table."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import BenchFailure, bench_ledger
from repro.cli import main
from repro.ledger import RunLedger
from repro.runner import default_registry

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "BENCH_substrate.json"


@pytest.fixture(scope="module")
def gate():
    path = ROOT / "tools" / "check_bench_thresholds.py"
    spec = importlib.util.spec_from_file_location("check_bench_thresholds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_with(key_path: tuple[str, ...], section: str, value: float) -> dict:
    data = json.loads(COMMITTED.read_text())
    node = data[section]
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = value
    return data


def test_every_bound_fails_past_its_fail_value_and_warns_in_its_band(gate, tmp_path, capsys):
    path = tmp_path / "B.json"
    for section, key_path, direction, fail, warn in gate.THRESHOLDS:
        step = 1e-6 if direction == "max" else -1e-6
        nominal = fail if warn is None else warn
        cases = [(fail + step, "FAIL", 1), (nominal, "OK", 0)]
        if warn is not None:
            cases.append(((fail + warn) / 2, "WARN", 0))
        label = f"{section}.{'.'.join(key_path)}"
        for value, verdict, code in cases:
            assert gate.judge(direction, fail, warn, value) == verdict, (label, value)
            path.write_text(json.dumps(_bench_with(key_path, section, value)))
            assert gate.main([str(path)]) == code, (label, value)
            line = next(ln for ln in capsys.readouterr().out.splitlines()
                        if f" {label}:" in ln)
            assert line.startswith(verdict), line


def test_bounds_table_pins_the_ci_fail_and_warn_values(gate):
    rows = {(s, k): (d, f, w) for s, k, d, f, w in gate.THRESHOLDS}
    assert rows == {
        ("kernel", ("batched_speedup",)): ("min", 1.2, None),
        ("gateway_pipeline", ("counters_speedup",)): ("min", 1 / 0.75, None),
        ("round_template", ("tdma_cluster", "speedup")): ("min", 3.0, None),
        ("round_template", ("tt_vn_pipeline", "speedup")): ("min", 3.0, None),
        ("round_template_v2", ("cold_speedup",)): ("min", 1.2, 1.3),
        ("runtime", ("paced_overhead_x",)): ("max", 10 / 0.85, 10.0),
        ("ledger", ("append_overhead_x",)): ("max", 1.05, None),
        ("flow_bounds", ("min_tightness",)): ("max", 2.0 / 0.85, 2.0),
        ("campaign", ("batch_overhead_x",)): ("max", 1.05, None),
        ("campaign", ("cold_runs_per_s",)): ("min", 6.8, 8.0),
        ("campaign", ("warm_runs_per_s",)): ("min", 425.0, 500.0),
        ("observability", ("counters_overhead_x",)): ("max", 1.5, None),
        ("observability", ("flow_overhead_x",)): ("max", 1.5, None),
    }


def test_committed_bench_file_passes_the_gate(gate):
    assert gate.main([str(COMMITTED)]) == 0


def test_missing_section_fails_the_gate(gate, tmp_path):
    data = json.loads(COMMITTED.read_text())
    del data["observability"]
    path = tmp_path / "B.json"
    path.write_text(json.dumps(data))
    assert gate.main([str(path)]) == 1


def test_bench_kernel_writes_the_committed_key_set(tmp_path, capsys):
    out = tmp_path / "B.json"
    assert main(["bench", "kernel", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    committed = json.loads(COMMITTED.read_text())
    assert set(written) == {"kernel"}
    assert set(written["kernel"]) == set(committed["kernel"])
    assert set(written["kernel"]["provenance"]) == set(committed["kernel"]["provenance"])


def test_bench_unknown_section_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "B.json"
    assert main(["bench", "kernel", "no-such-section", "--out", str(out)]) == 2
    assert not out.exists()
    assert "no-such-section" in capsys.readouterr().err


def test_ledger_section_fails_when_an_append_raises(monkeypatch):
    def broken(self, record):
        raise OSError("disk full")

    monkeypatch.setattr(RunLedger, "append", broken)
    with pytest.raises(BenchFailure, match="ledger_error"):
        bench_ledger([default_registry()["tdma-smoke"]])
