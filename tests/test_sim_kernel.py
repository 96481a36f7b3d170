"""Unit tests for the discrete-event kernel (repro.sim.kernel/events)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import EventPriority, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending() == 0
    assert sim.events_executed == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    order: list[int] = []
    sim.at(30, lambda: order.append(30))
    sim.at(10, lambda: order.append(10))
    sim.at(20, lambda: order.append(20))
    sim.run()
    assert order == [10, 20, 30]
    assert sim.now == 30


def test_simultaneous_events_fire_in_priority_then_fifo_order():
    sim = Simulator()
    order: list[str] = []
    sim.at(5, lambda: order.append("app1"), priority=EventPriority.APPLICATION)
    sim.at(5, lambda: order.append("net"), priority=EventPriority.NETWORK)
    sim.at(5, lambda: order.append("app2"), priority=EventPriority.APPLICATION)
    sim.at(5, lambda: order.append("probe"), priority=EventPriority.PROBE)
    sim.run()
    assert order == ["net", "app1", "app2", "probe"]


def test_after_schedules_relative_to_now():
    sim = Simulator()
    seen: list[int] = []
    sim.at(100, lambda: sim.after(50, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [150]


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_run_until_advances_time_even_without_events():
    sim = Simulator()
    sim.run_until(1_000)
    assert sim.now == 1_000


def test_run_until_executes_events_at_exact_boundary():
    sim = Simulator()
    hits: list[int] = []
    sim.at(500, lambda: hits.append(sim.now))
    sim.at(501, lambda: hits.append(sim.now))
    sim.run_until(500)
    assert hits == [500]
    sim.run()
    assert hits == [500, 501]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run_until(10)
    with pytest.raises(ConfigurationError):
        sim.run_until(5)
    with pytest.raises(ConfigurationError):
        sim.run_for(-1)


def test_run_for():
    sim = Simulator()
    sim.run_until(100)
    sim.run_for(25)
    assert sim.now == 125


def test_cancel_prevents_execution():
    sim = Simulator()
    fired: list[int] = []
    ev = sim.at(10, lambda: fired.append(1))
    ev.cancel()
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_periodic_every_fires_on_grid_without_drift():
    sim = Simulator()
    ticks: list[int] = []
    sim.every(7, lambda: ticks.append(sim.now), start=3)
    sim.run_until(31)
    assert ticks == [3, 10, 17, 24, 31]


def test_periodic_cancel_stops_future_ticks():
    sim = Simulator()
    ticks: list[int] = []
    cancel = sim.every(10, lambda: ticks.append(sim.now))
    sim.run_until(25)
    cancel()
    sim.run_until(100)
    assert ticks == [0, 10, 20]


def test_periodic_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0, lambda: None)


def test_stop_interrupts_run():
    sim = Simulator()
    seen: list[int] = []

    def tick() -> None:
        seen.append(sim.now)
        if sim.now >= 30:
            sim.stop()

    sim.every(10, tick)
    sim.run()
    assert seen == [0, 10, 20, 30]


def test_run_max_events_budget():
    sim = Simulator()
    count = {"n": 0}

    def reschedule() -> None:
        count["n"] += 1
        sim.after(1, reschedule)

    sim.at(0, reschedule)
    sim.run(max_events=100)
    assert count["n"] == 100


def test_reentrant_run_rejected():
    sim = Simulator()

    def inner() -> None:
        with pytest.raises(SimulationError):
            sim.run()

    sim.at(1, inner)
    sim.run()


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_events_executed_counter():
    sim = Simulator()
    for t in range(5):
        sim.at(t, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_deterministic_interleaving_reproducible():
    def build_and_run() -> list[tuple[int, str]]:
        sim = Simulator(seed=42)
        log: list[tuple[int, str]] = []
        for i in range(20):
            t = int(sim.streams.get("a").integers(0, 100))
            sim.at(t, (lambda i=i, t=t: log.append((t, f"e{i}"))))
        sim.run()
        return log

    assert build_and_run() == build_and_run()


def test_iterate_yields_times():
    sim = Simulator()
    sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    assert list(sim.iterate()) == [5, 9]


def test_self_rescheduling_chain_runs_fifty_thousand_events():
    sim = Simulator()
    count = {"n": 0}

    def tick():
        count["n"] += 1
        if count["n"] < 50_000:
            sim.after(10, tick)

    sim.at(0, tick)
    sim.run()
    assert count["n"] == 50_000
    assert sim.events_executed == 50_000
