"""Per-layer span tracing for the benchmark's traced run.

The traced run times calls into each layer by replacing functions at
class (or module) level with a thin timing wrapper, before any model is
built, and puts the originals back afterwards.  Nothing inside the
program changes, and no per-event callback object is wrapped: the
round-template engine retimes ``PeriodicTask`` events through
``ev.callback.__self__``, and ``Simulator.enable_profiling`` turns
templates off, so either would trace a different program than the one
the untraced run measures.

A span's *self time* is its duration minus the time of the spans it
encloses.  Spans are aggregated in memory per wrapped function (calls
and self nanoseconds) and written out when the benchmark ends.  Time
that no wrapped function covers is reported as ``unattributed``: the
kernel's dispatch loop and the private slot and delivery closures under
``Simulator.run_until``, plus the benchmark's own glue between calls.
Work a private closure does *inside* a wrapped call is billed to that
call's layer; four private methods where one layer hands control to
another through a callback (VN chunk receive, TT dispatch, ET slot
arbitration, gateway receive) are wrapped so their work is not billed
to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections.abc import Callable

#: Layer -> functions whose time is billed to it.  ``"module:Class.attr"``
#: wraps a function defined in that class's own namespace;
#: ``"module:function"`` wraps a module-level function in every loaded
#: module that holds a reference to it.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.kernel": (
        "repro.sim.events:EventQueue.push",
        "repro.sim.events:EventQueue.pop",
        "repro.sim.events:EventQueue.pop_ready",
        "repro.sim.events:EventQueue.requeue",
        "repro.sim.events:EventQueue.compact",
        "repro.sim.events:EventQueue.shift_span",
        "repro.sim.events:EventQueue.retime_span",
        "repro.sim.events:ScheduledEvent.cancel",
        "repro.sim.kernel:Simulator.at",
        "repro.sim.kernel:Simulator.after",
        "repro.sim.kernel:Simulator.every",
        "repro.sim.kernel:PeriodicTask.cancel",
    ),
    "core_network": (
        "repro.core_network.bus:PhysicalBus.transmit",
        "repro.core_network.controller:CommunicationController.on_start",
        "repro.core_network.controller:CommunicationController.on_frame",
        "repro.core_network.controller:CommunicationController.enqueue_chunk",
        "repro.core_network.controller:CommunicationController.force_transmit",
        "repro.core_network.guardian:CentralGuardian.admit",
        "repro.core_network.sync:FTAClockSync.observe",
        "repro.core_network.sync:FTAClockSync.resynchronize",
        "repro.core_network.membership:MembershipService.observe_frame",
        "repro.core_network.membership:MembershipService.end_of_cycle",
        "repro.core_network.schedule:TDMASchedule.slot_window",
        "repro.core_network.schedule:TDMASchedule.next_slot_start",
        "repro.core_network.cluster:Cluster.start",
        "repro.sim.clock:LocalClock.local_time",
        "repro.sim.clock:LocalClock.ref_time_for_local",
        "repro.sim.clock:LocalClock.apply_correction",
    ),
    "vn": (
        "repro.vn.service:VirtualNetworkBase.start",
        "repro.vn.service:VirtualNetworkBase._on_chunk",
        "repro.vn.tt_network:TTVirtualNetwork._on_chunk",
        "repro.vn.tt_network:TTVirtualNetwork._dispatch",
        "repro.vn.et_network:ETVirtualNetwork.send",
        "repro.vn.et_network:ETVirtualNetwork.send_from_port",
        "repro.vn.et_network:ETVirtualNetwork._arbitrate",
        "repro.vn.port:StatePort.write",
        "repro.vn.port:StatePort.sample",
        "repro.vn.port:StatePort.read",
        "repro.vn.port:StatePort.deliver_from_network",
        "repro.vn.port:EventPort.enqueue",
        "repro.vn.port:EventPort.collect",
        "repro.vn.port:EventPort.dequeue",
        "repro.vn.port:EventPort.deliver_from_network",
    ),
    "gateway": (
        "repro.gateway.gateway:VirtualGateway.on_start",
        "repro.gateway.gateway:VirtualGateway._receive",
        "repro.gateway.repository:GatewayRepository.store",
        "repro.gateway.repository:GatewayRepository.available",
        "repro.gateway.repository:GatewayRepository.all_available",
        "repro.gateway.repository:GatewayRepository.take",
        "repro.gateway.repository:GatewayRepository.horizon",
        "repro.gateway.filters:FilterChain.decide",
        "repro.gateway.monitor:MessageMonitor.on_message",
        "repro.gateway.monitor:MessageMonitor.do_send",
        "repro.gateway.monitor:MessageMonitor.schedule_poll",
        "repro.gateway.elements:dissect",
        "repro.gateway.elements:construct",
        "repro.automata.runtime:AutomatonRuntime.on_message",
        "repro.automata.runtime:AutomatonRuntime.poll",
        "repro.automata.runtime:AutomatonRuntime.next_wakeup",
    ),
    "platform": (
        "repro.platform.component:Component.on_start",
        "repro.platform.component:Component.crash",
        "repro.platform.partition:Partition.execute_window",
        "repro.platform.partition:Partition.defer",
        "repro.platform.job:Job.step",
        "repro.platform.job:Job.deliver",
    ),
    "messaging": (
        "repro.messaging.message:MessageType.instance",
        "repro.messaging.message:MessageType.encode",
        "repro.messaging.message:MessageType.decode",
        "repro.messaging.message:MessageInstance.copy",
        "repro.messaging.naming:Namespace.lookup",
    ),
    "sim.round_template": (
        "repro.sim.round_template:RoundTemplateEngine.activate",
        "repro.sim.round_template:RoundTemplateEngine.begin",
        "repro.sim.round_template:RoundTemplateEngine.on_boundary",
        "repro.sim.round_template:RoundTemplateEngine.load_bank",
        "repro.sim.round_template:RoundTemplateEngine.dump_bank",
        "repro.sim.round_template:RoundTemplateEngine.puncture",
    ),
    "sim.trace": (
        "repro.sim.trace:TraceLog.record",
        "repro.sim.trace:TraceLog.tick",
        "repro.sim.trace:TraceLog.close",
        "repro.sim.flow:FlowTracer.origin",
        "repro.sim.flow:FlowTracer.hop",
        "repro.sim.metrics:Metrics.snapshot",
        "repro.analysis.flows:FlowSet.from_trace",
        "repro.analysis.flows:FlowSet.summary",
    ),
    "sim.trace.digest": (
        "repro.runner.executor:trace_digest",
    ),
    "generate": (
        "repro.generate.campaign:generate_candidates",
        "repro.runner.scenarios:default_registry",
        "repro.runner.scenarios:build_scenario",
    ),
    "check": (
        "repro.generate.campaign:admit",
        "repro.runner.executor:SweepRunner.preflight",
        "repro.check.targets:cached_scenario_diagnostics",
        "repro.check.analyzer:check_scenario",
        "repro.runner.cache:CheckCache.get",
        "repro.runner.cache:CheckCache.put",
    ),
    "ledger": (
        "repro.ledger.store:RunLedger.append",
        "repro.ledger.store:RunLedger.append_many",
        "repro.ledger.store:record_from_result",
    ),
    "runner.executor": (
        "repro.runner.executor:SweepRunner.run",
        "repro.runner.executor:run_scenario",
    ),
    "runner.cache": (
        "repro.runner.cache:ResultCache.get",
        "repro.runner.cache:ResultCache.put",
        "repro.runner.cache:ResultCache.put_many",
        "repro.runner.cache:TemplateStore.get",
        "repro.runner.cache:TemplateStore.put",
        "repro.runner.cache:code_digest",
        "repro.runner.cache:result_key",
        "repro.runner.cache:template_key",
        "repro.runner.cache:check_key",
    ),
    "unattributed": (
        "repro.sim.kernel:Simulator.run_until",
    ),
}


class SpanTracer:
    """Install timing wrappers for :data:`LAYERS`; use as a context
    manager so the originals are always put back.

    ``observers`` maps a target to a callable that receives the wrapped
    function's arguments before each call, outside the span's clock.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS,
                 observers: dict[str, Callable[..., None]] | None = None) -> None:
        self.layers = layers
        self.observers = dict(observers or {})
        #: target -> [calls, self nanoseconds]
        self.spans: dict[str, list[int]] = {}
        #: targets that no longer resolve to a plain function
        self.missing: list[str] = []
        # stack[0] accumulates the time of outermost spans
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []
        # kept alive so their ids stay unique while we look for leftovers
        self._wrappers: dict[int, Callable] = {}

    # ------------------------------------------------------------------
    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for targets in self.layers.values():
            for target in targets:
                self._install_one(target)

    def restore(self) -> None:
        """Put every original back and verify no wrapper survives."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        leftovers = self.leftovers()
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers}")

    # ------------------------------------------------------------------
    @property
    def covered_ns(self) -> int:
        """Time spent inside outermost spans."""
        return self._stack[0]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(self.layers, 0.0)
        for row in self.table():
            out[row["layer"]] += row["self_s"]
        return out

    def calls(self, target: str) -> int:
        rec = self.spans.get(target)
        return rec[0] if rec is not None else 0

    def table(self) -> list[dict]:
        """The aggregated spans, one row per wrapped function."""
        rows = []
        for layer, targets in self.layers.items():
            for target in targets:
                rec = self.spans.get(target)
                if rec is not None:
                    rows.append({"layer": layer, "target": target,
                                 "calls": rec[0], "self_s": rec[1] / 1e9})
        return rows

    # ------------------------------------------------------------------
    def _install_one(self, target: str) -> None:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
        else:
            original = vars(module).get(attr)
        descriptor = type(original) if isinstance(
            original, (classmethod, staticmethod)) else None
        fn = original.__func__ if descriptor is not None else original
        if not isinstance(fn, types.FunctionType) or (
                inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn)):
            self.missing.append(target)
            return
        rec = self.spans.setdefault(target, [0, 0])
        wrapper = self._wrap(fn, rec, self.observers.get(target))
        if descriptor is not None:
            wrapper = descriptor(wrapper)
        self._wrappers[id(wrapper)] = wrapper
        if owner_name:
            self._patch(owner, attr, original, wrapper)
            return
        # A module-level function is bound by name wherever it was
        # imported (``from .scenarios import build_scenario``): patch
        # every loaded module that holds it.
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._patch(mod, name, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def leftovers(self) -> list[str]:
        """Module or class attributes that still hold one of this
        tracer's wrappers (empty once :meth:`restore` has run)."""
        found = []
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if id(value) in self._wrappers:
                    found.append(f"{mod.__name__}.{name}")
                elif isinstance(value, type):
                    for attr, member in list(vars(value).items()):
                        if id(member) in self._wrappers:
                            found.append(f"{mod.__name__}.{name}.{attr}")
        return found

    def _wrap(self, fn: Callable, rec: list[int],
              observer: Callable[..., None] | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if observer is not None:
                observer(*args, **kwargs)
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                rec[0] += 1
                rec[1] += dt - inner
                stack[-1] += dt

        return span
