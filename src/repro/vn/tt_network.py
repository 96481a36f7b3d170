"""Time-triggered virtual networks.

"Time-triggered virtual networks aim at safety-critical DASs, where the
benefits with respect to predictability help in managing the complexity
of fault-tolerance ..." (Sec. II-E).

Transmission discipline: every message has a :class:`~repro.spec.port_spec.TTTiming`
(period, phase).  At each nominal instant the dispatcher *samples* the
producer (sender-pull: the control signal comes from the communication
system) and enqueues the encoded chunk at the producing component's
controller, which transmits it in that component's next TDMA slot
within the VN's byte reservation.  Receivers get the instance pushed
into their input ports (receiver-push).

Because every step of that pipeline happens at a-priori known instants,
end-to-end latency is a constant of the schedule and observed jitter at
the CNI is zero — the property experiment E2 measures while an ET VN
saturates its own share of the same physical bus.
"""

from __future__ import annotations

from ..core_network import FrameChunk
from ..errors import ConfigurationError
from ..messaging import MessageInstance
from ..sim import EventPriority, FlowStage, TraceCategory
from ..spec import ControlParadigm, InteractionType, TTTiming
from .service import ProducerBinding, VirtualNetworkBase

__all__ = ["TTVirtualNetwork"]


#: Dispatch events run after NETWORK deliveries but *before* the
#: controllers' slot actions at the same instant, so a chunk sampled at
#: a slot boundary makes that very slot.
DISPATCH_PRIORITY = EventPriority.NETWORK + 2


class TTVirtualNetwork(VirtualNetworkBase):
    """Static-schedule overlay for one safety-critical DAS.

    Dispatch instants are aligned to the physical schedule: the k-th
    transmission of a message is sampled ``dispatch_lead`` ns before the
    producing component's first TDMA slot at or after the message's
    nominal instant (``phase + k*period``).  The lead absorbs clock-sync
    imprecision (a fast sender's controller may act slightly before the
    global slot start).  When the message period is an integer multiple
    of the cluster cycle, every pipeline stage is periodic and the
    end-to-end latency is a schedule constant — the zero-jitter property
    of C1 that E1/E2 measure.
    """

    paradigm = ControlParadigm.TIME_TRIGGERED.value

    def __init__(self, sim, das, cluster, namespace=None,
                 dispatch_lead: int = 5_000,
                 implicit_naming: bool = False) -> None:
        super().__init__(sim, das, cluster, namespace)
        self._timings: dict[str, TTTiming] = {}
        self._cancels: list = []
        self.dispatch_lead = dispatch_lead
        #: Sec. II-E: "The message name can either be defined via the
        #: point in time at which the message is sent (i.e. an implicit
        #: message name) or be part of the message content."  With
        #: implicit naming on, chunks travel WITHOUT their name; the
        #: receiver resolves it from the arrival instant against the
        #: a-priori timing table — saving the name's wire bytes, which
        #: is why TT protocols use it.
        self.implicit_naming = implicit_naming
        self.implicit_resolutions = 0
        self.implicit_failures = 0
        self.dispatches = 0
        self.empty_dispatches = 0
        m = sim.metrics
        self._m_dispatch = m.counter("vn.tt.dispatches")
        self._m_empty = m.counter("vn.tt.empty_dispatches")
        self._m_implicit_fail = m.counter("vn.tt.implicit_failures")
        self.unaligned_periods: list[str] = []
        #: message -> (first nominal instant, period): the a-priori
        #: knowledge implicit naming resolves against.
        self._effective_start: dict[str, tuple[int, int]] = {}
        self._rt_push_sched: list[tuple[int, int]] | None = None

    # ------------------------------------------------------------------
    def set_timing(self, message: str, timing: TTTiming) -> None:
        """Fix the a-priori send instants of ``message``."""
        self._require_message(message)
        self._timings[message] = timing

    def timing_of(self, message: str) -> TTTiming:
        try:
            return self._timings[message]
        except KeyError:
            raise ConfigurationError(
                f"message {message!r} has no TT timing on VN {self.das!r}"
            ) from None

    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        for message, binding in sorted(self._producers.items()):
            timing = self._timings.get(message)
            if timing is None:
                spec_port = binding.port
                if spec_port is not None and spec_port.spec.tt is not None:
                    timing = spec_port.spec.tt
                    self._timings[message] = timing
                else:
                    raise ConfigurationError(
                        f"TT message {message!r} needs a timing "
                        "(set_timing or a TT port spec)"
                    )
            schedule = self.cluster.schedule
            if timing.period % schedule.cycle_length != 0:
                # Legal but jittery: nominal instants walk through the
                # TDMA cycle, so slot-wait varies. Record it for the
                # designer (E2's determinism claim assumes alignment).
                self.unaligned_periods.append(message)
            nominal = max(timing.phase, self.sim.now)
            slot_start, _ = schedule.next_slot_start(binding.component, nominal)
            start = max(slot_start - self.dispatch_lead, self.sim.now)
            self._effective_start[message] = (start + self.dispatch_lead,
                                              timing.period)
            cancel = self.sim.every(
                timing.period,
                (lambda m=message, b=binding: self._dispatch(m, b)),
                start=start,
                priority=DISPATCH_PRIORITY,
                label=f"ttvn.{self.das}.{message}",
            )
            self._cancels.append(cancel)
            self.sim.round_template.register_labels(
                (f"ttvn.{self.das}.{message}",))
        if self._producers:
            self.sim.round_template.register_participant(self)
        if self.implicit_naming:
            self._check_implicit_disjoint()

    def stop(self) -> None:
        for cancel in self._cancels:
            cancel()
        self._cancels.clear()

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    # Every statistic of a TT VN is a monotonic per-dispatch count, so
    # the whole state is linear; non-linear behaviour (an implicit-name
    # failure, say) still blocks replay because the *trace records* it
    # emits would differ between the recorded rounds.

    def rt_state(self) -> dict[str, int]:
        return {
            "chunks_sent": self.chunks_sent,
            "bytes_sent": self.bytes_sent,
            "instances_delivered": self.instances_delivered,
            "dispatches": self.dispatches,
            "empty_dispatches": self.empty_dispatches,
            "implicit_resolutions": self.implicit_resolutions,
            "implicit_failures": self.implicit_failures,
        }

    def rt_check(self, delta: dict[str, int]) -> bool:
        return True

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self.chunks_sent += delta["chunks_sent"] * k
        self.bytes_sent += delta["bytes_sent"] * k
        self.instances_delivered += delta["instances_delivered"] * k
        self.dispatches += delta["dispatches"] * k
        self.empty_dispatches += delta["empty_dispatches"] * k
        self.implicit_resolutions += delta["implicit_resolutions"] * k
        self.implicit_failures += delta["implicit_failures"] * k

    # ------------------------------------------------------------------
    # implicit naming (Sec. II-E)
    # ------------------------------------------------------------------
    def _rt_push_schedule(self) -> list[tuple[int, int]]:
        """(first dispatch-event instant, period) of every message whose
        delivery lands in a job-owned PUSH port.  Replaying a round that
        contains such a dispatch would skip the partition deferral the
        push delivery triggers, so those rounds must run live."""
        sched = self._rt_push_sched
        if sched is None:
            sched = []
            for message, (nominal, period) in sorted(self._effective_start.items()):
                binding = self._consumers.get(message)
                if binding is None:
                    continue
                for _comp, port in binding.ports:
                    if (port.spec.interaction is InteractionType.PUSH
                            and port.owner_job is not None):
                        sched.append((nominal - self.dispatch_lead, period))
                        break
            self._rt_push_sched = sched
        return sched

    def _rt_next_push(self, t: int) -> int | None:
        """Earliest push-delivering dispatch event at or after ``t``."""
        best: int | None = None
        for first, period in self._rt_push_schedule():
            d = first
            if t > d:
                d = first + (-(-(t - first) // period)) * period
            if best is None or d < best:
                best = d
        return best

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        # Veto while a push-delivering dispatch lands in this round or
        # its delivery chain (slot wait + bus transit) may still be in
        # flight from a recent one.
        d = self._rt_next_push(boundary - 2 * round_len)
        if d is not None and d < boundary + round_len:
            return None
        return ()

    def rt_headroom(self, boundary: int, round_len: int) -> int | None:
        d = self._rt_next_push(boundary)
        if d is None:
            return None
        return max(0, (d - boundary) // round_len)

    def _check_implicit_disjoint(self) -> None:
        """Implicit naming is sound only if no two messages ever share a
        dispatch instant: ``s1 + k*p1 == s2 + m*p2`` has a solution iff
        ``(s2 - s1) % gcd(p1, p2) == 0``.  Real TT schedules guarantee
        disjointness by construction; we verify it."""
        import math

        items = sorted(self._effective_start.items())
        for i, (m1, (s1, p1)) in enumerate(items):
            for m2, (s2, p2) in items[i + 1:]:
                if (s2 - s1) % math.gcd(p1, p2) == 0:
                    raise ConfigurationError(
                        f"implicit naming ambiguous on VN {self.das!r}: "
                        f"{m1!r} and {m2!r} share dispatch instants — "
                        "stagger their phases or use explicit names"
                    )

    def resolve_implicit(self, nominal: int) -> str | None:
        """Message name for a dispatch at instant ``nominal`` (a-priori
        schedule lookup); None if no message owns that instant."""
        for message, (start, period) in self._effective_start.items():
            if nominal >= start and (nominal - start) % period == 0:
                return message
        return None

    def _on_chunk(self, chunk, arrival, component) -> None:
        if self.implicit_naming and not chunk.message:
            nominal = chunk.meta.get("nominal")
            name = self.resolve_implicit(nominal) if nominal is not None else None
            if name is None:
                self.implicit_failures += 1
                self._m_implicit_fail.inc()
                self.sim.trace.record(
                    arrival, TraceCategory.PORT_DROP, f"ttvn.{self.das}",
                    reason="unresolvable implicit name", nominal=nominal,
                )
                return
            self.implicit_resolutions += 1
            chunk = FrameChunk(vn=chunk.vn, message=name, data=chunk.data,
                               sender_job=chunk.sender_job, meta=chunk.meta)
        super()._on_chunk(chunk, arrival, component)

    # ------------------------------------------------------------------
    def _dispatch(self, message: str, binding: ProducerBinding) -> None:
        instance: MessageInstance | None = None
        if binding.provider is not None:
            instance = binding.provider()
        if instance is None:
            # Nothing written yet: a TT slot goes out empty (the frame
            # still serves sync/membership at the physical level).
            self.empty_dispatches += 1
            self._m_empty.inc()
            return
        fl = self.sim.flows
        if fl.enabled:
            # A job-produced instance gets its flow id here (sender-pull
            # origination); a gateway-constructed import already carries
            # the child flow assigned at construction.
            fid = instance.meta.get("flow")
            if fid is None:
                fid = fl.new_flow()
                instance.meta["flow"] = fid
                fl.origin(self.sim.now, f"ttvn.{self.das}", fid, message,
                          FlowStage.ORIGIN_TT_DISPATCH,
                          component=binding.component)
            fl.hop(self.sim.now, f"ttvn.{self.das}", fid,
                   FlowStage.VN_DISPATCH, message=message)
        chunk = self._encode_chunk(message, instance, binding.job_name)
        if self.implicit_naming:
            # Strip the explicit name; carry the nominal instant instead
            # so receivers resolve the name from the timing table.
            chunk = FrameChunk(
                vn=chunk.vn, message="", data=chunk.data,
                sender_job=chunk.sender_job,
                meta={**chunk.meta, "nominal": self.sim.now + self.dispatch_lead},
            )
        ctrl = self.cluster.controller(binding.component)
        ctrl.enqueue_chunk(chunk)
        self.chunks_sent += 1
        self.bytes_sent += chunk.size_bytes()
        self.dispatches += 1
        self._m_dispatch.inc()
        tr = self.sim.trace
        if tr.wants(TraceCategory.VN_DISPATCH):
            tr.record(
                self.sim.now, TraceCategory.VN_DISPATCH, f"ttvn.{self.das}",
                message=message, component=binding.component,
            )
        else:
            tr.tick(TraceCategory.VN_DISPATCH)
        self._local_deliver(message, instance, binding.component)
