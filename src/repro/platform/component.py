"""Components: the physical nodes — and the hardware FCR.

Sec. II-B: "A component is a self-contained computational element with
its own hardware ... and software.  Components are the target of job
allocation and provide encapsulated execution environments denoted as
partitions for jobs.  In the DECOS architecture, a component can host
multiple partitions and host jobs that can belong to different DASs."

A :class:`Component` owns a communication controller (its CNI to the
time-triggered core network) and a partition scheduler: a periodic
major frame within which each partition has a fixed window.  Windows
must not overlap — that is the temporal-partitioning guarantee.

Sec. II-D's hardware fault hypothesis (a whole component fails
arbitrarily, ~100 FIT permanent, orders-of-magnitude more frequent
transients) is exercised through :meth:`crash` / :meth:`restart`, which
silence/revive both the controller and every hosted job.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..sim import EventPriority, Process, Simulator
from ..core_network import CommunicationController
from .partition import Partition, PartitionWindow

__all__ = ["Component"]


class Component(Process):
    """One node: controller + partitions + major-frame scheduler."""

    priority = EventPriority.APPLICATION

    def __init__(
        self,
        sim: Simulator,
        name: str,
        controller: CommunicationController,
        major_frame: int = 10_000_000,
    ) -> None:
        super().__init__(sim, f"component.{name}")
        if major_frame <= 0:
            raise ConfigurationError("major frame must be positive")
        self.component_name = name
        self.controller = controller
        self.major_frame = major_frame
        self.partitions: dict[str, Partition] = {}
        self.crashed = False

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def add_partition(
        self,
        name: str,
        das: str,
        offset: int,
        duration: int,
        memory_quota: int = 64 * 1024,
    ) -> Partition:
        if name in self.partitions:
            raise ConfigurationError(f"partition {name!r} already exists on {self.component_name!r}")
        window = PartitionWindow(offset=offset, duration=duration)
        if window.end() > self.major_frame:
            raise ConfigurationError(
                f"partition window [{offset}, {window.end()}) exceeds "
                f"major frame {self.major_frame}"
            )
        for other in self.partitions.values():
            o = other.window
            if not (window.end() <= o.offset or o.end() <= window.offset):
                raise ConfigurationError(
                    f"partition window of {name!r} overlaps {other.name!r} "
                    "— temporal partitioning requires disjoint windows"
                )
        part = Partition(self.sim, name, das, window, memory_quota=memory_quota,
                         frame=self.major_frame)
        self.partitions[name] = part
        if self.active:
            self._schedule_partition(part)
        return part

    def partition(self, name: str) -> Partition:
        try:
            return self.partitions[name]
        except KeyError:
            raise ConfigurationError(
                f"no partition {name!r} on component {self.component_name!r}"
            ) from None

    def das_hosted(self) -> set[str]:
        """DASs with at least one partition on this component — the
        integrated architecture's defining property is that this set can
        have more than one element."""
        return {p.das for p in self.partitions.values()}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        for part in self.partitions.values():
            self._schedule_partition(part)

    def _schedule_partition(self, part: Partition) -> None:
        """Run the partition's window once per major frame, aligned to
        the major-frame grid (offsets stay comparable across nodes even
        when partitions are added at different times)."""
        now = self.sim.now
        frame_start = (now // self.major_frame) * self.major_frame
        first = frame_start + part.window.offset
        if first < now:
            first += self.major_frame
        label = f"{self.name}.window.{part.name}"
        # Window activations are legitimate periodic in-round events for
        # the round-template engine; the partition itself participates
        # via its own fingerprint (see Partition's rt_* hooks).
        self.sim.round_template.register_labels({label})
        self.call_every(
            self.major_frame,
            (lambda p=part: self._run_window(p)),
            start=first,
            label=label,
        )

    def _run_window(self, part: Partition) -> None:
        if not self.crashed:
            part.execute_window()

    # ------------------------------------------------------------------
    # hardware FCR failure modes
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Permanent (until restart) arbitrary failure of the whole node."""
        self.crashed = True
        self.controller.crashed = True
        for part in self.partitions.values():
            for job in part.jobs:
                job.halt()

    def restart(self) -> None:
        """Recovery after a transient fault (Sec. II-D)."""
        self.crashed = False
        self.controller.crashed = False
        for part in self.partitions.values():
            for job in part.jobs:
                job.resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Component {self.component_name!r} partitions={sorted(self.partitions)} "
            f"das={sorted(self.das_hosted())}>"
        )
