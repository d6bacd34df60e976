"""Shared non-processor resources: locks and the priority ceiling.

Tasks may name shared resources (``Task.resources`` — a DMA channel, a
host-side staging buffer, a device lock). The engine enforces mutual
exclusion over them: two tasks naming the same resource never execute
concurrently, whatever workers they landed on. Because the engine
commits a task's start time exactly once (in ``begin_exec``, serialized
in event order) and tasks hold their resources for their whole
execution, the protocol is simple and deadlock-free by construction:

* a task acquires **all** its resources atomically at its (possibly
  delayed) start and releases them at its end — there is no incremental
  lock acquisition, so no hold-and-wait cycles can form;
* under ``mode="lock"`` a task waits only for its own resources to
  free; a high-priority task can therefore be delayed by an arbitrary
  chain of unrelated lower-priority holders (classic priority
  inversion, observable as :class:`~repro.obs.events.PriorityInversion`
  provenance events);
* under ``mode="ceiling"`` each resource gets a *priority ceiling* (the
  highest priority of any task naming it, computed at run start), and a
  task additionally waits until no *other* busy resource has a ceiling
  ≥ its own priority — the immediate priority ceiling protocol's
  avoidance blocking, which bounds inversion to at most one
  lower-priority critical section.

The ledger is an engine run hook (``DESIGN.md`` §4); its ``audit`` (the
checker's ``rt`` family) checks that per resource, granted intervals
never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.obs.events import PriorityInversion
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.task import Task
    from repro.runtime.worker import Worker

#: Supported protocol modes.
RESOURCE_MODES: tuple[str, ...] = ("lock", "ceiling")


@dataclass(frozen=True)
class ResourceProtocol:
    """Configuration of the engine's resource arbitration."""

    mode: str = "lock"

    def __post_init__(self) -> None:
        if self.mode not in RESOURCE_MODES:
            raise ValidationError(
                f"ResourceProtocol.mode must be one of {RESOURCE_MODES}, "
                f"got {self.mode!r}"
            )


class ResourceLedger:
    """Per-run arbitration state for one :class:`ResourceProtocol`.

    A run hook of the engine at the start gate: :meth:`gate` delays a
    task's start until it may hold all its resources and :meth:`book`
    commits the grant. Both are called from the engine's ``begin_exec``
    only, which event order serializes — so grants are committed in
    nondecreasing decision order and per-resource intervals cannot
    overlap (:meth:`audit` re-verifies this from ``grants``).

    A failed attempt keeps its booking until the *projected* completion:
    the model is pessimistic about crashed critical sections (the
    runtime would have to clean up the resource anyway).
    """

    __slots__ = (
        "protocol", "emit", "busy_until", "holder", "ceilings", "grants",
        "n_blocked", "blocked_us", "n_inversions",
        "_audit_idx", "_audit_end",
    )

    def __init__(
        self, protocol: ResourceProtocol, tasks: "Iterable[Task]",
        emit: Callable | None = None,
    ) -> None:
        self.protocol = protocol
        #: Event sink for :class:`~repro.obs.events.PriorityInversion`
        #: (the run's ``Observability.emit``), or ``None``.
        self.emit = emit
        #: resource -> time its current grant ends.
        self.busy_until: dict[str, float] = {}
        #: resource -> (holder tid, holder priority) of the current grant.
        self.holder: dict[str, tuple[int, int]] = {}
        #: grant ledger for the audit: (resource, tid, start, end).
        self.grants: list[tuple[str, int, float, float]] = []
        self.n_blocked = 0
        self.blocked_us = 0.0
        self.n_inversions = 0
        # Audit state: grants already audited, per-resource latest end.
        self._audit_idx = 0
        self._audit_end: dict[str, float] = {}
        self.ceilings: dict[str, int] = {}
        if protocol.mode == "ceiling":
            for task in tasks:
                for r in task.resources:
                    prev = self.ceilings.get(r)
                    if prev is None or task.priority > prev:
                        self.ceilings[r] = task.priority

    def gate(
        self, task: "Task", worker: "Worker", now: float, start: float, duration: float
    ) -> tuple[float, float]:
        """Earliest start ≥ ``start`` at which ``task`` may hold all its
        resources, and the unchanged ``duration``.

        Each wait behind a strictly lower-priority holder is a priority
        inversion: it is counted and, with an event sink, emitted as a
        :class:`~repro.obs.events.PriorityInversion` stamped ``now``.
        """
        if not task.resources:
            return start, duration
        gated = start
        blockers: list[tuple[str, float]] = []
        for r in task.resources:
            until = self.busy_until.get(r, 0.0)
            if until > gated:
                gated = until
            if until > start:
                blockers.append((r, until))
        if self.protocol.mode == "ceiling":
            # Avoidance blocking: wait for any *other* held resource
            # whose ceiling could be contended by this task's level.
            own = set(task.resources)
            prio = task.priority
            for r, until in self.busy_until.items():
                if until > start and r not in own and self.ceilings.get(r, 0) >= prio:
                    if until > gated:
                        gated = until
                    blockers.append((r, until))
        if gated > start:
            self.n_blocked += 1
            self.blocked_us += gated - start
            emit = self.emit
            for r, until in blockers:
                held = self.holder.get(r)
                if held is not None and held[1] < task.priority:
                    self.n_inversions += 1
                    if emit is not None:
                        emit(PriorityInversion(
                            now, task.tid, r, held[0],
                            task.priority, held[1], until - start,
                        ))
        return gated, duration

    def book(self, task: "Task", worker: "Worker", start: float, end: float) -> None:
        """Commit the grant of every resource of ``task`` over [start, end)."""
        entry = (task.tid, task.priority)
        for r in task.resources:
            self.busy_until[r] = end
            self.holder[r] = entry
            self.grants.append((r, task.tid, start, end))

    def stats(self) -> dict[str, float]:
        """Counters for :class:`~repro.runtime.engine.SimResult.rt_stats`."""
        return {
            "resource_n_grants": float(len(self.grants)),
            "resource_n_blocked": float(self.n_blocked),
            "resource_blocked_us": self.blocked_us,
            "resource_n_inversions": float(self.n_inversions),
        }

    def audit(self, now: float) -> list[tuple[str, str]]:
        """``rt`` violations among the grants booked since the last
        audit: a grant ending before it starts, or one starting before
        the previous grant of its resource ended."""
        out = []
        ends = self._audit_end
        for resource, tid, start, end in self.grants[self._audit_idx:]:
            if end < start:
                out.append((
                    "rt",
                    f"resource {resource!r} grant to task {tid} ends "
                    f"before it starts: ({start}, {end})",
                ))
            prev_end = ends.get(resource, 0.0)
            if start < prev_end:
                out.append((
                    "rt",
                    f"resource {resource!r} double-held: task {tid}'s "
                    f"grant starts at {start}us before the previous "
                    f"grant ends at {prev_end}us",
                ))
            if end > prev_end:
                ends[resource] = end
        self._audit_idx = len(self.grants)
        return out
