"""The scheduler interface: StarPU's PUSH/POP contract.

Every policy — MultiPrio and all baselines — implements this interface
and is driven identically by the engine:

* ``push(task)`` is called once per task, the moment its dependencies are
  all released (the task is *ready*);
* ``pop(worker)`` is called whenever ``worker`` is idle; returning ``None``
  parks the worker until new work is pushed or a completion occurs;
* ``force_pop(worker)`` is a liveness escape hatch the engine only uses
  if every worker is idle, nothing is running and ready tasks remain —
  a correct policy should virtually never be force-popped (the engine
  counts occurrences in :class:`~repro.runtime.engine.SimResult`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import DecisionEvent
from repro.runtime.task import Task
from repro.runtime.worker import Worker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import Observability
    from repro.runtime.engine import SchedContext


class Scheduler:
    """Base class; concrete policies override ``push`` and ``pop``."""

    #: Registry/reporting name; subclasses override.
    name = "base"

    #: Observability channel, bound by the engine each run (None = off).
    obs: "Observability | None" = None

    def __init__(self) -> None:
        self.ctx: "SchedContext" = None  # type: ignore[assignment]
        self.obs = None

    def setup(self, ctx: "SchedContext") -> None:
        """Bind to a run context and reset all per-run state.

        Called by the engine at the start of every simulation; subclasses
        overriding this must call ``super().setup(ctx)``.
        """
        self.ctx = ctx

    # -- hook points -------------------------------------------------------

    def push(self, task: Task) -> None:
        """A task just became ready."""
        raise NotImplementedError

    def push_batch(self, tasks: list[Task]) -> None:
        """A coalesced batch of tasks became ready (batch-mode engine).

        The default preserves per-event semantics exactly: one
        ``push()`` per task, in buffer (reveal) order. Policies with a
        cheaper bulk insert (heapify instead of n pushes, amortized
        score computation) override this; the override must leave the
        policy in a state equivalent to n individual pushes.
        """
        push = self.push
        for task in tasks:
            push(task)

    def pop(self, worker: Worker) -> Task | None:
        """``worker`` is idle; return a ready task for it, or ``None``."""
        raise NotImplementedError

    def force_pop(self, worker: Worker) -> Task | None:
        """Last-resort pop ignoring any admission heuristics."""
        return self.pop(worker)

    # -- optional hooks -------------------------------------------------------

    def on_task_done(self, task: Task, worker: Worker) -> None:
        """Called when a task completes (before successors are pushed)."""

    def retract(self, task: Task) -> bool:
        """Withdraw a READY task the policy holds (control-plane eviction).

        The engine calls this when the control plane evicts a job whose
        tasks were already pushed: a policy that can cleanly remove (or
        tombstone) its queue entries returns ``True`` and the engine
        cancels the task; returning ``False`` (the default) leaves the
        task to run — only unrevealed work of the job is cancelled then.
        A ``True`` return means the policy will never hand this task to
        a worker again.
        """
        return False

    def on_task_failed(self, task: Task, worker: Worker) -> None:
        """A transient fault aborted ``task`` on ``worker``.

        The engine has already rolled the task back (its scheduler
        scratch is cleared) and will re-push it after a backoff; policies
        override this to fix internal estimates or counters.
        """

    def on_worker_failed(self, worker: Worker) -> list[Task]:
        """``worker`` suffered a fail-stop failure and is gone for good.

        The engine has already removed it from the context's topology
        views (``ctx.workers``, ``ctx.available_archs``, ...). Policies
        holding per-worker or per-node queues must purge entries the dead
        worker owned and return the ready tasks that are no longer
        reachable through any surviving queue — the engine re-pushes
        them. The default (for policies with only global queues) purges
        nothing.
        """
        return []

    #: What changed since the last :meth:`check`: a
    #: :class:`~repro.utils.incremental.ChangeLog` that the invariant
    #: checker's write barrier fills during a checked run, None otherwise.
    _check_log = None

    def check(self) -> list[str]:
        """Self-validate internal data structures; return violations.

        Called by the opt-in invariant checker
        (:mod:`repro.check.invariants`) after every simulation event when
        ``check_invariants=True``. Policies with invariants worth
        guarding (heap order, counter exactness, ...) override this and
        return a human-readable description per violated invariant; an
        empty list means consistent.

        The cost of a call should follow what changed since the previous
        one, not the state the policy holds. During a checked run the
        checker installs a per-run subclass whose :attr:`_check_log`
        names the tasks and queues written since the last call
        (:mod:`repro.check.barrier`); the policy re-verifies only those
        and keeps its other verdicts in the log's ``memo``. Without a
        log every call re-verifies everything. The violations, and their
        order, must be those of a full sweep; the full sweeps live in the
        test suite (``tests/check/reference.py``), which runs them beside
        the incremental checks on every event.
        """
        return []

    # -- decision provenance ---------------------------------------------------

    @property
    def decisions_enabled(self) -> bool:
        """Whether the engine asked for decision-provenance events."""
        obs = self.obs
        return obs is not None and obs.decisions

    def record_decision(
        self,
        action: str,
        task: Task | None = None,
        worker: Worker | None = None,
        **fields,
    ) -> None:
        """Publish one :class:`~repro.obs.events.DecisionEvent`.

        No-op unless the engine enabled decision-level observability, so
        policies may call it unconditionally at their decision points;
        hot loops that must also avoid building the keyword arguments
        should guard on :attr:`decisions_enabled` first.
        """
        obs = self.obs
        if obs is None or not obs.decisions:
            return
        obs.emit(
            DecisionEvent(
                t=self.ctx.now,
                scheduler=self.name,
                action=action,
                tid=-1 if task is None else task.tid,
                type_name="" if task is None else task.type_name,
                wid=-1 if worker is None else worker.wid,
                node=-1 if worker is None else worker.memory_node,
                **fields,
            )
        )

    def record_queue_depth(self, key: str, depth: float) -> None:
        """Sample a queue-depth gauge (no-op when observability is off)."""
        obs = self.obs
        if obs is not None:
            obs.metrics.gauge(key).set(depth, self.ctx.now)

    def stats(self) -> dict[str, float]:
        """Per-run counters for reporting (evictions, steals, ...)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
