"""Event taxonomy of the discrete-event engine.

Events are plain tuples ``(time, seq, kind, payload)`` on a binary heap —
the sequence number makes simultaneous events deterministic and keeps
tuple comparison away from payload objects. The engine's own loop
handles the core kinds:

* ``TASK_COMPLETION`` — a worker finishes a task; payload ``(worker, task)``.
* ``WORKER_REQUEST`` — an idle worker asks the scheduler for work
  (StarPU's POP hook); payload ``worker``.
* ``JOB_ARRIVAL`` — a job of a merged stream reaches its release time
  and the STF "main thread" resumes submitting; payload ``None`` (the
  engine re-runs its submission loop against the clock). Also posted
  by :class:`RunOps` ``delay`` at a delayed job's retry time.
* ``BATCH_FLUSH`` — batch-mode scheduling only: the configured
  ``batch_step`` elapsed since ready tasks started buffering, so the
  engine hands the whole batch to the scheduler; payload ``None``.

The fault hook (:class:`~repro.runtime.faults.FaultInjector`) owns the
other three; the loop dispatches them through its ``handlers`` map:

* ``TASK_FAILURE`` — an injected transient failure aborts a running
  attempt; payload ``(worker, task)``. Posted *instead of* the
  completion event when the fault model fails the attempt.
* ``WORKER_FAILURE`` — an injected fail-stop failure kills a worker;
  payload ``wid``.
* ``TASK_RETRY`` — a previously-failed task's virtual-time backoff
  expires and it re-enters the scheduler; payload ``task``.

A hook reaches the run's core state only through the :class:`RunOps`
its ``begin`` receives.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

TASK_COMPLETION = 0
WORKER_REQUEST = 1
TASK_FAILURE = 2
WORKER_FAILURE = 3
TASK_RETRY = 4
JOB_ARRIVAL = 5
BATCH_FLUSH = 6


class RunOps(NamedTuple):
    """The core operations of one run, handed once to every hook with a
    ``begin`` point. ``post(time, kind, payload)`` queues an event;
    ``end_attempt(worker, now) -> (task, busy)`` charges the worker's
    running attempt up to ``now`` and frees the worker (``(None, 0.0)``
    when it runs nothing); ``unstage(worker)`` takes back its staged
    lookahead task, or ``None``; ``push_ready(task)`` releases a task to
    the scheduler (or the batch); ``request(worker, now)`` and
    ``wake(now)`` have one worker, or every live worker that could use
    work, ask for it. ``cancel(first_tid, n_tasks, retract_ready) ->
    victims`` cancels a job's unstarted tasks and releases their
    successors; ``delay(first_tid, n_tasks, until)`` moves its release
    times to ``until`` and posts a ``JOB_ARRIVAL`` then."""

    post: Callable
    end_attempt: Callable
    unstage: Callable
    push_ready: Callable
    request: Callable
    wake: Callable
    cancel: Callable
    delay: Callable
