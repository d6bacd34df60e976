"""Sequential Task Flow front-end: infer the DAG from data accesses.

Applications never wire dependencies by hand. They submit tasks in a
sequential order together with the data handles each task reads and
writes, and the task flow derives the DAG exactly like StarPU's STF model:

* read-after-write: a reader depends on the latest writer;
* write-after-read: a writer depends on every reader since the last write;
* write-after-write: serialized;
* ``COMMUTE`` accesses form groups of mutually-independent read-writers
  that are ordered against surrounding exclusive accesses only.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro.runtime.data import DataHandle
from repro.runtime.task import AccessMode, Task


class _HandleFlowState:
    """Per-handle bookkeeping during sequential submission."""

    __slots__ = ("last_write_set", "readers", "commuters", "group_base")

    def __init__(self) -> None:
        # Tasks acting as the most recent write barrier: either the single
        # latest exclusive writer, or a closed COMMUTE group.
        self.last_write_set: list[Task] = []
        self.readers: list[Task] = []
        self.commuters: list[Task] = []
        self.group_base: list[Task] = []


class Program:
    """An immutable, fully-submitted task graph plus its data handles.

    ``release_times`` (optional, one entry per task, in submission
    order) gives the virtual time (µs) at which the STF main thread
    submits each task — the engine reveals a task to the scheduler only
    once the clock reaches its release. ``None`` (the default, and what
    :class:`TaskFlow` produces) means everything is available at t=0.
    Merged job streams (:func:`repro.workload.merge_stream`) use this to
    make each job's tasks appear at its arrival time. Times must be
    non-negative and non-decreasing in submission order, so the dense
    ``tid < revealed`` prefix test stays valid.
    """

    def __init__(
        self,
        tasks: list[Task],
        handles: list[DataHandle],
        name: str = "",
        release_times: "Sequence[float] | None" = None,
    ) -> None:
        self.tasks = tasks
        self.handles = handles
        self.name = name or "program"
        if release_times is not None:
            release_times = tuple(float(t) for t in release_times)
            if len(release_times) != len(tasks):
                raise ValueError(
                    f"release_times has {len(release_times)} entries for "
                    f"{len(tasks)} tasks"
                )
            prev = 0.0
            for i, t in enumerate(release_times):
                if t < 0.0:
                    raise ValueError(f"release_times[{i}] is negative: {t}")
                if t < prev:
                    raise ValueError(
                        f"release_times must be non-decreasing in submission "
                        f"order, but entry {i} ({t}) < entry {i - 1} ({prev})"
                    )
                prev = t
        self.release_times = release_times

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        """Total number of dependency edges."""
        return sum(len(t.succs) for t in self.tasks)

    def source_tasks(self) -> list[Task]:
        """Tasks with no predecessors (ready at time zero)."""
        return [t for t in self.tasks if not t.preds]

    def sink_tasks(self) -> list[Task]:
        """Tasks with no successors."""
        return [t for t in self.tasks if not t.succs]

    def total_flops(self) -> float:
        """Sum of task flop counts."""
        return sum(t.flops for t in self.tasks)

    def signature(self) -> tuple:
        """A hashable structural key: programs with equal keys simulate
        identically.

        Covers the name, ``release_times``, each handle's ``(hid, size,
        home_node, label, key)`` and each task's ``(tid, type_name,
        flops, implementations, priority, tag, resources, deadline_us)``
        plus its accesses as ``(local handle index, mode)`` and its
        predecessors and successors as local task indices, all in
        program order. Implementations enter as their frozenset, which
        compares like the sorted names. Ids are kept beside the local
        indices so hand-built programs with sparse ids never collide.
        Runtime state is excluded: it is reset before every run.

        Raises ``TypeError`` when a task tag or handle key is unhashable.
        """
        # Tasks and handles hash by identity, so they key these maps
        # directly; a stream computes one signature per job.
        hidx = {h: i for i, h in enumerate(self.handles)}
        tidx = {t: i for i, t in enumerate(self.tasks)}
        sig = (
            self.name,
            self.release_times,
            tuple([(h.hid, h.size, h.home_node, h.label, h.key) for h in self.handles]),
            tuple([
                (
                    t.tid, t.type_name, t.flops, t.implementations,
                    t.priority, t.tag, t.resources, t.deadline_us,
                    tuple([(hidx[h], m) for h, m in t.accesses]),
                    tuple([tidx[p] for p in t.preds]),
                    tuple([tidx[s] for s in t.succs]),
                )
                for t in self.tasks
            ]),
        )
        hash(sig)
        return sig

    def reset_runtime_state(self) -> None:
        """Reset all tasks and handles so the program can be re-simulated."""
        for task in self.tasks:
            task.reset_runtime_state()
        for handle in self.handles:
            handle.reset_runtime_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Program {self.name!r}: {len(self.tasks)} tasks, "
            f"{self.n_edges} edges, {len(self.handles)} handles>"
        )


def template_key(program: Program) -> Hashable:
    """Cache key for per-program results such as isolated baselines.

    :meth:`Program.signature` when it is hashable, so structurally equal
    programs share one entry. A program with an unhashable tag or handle
    key is its own key: it is simulated on its own, which is correct,
    only slower.
    """
    try:
        return program.signature()
    except TypeError:
        return program


class TaskFlow:
    """Sequential task submission with automatic dependency inference.

    Typical use::

        tf = TaskFlow()
        a = tf.data(8 * n * n, label="A")
        b = tf.data(8 * n * n, label="B")
        tf.submit("init", [(a, AccessMode.W)], flops=0.0)
        tf.submit("gemm", [(a, AccessMode.R), (b, AccessMode.RW)], flops=2e9,
                  implementations=("cpu", "cuda"))
        program = tf.program()
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._tasks: list[Task] = []
        self._handles: list[DataHandle] = []
        self._flow: dict[int, _HandleFlowState] = {}
        self._finalized = False

    # -- data registration ------------------------------------------------

    def data(
        self,
        size: int,
        *,
        label: str = "",
        key: Any = None,
        home_node: int = 0,
    ) -> DataHandle:
        """Register a new data handle of ``size`` bytes."""
        self._check_open()
        handle = DataHandle(len(self._handles), size, home_node=home_node, label=label, key=key)
        self._handles.append(handle)
        self._flow[handle.hid] = _HandleFlowState()
        return handle

    # -- task submission ---------------------------------------------------

    def submit(
        self,
        type_name: str,
        accesses: Sequence[tuple[DataHandle, AccessMode]] = (),
        *,
        flops: float = 0.0,
        implementations: Iterable[str] = ("cpu",),
        priority: int = 0,
        tag: Any = None,
        resources: Iterable[str] = (),
        deadline_us: float = float("inf"),
    ) -> Task:
        """Submit a task; dependencies are inferred from ``accesses``."""
        self._check_open()
        task = Task(
            len(self._tasks),
            type_name,
            accesses,
            flops=flops,
            implementations=implementations,
            priority=priority,
            tag=tag,
            resources=resources,
            deadline_us=deadline_us,
        )
        dep_tids: set[int] = set()
        deps: list[Task] = []

        seen_handles: set[int] = set()
        for handle, mode in task.accesses:
            if handle.hid in seen_handles:
                raise ValueError(
                    f"task {task.name} accesses handle {handle.label} twice; "
                    "merge the accesses into a single mode"
                )
            seen_handles.add(handle.hid)
            state = self._flow.get(handle.hid)
            if state is None:
                raise ValueError(f"handle {handle.label} was not created by this TaskFlow")
            for dep in self._advance_handle_state(state, task, mode):
                if dep.tid not in dep_tids and dep is not task:
                    dep_tids.add(dep.tid)
                    deps.append(dep)

        for dep in deps:
            dep.succs.append(task)
            task.preds.append(dep)
        task.n_unfinished_preds = len(task.preds)
        self._tasks.append(task)
        return task

    @staticmethod
    def _advance_handle_state(
        state: _HandleFlowState, task: Task, mode: AccessMode
    ) -> list[Task]:
        """Update one handle's flow state; return this access's dependencies."""
        if mode is AccessMode.R:
            if state.commuters:
                # A read closes the open COMMUTE group.
                state.last_write_set = state.commuters
                state.commuters = []
                state.group_base = []
            deps = state.last_write_set
            state.readers.append(task)
            return deps

        if mode is AccessMode.COMMUTE:
            if not state.commuters:
                # Open a new group; its base is what the group must wait on.
                state.group_base = (
                    list(state.readers) if state.readers else list(state.last_write_set)
                )
                state.readers = []
            state.commuters.append(task)
            return state.group_base

        # Exclusive write (W or RW).
        if state.commuters:
            deps = state.commuters + state.readers
        elif state.readers:
            deps = state.readers
        else:
            deps = state.last_write_set
        state.last_write_set = [task]
        state.readers = []
        state.commuters = []
        state.group_base = []
        return deps

    # -- finalization ------------------------------------------------------

    def program(self) -> Program:
        """Freeze submission and return the resulting :class:`Program`."""
        self._check_open()
        self._finalized = True
        return Program(self._tasks, self._handles, name=self.name)

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError("TaskFlow already finalized; create a new one")

    def __len__(self) -> int:
        return len(self._tasks)
