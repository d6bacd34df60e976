"""The invariant checker's write barrier: what each event touched.

For the length of a checked run, :class:`Barrier` gives the run's state
per-run logging classes, so that each check re-reads only what was
written since the previous one:

* every task and data handle of the program gets a slot-compatible
  subclass (``__slots__ = ()``, see :func:`observed_class`) that logs
  the object: a task on a write of ``state`` or ``n_unfinished_preds``; a
  handle on a write of ``valid_nodes``, ``_pins``, ``_in_flight``,
  ``size`` or ``home_node``, and on a read of the three containers too,
  since those are mutated in place;
* a scheduler whose :meth:`~repro.schedulers.base.Scheduler.check` is
  incremental (MultiPrio, MultiQueue) gets a subclass carrying a
  :class:`~repro.utils.incremental.ChangeLog` in ``_check_log``.
  MultiQueue's push, pop and retract log the task and the sub-heaps they
  wrote. Each MultiPrio heap (each sub-heap of a relaxed one) gets a
  subclass that logs the heap and the task of every entry it inserts or
  removes, and its entries a subclass that logs the heap on a write of
  ``pos`` or ``owner`` and the entry's task on a write of ``dead`` (a
  take tombstones every entry of the task it takes). A dead worker's
  purge resets either log;
* each bounded node's resident and recency tables in the transfer engine
  become :class:`ResidencyTable` dicts that log ``(node, key)`` for every
  key that entered or left (and every value stored in the resident
  table), or ``(node, None)`` for a bulk write;
* the control plane gets a subclass carrying the ``_audit_log`` of its
  job records, and each record a subclass that logs it on any write.

The checker forwards the tasks whose state moved to the scheduler's log.
:meth:`Barrier.remove` restores the plain classes and tables, whether
the run ended normally or by raising; unchecked runs never see any of
this. On a 2-vCPU VM a logged write costs about 130-175 ns and any other
read through a slot barrier about 45 ns, against about 10 ns for a plain
slot.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Mapping

from repro.control.plane import ControlPlane, JobRecord
from repro.core.heap import HeapEntry
from repro.runtime.data import DataHandle
from repro.runtime.task import Task
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.multiqueue import MultiQueue
from repro.utils.incremental import ChangeLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.memory import TransferEngine
    from repro.runtime.stf import Program

#: Task fields whose writes are logged.
TASK_FIELDS = ("state", "n_unfinished_preds")
#: Handle fields whose writes are logged; reads of the mutable containers
#: among them are logged too (they are mutated in place).
HANDLE_FIELDS = ("valid_nodes", "_pins", "_in_flight", "size", "home_node")
HANDLE_CONTAINERS = ("valid_nodes", "_pins", "_in_flight")


def observed_class(
    base: type, slots: type, notify: Mapping[str, Callable], containers=()
) -> type:
    """A slot-compatible subclass of ``base`` that reports writes.

    Each field named in ``notify`` (a slot of ``slots``) becomes a
    property that stores through the slot descriptor and then calls
    ``notify[field](obj)``; reading one of ``containers`` calls it too.
    Other reads go through a C-level getter on an alias of the slot.
    """
    namespace: dict = {"__slots__": ()}
    for name, note in notify.items():
        slot = getattr(slots, name)
        alias = f"_slot_{name}"
        namespace[alias] = slot
        get = attrgetter(alias)

        def write(obj, value, _set=slot.__set__, _note=note):
            _set(obj, value)
            _note(obj)

        if name in containers:
            def read(obj, _get=get, _note=note):
                _note(obj)
                return _get(obj)
        else:
            read = get
        namespace[name] = property(read, write)
    return type(f"Observed{base.__name__}", (base,), namespace)


class ResidencyTable(dict):
    """A bounded node's resident (``values=True``) or recency table that
    appends ``(node, key)`` to a log for every key that enters or leaves
    it (and, with ``values``, every value stored), and ``(node, None)``
    for a bulk write."""

    __slots__ = ("_node", "_log", "_values")

    def __init__(self, items: dict, node: int, log: list, values: bool) -> None:
        super().__init__(items)
        self._node = node
        self._log = log
        self._values = values

    def __setitem__(self, key, value) -> None:
        if self._values or key not in self:
            self._log.append((self._node, key))
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        dict.__delitem__(self, key)
        self._log.append((self._node, key))

    def pop(self, key, *default):
        self._log.append((self._node, key))
        return dict.pop(self, key, *default)


def _bulk_write(name: str) -> Callable:
    op = getattr(dict, name)

    def write(self, *args, **kwargs):
        result = op(self, *args, **kwargs)
        self._log.append((self._node, None))
        return result

    return write


for _name in ("clear", "update", "setdefault", "popitem", "__ior__"):
    setattr(ResidencyTable, _name, _bulk_write(_name))


def _rebind_lanes(sched: MultiPrio) -> None:
    for lanes in sched._lanes.values():
        lanes[:] = [
            (mid, arch, sched.heaps[mid].insert, observe)
            for mid, arch, _, observe in lanes
        ]


class Barrier:
    """One checked run's write barrier (module docstring).

    ``task_log`` and ``handle_log`` collect the tasks and handles the
    run touched, ``residency_log`` the ``(node, key)`` writes to the
    transfer engine's residency tables, and ``scheduler_log`` is the
    scheduler's :class:`ChangeLog` (None when its check keeps none).
    """

    def __init__(
        self, program: "Program", transfers: "TransferEngine", scheduler, hooks
    ) -> None:
        self.task_log: list[Task] = []
        self.handle_log: list[DataHandle] = []
        self.residency_log: list[tuple[int, int | None]] = []
        self.scheduler_log: ChangeLog | None = None
        self._program = program
        self._transfers = transfers
        # Observed class -> the plain class it replaced.
        self._plain_of: dict[type, type] = {}
        # Objects given an observed class one by one (scheduler, heaps,
        # control plane), and the containers whose members were.
        self._swapped: list = []
        self._members: list = [program.tasks, program.handles]
        # Run after the plain classes are back.
        self._on_remove: list[Callable[[], None]] = []
        self._observe_program()
        self._observe_transfers()
        if isinstance(scheduler, MultiPrio):
            self._observe_multiprio(scheduler)
        elif isinstance(scheduler, MultiQueue):
            self._observe_multiqueue(scheduler)
        for hook in hooks:
            if isinstance(hook, ControlPlane):
                self._observe_control(hook)

    def remove(self) -> None:
        """Give every observed object its plain class and the transfer
        engine its plain tables back. Safe to call more than once."""
        plain_of = self._plain_of
        for obj in self._swapped:
            obj.__class__ = plain_of[type(obj)]
        for members in self._members:
            for obj in members:
                plain = plain_of.get(type(obj))
                if plain is not None:
                    obj.__class__ = plain
        plain_of.clear()
        self._swapped.clear()
        self._members.clear()
        for undo in self._on_remove:
            undo()
        self._on_remove.clear()
        transfers = self._transfers
        for name, originals in self._tables.items():
            tables = getattr(transfers, name)
            for node, table in tables.items():
                if type(table) is ResidencyTable:
                    plain = originals.get(node, {})
                    plain.clear()
                    plain.update(table)
                    tables[node] = plain

    def _swap(self, obj, namespace: dict) -> None:
        """Give ``obj`` a per-run subclass of its class with ``namespace``."""
        plain = type(obj)
        observed = type(f"Observed{plain.__name__}", (plain,), namespace)
        self._plain_of[observed] = plain
        obj.__class__ = observed
        self._swapped.append(obj)

    # -- program -----------------------------------------------------------

    def _observe_program(self) -> None:
        plain_of = self._plain_of
        observed: dict[type, type] = {}
        for objs, slots, fields, containers, log in (
            (self._program.tasks, Task, TASK_FIELDS, (), self.task_log),
            (self._program.handles, DataHandle, HANDLE_FIELDS,
             HANDLE_CONTAINERS, self.handle_log),
        ):
            notify = dict.fromkeys(fields, log.append)
            for obj in objs:
                cls = type(obj)
                barrier = observed.get(cls)
                if barrier is None:
                    if cls in plain_of:  # listed twice, already swapped
                        continue
                    barrier = observed[cls] = observed_class(
                        cls, slots, notify, containers
                    )
                    plain_of[barrier] = cls
                obj.__class__ = barrier

    # -- transfer engine ---------------------------------------------------

    def _observe_transfers(self) -> None:
        transfers = self._transfers
        log = self.residency_log
        self._tables: dict[str, dict[int, dict]] = {}
        for name, values in (("_resident", True), ("_last_use", False)):
            tables = getattr(transfers, name)
            self._tables[name] = dict(tables)
            for node, table in tables.items():
                tables[node] = ResidencyTable(table, node, log, values)

    # -- schedulers --------------------------------------------------------

    def _observe_multiprio(self, sched: MultiPrio) -> None:
        log = self.scheduler_log = ChangeLog()
        plain = type(sched)

        # A take tombstones the task's entries, which logs the task.
        def on_worker_failed(self, worker):
            log.reset = True
            return plain.on_worker_failed(self, worker)

        self._swap(sched, {"_check_log": log, "on_worker_failed": on_worker_failed})
        for mid, heap in sched.heaps.items():
            for sub in getattr(heap, "_subs", (heap,)):
                self._observe_heap(sub, mid, log)
        # The push lanes hold bound heap inserts: bind them to the
        # heaps' current classes now and after the run.
        _rebind_lanes(sched)
        self._on_remove.append(lambda: _rebind_lanes(sched))

    def _observe_heap(self, heap, key: int, log: ChangeLog) -> None:
        """Log ``key`` when ``heap`` is restructured, and the task of any
        entry inserted, removed or tombstoned."""
        written, touched = log.parts.add, log.items.append
        entry_cls = observed_class(HeapEntry, HeapEntry, {
            "pos": lambda entry: written(key),
            "owner": lambda entry: written(key),
            "dead": lambda entry: touched(entry.task),
        })
        self._plain_of[entry_cls] = HeapEntry
        plain = type(heap)

        def insert(self, task, gain, prio):
            entry = plain.insert(self, task, gain, prio)
            entry.__class__ = entry_cls
            written(key)
            touched(task)
            return entry

        def remove(self, entry):
            plain.remove(self, entry)
            touched(entry.task)

        def clear(self):
            plain.clear(self)
            log.reset = True

        self._swap(heap, {"insert": insert, "remove": remove, "clear": clear})
        for entry in heap._a:
            entry.__class__ = entry_cls
        self._members.append(heap._a)

    def _observe_multiqueue(self, sched: MultiQueue) -> None:
        log = self.scheduler_log = ChangeLog()
        plain = type(sched)
        written, touched = log.parts.add, log.items.append

        def push(self, task):
            groups = self._groups
            sizes = {
                (arch, idx): len(heap)
                for arch, group in groups.items() for idx, heap in enumerate(group)
            }
            plain.push(self, task)
            for arch, group in groups.items():
                for idx, heap in enumerate(group):
                    if len(heap) != sizes[arch, idx]:
                        written((arch, idx))
            touched(task)

        def pop(self, worker):
            task = plain.pop(self, worker)
            if task is not None:
                touched(task)
            return task

        def retract(self, task):
            touched(task)
            return plain.retract(self, task)

        def _purge_top(self, heap, arch, idx):
            written((arch, idx))
            return plain._purge_top(self, heap, arch, idx)

        def on_worker_failed(self, worker):
            log.reset = True
            return plain.on_worker_failed(self, worker)

        self._swap(sched, {
            "_check_log": log, "push": push, "pop": pop, "retract": retract,
            "_purge_top": _purge_top, "on_worker_failed": on_worker_failed,
        })

    # -- control plane -----------------------------------------------------

    def _observe_control(self, plane: ControlPlane) -> None:
        log = ChangeLog()
        self._swap(plane, {"_audit_log": log})
        record_cls = observed_class(
            JobRecord, JobRecord, dict.fromkeys(JobRecord.__slots__, log.items.append)
        )
        self._plain_of[record_cls] = JobRecord
        records = plane._records.values()
        for rec in records:
            rec.__class__ = record_cls
        self._members.append(records)
