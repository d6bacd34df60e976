"""Spans around calls into each layer, recorded from the benchmark's own files.

:class:`Tracer` replaces layer entry points with wrappers that record one
span per call: name, start, end and the span that was open when the
call began. Each entry point is patched where its caller looks it up
(``merge_stream`` in both ``repro.workload.merge`` and
``repro.cluster.sim``), and class methods are patched on the class, since
the engine builds its schedulers, ledgers and control plane inside
``run``. Spans stay in memory until :meth:`Tracer.write`.

A span's *self time* is its duration minus the durations of the spans
directly inside it, so the self times of every span under the facade
call add up to that call's duration. The wrappers' own cost lands in
the self time of the span around them; compare a traced run against an
untraced one to see it. The reference loops that the repeat times during
the call (``bench.run.ReferenceClock``) also land in the spans, in
proportion to their time; the scale factors passed to
:meth:`Tracer.layer_metrics` take them out.

Import this module only after :func:`bench.use_repro`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import numpy as np

BUILD = "workload.build"
FACADE = "api.facade"
ENGINE = "runtime.engine"
ISOLATED = "api.isolated"

#: Layer entry points: ("module" or "module:Class", attribute, span name).
_ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.workload.merge", "merge_stream", "workload.merge"),
    ("repro.cluster.sim", "merge_stream", "workload.merge"),
    ("repro.cluster.sim", "_node_cell", "cluster.node_runs"),
    ("repro.cluster.sim", "_baseline_cell", ISOLATED),
    ("repro.cluster.sim", "job_work_us", "cluster.work_estimate"),
    ("repro.cluster.placement:GlobalScheduler", "place", "cluster.place"),
    ("repro.runtime.perfmodel:AnalyticalPerfModel", "estimate",
     "runtime.perfmodel.estimate"),
    ("repro.runtime.memory:TransferEngine", "fetch", "runtime.memory.fetch"),
    ("repro.runtime.memory:TransferEngine", "estimate_fetch",
     "runtime.memory.estimate_fetch"),
    ("repro.runtime.memory:TransferEngine", "invalidate_others",
     "runtime.memory.invalidate"),
    ("repro.runtime.overhead:OverheadLedger", "push", "runtime.overhead"),
    ("repro.runtime.overhead:OverheadLedger", "pop", "runtime.overhead"),
    ("repro.runtime.overhead:OverheadLedger", "flush", "runtime.overhead"),
    ("repro.runtime.power:PowerLedger", "admit", "runtime.power"),
    ("repro.runtime.power:PowerLedger", "book", "runtime.power"),
    ("repro.runtime.power:PowerLedger", "charge", "runtime.power"),
    ("repro.runtime.power:PowerLedger", "finalize", "runtime.power"),
    ("repro.control.plane:ControlPlane", "decide", "control.decide"),
    ("repro.control.plane:ControlPlane", "on_task_done", "control.task_done"),
    ("repro.check.invariants:InvariantChecker", "validate", "check.validate"),
    ("repro.obs.bus:Observability", "emit", "obs.emit"),
)

#: Scheduler methods wrapped on the workload's concrete scheduler class.
_SCHEDULER_METHODS = ("setup", "push", "push_batch", "pop", "force_pop", "retract")

#: Spans reported with a call count and a self time.
_CALLS_AND_SELF = (
    "workload.merge",
    *(f"schedulers.{m}" for m in _SCHEDULER_METHODS),
    "runtime.perfmodel.estimate",
    "runtime.memory.fetch",
    "runtime.memory.estimate_fetch",
    "runtime.memory.invalidate",
    "control.decide",
    "check.validate",
    "obs.emit",
    "cluster.place",
    "cluster.work_estimate",
    "cluster.node_runs",
)

#: Spans reported with a self time only.
_SELF_ONLY = (BUILD, ISOLATED, "runtime.overhead", "runtime.power", "control.task_done")


def _resolve(path: str) -> Any:
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans in four parallel arrays and derives per-layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        #: Counts recorded by wrappers beside their spans.
        self.counts: Counter[str] = Counter()
        #: (program, SimResult) of every engine run that is not a baseline.
        self.main_runs: list[tuple[Any, Any]] = []
        #: (program name, task count) of every isolated-baseline engine run.
        self.baseline_programs: list[tuple[str, int]] = []
        self._facade_ran_main = False
        self._gc_started = 0
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """One span around a block of the benchmark's own code."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.current)
        self.end.append(0)
        self.current = idx
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.current = self.parent[idx]

    @contextmanager
    def facade(self):
        """The root span of the timed facade call, with GC pauses counted."""
        self._facade_ran_main = False
        gc.callbacks.append(self._on_gc)
        try:
            with self.span(FACADE):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
            self.counts["host.gc.collections"] += 1
        else:
            self.counts["host.gc.ns"] += time.perf_counter_ns() - self._gc_started

    def _wrap(
        self, fn: Callable, name: str, after: Callable[[Any], None] | None = None
    ) -> Callable:
        """``fn`` recording one ``name`` span per call; ``after(result)``
        runs outside the span."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]
            if after is not None:
                after(result)
            return result

        return traced

    # -- baselines versus main runs -----------------------------------------

    def _parent(self) -> str | None:
        """Name of the open span, if any."""
        return self.names[self.name[self.current]] if self.current >= 0 else None

    def _in_baseline(self) -> bool:
        """Whether work starting now re-simulates a job alone.

        ``SimSpec.run_stream`` makes its main engine run first and then
        one run per job; ``_baseline_cell`` spans hold the cluster's.
        """
        parent = self._parent()
        return parent == ISOLATED or (parent == FACADE and self._facade_ran_main)

    def _wrap_engine_run(self, run: Callable) -> Callable:
        spanned = {True: self._wrap(run, ISOLATED), False: self._wrap(run, ENGINE)}

        @functools.wraps(run)
        def traced(sim, program):
            baseline = self._in_baseline()
            if self._parent() == FACADE:
                self._facade_ran_main = True
            result = spanned[baseline](sim, program)
            if baseline:
                self.baseline_programs.append((program.name, len(program.tasks)))
            else:
                self.main_runs.append((program, result))
            return result

        return traced

    def _wrap_build_simulator(self, build: Callable) -> Callable:
        spanned = self._wrap(build, ISOLATED)

        @functools.wraps(build)
        def traced(*args, **kwargs):
            if self._in_baseline():
                return spanned(*args, **kwargs)
            return build(*args, **kwargs)

        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self, scheduler: str) -> None:
        """Wrap every layer entry point, and the methods of the class that
        the registry builds for ``scheduler``."""
        from repro.runtime.engine import Simulator
        from repro.schedulers.registry import make_scheduler

        counts = self.counts

        def merged(program) -> None:
            counts["workload.merge.tasks"] += len(program.tasks)

        # Of the entry points, only _baseline_cell records ISOLATED spans.
        def baseline_cell(_) -> None:
            counts["cluster.baseline_runs"] += 1

        def popped(task) -> None:
            if task is not None:
                counts["schedulers.pop.hits"] += 1

        after = {"workload.merge": merged, ISOLATED: baseline_cell, "schedulers.pop": popped}
        # Each lambda runs inside _patch, before the loop moves on.
        for path, attr, name in _ENTRY_POINTS:
            self._patch(_resolve(path), attr, lambda fn: self._wrap(fn, name, after.get(name)))
        cls = type(make_scheduler(scheduler))
        for method in _SCHEDULER_METHODS:
            name = f"schedulers.{method}"
            self._patch(cls, method, lambda fn: self._wrap(fn, name, after.get(name)))
        self._patch(Simulator, "run", self._wrap_engine_run)
        self._patch(_resolve("repro.api"), "_build_simulator", self._wrap_build_simulator)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- results ------------------------------------------------------------

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return name, parent, start, end

    def layer_metrics(
        self, n_tasks: int, result: Any, setup_scale: float, call_scale: float,
        gc_scale: float,
    ) -> dict[str, float]:
        """Per-layer metrics of the traced facade call that returned ``result``.
        Span times are multiplied by ``setup_scale`` (the build) or
        ``call_scale`` (the rest), GC pauses by ``gc_scale``, to give
        seconds at the reference core speed."""
        name, parent, start, end = self._columns()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=dur - child, minlength=n_names) * (call_scale / 1e9)
        total_s = np.bincount(name, weights=dur, minlength=n_names) * (call_scale / 1e9)

        def of(array: np.ndarray, span: str) -> float:
            nid = self._ids.get(span)
            return float(array[nid]) if nid is not None else 0.0

        counts = self.counts
        out: dict[str, float] = {}
        for span in _CALLS_AND_SELF:
            out[f"{span}.calls"] = of(calls, span)
            out[f"{span}.s"] = of(self_s, span)
        for span in _SELF_ONLY:
            out[f"{span}.s"] = of(self_s, span)
        out[f"{BUILD}.s"] *= setup_scale / call_scale
        out["api.assemble.s"] = of(self_s, FACADE)
        out["trace.facade_s"] = of(total_s, FACADE)
        out["runtime.engine.runs"] = of(calls, ENGINE)
        out["runtime.engine.main_s"] = of(total_s, ENGINE)
        out["runtime.engine.self_s"] = of(self_s, ENGINE)

        n_baselines = len(self.baseline_programs)
        distinct = len(set(self.baseline_programs))
        out["api.isolated.runs"] = float(n_baselines)
        out["api.isolated.distinct_programs"] = float(distinct)
        out["api.isolated.useful_ratio"] = distinct / n_baselines if n_baselines else 0.0
        out["workload.merge.tasks"] = float(counts["workload.merge.tasks"])

        pops = out["schedulers.pop.calls"]
        out["schedulers.pop.hit_ratio"] = counts["schedulers.pop.hits"] / pops if pops else 0.0
        out["runtime.perfmodel.estimate.per_task"] = (
            out["runtime.perfmodel.estimate.calls"] / n_tasks
        )
        out["obs.events_per_task"] = out["obs.emit.calls"] / n_tasks

        # Simulated quantities, summed over the main engine runs.
        rt = Counter()
        bytes_moved = 0
        stall_us = 0.0
        for program, res in self.main_runs:
            bytes_moved += res.bytes_transferred
            rt.update(res.rt_stats or {})
            for task in program.tasks:
                record = task.sched.get("_record")
                if record is not None:  # (worker, pop time, start, end)
                    stall_us += record[2] - record[1]
        out["runtime.memory.bytes_moved"] = float(bytes_moved)
        out["runtime.memory.stall_us"] = stall_us
        out["runtime.overhead.charged_us"] = float(rt["overhead_charged_us"])
        out["runtime.power.admissions"] = float(rt["power_n_admissions"])
        out["runtime.power.throttled"] = float(rt["power_n_throttled"])

        control = getattr(result, "control", None)
        out["control.delays"] = float(control.n_delays if control else 0)
        out["control.shed"] = float(control.n_rejected if control else 0)
        out["control.evicted"] = float(control.n_evicted if control else 0)

        out["cluster.baseline_runs"] = float(counts["cluster.baseline_runs"])
        out["cluster.rounds"] = float(getattr(result, "rounds", 0))
        out["cluster.inter_node_bytes"] = float(
            getattr(result, "total_inter_node_bytes", 0)
        )
        out["host.gc.collections"] = float(counts["host.gc.collections"])
        out["host.gc.s"] = counts["host.gc.ns"] * (gc_scale / 1e9)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as columns: name, parent index, start and end (ns)."""
        name, parent, start, end = self._columns()
        t0 = int(start.min()) if len(start) else 0
        doc = {
            "names": self.names,
            "name": name.tolist(),
            "parent": parent.tolist(),
            "start_ns": (start - t0).tolist(),
            "end_ns": (end - t0).tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
