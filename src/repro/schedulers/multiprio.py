"""The MultiPrio scheduler (the paper's contribution).

Data structure: one binary max-heap per memory node; every ready task is
inserted into the heap of each node whose processing units can execute
it, scored by (gain, criticality) — Alg. 1. An idle worker selects the
most *local* task among the top-priority window of its node's heap, then
passes the **pop condition**: the best-architecture workers always take
their tasks; a slower worker is admitted only when the best workers have
enough work queued (``best_remaining_work``) to cover the slower
execution — otherwise the task is **evicted** from the slower node's
heap — Alg. 2, Section V-D.

Hyper-parameters: locality window ``n = 10`` (the paper's value) and the
score threshold ``ε``. The paper reports ``ε = 0.8``; on our
[0, 1]-normalized scores (whose spread is compressed by the running
``hd`` maximum) that admits nearly the whole window, and the data-hosted
metric then systematically routes the *largest* tasks to the slow
workers. The default here is ``ε = 0`` — locality breaks score *ties*
(which are plentiful: all same-type, same-size tasks score equally) —
and the ε sensitivity is covered by the ablation bench.

Ablation knobs used by the benchmark suite:

* ``eviction=False`` — disable the pop condition entirely (Fig. 4 top);
* ``use_locality=False`` — always take the heap root;
* ``use_criticality=False`` — drop the NOD secondary key;
* ``drain_aware=True`` (default) — the pop condition compares the best
  workers' remaining work *divided by their worker count* (a drain-time
  reading of "the best worker is sufficiently busy") against the
  candidate's δ; ``False`` compares the raw sum, a literal reading of
  Alg. 2's pseudocode. The drain-time variant dominates empirically and
  matches the paper's reported behaviour (slow workers only help when
  the fast ones are genuinely backlogged); the raw variant is kept as an
  ablation (`multiprio-rawbrw`).

Negative-pop memo. Most POP calls come back empty: an idle slow worker
scans its window and the pop condition rejects every candidate. In the
default skip-on-reject mode an empty pop is a pure function of the node
heap's window, ``best_remaining_work`` with the live worker counts, and
the push-time δ values. So a miss is cached per ``(memory node, arch)``
with the number of skips it made, and a repeat at the same state returns
``None`` and replays the ``skips``/``pop_rejections`` counters without
scanning. Every change to those inputs clears the whole memo: ``push``,
``push_batch``, ``_take`` (hits, ``force_pop`` and ``retract``),
``on_worker_failed`` and a stale discard (``_on_discard``), which
restructures a heap even when no take follows. The memo is bypassed when

* ``relaxed > 0`` — each relaxed window query draws from the heap's RNG,
  so skipping one would shift the draw sequence;
* ``evict_on_reject`` — the evicting pop is a separate path that
  mutates the heap on every rejection;
* decision provenance is on (``record_level="decisions"``) — each
  ``skip`` record carries its own time, so it is emitted live;
* the perf model does not promise stable estimates — history models
  drift at task completion, without a scheduler call to invalidate on.

The memo changes no schedule, counter or event: it only skips work
whose answer is already known.

Admitted-pop fast path. A pop that takes a task walks its window in
decreasing key order, but an exact heap's window starts at the root,
which holds the largest key: the root is tried first and the rest is
sorted only if it is rejected (a relaxed window, a concatenation of
sub-heaps, is sorted up front). A worker of the task's cached best arch
is admitted without calling ``_admission``, whose best-arch branch every
override keeps verbatim. LS_SDH² sums over each task's pre-split access
lists; the sum is exact, and so independent of its order, while it stays
below 2**53, and :func:`~repro.core.locality.ls_sdh2` falls back to the
access-order loop above that bound.

Push-time class memo. With stable estimates δ(t, a) depends only on the
*kernel class* ``(type_name, flops, implementations)``, so PUSH scores a
class once — δ per arch, best arch, Eq. 1 gains — and reuses it. The node
lanes (heap inserts, NOD trackers) are shared per ``implementations``, so
a class that is pushed only once (flops vary per FMM leaf or QR front)
costs just its δ and gains dicts. Skipping ``observe_and_score`` on a repeat is exact (δ values
already observed cannot raise ``hd``); when any ``hd`` rises
(``GainTracker.version``), cached gains are re-scored before use. A fault
retry keeps its cached best arch; NOD, the deadline boost and the inserts
stay per task. History models bypass the class memo (not the lanes);
``setup`` and ``on_worker_failed`` (heaps, available archs) clear both.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter

from repro.core.criticality import NODTracker, nod
from repro.core.gain import GainTracker
from repro.core.heap import HeapEntry, RelaxedTaskHeap, TaskHeap
from repro.core.locality import ls_sdh2
from repro.runtime.task import Task, TaskState
from repro.runtime.worker import Worker
from repro.schedulers.base import Scheduler
from repro.utils.incremental import ChangeLog, ExactSum
from repro.utils.validation import ValidationError, check_in_range, check_positive

#: Sort key of a heap entry, without the ``HeapEntry.key`` call frame.
_SORT_KEY = attrgetter("sort_key")


class _KernelClass:
    """One kernel class's push-time scoring; ``version`` is the
    ``GainTracker.version`` its ``gains`` were scored at, ``lanes`` the
    list shared by its ``implementations``."""

    __slots__ = ("deltas", "best_arch", "gains", "version", "lanes")


class MultiPrio(Scheduler):
    """Dynamic multi-priority scheduler for heterogeneous nodes."""

    name = "multiprio"

    def __init__(
        self,
        *,
        locality_n: int = 10,
        locality_eps: float = 0.0,
        max_tries: int = 10,
        eviction: bool = True,
        use_locality: bool = True,
        use_criticality: bool = True,
        arch_filtered_nod: bool = False,
        drain_aware: bool = True,
        brw_safety: float = 1.0,
        slowdown_cap: float | None = 60.0,
        evict_on_reject: bool = False,
        relaxed: int = 0,
        deadline_boost: float | None = None,
    ) -> None:
        super().__init__()
        self.locality_n = int(check_positive("locality_n", locality_n))
        self.locality_eps = check_in_range("locality_eps", locality_eps, 0.0, 1.0)
        self.max_tries = int(check_positive("max_tries", max_tries))
        self.eviction = eviction
        self.use_locality = use_locality
        self.use_criticality = use_criticality
        self.arch_filtered_nod = arch_filtered_nod
        self.drain_aware = drain_aware
        # Safety factor on the pop condition: a slow worker is admitted
        # only when the best workers' drain time exceeds `brw_safety x`
        # its own execution time. >1 biases borderline decisions toward
        # the fast units (the remaining-work refinement of Section VII).
        self.brw_safety = check_positive("brw_safety", brw_safety)
        # Comparative-advantage guard: a non-best worker never takes a
        # task on which it is more than `slowdown_cap` times slower than
        # the best architecture, however large the backlog. Encodes the
        # Section VII observation that letting a CPU run a kernel "20x
        # slower" can wreck the makespan. None disables the guard.
        if slowdown_cap is not None:
            check_positive("slowdown_cap", slowdown_cap)
        self.slowdown_cap = slowdown_cap
        # Rejection handling: True removes the task from the requesting
        # node's heap (the literal Alg. 2 eviction — the task can never
        # run on this node again); False skips it, leaving it available
        # for when the best workers' backlog grows. Skipping preserves
        # the eviction mechanism's end-of-run benefit (Fig. 4) without
        # bleeding the slow-architecture heaps dry in steady state.
        self.evict_on_reject = evict_on_reject
        # Relaxed node heaps: `relaxed=k` (k >= 2) swaps every per-node
        # TaskHeap for a RelaxedTaskHeap of k sloppy sub-heaps with
        # two-choice operations (Postnikova et al.). The locality window
        # then samples a pair of sub-heaps instead of the exact top-n,
        # trading bounded rank error for O(log(n/k)) operations. 0 (the
        # default) keeps the paper's exact heaps.
        relaxed = int(relaxed)
        if relaxed < 0 or relaxed == 1:
            raise ValidationError(
                f"relaxed must be 0 (exact) or >= 2 sub-heaps, got {relaxed}"
            )
        self.relaxed = relaxed
        # Deadline awareness: a ready task whose slack (deadline - now,
        # measured at push time) falls below `deadline_boost` µs is
        # promoted above every regular task — its gain score is replaced
        # by 2 + urgency (urgency in [0, 1], higher the tighter the
        # slack), strictly dominating the [0, 1] range of normal scores
        # while keeping criticality as the secondary key. Tasks without
        # a deadline (inf) are never boosted; None disables the knob.
        if deadline_boost is not None:
            check_positive("deadline_boost", deadline_boost)
        self.deadline_boost = deadline_boost

        self.heaps: dict[int, TaskHeap] = {}
        self.best_remaining_work: dict[int, float] = {}
        self.ready_tasks_count: dict[int, int] = {}
        self._gain = GainTracker()
        self._nod: dict[str, NODTracker] = {}
        self._n_evictions = 0
        self._n_skips = 0
        self._n_rejections = 0
        self._n_stale_discards = 0
        self._n_task_failures = 0
        self._n_retractions = 0
        # Drain-adjusted best-remaining-work per best arch, memoized
        # between BRW mutations (cleared in push/_take/on_worker_failed).
        self._brw_memo: dict[str, float] = {}
        # Whether push-time δ values may be reused at pop time (set from
        # the perf model's `stable_estimates` promise in setup()).
        self._stable_deltas = False
        # Negative-pop memo: (memory node, arch) -> skips of the cached
        # miss; cleared on every input change (see the module docstring).
        self._miss_memo: dict[tuple[int, str], int] = {}
        # Whether pop() may use the memo this run (set in setup()).
        self._memo_misses = False
        # Push-time class memo (see the module docstring), and the node
        # lanes shared by every class with the same implementations.
        self._class_memo: dict[tuple, _KernelClass] = {}
        self._lanes: dict[frozenset[str], list[tuple]] = {}

    # -- lifecycle -------------------------------------------------------

    def setup(self, ctx) -> None:
        """Reset all per-run state and build one heap per memory node."""
        super().setup(ctx)
        self.heaps = {}
        self.best_remaining_work = {}
        self.ready_tasks_count = {}
        self._gain.reset()
        self._nod = {arch: NODTracker() for arch in ctx.available_archs}
        self._n_evictions = 0
        self._n_skips = 0
        self._n_rejections = 0
        self._n_stale_discards = 0
        self._n_task_failures = 0
        self._n_retractions = 0
        self._brw_memo = {}
        self._stable_deltas = bool(getattr(ctx.perfmodel, "stable_estimates", False))
        self._miss_memo = {}
        self._class_memo = {}
        self._lanes = {}
        self._memo_misses = (
            self._stable_deltas and not self.relaxed and not self.evict_on_reject
        )
        for node in ctx.platform.nodes:
            if ctx.platform.workers_of_node(node.mid):
                # Staleness is tracked with entry tombstones (marked in
                # `_take`), so the heaps need no task-level predicate.
                # The discard callback carries the node id so counters
                # stay exact even when the task's scratch (and with it
                # the entry map) was wiped by a fault rollback.
                if self.relaxed:
                    self.heaps[node.mid] = RelaxedTaskHeap(
                        self.relaxed,
                        node=node.mid,
                        on_discard=partial(self._on_discard, node.mid),
                    )
                else:
                    self.heaps[node.mid] = TaskHeap(
                        node=node.mid,
                        on_discard=partial(self._on_discard, node.mid),
                    )
                self.best_remaining_work[node.mid] = 0.0
                self.ready_tasks_count[node.mid] = 0

    @staticmethod
    def _is_stale(task: Task) -> bool:
        """Duplicate entries of a task already taken elsewhere are stale."""
        return task.state is not TaskState.READY or task.sched.get("mp_taken", False)

    def _on_discard(self, node: int, entry: HeapEntry) -> None:
        """A stale duplicate was dropped: fix counters and the entry map."""
        self._miss_memo.clear()  # the heap was restructured
        if node in self.ready_tasks_count:
            self.ready_tasks_count[node] -= 1
            if self.obs is not None:
                self.record_queue_depth(
                    f"heap_depth.node{node}", self.ready_tasks_count[node]
                )
        entry_map = entry.task.sched.get("mp_entries")
        if entry_map is not None and entry_map.get(node) is entry:
            del entry_map[node]
        self._n_stale_discards += 1

    # -- PUSH (Alg. 1) ------------------------------------------------------

    def push(self, task: Task) -> None:
        """Alg. 1: score the ready task and insert it into every heap
        whose processing units can execute it."""
        entries = self._insert(task)
        self._brw_memo.clear()
        self._miss_memo.clear()
        if self.obs is not None:
            for mid in entries:
                self.record_queue_depth(
                    f"heap_depth.node{mid}", self.ready_tasks_count[mid]
                )

    def _boost_gain(self, task: Task) -> float | None:
        """The promoted gain of a slack-critical task (None = no boost).

        Slack is measured once, at push time — consistent with the
        paper's push-time scoring: a task's priority is fixed when it
        becomes ready, not re-evaluated while it queues.
        """
        boost = self.deadline_boost
        if boost is None:
            return None
        slack = task.deadline_us - self.ctx.now
        if slack > boost:
            return None
        urgency = 1.0 - slack / boost
        if urgency > 1.0:  # already past the deadline: maximally urgent
            urgency = 1.0
        return 2.0 + urgency

    def push_batch(self, tasks: list[Task]) -> None:
        """Bulk Alg. 1 for the batch-mode engine.

        Bit-identical to ``len(tasks)`` sequential :meth:`push` calls:
        the score trackers observe every task in buffer order and each
        node heap receives its entries in exactly the sequential
        insertion order. A per-heap heapify would be asymptotically
        nicer but changes the physical slot layout, and
        ``top_candidates`` exposes the first-n slots — the candidate
        windows (and with them the schedule) would differ. The savings
        are amortization instead: the BRW and miss memos are cleared once
        instead of per task, and queue-depth gauges are sampled once per
        touched node instead of once per (task, node).
        """
        touched: set[int] = set()
        for task in tasks:
            touched.update(self._insert(task))
        self._brw_memo.clear()
        self._miss_memo.clear()
        if self.obs is not None:
            for mid in sorted(touched):
                self.record_queue_depth(
                    f"heap_depth.node{mid}", self.ready_tasks_count[mid]
                )

    def _insert(self, task: Task) -> dict[int, HeapEntry]:
        """Alg. 1 for one task, without the memo clears and gauges of
        :meth:`push`; returns the new entries by memory node."""
        kc = self._kernel_class(task)
        sched = task.sched
        # A fault retry keeps the best arch cached at its first push.
        best_arch = sched.setdefault("_best_arch", kc.best_arch)
        best_delta = kc.deltas[best_arch]
        boost_gain = self._boost_gain(task)
        arch_filtered = self.arch_filtered_nod
        # The raw NOD is arch-independent unless filtering is on; the
        # per-arch trackers below still observe it in node order.
        raw_nod = nod(task) if self.use_criticality and not arch_filtered else 0.0
        brw_nodes: list[int] = []
        entries: dict[int, HeapEntry] = {}
        for mid, arch, insert, observe_nod in kc.lanes:
            gain = kc.gains[arch] if boost_gain is None else boost_gain
            if observe_nod is None:
                prio = 0.0
            elif arch_filtered:
                prio = observe_nod(nod(task, lambda t, _a=arch: t.can_exec(_a)))
            else:
                prio = observe_nod(raw_nod)
            entries[mid] = insert(task, gain, prio)
            self.ready_tasks_count[mid] += 1
            if arch == best_arch:
                self.best_remaining_work[mid] += best_delta
                brw_nodes.append(mid)
        sched["mp_entries"] = entries
        sched["mp_brw_nodes"] = brw_nodes
        sched["mp_best_delta"] = best_delta
        sched["mp_deltas"] = kc.deltas
        return entries

    def _kernel_class(self, task: Task) -> _KernelClass:
        """The arch-dependent half of Alg. 1 for ``task``'s kernel class
        (memoized under a stable perf model; module docstring)."""
        gain = self._gain
        key = (task.type_name, task.flops, task.implementations)
        kc = self._class_memo.get(key) if self._stable_deltas else None
        if kc is not None:
            if kc.version != gain.version:
                kc.gains = gain.score(kc.deltas)
                kc.version = gain.version
            return kc
        ctx = self.ctx
        archs = ctx.exec_archs(task)
        kc = _KernelClass()
        kc.deltas = deltas = {a: ctx.estimate(task, a) for a in archs}
        kc.gains = gain.observe_and_score(deltas)  # raises without an arch
        kc.version = gain.version
        kc.best_arch = min(archs, key=deltas.__getitem__)
        impls = task.implementations
        kc.lanes = self._lanes.get(impls)
        if kc.lanes is None:  # (mid, arch, bound heap insert, bound NOD observe)
            crit = self.use_criticality
            kc.lanes = self._lanes[impls] = [
                (n.mid, n.arch, self.heaps[n.mid].insert,
                 self._nod[n.arch].observe_and_score if crit else None)
                for n in ctx.platform.nodes
                if n.mid in self.heaps and n.arch in impls
            ]
        if self._stable_deltas:
            self._class_memo[key] = kc
        return kc

    # -- POP (Alg. 2) ----------------------------------------------------------

    def pop(self, worker: Worker) -> Task | None:
        """Alg. 2: locality-refined selection gated by the pop condition.

        A miss is remembered per ``(memory node, arch)`` until the next
        change to the heaps, ``best_remaining_work`` or the worker counts;
        asking again before then returns ``None`` at once and replays the
        miss's ``skips``/``pop_rejections`` counts. The memo is bypassed
        for relaxed heaps, ``evict_on_reject``, decisions-level recording
        and unstable perf models (module docstring).
        """
        mid = worker.memory_node
        heap = self.heaps.get(mid)
        if heap is None:
            return None
        if self.evict_on_reject:
            return self._pop_evicting(heap, worker)
        dec = self.decisions_enabled
        key = None
        if self._memo_misses and not dec:
            key = (mid, worker.arch)
            known = self._miss_memo.get(key)
            if known is not None:
                if known:
                    self._n_skips += known
                    self._n_rejections += 1
                return None
        # Skip-on-reject (the default): rejections leave the heap
        # untouched and staleness cannot change mid-pop, so one candidate
        # window per pop suffices. Walking it in decreasing key order
        # replays exactly the rejection sequence the per-try re-scanning
        # loop would produce, at a fraction of the cost.
        window = heap.top_candidates(max(self.locality_n, self.max_tries + 1))
        if not window:
            if key is not None:
                self._miss_memo[key] = 0
            return None
        # An exact heap's root leads the window and holds its largest
        # key, so it is tried before the window is sorted; a relaxed
        # window concatenates sub-heaps, so it is sorted up front.
        walk = sorted(window, key=_SORT_KEY, reverse=True) if self.relaxed else window[:1]
        arch = worker.arch
        tries = 0
        rejected: tuple[HeapEntry, ...] = ()
        for top in walk:  # grows once, below, when an exact root is rejected
            if tries >= self.max_tries:
                break
            # Cheap first pass: the admission test; the (costlier)
            # locality refinement only runs for a candidate that will
            # actually be taken. A best-arch worker is always admitted,
            # so that verdict skips the call (every _admission keeps it).
            if top.task.sched.get("_best_arch") == arch:
                admitted, brw = True, None
            else:
                admitted, brw, delta = self._admission(top.task, worker)
            if not admitted:
                # Skip: leave the entry for when the best workers'
                # backlog grows; try the next prioritized candidate.
                if len(walk) < len(window):
                    walk.extend(sorted(window[1:], key=_SORT_KEY, reverse=True))
                rejected += (top,)
                self._n_skips += 1
                tries += 1
                if dec:
                    self.record_decision(
                        "skip",
                        task=top.task,
                        worker=worker,
                        gain=top.gain,
                        nod=top.prio,
                        pop_condition=False,
                        brw=brw,
                        delta=delta,
                    )
                continue
            live = [e for e in window if e not in rejected] if rejected else window
            entry = self._locality_refine(top, live, worker)
            # Candidate provenance must be derived before _take mutates
            # best_remaining_work (the admission tests would differ).
            cands = self._considered_candidates(top, live, worker) if dec else ()
            self._remove_entry(heap, entry, worker.memory_node)
            self._take(entry.task)
            if dec:
                self._record_pop(entry, worker, brw, cands)
            return entry.task
        if tries:
            self._n_rejections += 1
        if key is not None:
            # Stored after the scan: any stale discard it triggered has
            # already cleared the memo, so the entry matches this state.
            self._miss_memo[key] = tries
        return None

    def _pop_evicting(self, heap: TaskHeap, worker: Worker) -> Task | None:
        """The ``evict_on_reject=True`` variant of :meth:`pop`.

        Every rejection physically removes the candidate from this
        node's heap (the literal Alg. 2 eviction; duplicates elsewhere
        keep the task alive), so the candidate window must be rebuilt
        after each mutation.
        """
        dec = self.decisions_enabled
        tries = 0
        while tries < self.max_tries:
            window = heap.top_candidates(max(self.locality_n, self.max_tries + 1))
            if not window:
                break
            top = max(window, key=HeapEntry.key)
            admitted, brw, delta = self._admission(top.task, worker)
            if not admitted:
                self._remove_entry(heap, top, worker.memory_node)
                self._n_evictions += 1
                tries += 1
                if dec:
                    self.record_decision(
                        "evict",
                        task=top.task,
                        worker=worker,
                        gain=top.gain,
                        nod=top.prio,
                        pop_condition=False,
                        brw=brw,
                        delta=delta,
                    )
                continue
            entry = self._locality_refine(top, window, worker)
            cands = self._considered_candidates(top, window, worker) if dec else ()
            self._remove_entry(heap, entry, worker.memory_node)
            self._take(entry.task)
            if dec:
                self._record_pop(entry, worker, brw, cands)
            return entry.task
        if tries:
            self._n_rejections += 1
        return None

    def _considered_candidates(
        self, top: HeapEntry, live: list[HeapEntry], worker: Worker
    ) -> tuple[int, ...]:
        """The candidate set :meth:`_locality_refine` actually weighed.

        ``top`` is always a candidate; every other entry must sit in the
        top-``n`` window, score within ε of ``top``, *and* pass the pop
        condition — entries rejected by the admission test were never
        considered and must not appear in the provenance record. Called
        before :meth:`_take` so the admission tests see the same
        ``best_remaining_work`` the refinement saw.
        """
        if not self.use_locality or len(live) == 1:
            return (top.task.tid,)
        threshold = top.gain - self.locality_eps
        cands = [top.task.tid]
        for e in live[: self.locality_n]:
            if e is top or e.gain < threshold:
                continue
            if not self._pop_condition(e.task, worker):
                continue
            cands.append(e.task.tid)
        return tuple(cands)

    def _record_pop(
        self,
        entry: HeapEntry,
        worker: Worker,
        brw: float | None,
        cands: tuple[int, ...],
    ) -> None:
        """Publish the decision-provenance record of a successful pop."""
        self.record_decision(
            "pop",
            task=entry.task,
            worker=worker,
            gain=entry.gain,
            nod=entry.prio,
            ls_sdh2=ls_sdh2(entry.task, worker.memory_node),
            pop_condition=True,
            brw=brw,
            delta=self.ctx.estimate(entry.task, worker.arch),
            candidates=cands,
        )

    def force_pop(self, worker: Worker) -> Task | None:
        """Liveness escape hatch: take the best live entry executable by
        ``worker`` from any heap, ignoring the pop condition. O(n) scan —
        the engine only calls this when the whole machine would stall."""
        for mid, heap in sorted(self.heaps.items()):
            live = [
                e
                for e in heap.top_candidates(len(heap))
                if e.task.can_exec(worker.arch)
            ]
            if live:
                entry = max(live, key=lambda e: e.key())
                self._remove_entry(heap, entry, mid)
                self._take(entry.task)
                self.record_decision(
                    "force-pop",
                    task=entry.task,
                    worker=worker,
                    gain=entry.gain,
                    nod=entry.prio,
                    pop_condition=True,
                    reason=f"stall rescue from node {mid}",
                )
                return entry.task
        return None

    # -- fault hooks -------------------------------------------------------------

    def on_task_failed(self, task: Task, worker: Worker) -> None:
        """Count the transient failure; the engine re-pushes the task
        (its duplicates were already invalidated when it was taken)."""
        self._n_task_failures += 1

    def retract(self, task: Task) -> bool:
        """Withdraw a READY task for a control-plane eviction.

        Reuses the exact take path: the task's heap entries are
        tombstoned (``HeapEntry.dead``) and its best-remaining-work
        contribution is released, so every counter the self-check audits
        stays consistent — a retraction is indistinguishable from a pop
        that never executes.
        """
        if task.state is not TaskState.READY or task.sched.get("mp_taken", False):
            return False
        self._take(task)
        self._n_retractions += 1
        return True

    def on_worker_failed(self, worker: Worker) -> list[Task]:
        """Drop the dead worker's node heap once its last worker dies.

        Entries of the dropped heap usually survive as duplicates in
        other nodes' heaps; tasks whose *only* live entry was on the dead
        node are returned for the engine to re-push.
        """
        self._brw_memo.clear()  # worker counts (drain divisor) changed
        self._miss_memo.clear()
        self._class_memo.clear()  # available archs and heaps may change
        self._lanes.clear()
        mid = worker.memory_node
        if self.ctx.workers_of_node(mid):
            return []  # surviving streams keep serving this heap
        heap = self.heaps.pop(mid, None)
        if heap is None:
            return []
        orphans: list[Task] = []
        for entry in list(heap):
            task = entry.task
            entry_map = task.sched.get("mp_entries", {})
            entry_map.pop(mid, None)
            if not self._is_stale(task) and not entry_map:
                orphans.append(task)
        heap.clear()
        self.ready_tasks_count.pop(mid, None)
        self.best_remaining_work.pop(mid, None)
        return orphans

    # -- internals ---------------------------------------------------------------

    def _remove_entry(self, heap: TaskHeap, entry: HeapEntry, mid: int) -> None:
        heap.remove(entry)
        self.ready_tasks_count[mid] -= 1
        entry.task.sched.get("mp_entries", {}).pop(mid, None)
        if self.obs is not None:
            self.record_queue_depth(
                f"heap_depth.node{mid}", self.ready_tasks_count[mid]
            )

    def _take(self, task: Task) -> None:
        """Commit a task to execution: tombstone its duplicates and
        release its contribution to every best-architecture work counter.

        The tombstones are entry-level (``HeapEntry.dead``), so they
        survive a fault rollback: a task re-pushed after a transient
        failure gets fresh entries while its pre-failure duplicates stay
        dead instead of resurrecting.
        """
        task.sched["mp_taken"] = True
        for dup in task.sched.get("mp_entries", {}).values():
            dup.dead = True
        delta = task.sched.get("mp_best_delta", 0.0)
        for mid in task.sched.get("mp_brw_nodes", ()):  # eager, exact BRW
            if mid not in self.best_remaining_work:
                continue  # node lost to a worker failure
            self.best_remaining_work[mid] -= delta
            if self.best_remaining_work[mid] < 1e-9:
                self.best_remaining_work[mid] = 0.0
        task.sched["mp_brw_nodes"] = ()
        self._brw_memo.clear()
        self._miss_memo.clear()

    def _locality_refine(
        self, top: HeapEntry, live: list[HeapEntry], worker: Worker
    ) -> HeapEntry:
        """The locality-aware selection of Section V-C.

        Take the most prioritized admissible task unless another task in
        the window — within ε of its score, restricted to the top-``n``
        candidates, and itself admissible — is more local to the
        worker's memory node (LS_SDH², Eq. 3).
        """
        if not self.use_locality or len(live) == 1:
            return top
        threshold = top.gain - self.locality_eps
        node = worker.memory_node
        arch = worker.arch
        admission = self._admission  # the pop condition, one frame less
        best_entry = top
        best_score = ls_sdh2(top.task, node)
        for entry in live[: self.locality_n]:
            if entry is top or entry.gain < threshold:
                continue
            task = entry.task
            # A best-arch worker is always admitted (as in pop's walk).
            if task.sched.get("_best_arch") != arch and not admission(task, worker)[0]:
                continue
            score = ls_sdh2(task, node)
            if score > best_score or (
                score == best_score and entry.sort_key > best_entry.sort_key
            ):
                best_entry = entry
                best_score = score
        return best_entry

    def _pop_condition(self, task: Task, worker: Worker) -> bool:
        """Alg. 2's admission test (Section V-D).

        The best worker always takes the task. A slower worker is
        admitted only when the best workers' queued best-work exceeds the
        task's execution time on the slower worker — i.e. the fast units
        are busy enough that letting a slow unit help maintains DAG
        progress instead of stretching the makespan.
        """
        return self._admission(task, worker)[0]

    def _admission(self, task: Task, worker: Worker) -> tuple[bool, float | None, float]:
        """One admission test with its provenance.

        Returns ``(admitted, brw, delta)``: the verdict, the (drain-
        adjusted) best-remaining-work the test compared against (``None``
        on the branches that never read it — best-arch workers, eviction
        disabled, slowdown-cap rejections), and δ(t, worker.arch). The
        decision events published at ``record_level="decisions"`` carry
        exactly these values.
        """
        ctx = self.ctx
        sched = task.sched
        # The best arch is cached at push; a worker failure that removes
        # an architecture drops the cache, and ctx.best_arch rebuilds it.
        best_arch = sched.get("_best_arch") or ctx.best_arch(task)
        arch = worker.arch
        # δ values were computed at push time; with a stable perf model
        # they are reused here, otherwise queried live (history models
        # legitimately drift between push and pop).
        deltas = sched["mp_deltas"] if self._stable_deltas else None
        delta = deltas[arch] if deltas is not None else ctx.estimate(task, arch)
        if arch == best_arch or not self.eviction:
            return True, None, delta
        best_delta = deltas[best_arch] if deltas is not None else ctx.estimate(task, best_arch)
        if self.slowdown_cap is not None and delta > self.slowdown_cap * best_delta:
            return False, None, delta
        brw = self._brw_memo.get(best_arch)
        if brw is None:
            brw = max(
                (
                    self.best_remaining_work[node.mid]
                    for node in ctx.platform.nodes_of_arch(best_arch)
                    if node.mid in self.best_remaining_work
                ),
                default=0.0,
            )
            if self.drain_aware:
                n_best = max(1, ctx.n_workers(best_arch))
                brw /= n_best
            self._brw_memo[best_arch] = brw
        return brw > self.brw_safety * delta, brw, delta

    # -- reporting -------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-run counters: skips, evictions, rejected pops, stale drops.

        ``skips`` counts pop-condition rejections that left the entry in
        the heap (the default skip-on-reject mode); ``evictions`` counts
        real Alg. 2 evictions that removed the entry
        (``evict_on_reject=True``); ``pop_rejections`` counts pops that
        ended empty-handed after at least one rejection.
        """
        return {
            "skips": float(self._n_skips),
            "evictions": float(self._n_evictions),
            "pop_rejections": float(self._n_rejections),
            "stale_discards": float(self._n_stale_discards),
            "task_failures": float(self._n_task_failures),
            "retractions": float(self._n_retractions),
        }

    # -- invariant self-check (repro.check) ---------------------------------

    def check(self) -> list[str]:
        """Structural self-validation for the invariant checker.

        Verifies heap order/positions, the per-node ready-entry counters
        against the physical heap sizes, and ``best_remaining_work``
        against the exact sum of best-arch δ over untaken pushed tasks.

        Incremental (:meth:`Scheduler.check`): a heap is re-verified only
        after an insert, a removal or an entry write, and a task's BRW
        share is re-derived only when its entries, ``mp_taken`` flag or
        state changed. The shares are summed exactly per node; a counter
        the exact sum clears with room to spare passes, and any doubt
        falls back to :meth:`_brw_problems`, which recomputes the sums
        as a full sweep does and words the report.
        """
        log = self._check_log or ChangeLog()
        changed = log.drain()
        memo = log.memo
        brw = self.best_remaining_work
        if changed is None or memo.get("sums", {}).keys() != brw.keys():
            memo.clear()
            memo["heaps"] = {}  # mid -> (heap, structure violation or None)
            memo["shares"] = {}  # task -> (best delta, BRW nodes)
            memo["sums"] = {mid: ExactSum() for mid in brw}
            memo["cleared"] = {}  # mid -> the counter value last cleared
            tasks = self._live_tasks()
            parts = set(self.heaps)
        else:
            tasks, parts = changed
            tasks = dict.fromkeys(tasks)
        shares, sums, cleared = memo["shares"], memo["sums"], memo["cleared"]
        for task in tasks:
            new = self._brw_share(task, brw)
            old = shares.pop(task, None)
            if new is not None:
                shares[task] = new
            if new == old:
                continue
            for share, put in ((old, ExactSum.remove), (new, ExactSum.add)):
                if share is not None:
                    delta, mids = share
                    for mid in mids:
                        put(sums[mid], delta)
                        cleared.pop(mid, None)

        problems: list[str] = []
        verdicts = memo["heaps"]
        for mid, heap in self.heaps.items():
            verdict = verdicts.get(mid)
            if mid in parts or verdict is None or verdict[0] is not heap:
                try:
                    heap.check_invariants()
                    verdict = (heap, None)
                except AssertionError as exc:
                    verdict = (heap, f"heap[{mid}] structure: {exc}")
                verdicts[mid] = verdict
            if verdict[1] is not None:
                problems.append(verdict[1])
            counted = self.ready_tasks_count.get(mid)
            if counted != len(heap):
                problems.append(
                    f"ready_tasks_count[{mid}]={counted} but heap holds "
                    f"{len(heap)} entries"
                )
        for mid, got in brw.items():
            if cleared.get(mid) != got:
                if not sums[mid].within(got, 1e-6, 1e-6):
                    problems.extend(self._brw_problems())
                    break
                cleared[mid] = got
        return problems

    @staticmethod
    def _brw_share(task: Task, brw: dict[int, float]) -> tuple | None:
        """What ``task`` adds to the BRW counters: ``(δ, nodes)``, or None
        when it is taken, not READY or has no live heap entry."""
        sched = task.sched
        if task.state is not TaskState.READY or sched.get("mp_taken", False):
            return None
        entries = sched.get("mp_entries")
        if not entries or all(e.dead for e in entries.values()):
            return None
        mids = tuple(mid for mid in sched.get("mp_brw_nodes", ()) if mid in brw)
        return (sched.get("mp_best_delta", 0.0), mids) if mids else None

    def _live_tasks(self) -> dict[Task, None]:
        """Each task with an untombstoned heap entry, once, in the order
        its first such entry comes."""
        tasks: dict[Task, None] = {}
        for heap in self.heaps.values():
            tasks.update(dict.fromkeys([e.task for e in heap if not e.dead]))
        return tasks

    def _brw_problems(self) -> list[str]:
        """``best_remaining_work`` against the live entries' sums, computed
        from scratch the way a full sweep adds them."""
        problems: list[str] = []
        expect: dict[int, float] = {mid: 0.0 for mid in self.best_remaining_work}
        ready = TaskState.READY
        for task in self._live_tasks():
            sched = task.sched
            # _is_stale, inlined.
            if task.state is not ready or sched.get("mp_taken", False):
                continue
            delta = sched.get("mp_best_delta", 0.0)
            for mid in sched.get("mp_brw_nodes", ()):
                if mid in expect:
                    expect[mid] += delta
        for mid, want in expect.items():
            got = self.best_remaining_work[mid]
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                problems.append(
                    f"best_remaining_work[{mid}]={got!r} but the live "
                    f"entries sum to {want!r}"
                )
        return problems
