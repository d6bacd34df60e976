"""Exactness of MultiPrio's admitted-pop fast path (Alg. 2).

``MultiPrio.pop`` tries an exact heap's root before sorting the window,
takes a best-arch worker's admission without calling ``_admission``, and
scores locality over each task's pre-split access lists. The reference
here is a test-only subclass that carries the earlier ``pop`` and
``_locality_refine`` bodies: a full sort of every window, one
``_admission`` call per entry, and the plain access-order Eq. (3) loop.
Each configuration runs under both and must agree on every task's
placement and timing, the makespan, ``stats()`` and the event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.apps.fmm import fmm_program
from repro.core.heap import RelaxedTaskHeap
from repro.extensions.energy import EnergyAwareMultiPrio
from repro.obs.events import DecisionEvent
from repro.obs.export import trace_from_events
from repro.runtime.faults import FaultModel
from repro.schedulers.multiprio import MultiPrio
from tests.core.test_locality import reference_ls_sdh2
from tests.schedulers.test_miss_memo import graph_run, overloaded_stream_run
from tests.schedulers.test_push_memo import chains_with_leaves

_SORT_KEY = attrgetter("sort_key")


class _CountAdmissions:
    """Counts the scheduler's ``_admission`` calls."""

    n_admissions = 0

    def _admission(self, task, worker):
        self.n_admissions += 1
        return super()._admission(task, worker)


class _PrePop(_CountAdmissions):
    """Reference: the pop and locality refinement before the fast path."""

    def pop(self, worker):
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
        window = heap.top_candidates(max(self.locality_n, self.max_tries + 1))
        if not window:
            if key is not None:
                self._miss_memo[key] = 0
            return None
        tries = 0
        rejected: set[int] = set()
        for top in sorted(window, key=_SORT_KEY, reverse=True):
            if tries >= self.max_tries:
                break
            admitted, brw, delta = self._admission(top.task, worker)
            if not admitted:
                rejected.add(id(top))
                self._n_skips += 1
                tries += 1
                if dec:
                    self.record_decision(
                        "skip", task=top.task, worker=worker, gain=top.gain,
                        nod=top.prio, pop_condition=False, brw=brw, delta=delta,
                    )
                continue
            live = [e for e in window if id(e) not in rejected]
            entry = self._locality_refine(top, live, worker)
            cands = self._considered_candidates(top, live, worker) if dec else ()
            self._remove_entry(heap, entry, worker.memory_node)
            self._take(entry.task)
            if dec:
                self._record_pop(entry, worker, brw, cands)
            return entry.task
        if tries:
            self._n_rejections += 1
        if key is not None:
            self._miss_memo[key] = tries
        return None

    def _locality_refine(self, top, live, worker):
        if not self.use_locality or len(live) == 1:
            return top
        threshold = top.gain - self.locality_eps
        node = worker.memory_node
        best_entry = top
        best_score = reference_ls_sdh2(top.task, node)
        for entry in live[: self.locality_n]:
            if entry is top or entry.gain < threshold:
                continue
            if not self._admission(entry.task, worker)[0]:
                continue
            score = reference_ls_sdh2(entry.task, node)
            if score > best_score or (
                score == best_score and entry.sort_key > best_entry.sort_key
            ):
                best_entry = entry
                best_score = score
        return best_entry


class RefMultiPrio(_PrePop, MultiPrio):
    pass


class RefEnergyAwareMultiPrio(_PrePop, EnergyAwareMultiPrio):
    pass


class FastMultiPrio(_CountAdmissions, MultiPrio):
    pass


class FastEnergyAwareMultiPrio(_CountAdmissions, EnergyAwareMultiPrio):
    pass


@dataclass
class Outcome:
    res: object
    #: Every task's (tid, worker, start, end), sorted by tid.
    records: tuple
    stats: dict
    events: tuple
    admissions: int


def run_both(make_sched, run) -> tuple[Outcome, Outcome]:
    """Run ``run(scheduler)`` with the fast path and with the reference."""
    out = []
    for ref in (False, True):
        sched = make_sched(ref)
        res = run(sched)
        records = tuple(
            sorted(
                (r.tid, r.worker, r.start, r.end)
                for r in trace_from_events(res.events, ()).task_records
            )
        )
        out.append(
            Outcome(
                res, records, sched.stats(), tuple(map(repr, res.events)),
                sched.n_admissions,
            )
        )
    return out[0], out[1]


def mp(**kw):
    """Scheduler factory: MultiPrio(**kw), or its pre-fast-path reference."""
    return lambda ref: (RefMultiPrio if ref else FastMultiPrio)(**kw)


def assert_exact(fast: Outcome, ref: Outcome) -> None:
    assert fast.records == ref.records, "per-task (worker, start, end) differ"
    assert fast.res.makespan == ref.res.makespan
    assert fast.stats == ref.stats
    assert fast.events == ref.events


def small_cholesky():
    return cholesky_program(10, 512)


class TestFastPopIsExact:
    def test_cholesky_intel_v100(self):
        fast, ref = run_both(
            mp(), graph_run("intel-v100", lambda: cholesky_program(12, 960))
        )
        assert_exact(fast, ref)
        assert fast.stats["skips"] > 0
        # Best-arch admissions no longer call _admission.
        assert fast.admissions < ref.admissions / 2

    def test_many_classes_fmm(self):
        def program():
            return fmm_program(
                n_particles=20_000, height=4, distribution="ellipsoid", seed=11
            )

        fast, ref = run_both(mp(), graph_run("intel-v100", program))
        assert_exact(fast, ref)

    def test_deadline_stream_with_shedding(self):
        run = overloaded_stream_run()
        fast, ref = run_both(mp(deadline_boost=1000.0), run)
        assert_exact(fast, ref)
        assert run.last.control.n_rejected > 0
        assert fast.stats["retractions"] > 0

    def test_task_faults_and_gpu_death(self):
        # small-hetero has one single-stream GPU (wid 6): killing it
        # drops every task's cached best arch mid-run.
        faults = FaultModel(
            task_failure_rate=0.05, worker_kills={6: 27_000.0}, max_retries=50,
            seed=2,
        )
        fast, ref = run_both(
            mp(), graph_run("small-hetero", chains_with_leaves, faults=faults)
        )
        assert_exact(fast, ref)
        assert fast.stats["task_failures"] > 0
        assert fast.res.faults.worker_failures == 1

    @pytest.mark.parametrize("tiles", [10, 3], ids=["cholesky10", "cholesky3"])
    def test_relaxed(self, tiles, monkeypatch):
        """Relaxed windows are sorted up front, including whole-structure
        windows from heaps smaller than the window."""
        whole = {"n": 0}
        orig = RelaxedTaskHeap.top_candidates

        def counted(self, n):
            whole["n"] += n >= len(self)
            return orig(self, n)

        monkeypatch.setattr(RelaxedTaskHeap, "top_candidates", counted)
        fast, ref = run_both(
            mp(relaxed=4),
            graph_run("small-hetero", lambda: cholesky_program(tiles, 512)),
        )
        assert_exact(fast, ref)
        assert whole["n"] > 0

    @pytest.mark.parametrize(
        "kw",
        [
            {"evict_on_reject": True},
            {"eviction": False},
            {"use_locality": False},
            {"locality_eps": 0.5},
        ],
        ids=["evict-on-reject", "no-eviction", "no-locality", "eps-0.5"],
    )
    def test_scheduler_knobs(self, kw):
        fast, ref = run_both(mp(**kw), graph_run("small-hetero", small_cholesky))
        assert_exact(fast, ref)

    @pytest.mark.parametrize("objective", ["energy", "edp"])
    def test_energy_variants(self, objective):
        def make(ref):
            cls = RefEnergyAwareMultiPrio if ref else FastEnergyAwareMultiPrio
            return cls(objective=objective)

        fast, ref = run_both(make, graph_run("small-hetero", small_cholesky))
        assert_exact(fast, ref)

    def test_decisions_level(self):
        def run(sched):
            spec = SimSpec("small-hetero", sched, record_level="decisions")
            return spec.run(small_cholesky())

        fast, ref = run_both(mp(), run)
        assert_exact(fast, ref)
        assert any(isinstance(e, DecisionEvent) and e.action == "pop" for e in fast.res.events)
