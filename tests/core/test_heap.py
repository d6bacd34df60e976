"""Binary max-heap tests: ordering, removal, staleness, invariants."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.heap import TaskHeap
from repro.runtime.task import Task, TaskState


def make_task(tid: int) -> Task:
    task = Task(tid, "k", implementations=("cpu",))
    task.state = TaskState.READY
    return task


class TestBasics:
    def test_empty(self):
        heap = TaskHeap()
        assert len(heap) == 0
        assert heap.best() is None
        assert heap.top_candidates(5) == []

    def test_orders_by_gain_first(self):
        heap = TaskHeap()
        heap.insert(make_task(0), 0.2, 0.9)
        heap.insert(make_task(1), 0.8, 0.1)
        heap.insert(make_task(2), 0.5, 0.5)
        assert heap.best().gain == 0.8

    def test_criticality_breaks_gain_ties(self):
        heap = TaskHeap()
        heap.insert(make_task(0), 0.5, 0.1)
        top = heap.insert(make_task(1), 0.5, 0.9)
        assert heap.best() is top

    def test_insertion_order_breaks_full_ties(self):
        heap = TaskHeap()
        first = heap.insert(make_task(0), 0.5, 0.5)
        heap.insert(make_task(1), 0.5, 0.5)
        assert heap.best() is first

    def test_remove_root_promotes_next(self):
        heap = TaskHeap()
        entries = [heap.insert(make_task(i), g, 0.0) for i, g in enumerate((0.9, 0.7, 0.8))]
        heap.remove(entries[0])
        assert heap.best().gain == 0.8
        heap.check_invariants()

    def test_remove_middle_entry(self):
        heap = TaskHeap()
        entries = [heap.insert(make_task(i), i / 10, 0.0) for i in range(10)]
        heap.remove(entries[5])
        assert len(heap) == 9
        heap.check_invariants()
        with pytest.raises(ValueError):
            heap.remove(entries[5])

    def test_drain_returns_descending_order(self):
        heap = TaskHeap()
        gains = [0.3, 0.9, 0.1, 0.7, 0.5, 0.2, 0.8]
        for i, g in enumerate(gains):
            heap.insert(make_task(i), g, 0.0)
        seen = []
        while len(heap):
            entry = heap.best()
            seen.append(entry.gain)
            heap.remove(entry)
        assert seen == sorted(gains, reverse=True)


class TestStaleness:
    def test_stale_root_discarded_on_best(self):
        discarded = []
        heap = TaskHeap(
            is_stale=lambda t: t.state is TaskState.DONE,
            on_discard=discarded.append,
        )
        stale_task = make_task(0)
        heap.insert(stale_task, 0.9, 0.0)
        live = heap.insert(make_task(1), 0.5, 0.0)
        stale_task.state = TaskState.DONE
        assert heap.best() is live
        assert len(discarded) == 1
        assert len(heap) == 1

    def test_top_candidates_skips_stale(self):
        heap = TaskHeap(is_stale=lambda t: t.state is TaskState.DONE)
        tasks = [make_task(i) for i in range(6)]
        for i, t in enumerate(tasks):
            heap.insert(t, 0.5 + i / 100, 0.0)
        tasks[3].state = TaskState.DONE
        tasks[5].state = TaskState.DONE
        window = heap.top_candidates(6)
        assert all(e.task.state is TaskState.READY for e in window)
        assert len(window) == 4

    def test_purge_stale_counts(self):
        heap = TaskHeap(is_stale=lambda t: t.state is TaskState.DONE)
        tasks = [make_task(i) for i in range(5)]
        for t in tasks:
            heap.insert(t, 0.5, 0.0)
        for t in tasks[:2]:
            t.state = TaskState.DONE
        assert heap.purge_stale() == 2
        assert len(heap) == 3


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=60,
    ),
    st.randoms(use_true_random=False),
)
def test_random_insert_remove_preserves_invariants(scores, rng):
    """Property: any interleaving of inserts and removals keeps the heap
    ordered with consistent positions."""
    heap = TaskHeap()
    entries = []
    for i, (gain, prio) in enumerate(scores):
        entries.append(heap.insert(make_task(i), gain, prio))
        if rng.random() < 0.3 and entries:
            victim = entries.pop(rng.randrange(len(entries)))
            heap.remove(victim)
        heap.check_invariants()
    # Drain fully; keys must come out non-increasing.
    last = None
    while len(heap):
        entry = heap.best()
        heap.remove(entry)
        if last is not None:
            assert entry.key() <= last
        last = entry.key()


class _TwoCallRemoveHeap(TaskHeap):
    """Reference: ``remove`` as a ``_sift_down`` then a ``_sift_up`` call."""

    def remove(self, entry):
        pos = entry.pos
        if pos < 0 or pos >= len(self._a) or self._a[pos] is not entry:
            raise ValueError(f"entry {entry!r} is not in this heap")
        last = self._a.pop()
        entry.pos = -1
        if last is not entry:
            self._a[pos] = last
            last.pos = pos
            self._sift_down(pos)
            self._sift_up(pos)

    def _sift_down(self, pos):
        a = self._a
        size = len(a)
        entry = a[pos]
        key = entry.sort_key
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and a[right].sort_key > a[child].sort_key:
                child = right
            if a[child].sort_key <= key:
                break
            a[pos] = a[child]
            a[pos].pos = pos
            pos = child
        a[pos] = entry
        entry.pos = pos


_heap_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("tombstone"), st.integers(0, 10**6)),
        st.tuples(st.just("top"), st.integers(0, 12)),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(_heap_ops)
def test_inlined_remove_makes_the_two_call_moves(ops):
    """Property: under any interleaving of inserts, removals, tombstones
    and window queries, ``remove`` with its sift-down inlined leaves
    every slot, every ``pos`` and the discard-callback order as the
    two-call one does."""
    discards: tuple[list, list] = ([], [])
    heaps = (
        TaskHeap(on_discard=lambda e: discards[0].append(e.task.tid)),
        _TwoCallRemoveHeap(on_discard=lambda e: discards[1].append(e.task.tid)),
    )
    entries: list[tuple] = []  # (fast entry, reference entry) per insert
    for op in ops:
        if op[0] == "insert":
            entries.append(tuple(h.insert(make_task(len(entries)), op[1], op[2])
                                 for h in heaps))
            continue
        present = [pair for pair in entries if pair[0].pos >= 0]
        if op[0] == "top":
            windows = [h.top_candidates(op[1]) for h in heaps]
            assert [e.task.tid for e in windows[0]] == [e.task.tid for e in windows[1]]
        elif present and op[0] == "remove":
            for h, e in zip(heaps, present[op[1] % len(present)]):
                h.remove(e)
        elif present:
            for e in present[op[1] % len(present)]:
                e.dead = True
        fast, ref = heaps
        assert [e.task.tid for e in fast] == [e.task.tid for e in ref]
        assert [e.pos for e in fast] == [e.pos for e in ref]
        assert [e.pos for e, _ in entries] == [e.pos for _, e in entries]
        assert discards[0] == discards[1]
    heaps[0].check_invariants()


_OPTIMIZED_CHECK = """
from repro.core.heap import RelaxedTaskHeap, TaskHeap
from repro.runtime.task import Task

heap = TaskHeap()
for tid in range(4):
    heap.insert(Task(tid, "k", implementations=("cpu",)), 0.1 * tid, 0.0)
list(heap)[1].pos = 99
relaxed = RelaxedTaskHeap(2)
for tid in range(4):
    relaxed.insert(Task(tid, "k", implementations=("cpu",)), 0.1 * tid, 0.0)
next(iter(relaxed)).owner = None
for h in (heap, relaxed):
    try:
        h.check_invariants()
    except AssertionError as exc:
        print("reported:", exc)
    else:
        print("missed")
"""


def test_corruption_is_reported_under_python_O():
    """The self-checks raise explicitly, so ``python -O`` (which strips
    ``assert`` statements) still reports a corrupted heap."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECK],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert len(out) == 2
    assert out[0] == "reported: entry at 1 thinks it is at 99"
    assert out[1].startswith("reported: <HeapEntry") and "wrong sub-heap" in out[1]
