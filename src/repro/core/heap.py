"""Binary max-heap of ready tasks with two-key scores.

One heap exists per memory node (|H| = |M|, Section III-B). Entries are
ordered by the *gain* score first and the *criticality* score second,
with insertion order as the final deterministic tiebreak (older first).

The heap supports what MultiPrio's POP needs beyond a textbook heap:

* ``top_candidates(n)`` — the live entries among the first ``n`` array
  slots, for the locality-aware selection window;
* ``remove(entry)`` — O(log n) removal of an arbitrary entry, for the
  eviction mechanism;
* lazy invalidation — a task popped from one node's heap leaves *stale*
  duplicates in the others; those are recognized and discarded when
  encountered, exactly as the paper describes ("when workers try to
  select these duplicates, they will recognize that they have already
  been processed and remove them").

Staleness is detected two ways, combined with *or*:

* the entry-level ``dead`` tombstone — the scheduler marks every
  duplicate of a taken task dead at take time, an O(#duplicates) flag
  write with no heap mutation. Tombstoned entries are physically purged
  only when ``best()``/``top_candidates()``/``purge_stale()`` encounter
  them, so the purge cost rides on queries that were already touching
  those slots. Because tombstones live on the *entry*, a task that is
  rolled back and re-pushed (fault retry) cannot resurrect its old
  duplicates — the stale entries stay dead even though the task itself
  is READY again;
* the optional task-level ``is_stale`` predicate, kept for schedulers
  (and tests) that derive staleness from task state instead of marking
  entries.
"""

from __future__ import annotations

from operator import ge
from typing import Callable, Iterator

from repro.runtime.task import Task


class HeapEntry:
    """One (task, gain, prio) node of a :class:`TaskHeap`.

    ``sort_key`` is the ordering tuple, computed once at construction —
    sift comparisons read the attribute instead of re-allocating the
    tuple. ``dead`` is the lazy-deletion tombstone: setting it costs one
    attribute write; the heap purges the entry whenever a query next
    encounters it.
    """

    __slots__ = ("task", "gain", "prio", "seq", "pos", "dead", "sort_key", "owner")

    def __init__(self, task: Task, gain: float, prio: float, seq: int) -> None:
        self.task = task
        self.gain = gain
        self.prio = prio
        self.seq = seq
        self.pos = -1  # maintained by the heap
        self.dead = False  # tombstone; set by the scheduler at take time
        self.sort_key = (gain, prio, -seq)
        # Sub-heap that physically holds this entry; only set (and used)
        # by RelaxedTaskHeap, whose remove() must route to the right sub.
        self.owner: "TaskHeap | None" = None

    def key(self) -> tuple[float, float, int]:
        """Ordering key; larger means more prioritized."""
        return self.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HeapEntry {self.task.name} gain={self.gain:.3f} prio={self.prio:.3f}>"


class TaskHeap:
    """Array-based binary max-heap with position tracking.

    Parameters
    ----------
    node:
        Memory node id this heap serves (informational).
    is_stale:
        Optional task-level predicate marking entries whose task was
        already taken from a duplicate heap; checked *in addition to*
        the entry-level ``dead`` tombstone. ``None`` (the fast path)
        relies on tombstones alone.
    on_discard:
        Callback invoked with each discarded stale entry (the scheduler
        uses it to keep its ready-task counters exact).
    """

    def __init__(
        self,
        node: int = -1,
        is_stale: Callable[[Task], bool] | None = None,
        on_discard: Callable[[HeapEntry], None] | None = None,
    ) -> None:
        self.node = node
        self._a: list[HeapEntry] = []
        self._seq = 0
        self._is_stale = is_stale
        self._on_discard = on_discard

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._a)

    def __iter__(self) -> Iterator[HeapEntry]:
        return iter(self._a)

    def clear(self) -> None:
        """Drop all entries."""
        self._a.clear()

    def insert(self, task: Task, gain: float, prio: float) -> HeapEntry:
        """Insert a task with its two scores; returns the entry."""
        entry = HeapEntry(task, gain, prio, self._seq)
        self._seq += 1
        entry.pos = len(self._a)
        self._a.append(entry)
        self._sift_up(entry.pos)
        return entry

    def remove(self, entry: HeapEntry) -> None:
        """Remove an arbitrary entry in O(log n).

        The last slot's entry fills the hole and is sifted down, then
        whatever sits in the hole is sifted up. The sift-down is inlined
        (every take removes one entry per node heap, usually the root,
        where the sift-up has nothing to do).
        """
        a = self._a
        hole = entry.pos
        if hole < 0 or hole >= len(a) or a[hole] is not entry:
            raise ValueError(f"entry {entry!r} is not in this heap")
        last = a.pop()
        entry.pos = -1
        if last is entry:
            return
        size = len(a)
        key = last.sort_key
        pos = hole
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            moved = a[child]
            moved_key = moved.sort_key
            if child + 1 < size:
                right = a[child + 1]
                if right.sort_key > moved_key:
                    child += 1
                    moved = right
                    moved_key = right.sort_key
            if moved_key <= key:
                break
            a[pos] = moved
            moved.pos = pos
            pos = child
        a[pos] = last
        last.pos = pos
        if hole:
            self._sift_up(hole)

    # -- MultiPrio-facing queries ------------------------------------------

    def best(self) -> HeapEntry | None:
        """The highest-scored live entry (stale roots are discarded)."""
        pred = self._is_stale
        while self._a:
            root = self._a[0]
            if root.dead or (pred is not None and pred(root.task)):
                self._discard(root)
            else:
                return root
        return None

    def top_candidates(self, n: int) -> list[HeapEntry]:
        """Live entries among the first ``n`` heap slots.

        This is the paper's "first n tasks in the heap" window for the
        locality selection. Stale entries found in the window are
        discarded and the window re-scanned, so the result contains only
        live tasks. The returned list is ordered by heap position (the
        root, if any, comes first).
        """
        pred = self._is_stale
        on_discard = self._on_discard
        while True:
            window = self._a[: max(0, n)]
            if pred is None:
                stale = [e for e in window if e.dead]
            else:
                stale = [e for e in window if e.dead or pred(e.task)]
            if not stale:
                return window
            for entry in stale:  # _discard, inlined: this runs per pop
                self.remove(entry)
                if on_discard is not None:
                    on_discard(entry)

    def purge_stale(self) -> int:
        """Discard every stale entry in the heap; returns the count."""
        pred = self._is_stale
        if pred is None:
            stale = [e for e in self._a if e.dead]
        else:
            stale = [e for e in self._a if e.dead or pred(e.task)]
        for entry in stale:
            self._discard(entry)
        return len(stale)

    def _discard(self, entry: HeapEntry) -> None:
        self.remove(entry)
        if self._on_discard is not None:
            self._on_discard(entry)

    # -- heap mechanics ---------------------------------------------------

    def _sift_up(self, pos: int) -> None:
        a = self._a
        entry = a[pos]
        key = entry.sort_key
        while pos > 0:
            parent_pos = (pos - 1) >> 1
            parent = a[parent_pos]
            if key <= parent.sort_key:
                break
            a[pos] = parent
            parent.pos = pos
            pos = parent_pos
        a[pos] = entry
        entry.pos = pos

    # -- invariants (used by tests) ---------------------------------------------

    def check_invariants(self) -> None:
        """Check heap order and position consistency.

        Raises :class:`AssertionError` on the first violation. The raise
        is explicit, not an ``assert``, so the check still runs under
        ``python -O`` (``MultiPrio.check`` relies on it).
        """
        a = self._a
        # One C-level pass per property; the walk below runs only to name
        # the first violation.
        keys = [e.sort_key for e in a]
        if (
            [e.pos for e in a] == list(range(len(a)))
            and all(map(ge, keys, keys[1::2]))  # parents of odd slots
            and all(map(ge, keys, keys[2::2]))  # parents of even slots
        ):
            return
        for i, entry in enumerate(a):
            if entry.pos != i:
                raise AssertionError(f"entry at {i} thinks it is at {entry.pos}")
            if i > 0 and not keys[(i - 1) >> 1] >= keys[i]:
                raise AssertionError(f"heap order violated at {i}")


_M64 = (1 << 64) - 1


class RelaxedTaskHeap:
    """MultiQueue-style relaxed priority heap: ``k`` sloppy sub-heaps.

    Postnikova et al. ("Multi-Queues Can Be State-of-the-Art Priority
    Schedulers") relax exact top-1 delete-min into *two-choice* queries
    over ``k`` independent heaps: inserts go to the shorter of two
    sampled sub-heaps, queries return the better root of two sampled
    sub-heaps. In the concurrent original this trades rank exactness for
    contention-freedom; here (single-threaded simulation) it trades
    exactness for O(log(n/k)) operations on smaller heaps and models the
    relaxed semantics a parallel runtime would exhibit.

    **Hard rank-error invariant**: a query compares the roots of the two
    sampled sub-heaps A and B and returns their max — which is the exact
    max of A ∪ B. Only elements outside both sub-heaps can beat it, so
    the returned entry's rank error is at most ``n - |A| - |B|``. The
    sizes of the last sampled pair are exposed as :attr:`last_sample`
    for property tests to assert exactly that bound.

    The class mirrors the :class:`TaskHeap` surface MultiPrio drives
    (``insert`` / ``remove`` / ``best`` / ``top_candidates`` /
    ``purge_stale`` / iteration / ``check_invariants``), so it is a
    drop-in replacement behind MultiPrio's ``relaxed=k`` knob. Queries
    that cover the whole structure (``top_candidates(n)`` with
    ``n >= len(self)``, as the engine's liveness rescue issues) fall
    back to an exact multi-heap scan, so relaxation never causes a
    spurious deadlock.

    The sampling RNG is a self-seeded xorshift64*, deterministic per
    (seed, node) and independent of the engine's RNG stream.
    """

    def __init__(
        self,
        k: int,
        node: int = -1,
        is_stale: Callable[[Task], bool] | None = None,
        on_discard: Callable[[HeapEntry], None] | None = None,
        seed: int = 0,
    ) -> None:
        if k < 1:
            raise ValueError(f"RelaxedTaskHeap needs k >= 1, got {k}")
        self.node = node
        self.k = k
        self._subs = [
            TaskHeap(node=node, is_stale=is_stale, on_discard=on_discard)
            for _ in range(k)
        ]
        # xorshift64* state; any odd non-zero seed mix works.
        self._rng = ((seed * 0x9E3779B97F4A7C15) ^ ((node + 7) * 0xBF58476D1CE4E5B9)
                     | 1) & _M64
        #: Sizes (|A|, |B|) of the two sub-heaps the last two-choice
        #: query sampled (after stale discards); (0, 0) before any query.
        self.last_sample: tuple[int, int] = (0, 0)

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._subs)

    def __iter__(self) -> Iterator[HeapEntry]:
        for sub in self._subs:
            yield from sub

    def clear(self) -> None:
        """Drop all entries from every sub-heap."""
        for sub in self._subs:
            sub.clear()

    def _pair(self) -> tuple[int, int]:
        """Two-choice sample: two (possibly equal) sub-heap indices."""
        s = self._rng
        s ^= (s << 13) & _M64
        s ^= s >> 7
        s ^= (s << 17) & _M64
        self._rng = s
        return s % self.k, (s >> 32) % self.k

    # -- TaskHeap surface ------------------------------------------------

    def insert(self, task: Task, gain: float, prio: float) -> HeapEntry:
        """Two-choice insert: the shorter of two sampled sub-heaps wins."""
        i, j = self._pair()
        sub = self._subs[i] if len(self._subs[i]) <= len(self._subs[j]) else self._subs[j]
        entry = sub.insert(task, gain, prio)
        entry.owner = sub
        return entry

    def remove(self, entry: HeapEntry) -> None:
        """Remove an arbitrary entry from whichever sub-heap holds it."""
        owner = entry.owner
        if owner is None:
            raise ValueError(f"entry {entry!r} has no owning sub-heap")
        owner.remove(entry)

    def best(self) -> HeapEntry | None:
        """Two-choice query: the better live root of two sampled sub-heaps.

        The result is the exact max of the sampled pair's union, hence
        rank error <= n - |A| - |B|. When both samples come up empty the
        query degrades to an exact scan over every sub-heap (liveness).
        """
        i, j = self._pair()
        a, b = self._subs[i], self._subs[j]
        root_a, root_b = a.best(), b.best()
        self.last_sample = (len(a), len(b) if b is not a else 0)
        if root_a is None and root_b is None:
            return self._exact_best()
        if root_a is None:
            return root_b
        if root_b is None or root_a.sort_key >= root_b.sort_key:
            return root_a
        return root_b

    def _exact_best(self) -> HeapEntry | None:
        best: HeapEntry | None = None
        for sub in self._subs:
            root = sub.best()
            if root is not None and (best is None or root.sort_key > best.sort_key):
                best = root
        return best

    def top_candidates(self, n: int) -> list[HeapEntry]:
        """Candidate window from the better of two sampled sub-heaps.

        ``n >= len(self)`` requests the whole structure (the engine's
        rescue path and MultiPrio's force-pop): that case is answered
        exactly by concatenating every sub-heap's live entries.
        """
        if n >= sum(len(s) for s in self._subs):
            out: list[HeapEntry] = []
            for sub in self._subs:
                out.extend(sub.top_candidates(len(sub)))
            return out
        i, j = self._pair()
        a, b = self._subs[i], self._subs[j]
        root_a, root_b = a.best(), b.best()
        self.last_sample = (len(a), len(b) if b is not a else 0)
        if root_a is None and root_b is None:
            for sub in self._subs:
                if sub.best() is not None:
                    return sub.top_candidates(n)
            return []
        if root_a is None:
            chosen = b
        elif root_b is None or root_a.sort_key >= root_b.sort_key:
            chosen = a
        else:
            chosen = b
        return chosen.top_candidates(n)

    def purge_stale(self) -> int:
        """Discard every stale entry in every sub-heap."""
        return sum(sub.purge_stale() for sub in self._subs)

    def check_invariants(self) -> None:
        """Check order/position consistency of every sub-heap and that
        each entry's owner pointer matches the sub-heap holding it.

        Raises :class:`AssertionError` explicitly, like
        :meth:`TaskHeap.check_invariants`, so ``python -O`` keeps it.
        """
        for sub in self._subs:
            sub.check_invariants()
            for entry in sub:
                if entry.owner is not sub:
                    raise AssertionError(f"{entry!r} owned by the wrong sub-heap")
