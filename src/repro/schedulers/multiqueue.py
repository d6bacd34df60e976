"""MultiQueue — relaxed priority scheduling via k sloppy queues.

The MultiQueue of Rihani, Sanders & Dementiev (and the refined analysis
of Postnikova et al. [NeurIPS'21, "Multi-queues can be state-of-the-art
priority schedulers"]) trades strict priority order for throughput: each
architecture owns ``k`` independent binary heaps; a push inserts into
the shorter of two sampled heaps, a pop takes the better top of two
sampled heaps. Both operations are O(log(n/k)) with no contention point,
and the *rank error* of a pop (how many strictly-better tasks were
passed over) is bounded in expectation.

In this simulator the draw is sequential, so the win is constant-factor
(smaller heaps, no score computation, no admission machinery) rather
than contention relief — which is exactly what the batched hot path
needs from a baseline: the cheapest priority-respecting policy that
still orders work. Determinism is preserved by a per-run xorshift64
generator seeded from a constructor parameter, never from global RNG.

Tasks enter the heap group of every architecture they can execute on;
entries elsewhere are invalidated lazily through a per-push token (the
same tombstoning idea MultiPrio uses for its per-node duplicates).
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from operator import le

from repro.runtime.task import Task, TaskState
from repro.runtime.worker import Worker
from repro.schedulers.base import Scheduler
from repro.utils.incremental import ChangeLog
from repro.utils.validation import ValidationError

_M64 = (1 << 64) - 1

#: Length of the precomputed two-choice pair table (power of two so the
#: cursor wraps with a mask).
_PAIR_TABLE = 4096


@lru_cache(maxsize=64)
def _pair_table(seed: int, k: int) -> tuple[tuple[int, int], ...]:
    """The seeded two-choice index pairs, built once per ``(seed, k)``.

    The table is read-only, so every run and every instance with the
    same seed and ``k`` shares one copy and replays the same draws.
    """
    # Deterministic non-zero xorshift64 state derived from the seed
    # (SplitMix-style scramble so seed=0 still yields a full stream).
    rng = ((seed * 0x9E3779B97F4A7C15) ^ 0xBF58476D1CE4E5B9) & _M64 | 1
    pairs = []
    for _ in range(_PAIR_TABLE):
        rng ^= (rng << 13) & _M64
        rng ^= rng >> 7
        rng ^= (rng << 17) & _M64
        pairs.append((rng % k, (rng >> 32) % k))
    return tuple(pairs)


class MultiQueue(Scheduler):
    """k sloppy heaps per architecture, two-choice insert and pop.

    Parameters
    ----------
    k:
        Heaps per architecture group. ``k=1`` degenerates to one exact
        heap per architecture (zero rank error); larger ``k`` relaxes
        pop order for cheaper operations.
    seed:
        Seed of the per-run xorshift64 stream driving the two choices.
        Runs with equal seeds are bit-identical.
    """

    name = "multiqueue"

    def __init__(self, k: int = 4, seed: int = 0) -> None:
        super().__init__()
        k = int(k)
        if k < 1:
            raise ValidationError(f"multiqueue k must be >= 1, got {k}")
        self.k = k
        self.seed = int(seed)
        self._arch_order: tuple[str, ...] = ()
        self._groups: dict[str, list[list[tuple[int, int, int, Task]]]] = {}
        self._sizes: dict[str, list[int]] = {}
        self._seq = 0
        self._pairs: tuple[tuple[int, int], ...] = ((0, 0),)
        self._cursor = 0
        self._n_live = 0
        self._n_stale_discards = 0
        self._n_retractions = 0

    def setup(self, ctx) -> None:
        super().setup(ctx)
        self._arch_order = ctx.available_archs
        self._groups = {a: [[] for _ in range(self.k)] for a in ctx.available_archs}
        self._sizes = {a: [0] * self.k for a in ctx.available_archs}
        self._seq = 0
        # The two choices come from a seeded table of index pairs cycled
        # by a cursor: a table lookup costs a fraction of a Python-level
        # xorshift step, and two-choice balance only needs the pair
        # sequence to be seed-deterministic and well spread, not
        # cryptographically long — the cycle (4096 draws) dwarfs k.
        self._pairs = _pair_table(self.seed, self.k)
        self._cursor = 0
        self._n_live = 0
        self._n_stale_discards = 0
        self._n_retractions = 0

    # -- staleness ---------------------------------------------------------

    @staticmethod
    def _is_live(task: Task, token: int) -> bool:
        return (
            task.state is TaskState.READY and task.sched.get("mq_token") == token
        )

    def _purge_top(self, heap: list[tuple[int, int, int, Task]], arch: str, idx: int):
        """Drop stale entries off ``heap``'s top; return the live top."""
        sizes = self._sizes[arch]
        ready = TaskState.READY
        while heap:
            entry = heap[0]
            task = entry[3]
            # _is_live() inlined: this loop runs on every pop.
            if task.state is ready and task.sched.get("mq_token") == entry[2]:
                return entry
            heappop(heap)
            sizes[idx] -= 1
            self._n_stale_discards += 1
        return None

    # -- hooks -------------------------------------------------------------

    def push(self, task: Task) -> None:
        seq = self._seq
        self._seq = seq + 1
        task.sched["mq_token"] = seq
        entry = (-task.priority, seq, seq, task)
        placed = False
        implementations = task.implementations
        pairs = self._pairs
        cursor = self._cursor
        # Iterate in the platform's stable arch order, not over the
        # implementations frozenset (whose order varies with the process
        # hash seed) — the two-choice draws must replay identically.
        for arch in self._arch_order:
            if arch not in implementations:
                continue
            group = self._groups.get(arch)
            if group is None:
                continue
            i, j = pairs[cursor & (_PAIR_TABLE - 1)]
            cursor += 1
            sizes = self._sizes[arch]
            if sizes[j] < sizes[i]:
                i = j
            heappush(group[i], entry)
            sizes[i] += 1
            placed = True
        self._cursor = cursor
        if placed:
            self._n_live += 1
        else:
            # No available architecture runs this task; forget the token
            # so check() does not count it as held.
            del task.sched["mq_token"]

    def pop(self, worker: Worker) -> Task | None:
        group = self._groups.get(worker.arch)
        if group is None:
            return None
        cursor = self._cursor
        self._cursor = cursor + 1
        i, j = self._pairs[cursor & (_PAIR_TABLE - 1)]
        best_idx = -1
        best = None
        top = self._purge_top(group[i], worker.arch, i)
        if top is not None:
            best, best_idx = top, i
        if j != i:
            top = self._purge_top(group[j], worker.arch, j)
            if top is not None and (best is None or top < best):
                best, best_idx = top, j
        if best is None:
            # Exact fallback: scan the whole group so a non-empty group
            # never parks a worker (pop is None only when truly empty,
            # which lets the default force_pop double as the rescue).
            for idx in range(self.k):
                top = self._purge_top(group[idx], worker.arch, idx)
                if top is not None and (best is None or top < best):
                    best, best_idx = top, idx
            if best is None:
                return None
        task = best[3]
        heappop(group[best_idx])
        self._sizes[worker.arch][best_idx] -= 1
        del task.sched["mq_token"]  # tombstones every duplicate entry
        self._n_live -= 1
        return task

    def retract(self, task: Task) -> bool:
        if "mq_token" not in task.sched:
            return False
        del task.sched["mq_token"]
        self._n_live -= 1
        self._n_retractions += 1
        return True

    def on_worker_failed(self, worker: Worker) -> list[Task]:
        """Drop an architecture's group once its last worker dies.

        Entries usually survive as duplicates in other architectures'
        groups; tasks whose only live entries sat in the dead group are
        returned for the engine to recover.
        """
        arch = worker.arch
        if arch in self.ctx.available_archs:
            return []  # surviving workers keep serving this group
        group = self._groups.pop(arch, None)
        self._sizes.pop(arch, None)
        if group is None:
            return []
        orphans: list[Task] = []
        for heap in group:
            for entry in heap:
                task = entry[3]
                if not self._is_live(task, entry[2]):
                    continue
                if any(a in self._groups for a in task.implementations):
                    continue  # still reachable through a duplicate entry
                del task.sched["mq_token"]
                self._n_live -= 1
                orphans.append(task)
        return orphans

    # -- validation / reporting --------------------------------------------

    def check(self) -> list[str]:
        """Size caches, sub-heap order and the live count.

        Incremental (:meth:`Scheduler.check`): a sub-heap's order is
        re-verified only after a push, pop or purge touched it, and the
        live count is compared with a set of live tasks kept from the
        logged tasks instead of an ``_is_live`` pass over every entry. A
        task holding an ``mq_token`` has its entries queued (push hands
        the token out only once they are placed; pop, retract and a dead
        group's orphans take it back), so such a task is live while it
        is READY. A mismatch is recounted from the entries to word it.
        """
        log = self._check_log or ChangeLog()
        changed = log.drain()
        memo = log.memo
        if changed is None:
            memo["order"] = {}  # (arch, idx) -> the sub-heap's order violations
            memo["live"] = self._live_tasks()
            parts = {
                (arch, idx) for arch, group in self._groups.items()
                for idx in range(len(group))
            }
        else:
            tasks, parts = changed
            live = memo["live"]
            ready = TaskState.READY
            for task in tasks:
                if task.state is ready and "mq_token" in task.sched:
                    live.add(task)
                else:
                    live.discard(task)
        order = memo["order"]
        violations: list[str] = []
        for arch, group in self._groups.items():
            for idx, heap in enumerate(group):
                if self._sizes[arch][idx] != len(heap):
                    violations.append(
                        f"multiqueue: size cache {self._sizes[arch][idx]} != "
                        f"len {len(heap)} for {arch}[{idx}]"
                    )
                key = (arch, idx)
                if key in parts:
                    order[key] = self._order_violations(arch, idx, heap)
                violations.extend(order.get(key, ()))
        if len(memo["live"]) != self._n_live:
            memo["live"] = live = self._live_tasks()
            if len(live) != self._n_live:
                violations.append(
                    f"multiqueue: live count {self._n_live} != "
                    f"{len(live)} distinct live tasks"
                )
        return violations

    @staticmethod
    def _order_violations(arch: str, idx: int, heap: list) -> list[str]:
        """One message per slot whose parent outranks it (none in two
        C-level passes when the order holds)."""
        if all(map(le, heap, heap[1::2])) and all(map(le, heap, heap[2::2])):
            return []
        return [
            f"multiqueue: heap order violated in {arch}[{idx}]"
            for pos in range(1, len(heap))
            if heap[(pos - 1) >> 1] > heap[pos]
        ]

    def _live_tasks(self) -> set[Task]:
        """Tasks with a queued entry that still carries their token."""
        return {
            entry[3]
            for group in self._groups.values()
            for heap in group
            for entry in heap
            if self._is_live(entry[3], entry[2])
        }

    def stats(self) -> dict[str, float]:
        return {
            "mq_stale_discards": float(self._n_stale_discards),
            "mq_retractions": float(self._n_retractions),
        }
