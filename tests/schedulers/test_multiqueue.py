"""MultiQueue scheduler: completion, determinism, relaxation semantics."""

import pytest

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.check.differential import fingerprint
from repro.platform.machines import MACHINES
from repro.runtime.task import Task, TaskState
from repro.schedulers import make_scheduler
from repro.schedulers.multiqueue import _M64, _PAIR_TABLE, MultiQueue, _pair_table
from repro.utils.validation import ValidationError


def run(scheduler="multiqueue", app=cholesky_program, n=6, **sched_params):
    spec = SimSpec(
        "small-hetero", scheduler,
        config=SimConfig(record_level="tasks", check_invariants=True,
                         sched_params=sched_params),
    )
    return spec.run(app(n, 384))


class TestEndToEnd:
    def test_registered(self):
        sched = make_scheduler("multiqueue", k=3, seed=5)
        assert isinstance(sched, MultiQueue)
        assert sched.k == 3

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            MultiQueue(k=0)

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_runs_all_tasks_checker_clean(self, k):
        res = run(k=k)
        assert len(fingerprint(res)[0]) == len(cholesky_program(6, 384).tasks)
        assert res.forced_pops == 0

    def test_deterministic_per_seed(self):
        a, b = run(seed=11), run(seed=11)
        assert fingerprint(a) == fingerprint(b)

    def test_seed_changes_the_draws(self):
        # Different two-choice streams almost surely schedule differently.
        assert fingerprint(run(seed=0)) != fingerprint(run(seed=12345))

    def test_k1_respects_strict_priority(self):
        """One heap per arch = exact priority order within each arch."""
        res = run(k=1, app=lu_program)
        assert len(fingerprint(res)[0]) == len(lu_program(6, 384).tasks)


class TestUnitHooks:
    def _scheduler_with_ctx(self, k=2, seed=0):
        mach = MACHINES["small-hetero"]()
        spec = SimSpec(
            "small-hetero", "multiqueue",
            config=SimConfig(sched_params={"k": k, "seed": seed}),
        )
        sim = spec.simulator()
        sched = sim.scheduler
        sched.setup(sim.ctx)
        return sched, sim

    def _ready(self, tid, archs=("cpu", "cuda"), priority=0):
        task = Task(tid, "t", implementations=archs, priority=priority)
        task.state = TaskState.READY
        return task

    def test_retract_tombstones_everywhere(self):
        sched, sim = self._scheduler_with_ctx()
        task = self._ready(0)
        sched.push(task)
        assert sched.retract(task) is True
        assert sched.retract(task) is False  # second withdrawal refused
        for worker in sim.ctx.workers:
            assert sched.pop(worker) is None
        assert not sched.check()

    def test_pop_scans_all_heaps_before_giving_up(self):
        """pop() may be sloppy about order, never about existence."""
        sched, sim = self._scheduler_with_ctx(k=8, seed=9)
        task = self._ready(1, archs=("cpu",))
        sched.push(task)
        cpu_worker = next(w for w in sim.ctx.workers if w.arch == "cpu")
        assert sched.pop(cpu_worker) is task

    def test_higher_priority_pops_first_with_k1(self):
        sched, sim = self._scheduler_with_ctx(k=1)
        low = self._ready(0, priority=0)
        high = self._ready(1, priority=5)
        sched.push(low)
        sched.push(high)
        worker = sim.ctx.workers[0]
        assert sched.pop(worker) is high
        assert sched.pop(worker) is low
        assert sched.pop(worker) is None

    def test_push_batch_equals_sequential_pushes(self):
        """The inherited bulk hook must be n individual pushes."""
        a, _ = self._scheduler_with_ctx(k=4, seed=3)
        b, sim = self._scheduler_with_ctx(k=4, seed=3)
        tasks_a = [self._ready(i, priority=i % 3) for i in range(12)]
        tasks_b = [self._ready(i, priority=i % 3) for i in range(12)]
        for t in tasks_a:
            a.push(t)
        b.push_batch(tasks_b)
        worker = sim.ctx.workers[0]
        order_a = [a.pop(worker).tid for _ in range(12)]
        order_b = [b.pop(worker).tid for _ in range(12)]
        assert order_a == order_b

    def test_check_flags_corrupted_size_cache(self):
        sched, _ = self._scheduler_with_ctx()
        sched.push(self._ready(0))
        arch = next(iter(sched._sizes))
        sched._sizes[arch][0] += 1
        assert any("size cache" in v for v in sched.check())


class TestPairTable:
    @staticmethod
    def _fresh(seed, k):
        """The xorshift64 draw loop, written out independently."""
        rng = ((seed * 0x9E3779B97F4A7C15) ^ 0xBF58476D1CE4E5B9) & _M64 | 1
        pairs = []
        for _ in range(_PAIR_TABLE):
            rng ^= (rng << 13) & _M64
            rng ^= rng >> 7
            rng ^= (rng << 17) & _M64
            pairs.append((rng % k, (rng >> 32) % k))
        return tuple(pairs)

    @pytest.mark.parametrize("seed,k", [(0, 1), (0, 4), (11, 3), (2**40 + 7, 8)])
    def test_cached_table_equals_a_fresh_loop(self, seed, k):
        assert _pair_table(seed, k) == self._fresh(seed, k)

    def test_instances_share_one_table_per_seed_and_k(self):
        ctx = SimSpec("small-hetero", "multiqueue").simulator().ctx
        a, b, c = MultiQueue(k=4, seed=5), MultiQueue(k=4, seed=5), MultiQueue(k=4, seed=6)
        for sched in (a, b, c):
            sched.setup(ctx)
        assert a._pairs is b._pairs
        assert a._pairs != c._pairs
        hits = _pair_table.cache_info().hits
        a.setup(ctx)  # a repeated run reuses the table instead of redrawing
        assert _pair_table.cache_info().hits == hits + 1
        assert a._pairs is b._pairs
