"""Resource protocol: ledger arbitration, engine-enforced exclusion,
priority-inversion provenance."""

from __future__ import annotations

import pytest

from repro.api import SimConfig, SimSpec
from repro.check.differential import fingerprint
from repro.obs.events import PriorityInversion
from repro.obs.export import trace_from_events
from repro.runtime.resources import ResourceLedger, ResourceProtocol
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, Task
from repro.utils.validation import ValidationError


def contended_program(width: int = 6, resource: str = "dma"):
    """``width`` independent tasks all holding the same resource."""
    tf = TaskFlow("contended")
    for i in range(width):
        h = tf.data(4096, label=f"d{i}")
        tf.submit(
            "gemm", [(h, AccessMode.W)], flops=5e7,
            implementations=("cpu",), resources=(resource,),
        )
    return tf.program()


class TestProtocolValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            ResourceProtocol(mode="spinlock")

    @pytest.mark.parametrize("mode", ["lock", "ceiling"])
    def test_valid_modes(self, mode):
        assert ResourceProtocol(mode=mode).mode == mode


class TestLedger:
    def task(self, tid, resources=("r",), priority=0):
        return Task(tid, "t", resources=resources, priority=priority)

    def gate(self, led, task, start):
        """The gated start, and the inversions the gate emitted as
        ``(resource, holder_tid, holder_prio, wait_us)``."""
        events = []
        led.emit = events.append
        gated, duration = led.gate(task, None, start, start, 7.0)
        assert duration == 7.0  # resources never stretch an execution
        return gated, [
            (e.resource, e.holder_tid, e.holder_prio, e.wait_us) for e in events
        ]

    def test_gate_waits_for_busy_resource(self):
        led = ResourceLedger(ResourceProtocol(), [])
        holder = self.task(0)
        led.book(holder, None, 0.0, 50.0)
        gated, inversions = self.gate(led, self.task(1), 10.0)
        assert gated == 50.0
        assert inversions == []  # equal priority: a wait, not an inversion
        assert led.n_blocked == 1
        assert led.blocked_us == pytest.approx(40.0)

    def test_free_resource_starts_immediately(self):
        led = ResourceLedger(ResourceProtocol(), [])
        gated, inversions = self.gate(led, self.task(0), 5.0)
        assert gated == 5.0 and inversions == []
        assert led.n_blocked == 0

    def test_inversion_reported_behind_lower_priority_holder(self):
        led = ResourceLedger(ResourceProtocol(), [])
        led.book(self.task(0, priority=1), None, 0.0, 30.0)
        gated, inversions = self.gate(led, self.task(1, priority=5), 10.0)
        assert gated == 30.0
        assert inversions == [("r", 0, 1, 20.0)]
        assert led.n_inversions == 1

    def test_ceiling_blocks_on_other_held_resource(self):
        # "a" is held by a low-prio task but has a high ceiling (a
        # high-prio task names it): a mid-prio task wanting only "b"
        # must still wait — the ceiling's avoidance blocking.
        tasks = [
            self.task(0, resources=("a",), priority=1),
            self.task(1, resources=("a",), priority=9),
            self.task(2, resources=("b",), priority=5),
        ]
        led = ResourceLedger(ResourceProtocol(mode="ceiling"), tasks)
        assert led.ceilings == {"a": 9, "b": 5}
        led.book(tasks[0], None, 0.0, 40.0)
        gated, inversions = self.gate(led, tasks[2], 10.0)
        assert gated == 40.0
        assert inversions == [("a", 0, 1, 30.0)]

    def test_lock_mode_ignores_unrelated_resources(self):
        led = ResourceLedger(ResourceProtocol(), [])
        led.book(self.task(0, resources=("a",)), None, 0.0, 40.0)
        gated, _ = self.gate(led, self.task(1, resources=("b",)), 10.0)
        assert gated == 10.0

    def test_stats_keys(self):
        led = ResourceLedger(ResourceProtocol(), [])
        led.book(self.task(0), None, 0.0, 10.0)
        self.gate(led, self.task(1), 0.0)
        stats = led.stats()
        assert stats["resource_n_grants"] == 1.0
        assert stats["resource_n_blocked"] == 1.0
        assert stats["resource_blocked_us"] == 10.0


class TestEngineExclusion:
    def run(self, program, resources=ResourceProtocol(), **cfg):
        cfg.setdefault("record_level", "tasks")
        spec = SimSpec(
            "small-hetero", "multiprio",
            config=SimConfig(resources=resources, **cfg),
        )
        return spec.run(program)

    def test_shared_resource_serializes_execution(self):
        res = self.run(contended_program(width=6))
        spans = sorted(
            (r.start, r.end) for r in trace_from_events(res.events, ()).task_records
        )
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end - 1e-9
        stats = res.rt_stats
        assert stats is not None
        assert stats["resource_n_grants"] == 6.0
        assert stats["resource_n_blocked"] > 0

    def test_disjoint_resources_run_concurrently(self):
        tf = TaskFlow("disjoint")
        for i in range(6):
            h = tf.data(4096, label=f"d{i}")
            tf.submit(
                "gemm", [(h, AccessMode.W)], flops=5e7,
                implementations=("cpu",), resources=(f"r{i}",),
            )
        res = self.run(tf.program())
        spans = sorted(
            (r.start, r.end) for r in trace_from_events(res.events, ()).task_records
        )
        overlaps = sum(
            1 for (s1, e1), (s2, _) in zip(spans, spans[1:]) if s2 < e1
        )
        assert overlaps > 0  # per-task resources impose no serialization

    def test_idle_protocol_is_bit_identical(self):
        # No task names a resource: the gate must not perturb anything.
        from repro.apps.dense import cholesky_program

        program = cholesky_program(4, 384)
        plain = SimSpec(
            "small-hetero", "multiprio", config=SimConfig(record_level="tasks")
        ).run(program)
        gated = self.run(program)
        assert fingerprint(gated) == fingerprint(plain)

    def test_priority_inversion_events_emitted(self):
        # A long low-priority holder grabs the lock first; high-priority
        # contenders then queue behind it.
        tf = TaskFlow("inv")
        h0 = tf.data(4096, label="d0")
        tf.submit("gemm", [(h0, AccessMode.W)], flops=5e8,
                  implementations=("cpu",), resources=("lock",),
                  priority=0)
        for i in range(4):
            h = tf.data(4096, label=f"d{i + 1}")
            tf.submit("gemm", [(h, AccessMode.W)], flops=5e7,
                      implementations=("cpu",), resources=("lock",),
                      priority=10)
        res = self.run(tf.program(), record_level="tasks")
        inversions = [
            e for e in res.events if isinstance(e, PriorityInversion)
        ]
        assert inversions
        for ev in inversions:
            assert ev.blocked_prio > ev.holder_prio
            assert ev.wait_us > 0.0
        assert res.rt_stats["resource_n_inversions"] == len(inversions)

    @pytest.mark.parametrize("mode", ["lock", "ceiling"])
    def test_contended_run_validates_under_checker(self, mode):
        res = self.run(
            contended_program(width=5),
            resources=ResourceProtocol(mode=mode),
            check_invariants=True,
        )
        assert res.makespan > 0
