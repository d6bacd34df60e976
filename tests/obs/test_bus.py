"""Event-bus and Observability façade tests."""

from repro.obs.bus import EventBus, Observability
from repro.obs.events import RecordLevel, TaskPop, TaskReady


class TestEventBus:
    def test_global_subscriber_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(TaskReady(t=0.0, tid=1, type_name="k"))
        bus.emit(TaskPop(t=1.0, tid=1, wid=0))
        assert [type(e).__name__ for e in seen] == ["TaskReady", "TaskPop"]

    def test_kind_filter(self):
        bus = EventBus()
        pops = []
        bus.subscribe(pops.append, kinds=["task_pop"])
        bus.emit(TaskReady(t=0.0, tid=1, type_name="k"))
        bus.emit(TaskPop(t=1.0, tid=1, wid=0))
        assert len(pops) == 1 and isinstance(pops[0], TaskPop)

    def test_kind_specific_before_global(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("global"))
        bus.subscribe(lambda e: order.append("kind"), kinds=["task_pop"])
        bus.emit(TaskPop(t=0.0, tid=1, wid=0))
        assert order == ["kind", "global"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit(TaskPop(t=0.0, tid=1, wid=0))
        assert seen == []


class TestObservability:
    def test_level_predicates(self):
        assert not Observability(RecordLevel.TASKS).decisions
        assert Observability(RecordLevel.TASKS).enabled
        assert Observability("decisions").decisions
        assert not Observability(RecordLevel.OFF).enabled

    def test_events_retained(self):
        obs = Observability("tasks")
        obs.emit(TaskPop(t=0.0, tid=1, wid=0))
        assert len(obs.events) == 1

    def test_keep_events_false(self):
        obs = Observability("tasks", keep_events=False)
        obs.emit(TaskPop(t=0.0, tid=1, wid=0))
        assert obs.events == []
        # metrics still collected
        obs.emit(TaskPop(t=1.0, tid=2, wid=0))
        assert obs.metrics.snapshot().counters == {}  # pops carry no counter

    def test_begin_run_resets(self):
        obs = Observability("tasks")
        obs.emit(TaskPop(t=0.0, tid=1, wid=0))
        obs.metrics.counter("junk").inc()
        obs.begin_run()
        assert obs.events == []
        assert obs.metrics.snapshot().counters == {}

    def test_snapshot_derives_makespan(self):
        obs = Observability("tasks")
        snap = obs.snapshot(42.0, {"cuda": 0.25, "cpu": 0.5})
        assert snap.derived == {
            "makespan_us": 42.0, "idle_frac.cpu": 0.5, "idle_frac.cuda": 0.25,
        }
