"""Exporter tests: JSONL round-trip, Chrome trace, golden files, analyses."""

import json
from pathlib import Path

import pytest

from repro.obs.events import (
    DecisionEvent,
    TaskEnd,
    TransferEvent,
    WorkerDeath,
)
from repro.obs.export import (
    decision_counts,
    events_from_jsonl,
    events_to_chrome,
    events_to_jsonl,
    summary_report,
    trace_from_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.task import Task
from repro.runtime.worker import Worker

GOLDEN_DIR = Path(__file__).parent


def make_workers():
    return [Worker(0, "cpu", 0, "cpu0"), Worker(1, "cuda", 1, "gpu0.s0")]


def small_stream():
    return [
        TaskEnd(t=10.0, tid=0, type_name="potrf", wid=1, node=1,
                pop_time=0.0, start=2.0, end=10.0),
        TransferEvent(t=0.0, hid=3, src=0, dst=1, nbytes=1024,
                      start=0.0, end=2.0),
        DecisionEvent(t=0.0, scheduler="multiprio", action="pop", tid=0,
                      type_name="potrf", wid=1, node=1, gain=1.0,
                      pop_condition=True),
        DecisionEvent(t=5.0, scheduler="multiprio", action="skip", tid=1,
                      wid=0, node=0, pop_condition=False, brw=1.0, delta=9.0),
    ]


class TestJsonl:
    def test_round_trip(self):
        events = small_stream()
        back = events_from_jsonl(events_to_jsonl(events))
        assert back == events

    def test_empty(self):
        assert events_to_jsonl([]) == ""
        assert events_from_jsonl("") == []

    def test_blank_lines_skipped(self):
        text = events_to_jsonl(small_stream())
        assert events_from_jsonl("\n" + text + "\n\n") == small_stream()


class TestChrome:
    def test_loads_and_has_tracks(self):
        doc = json.loads(events_to_chrome(small_stream(),
                                          workers=make_workers()))
        evs = doc["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert "X" in phases and "i" in phases and "M" in phases
        names = {e["args"]["name"] for e in evs if e["ph"] == "M"}
        assert "workers" in names and "links" in names
        assert "link 0->1" in names

    def test_counter_track_from_gauges(self):
        metrics = MetricsRegistry()
        metrics.gauge("heap_depth.node0").set(3.0, 1.0)
        doc = json.loads(events_to_chrome([], metrics=metrics))
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters and counters[0]["name"] == "heap_depth.node0"
        assert counters[0]["args"]["value"] == 3.0

    def test_data_wait_slice(self):
        doc = json.loads(events_to_chrome(small_stream()))
        waits = [e for e in doc["traceEvents"] if e["name"] == "data wait"]
        assert len(waits) == 1 and waits[0]["dur"] == pytest.approx(2.0)

    def test_decision_instants_carry_provenance(self):
        doc = json.loads(events_to_chrome(small_stream()))
        skips = [e for e in doc["traceEvents"]
                 if e["ph"] == "i" and e["name"].endswith(":skip")]
        assert skips and skips[0]["args"]["brw"] == 1.0
        assert skips[0]["args"]["pop_condition"] is False


class TestGoldenFiles:
    """The checked-in fixtures pin the wire formats."""

    def test_golden_jsonl_round_trips(self):
        text = (GOLDEN_DIR / "golden_events.jsonl").read_text()
        events = events_from_jsonl(text)
        assert len(events) == 19
        assert events_to_jsonl(events) == text

    def test_golden_chrome_matches_exporter(self):
        events = events_from_jsonl(
            (GOLDEN_DIR / "golden_events.jsonl").read_text())
        workers = make_workers()
        metrics = MetricsRegistry()
        g = metrics.gauge("heap_depth.node1")
        for t, v in ((0.0, 1.0), (0.5, 0.0), (190.0, 1.0), (191.0, 0.0)):
            g.set(v, t)
        produced = events_to_chrome(events, workers=workers, metrics=metrics)
        golden = (GOLDEN_DIR / "golden_chrome.json").read_text()
        assert json.loads(produced) == json.loads(golden)

    def test_golden_chrome_is_loadable(self):
        doc = json.loads((GOLDEN_DIR / "golden_chrome.json").read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert "ph" in ev and "pid" in ev
            if ev["ph"] == "X":
                assert ev["dur"] >= 0 and "ts" in ev


class TestAnalyses:
    def test_trace_from_events(self):
        trace = trace_from_events(small_stream(), make_workers())
        assert len(trace.task_records) == 1
        assert trace.makespan() == 10.0
        assert trace.transfer_records[0].src == 0
        assert trace.record_of(0).type_name == "potrf"

    def test_idle_fractions_match_trace_formula(self):
        trace = trace_from_events(small_stream(), make_workers())
        # gpu occupied 10/10 (incl. wait), cpu fully idle
        assert trace.idle_fraction(1) == pytest.approx(0.0)
        assert trace.idle_fraction(0) == pytest.approx(1.0)

    def test_idle_fractions_empty(self):
        trace = trace_from_events([], make_workers())
        assert [trace.idle_fraction(w.wid) for w in trace.workers] == [0.0, 0.0]

    def test_decision_counts(self):
        assert decision_counts(small_stream()) == {"pop": 1, "skip": 1}

    def test_summary_report_sections(self):
        t0 = Task(0, "potrf")
        report = summary_report(small_stream(), workers=make_workers(),
                                tasks=[t0])
        assert "makespan 10.0 us" in report
        assert "gpu0.s0" in report
        assert "scheduler decisions: pop=1, skip=1" in report
        assert "practical critical path" in report

    def test_summary_report_without_tasks(self):
        report = summary_report(small_stream(), workers=make_workers())
        assert "practical critical path" not in report

    def test_summary_report_handles_death_events(self):
        events = small_stream() + [WorkerDeath(t=20.0, wid=0, name="cpu0")]
        assert "makespan" in summary_report(events, workers=make_workers())
