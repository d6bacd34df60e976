"""Trace export tests: Chrome tracing JSON from the event stream + CSV."""

import json

from repro.analysis.export import to_csv
from repro.obs.export import events_to_chrome
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.schedulers.registry import make_scheduler
from tests.conftest import make_fork_join_program, trace_of


def run_trace(machine, program=None):
    program = program or make_fork_join_program(width=6)
    sim = Simulator(
        machine.platform(),
        make_scheduler("multiprio"),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_level="tasks",
    )
    res = sim.run(program)
    return program, res.events, trace_of(sim, res)


def chrome(events, trace):
    return json.loads(events_to_chrome(events, workers=trace.workers))["traceEvents"]


class TestChromeTrace:
    def test_valid_json_with_all_tasks(self, hetero_machine):
        program, events, trace = run_trace(hetero_machine)
        tasks = [e for e in chrome(events, trace) if e.get("cat") == "task"]
        assert len(tasks) == len(program)
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in tasks)

    def test_thread_names_cover_workers(self, hetero_machine):
        _, events, trace = run_trace(hetero_machine)
        names = [
            e for e in chrome(events, trace)
            if e["name"] == "thread_name" and e["pid"] == 0
        ]
        assert len(names) == len(trace.workers)
        assert {e["tid"] for e in names} == {w.wid for w in trace.workers}

    def test_wait_events_emitted_when_stalled(self, hetero_machine):
        # A GPU task reading 64 MiB a CPU task wrote must stall on PCIe.
        flow = TaskFlow()
        big = flow.data(64 * 2**20, label="big")
        flow.submit("init", [(big, AccessMode.W)], flops=1e6, implementations=("cpu",))
        flow.submit("gemm", [(big, AccessMode.R)], flops=1e6, implementations=("cuda",))
        _, events, trace = run_trace(hetero_machine, flow.program())
        waits = [e for e in chrome(events, trace) if e["name"] == "data wait"]
        stalls = [r for r in trace.task_records if r.wait_time > 0]
        assert stalls
        assert len(waits) == len(stalls)


class TestCsv:
    def test_header_and_rows(self, hetero_machine):
        program, _, trace = run_trace(hetero_machine)
        text = to_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0].startswith("tid,type,worker")
        assert len(lines) == len(program) + 1

    def test_rows_sorted_by_start(self, hetero_machine):
        _, _, trace = run_trace(hetero_machine)
        lines = to_csv(trace).strip().splitlines()[1:]
        starts = [float(line.split(",")[5]) for line in lines]
        assert starts == sorted(starts)
