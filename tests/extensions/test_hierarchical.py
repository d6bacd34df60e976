"""Hierarchical task expansion tests."""

import pytest

from repro.analysis.validation import check_schedule
from repro.extensions.hierarchical import BubbleSpec, HierarchicalFlow
from repro.runtime.dag import task_type_histogram, validate_dag
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.task import AccessMode
from repro.schedulers.registry import make_scheduler
from tests.conftest import trace_of


def build(threshold=1e9, partitions=4, bubbles=(5e8, 2e9)):
    hf = HierarchicalFlow(BubbleSpec(threshold_flops=threshold, partitions=partitions))
    data = hf.data(1 << 20, label="X")
    hf.submit_bubble("seed", [(data, AccessMode.W)], flops=1e3)
    for i, flops in enumerate(bubbles):
        hf.submit_bubble("work", [(data, AccessMode.RW)], flops=flops, tag=i)
    return hf


class TestExpansion:
    def test_small_bubble_stays_coarse(self):
        hf = build(bubbles=(5e8,))
        assert hf.n_coarse >= 1
        hist = task_type_histogram(hf.program().tasks)
        assert "work" in hist
        assert "work_fine" not in hist

    def test_large_bubble_expands(self):
        hf = build(bubbles=(2e9,), partitions=4)
        assert hf.n_expanded == 1
        hist = task_type_histogram(hf.program().tasks)
        assert hist["work_fine"] == 4
        assert hist["split"] == 1  # RW output needs the scatter
        assert hist["merge"] == 1

    def test_write_only_bubble_skips_split(self):
        hf = HierarchicalFlow(BubbleSpec(threshold_flops=1e6, partitions=3))
        out = hf.data(1 << 20)
        hf.submit_bubble("init", [(out, AccessMode.W)], flops=1e7)
        hist = task_type_histogram(hf.program().tasks)
        assert "split" not in hist
        assert hist["merge"] == 1
        assert hist["init_fine"] == 3

    def test_fine_tasks_split_the_flops(self):
        hf = build(bubbles=(2e9,), partitions=4)
        fine = [t for t in hf.program().tasks if t.type_name == "work_fine"]
        assert all(t.flops == pytest.approx(5e8) for t in fine)

    def test_expansion_preserves_dependencies(self):
        """Fine tasks of bubble k must transitively wait for bubble k-1."""
        hf = build(bubbles=(2e9, 2e9))
        program = hf.program()
        validate_dag(program.tasks)
        splits = [t for t in program.tasks if t.type_name == "split"]
        assert len(splits) == 2
        # The second split reads X, written by the first bubble's merge.
        second = splits[1]
        assert any(p.type_name == "merge" for p in second.preds)

    def test_mixed_granularity_program_runs(self, hetero_machine):
        hf = build(bubbles=(5e8, 2e9, 3e9, 1e8))
        program = hf.program()
        sim = Simulator(
            hetero_machine.platform(),
            make_scheduler("multiprio"),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
            record_level="tasks",
        )
        res = sim.run(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)

    def test_invalid_spec(self):
        with pytest.raises(Exception):
            BubbleSpec(partitions=0)
        with pytest.raises(Exception):
            BubbleSpec(threshold_flops=0.0)
