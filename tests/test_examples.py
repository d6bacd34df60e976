"""Examples must stay runnable: execute each script with small inputs."""

import re
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", [], capsys)
    assert "multiprio" in out and "makespan" in out


def test_dense_cholesky(capsys):
    out = run_example("dense_cholesky.py", ["8", "512"], capsys)
    assert "intel-v100" in out and "Gantt" in out


def test_fmm_scheduling(capsys):
    out = run_example("fmm_scheduling.py", ["4000", "4"], capsys)
    assert "ellipsoid" in out and "multiprio" in out


def test_sparse_qr_ratios(capsys):
    out = run_example("sparse_qr_ratios.py", ["0.004"], capsys)
    assert "multiprio / dmdas" in out


def test_custom_scheduler(capsys):
    out = run_example("custom_scheduler.py", [], capsys)
    assert "greedy-speedup" in out


def test_efficiency_bounds(capsys):
    out = run_example("efficiency_bounds.py", ["8", "512"], capsys)
    assert "efficiency" in out and "lower bounds" in out


@pytest.mark.slow
def test_eviction_trace(capsys):
    out = run_example("eviction_trace.py", [], capsys)
    assert "eviction gains" in out


def readme_python_blocks() -> list[str]:
    text = (EXAMPLES.parent / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run_in_order(capsys):
    """README's python blocks build on each other: run them in one
    namespace, in order, as a reader pasting them into one session."""
    blocks = readme_python_blocks()
    assert len(blocks) == 9
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        if "default_overload_config" in block:
            # The control-plane example completes every job of its stream.
            control = namespace["sres"].control
            assert control.n_arrived == control.n_completed == 8
    capsys.readouterr()
