"""Facade-level benchmark of the simulator: five workloads through ``SimSpec``.

Run it from the repository root with ``python -m bench``; ``bench/README.md``
lists the workloads, the metrics and how to trace and compare runs. The
package imports ``repro`` from the ``src/`` directory of the checkout it
sits in, so it measures the code next to it and nothing installed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def use_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises :class:`MissingSourceError` when the checkout has no
    ``src/repro``, so the benchmark never measures some other copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(f"no repro package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    return json.loads(BENCHMARK_JSON.read_text())
