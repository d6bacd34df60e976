"""Repeats in fresh processes, their aggregation, and the printed report.

One *run* measures one workload for a fixed number of seconds. It starts
one fresh Python process per *repeat*, one at a time; each repeat imports
``repro`` and builds the inputs (timed as ``setup_s``), makes one timed
facade call (``run_s``), checks the outputs and reports its peak RSS. The
run reports medians over its repeats. A traced run alternates untraced
and traced repeats, so the tracing overhead is measured on the same inputs.

Host times are given at a reference core speed. A shared virtual machine
runs the same code up to twice as slowly from one second to the next. So
each repeat also times a short fixed reference loop on its own core:
before set-up, every ``REFERENCE_INTERVAL_S`` during set-up and the call
(from a timer signal, its time taken out of theirs), and after the call.
It scales its wall times by ``host_speed = REFERENCE_S / mean(reference
loop times)``. The mean, not the median, because the wall time is slowed
by every stall, short or long, and the timer samples them in proportion
to their length; a median ignores the short bursts that add up. A change
to ``repro`` cannot move the reference loop, so it moves the scaled times
as it moves the wall times. The wall times and ``host_speed`` are kept
beside the scaled times.
"""

from __future__ import annotations

import heapq
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any

from bench import ROOT, load_spec, use_repro

#: Wall time of :func:`reference_loop` on the reference core: an
#: uncontended vCPU of a 2-vCPU x86_64 VM (Intel Xeon) running CPython 3.11.
REFERENCE_S = 0.0009
#: Reference loops timed before set-up and after the call.
REFERENCE_SAMPLES = 20
#: Period of the reference loops timed during set-up and the call. They
#: take 6-12% of it; sampling half as often estimated the speed worse.
REFERENCE_INTERVAL_S = 0.015
#: Repeats below which a run does not stop, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: A run starts no new repeat that could end after this many seconds.
HARD_LIMIT_S = 150.0
#: Wall-clock limit of one repeat process.
REPEAT_TIMEOUT_S = 120.0

#: Outcome metrics reported beside the host metrics of ``BENCHMARK.json``.
#: They are simulated, so a change that only speeds the simulator up must
#: leave each of them identical for the same seed.
SIM_UNITS = {
    "makespan_us": "us",
    "sim_gflops": "GFLOP/s",
    "job_latency_p50_us": "us",
    "job_latency_p95_us": "us",
    "mean_slowdown": "ratio",
    "deadline_miss_rate": "ratio",
    "jobs_shed_frac": "ratio",
    "energy_j": "J",
}

#: Environment of a repeat: one thread for any numeric library.
_REPEAT_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


# -- one repeat (runs in the child process) -----------------------------------


#: Pseudo-random bits for the branches of :func:`reference_loop`.
_COIN = tuple(((i * 2654435761) >> 7) & 1 for i in range(4096))


def reference_loop() -> None:
    """A fixed piece of interpreter work in two parts: dict updates, float
    arithmetic and a bounded heap for a third of its time; then branches
    no predictor can learn. When the VM slowed down, the first part alone
    slowed more than the simulator and the second alone less; in this mix
    the loop slowed about as much as the workloads did. It allocates no
    object the garbage collector tracks, so it never starts a collection."""
    heap: list[int] = []
    table: dict[int, float] = {}
    for i in range(900):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 64:
            heapq.heappop(heap)
    total = 0
    for i in range(9_500):
        if _COIN[i & 4095]:
            total += i
        else:
            total -= 1


class ReferenceClock:
    """Times :func:`reference_loop` on the core this process runs on."""

    def __init__(self) -> None:
        #: Wall time of each reference loop.
        self.samples: list[float] = []
        #: Time the loops took from inside :meth:`sampling` blocks.
        self.sampled_s = 0.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def sample(self, n: int) -> None:
        for _ in range(n):
            self._sample()

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sampled_s += self._sample()

    @contextmanager
    def sampling(self):
        """Time a reference loop every ``REFERENCE_INTERVAL_S`` inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timed(self, phases: list[tuple[float, list[float]]]):
        """Append the block's wall time, less the reference loops in it, and
        the times of those loops, to ``phases``."""
        first, sampled, t0 = len(self.samples), self.sampled_s, time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0 - (self.sampled_s - sampled)
            phases.append((wall, self.samples[first:]))

    def speed(self, during: list[float]) -> float:
        """The core's mean speed against the reference core, from the loops
        timed ``during`` a phase, or from every loop if fewer than 3 were."""
        return REFERENCE_S / statistics.fmean(during if len(during) >= 3 else self.samples)


def repeat(
    workload: str, seed: int, trace: bool, smoke: bool, force_fail: bool, out: Path
) -> dict:
    """Build, call and check one workload in this process."""
    import numpy  # noqa: F401  (a dependency's import is not the repo's set-up)

    clock = ReferenceClock()
    clock.sample(REFERENCE_SAMPLES)
    phases: list[tuple[float, list[float]]] = []
    with clock.sampling():
        with clock.timed(phases):
            use_repro()
            from bench.workloads import WORKLOADS

            tracer = None
            if trace:
                from bench.trace import BUILD, Tracer

                tracer = Tracer()
            with tracer.span(BUILD) if tracer else nullcontext():
                prepared = WORKLOADS[workload].build(seed, smoke)

        doc: dict[str, Any] = {"n_tasks": prepared.n_tasks, "failed": []}
        if tracer:
            tracer.install(prepared.scheduler)
        try:
            with clock.timed(phases), tracer.facade() if tracer else nullcontext():
                result = prepared.call()
        except Exception:
            doc["failed"].append("facade call raised:\n" + traceback.format_exc())
            return doc
        finally:
            if tracer:
                tracer.uninstall()
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.sample(REFERENCE_SAMPLES)
    (wall_setup_s, setup_loops), (wall_run_s, run_loops) = phases
    setup_speed, speed = clock.speed(setup_loops), clock.speed(run_loops)
    doc.update(
        host_speed=speed,
        wall_setup_s=wall_setup_s,
        wall_run_s=wall_run_s,
        setup_s=wall_setup_s * setup_speed,
        run_s=wall_run_s * speed,
    )

    try:
        doc["sim"], failed = prepared.evaluate(result)
        doc["failed"].extend(failed)
    except Exception:
        doc["failed"].append("output check raised:\n" + traceback.format_exc())
    if force_fail:
        doc["failed"].append("check forced to fail (--force-fail)")
    if tracer:
        # The timer fires evenly in time, so the reference loops sit in every
        # span in proportion to its length; scaling by each phase's share of
        # time outside the loops takes them out. A GC pause holds none.
        net_setup = wall_setup_s / (wall_setup_s + sum(setup_loops))
        net_run = wall_run_s / (wall_run_s + sum(run_loops))
        doc["layers"] = tracer.layer_metrics(
            prepared.n_tasks, result, setup_speed * net_setup, speed * net_run, speed
        )
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"{workload}.trace.json")
    return doc


# -- one run (the parent process) ---------------------------------------------


def _spawn(
    workload: str, seed: int, trace: bool, smoke: bool, force_fail: bool, out: Path
) -> dict:
    """One repeat in a fresh process; its report, or a failure."""
    cmd = [
        sys.executable, "-m", "bench", "--repeat-child",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--out", str(out.resolve()),
    ]
    if smoke:
        cmd.append("--smoke")
    if force_fail:
        cmd.append("--force-fail")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **_REPEAT_ENV},
            capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failed": [f"repeat exceeded {REPEAT_TIMEOUT_S:.0f} s"], "trace": trace}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {
            "failed": [f"repeat exited with {proc.returncode}: {proc.stderr[-2000:]}"],
            "trace": trace,
        }
    return {**json.loads(lines[-1]), "trace": trace}


def _summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    out: Path,
    trace: bool = False,
    smoke: bool = False,
    force_fail: bool = False,
) -> dict:
    """Repeat ``workload`` for about ``seconds`` seconds; the run's document.
    Traced repeats write their spans under ``out``."""
    spec = load_spec()
    begin = time.perf_counter()
    repeats: list[dict] = []
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        # A traced run alternates: untraced, traced, untraced, ...
        traced = trace and len(repeats) % 2 == 1
        repeats.append(_spawn(workload, seed, traced, smoke, force_fail, out))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - begin
        next_s = max(durations[-2:])
        if elapsed + next_s > HARD_LIMIT_S:
            break
        if len(repeats) >= MIN_REPEATS and elapsed + next_s > seconds:
            break

    # Simulated outputs must not differ between repeats of one seed.
    ok = [r for r in repeats if not r["failed"]]
    for r in ok[1:]:
        if r["sim"] != ok[0]["sim"]:
            r["failed"].append("simulated metrics differ from the first repeat's")
    failed = [r for r in repeats if r["failed"]]
    ok = [r for r in repeats if not r["failed"]]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]

    doc: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "seconds": seconds,
        "attempted": len(repeats),
        "failed": len(failed),
        "error_frac": len(failed) / len(repeats),
        "failures": [r["failed"] for r in failed],
        "sim": ok[0]["sim"] if ok else {},
        "metrics": {},
    }
    if plain:
        n_tasks = plain[0]["n_tasks"]
        samples = {
            "setup_s": [r["setup_s"] for r in plain],
            "run_s": [r["run_s"] for r in plain],
            "tasks_per_s": [n_tasks / r["run_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for m in spec["end_to_end"]:
            doc["metrics"][m["name"]] = {
                **_summary(samples[m["name"]]), "unit": m["unit"],
            }
        # Unscaled wall times, and how fast the core ran against the reference.
        doc["host"] = {
            key: {**_summary([r[key] for r in plain]), "unit": unit}
            for key, unit in (
                ("wall_setup_s", "s"), ("wall_run_s", "s"), ("host_speed", "ratio")
            )
        }
    if traced:
        doc["layers"] = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead":
                value = (
                    statistics.median(r["run_s"] for r in traced)
                    / statistics.median(r["run_s"] for r in plain)
                    if plain else 0.0
                )
            else:
                value = statistics.median(r["layers"][m["name"]] for r in traced)
            doc["layers"][m["name"]] = {"value": value, "unit": m["unit"]}
    doc["correct"] = not failed and bool(plain) and (bool(traced) or not trace)
    return doc


# -- report -------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.2f}"


def print_report(doc: dict) -> None:
    """Every end-to-end metric by name and unit; per-layer ones if traced."""
    print(
        f"{doc['workload']}  seed {doc['seed']}  {doc['attempted']} repeats, "
        f"{doc['failed']} failed"
    )
    for name, m in (*doc["metrics"].items(), *doc.get("host", {}).items()):
        print(
            f"  {name:<22} {_fmt(m['value']):>14} {m['unit']:<8} "
            f"median of n={m['n']} (q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])})"
        )
    print(f"  {'error_frac':<22} {_fmt(doc['error_frac']):>14} {'ratio':<8}")
    for name, value in doc["sim"].items():
        print(f"  {name:<22} {_fmt(value):>14} {SIM_UNITS[name]:<8} simulated")
    for name, m in doc.get("layers", {}).items():
        print(f"  {name:<38} {_fmt(m['value']):>14} {m['unit']}")
    for failures in doc["failures"]:
        for failure in failures:
            print(f"  FAILED: {failure}")


def result_line(doc: dict, trace: bool) -> str:
    """The last output line of a single-workload run: the verdict, the repeat
    counts, and the end-to-end (or, traced, the per-layer) metrics."""
    metrics = doc.get("layers", {}) if trace else doc["metrics"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def write_latest(docs: list[dict], out: Path) -> None:
    """``<out>/latest.json``: this invocation's runs, on one line."""
    out.mkdir(parents=True, exist_ok=True)
    latest = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "workloads": {d["workload"]: d for d in docs},
    }
    (out / "latest.json").write_text(json.dumps(latest) + "\n")
