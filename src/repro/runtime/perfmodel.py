"""Performance models: what the scheduler's δ(t, a) comes from.

StarPU calibrates per-kernel, per-architecture history models from
measured execution times. We mirror that split:

* :class:`AnalyticalPerfModel` — the *ground truth* of the simulated
  machine: per (kernel, architecture) throughput plus a fixed overhead,
  optionally with lognormal execution noise. It answers both
  ``estimate`` (noise-free expectation, what a perfectly calibrated
  model would report) and ``sample`` (one actual execution).
* :class:`HistoryPerfModel` — wraps a truth model and estimates from the
  running mean of observed samples per (kernel, arch, size-bucket),
  falling back to the analytical expectation while uncalibrated. This is
  the faithful analog of StarPU's history-based model [21, 22].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.runtime.task import Task
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class KernelCalibration:
    """Throughput calibration of one kernel on one architecture.

    ``gflops`` is the *asymptotic* sustained throughput in GFlop/s;
    ``overhead_us`` the fixed per-invocation cost (kernel launch, runtime
    overhead). ``ramp_flops`` models the throughput ramp of wide
    architectures: the effective rate follows the saturation curve
    ``gflops * f / (f + ramp_flops)``, i.e. the kernel reaches half its
    peak at ``ramp_flops`` — large for GPUs (small kernels cannot fill
    the device), ~0 for a single CPU core. This size-dependent relative
    speed is what makes *per-task* affinity differ from per-type
    affinity, the heterogeneity MultiPrio exploits.

    A kernel with zero flops costs ``overhead_us``.
    """

    gflops: float
    overhead_us: float = 2.0
    ramp_flops: float = 0.0

    def __post_init__(self) -> None:
        if self.gflops <= 0:
            raise ValidationError(f"gflops must be > 0, got {self.gflops}")
        if self.overhead_us < 0:
            raise ValidationError(f"overhead_us must be >= 0, got {self.overhead_us}")
        if self.ramp_flops < 0:
            raise ValidationError(f"ramp_flops must be >= 0, got {self.ramp_flops}")

    def time_us(self, flops: float) -> float:
        """Expected execution time for ``flops`` floating-point operations.

        With the saturation model, ``f / rate(f)`` collapses to
        ``(f + ramp) / peak``; the ramp term only applies to non-empty
        kernels.
        """
        if flops <= 0.0:
            return self.overhead_us
        return self.overhead_us + (flops + self.ramp_flops) / (self.gflops * 1e3)


class CalibrationTable:
    """Lookup of :class:`KernelCalibration` per (kernel type, architecture).

    A per-architecture default entry (key ``"*"``) covers kernel types
    without a dedicated calibration.
    """

    def __init__(self, entries: dict[tuple[str, str], KernelCalibration]) -> None:
        self._entries = dict(entries)

    def lookup(self, type_name: str, arch: str) -> KernelCalibration:
        """Calibration for ``type_name`` on ``arch`` (default fallback)."""
        entry = self._entries.get((type_name, arch))
        if entry is None:
            entry = self._entries.get(("*", arch))
        if entry is None:
            raise ValidationError(f"no calibration for kernel {type_name!r} on {arch!r}")
        return entry

    def has(self, type_name: str, arch: str) -> bool:
        """Whether any calibration (specific or default) exists."""
        return (type_name, arch) in self._entries or ("*", arch) in self._entries

    def with_entry(
        self, type_name: str, arch: str, calib: KernelCalibration
    ) -> "CalibrationTable":
        """A copy of the table with one entry replaced/added."""
        entries = dict(self._entries)
        entries[(type_name, arch)] = calib
        return CalibrationTable(entries)


class PerfModel(Protocol):
    """What the engine and schedulers need from a performance model.

    Implementations may additionally expose a ``stable_estimates``
    class attribute: ``True`` promises that δ(t, a) is a function of
    ``(t.type_name, t.flops, a)`` for a whole run, licensing schedulers
    to cache it per task at push time and per kernel class across tasks
    (MultiPrio does both). Absent or ``False`` (e.g. history models that
    learn mid-run) means estimates must be queried live.
    """

    def estimate(self, task: Task, arch: str) -> float:
        """δ(t, a): expected execution time in microseconds."""

    def sample(self, task: Task, arch: str, rng: np.random.Generator) -> float:
        """One actual execution time in microseconds."""

    def record(self, task: Task, arch: str, measured: float) -> None:
        """Feed back a measured execution time (history models learn)."""


class AnalyticalPerfModel:
    """Ground-truth model driven by a :class:`CalibrationTable`.

    ``noise_sigma`` is the standard deviation of the lognormal
    multiplicative execution noise (0 = deterministic). Estimates are
    always the noise-free expectation.
    """

    #: δ(t, a) never changes during a run, so schedulers may cache it.
    stable_estimates = True

    def __init__(self, table: CalibrationTable, noise_sigma: float = 0.0) -> None:
        if noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self.table = table
        self.noise_sigma = noise_sigma
        # δ is a pure function of (kernel type, arch, flops), so the
        # memo lives on the model and is shared by every task: a stream
        # of a million structurally-identical tasks costs one table
        # lookup per (type, arch) instead of one per task.
        self._memo: dict[tuple[str, str, float], float] = {}

    def estimate(self, task: Task, arch: str) -> float:
        key = (task.type_name, arch, task.flops)
        cached = self._memo.get(key)
        if cached is None:
            cached = self.table.lookup(task.type_name, arch).time_us(task.flops)
            self._memo[key] = cached
        return cached

    def sample(self, task: Task, arch: str, rng: np.random.Generator) -> float:
        mean = self.estimate(task, arch)
        if self.noise_sigma == 0.0:
            return mean
        # Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).
        factor = math.exp(rng.normal(-0.5 * self.noise_sigma**2, self.noise_sigma))
        return mean * factor

    def record(self, task: Task, arch: str, measured: float) -> None:
        """Analytical models do not learn; provided for API uniformity."""


class HistoryPerfModel:
    """StarPU-like history-based estimator on top of a truth model.

    Estimates are running means per (kernel type, architecture, size
    bucket); buckets are log2 of the flop count, matching StarPU's
    footprint-hashed history entries closely enough for scheduling
    studies. Until ``min_samples`` measurements exist for a bucket the
    estimator falls back to the truth model's expectation scaled by
    ``cold_factor`` (1.0 = oracle fallback; >1 models pessimistic
    uncalibrated guesses).
    """

    #: Estimates drift as history accrues; schedulers must query live.
    stable_estimates = False

    def __init__(
        self,
        truth: AnalyticalPerfModel,
        min_samples: int = 3,
        cold_factor: float = 1.0,
    ) -> None:
        if min_samples < 1:
            raise ValidationError(f"min_samples must be >= 1, got {min_samples}")
        if cold_factor <= 0:
            raise ValidationError(f"cold_factor must be > 0, got {cold_factor}")
        self.truth = truth
        self.min_samples = min_samples
        self.cold_factor = cold_factor
        self._sums: dict[tuple[str, str, int], float] = {}
        self._counts: dict[tuple[str, str, int], int] = {}

    @staticmethod
    def _bucket(task: Task) -> int:
        return int(math.log2(task.flops)) if task.flops >= 1.0 else 0

    def _key(self, task: Task, arch: str) -> tuple[str, str, int]:
        return (task.type_name, arch, self._bucket(task))

    def estimate(self, task: Task, arch: str) -> float:
        key = self._key(task, arch)
        count = self._counts.get(key, 0)
        if count >= self.min_samples:
            return self._sums[key] / count
        return self.truth.estimate(task, arch) * self.cold_factor

    def sample(self, task: Task, arch: str, rng: np.random.Generator) -> float:
        return self.truth.sample(task, arch, rng)

    def record(self, task: Task, arch: str, measured: float) -> None:
        key = self._key(task, arch)
        self._sums[key] = self._sums.get(key, 0.0) + measured
        self._counts[key] = self._counts.get(key, 0) + 1

    def n_samples(self, task: Task, arch: str) -> int:
        """How many measurements the bucket of ``task`` has accumulated."""
        return self._counts.get(self._key(task, arch), 0)
