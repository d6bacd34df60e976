"""Opt-in correctness subsystem: invariant checking + differential tests.

``repro.check`` is never imported by the default simulation path — the
engine lazily imports :class:`~repro.check.invariants.InvariantChecker`
only when ``check_invariants=True`` (or ``REPRO_CHECK_INVARIANTS=1``),
so the zero-overhead guarantee of the hot loop is preserved.

Two halves:

* :mod:`repro.check.invariants` — an engine-attached validator that,
  after every simulation event, checks MSI coherence, link-clock
  monotonicity, task-state-machine legality, task conservation and the
  scheduler's own :meth:`~repro.schedulers.base.Scheduler.check` hook;
* :mod:`repro.check.differential` — metamorphic/differential properties
  of whole runs (determinism, lower bounds, fault-free equivalence),
  driven by the ``repro check`` CLI subcommand and ``tests/check/``;
* :mod:`repro.check.cluster` — global-tier audits of whole cluster runs
  (placement totality, gauge conservation, fabric byte accounting),
  applied by :meth:`~repro.api.SimSpec.run_cluster` when invariant
  checking is on.
"""

from typing import Any

__all__ = ["InvariantChecker", "check_cluster", "run_differential_suite"]


def __getattr__(name: str) -> Any:
    # Lazy re-exports: differential imports the SimSpec facade, which
    # imports the engine — eager imports here would create a cycle with
    # the engine's own (deferred) import of InvariantChecker.
    if name == "InvariantChecker":
        from repro.check.invariants import InvariantChecker

        return InvariantChecker
    if name == "run_differential_suite":
        from repro.check.differential import run_differential_suite

        return run_differential_suite
    if name == "check_cluster":
        from repro.check.cluster import check_cluster

        return check_cluster
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
