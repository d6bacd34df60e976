"""Scheduling policies: MultiPrio and the StarPU baselines it is
compared to.

All policies implement :class:`repro.schedulers.base.Scheduler` and are
interchangeable in the simulator. MultiPrio (the paper's contribution)
lives in :mod:`repro.schedulers.multiprio` and is registered under
``"multiprio"``; the heuristics it composes live in :mod:`repro.core`.
"""

from repro.schedulers.base import Scheduler
from repro.schedulers.eager import Eager
from repro.schedulers.random_sched import RandomScheduler
from repro.schedulers.ws import WorkStealing, LocalityWorkStealing
from repro.schedulers.dm import Dm
from repro.schedulers.dmda import Dmda
from repro.schedulers.dmdas import Dmdas
from repro.schedulers.heteroprio import HeteroPrio
from repro.schedulers.auto_heteroprio import AutoHeteroPrio
from repro.schedulers.multiqueue import MultiQueue
from repro.schedulers.multiprio import MultiPrio

__all__ = [
    "Scheduler",
    "Eager",
    "RandomScheduler",
    "WorkStealing",
    "LocalityWorkStealing",
    "Dm",
    "Dmda",
    "Dmdas",
    "HeteroPrio",
    "AutoHeteroPrio",
    "MultiQueue",
    "MultiPrio",
    "make_scheduler",
    "register_scheduler",
    "scheduler_names",
    "parse_sched_opts",
]

_LAZY = {
    "make_scheduler",
    "register_scheduler",
    "scheduler_names",
    "parse_sched_opts",
}


def __getattr__(name: str):
    """Resolve the registry lazily (import-cycle guard)."""
    if name in _LAZY:
        from repro.schedulers import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
