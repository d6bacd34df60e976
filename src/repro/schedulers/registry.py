"""Name → scheduler factory registry used by the experiment harness.

Factories are callables accepting keyword parameters, so a registry
name identifies a *family* and ``make_scheduler(name, **params)``
selects a member: ``make_scheduler("multiprio", locality_eps=0.5,
locality_n=5)``. The ablation aliases (``multiprio-noevict`` etc.) are
thin wrappers that pre-bind one parameter and forward the rest.
"""

from __future__ import annotations

from typing import Callable

from repro.schedulers.auto_heteroprio import AutoHeteroPrio
from repro.schedulers.base import Scheduler
from repro.schedulers.cats import CATS
from repro.schedulers.dm import Dm
from repro.schedulers.dmda import Dmda
from repro.schedulers.dmdas import Dmdas
from repro.schedulers.edf import EDF
from repro.schedulers.eager import Eager
from repro.schedulers.heteroprio import HeteroPrio
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.multiqueue import MultiQueue
from repro.schedulers.random_sched import RandomScheduler
from repro.schedulers.static_heft import StaticHEFT
from repro.schedulers.ws import LocalityWorkStealing, WorkStealing
from repro.utils.validation import ValidationError

_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "eager": Eager,
    "edf": EDF,
    "random": RandomScheduler,
    "ws": WorkStealing,
    "lws": LocalityWorkStealing,
    "cats": CATS,
    "dm": Dm,
    "dmda": Dmda,
    "dmdas": Dmdas,
    "heteroprio": AutoHeteroPrio,  # the automated variant, as evaluated
    "heteroprio-manual": HeteroPrio,
    "static-heft": StaticHEFT,
    "multiprio": MultiPrio,
    "multiqueue": MultiQueue,
    # Relaxed-priority variant: per-node RelaxedTaskHeaps with k=4
    # sub-heaps (pass `relaxed=` explicitly to pick another width).
    "multiprio-relaxed": lambda **kw: MultiPrio(**{"relaxed": 4, **kw}),
    # Deadline-aware variant: promote tasks whose slack at push time
    # drops under 1 ms (pass `deadline_boost=` to pick another window).
    "multiprio-deadline": lambda **kw: MultiPrio(
        **{"deadline_boost": 1000.0, **kw}
    ),
    # Ablation aliases: back-compat wrappers over MultiPrio parameters.
    "multiprio-noevict": lambda **kw: MultiPrio(eviction=False, **kw),
    "multiprio-nolocality": lambda **kw: MultiPrio(use_locality=False, **kw),
    "multiprio-nocrit": lambda **kw: MultiPrio(use_criticality=False, **kw),
    "multiprio-rawbrw": lambda **kw: MultiPrio(drain_aware=False, **kw),
}


def _register_extensions() -> None:
    """Extension schedulers live outside the core package; import them
    lazily so the registry module has no hard dependency on them."""
    from repro.extensions.energy import EnergyAwareMultiPrio

    _FACTORIES.setdefault("multiprio-energy", EnergyAwareMultiPrio)
    # Energy-delay-product variant (pass `objective=` to override).
    _FACTORIES.setdefault(
        "multiprio-edp",
        lambda **kw: EnergyAwareMultiPrio(**{"objective": "edp", **kw}),
    )


_register_extensions()


def scheduler_names() -> list[str]:
    """All registered scheduler names."""
    return sorted(_FACTORIES)


def make_scheduler(name: str, **params) -> Scheduler:
    """Instantiate a fresh scheduler by registry name.

    Keyword parameters are forwarded to the scheduler factory::

        make_scheduler("multiprio", locality_eps=0.5, locality_n=5)
        make_scheduler("multiprio-noevict", slowdown_cap=None)

    A parameter the factory does not accept raises
    :class:`~repro.utils.validation.ValidationError`.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValidationError(
            f"unknown scheduler {name!r}; known: {', '.join(scheduler_names())}"
        )
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValidationError(
            f"scheduler {name!r} rejected parameters {params!r}: {exc}"
        ) from None


def register_scheduler(
    name: str, factory: Callable[..., Scheduler], *, override: bool = False
) -> None:
    """Register a custom scheduler factory (used by examples/tests).

    ``override=True`` replaces an existing registration — re-runnable
    scripts and tests use it to avoid duplicate-name errors.
    """
    if name in _FACTORIES and not override:
        raise ValidationError(
            f"scheduler {name!r} already registered (pass override=True to replace)"
        )
    _FACTORIES[name] = factory


def parse_sched_opts(pairs: list[str] | tuple[str, ...]) -> dict[str, object]:
    """Parse CLI ``key=value`` scheduler options into typed kwargs.

    Values are coerced in order: ``true``/``false`` → bool, ``none`` →
    None, int, float, and finally the bare string. Used by the CLI's
    ``--sched-opt`` passthrough.
    """
    opts: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValidationError(
                f"malformed scheduler option {pair!r}; expected key=value"
            )
        opts[key] = _coerce(raw.strip())
    return opts


def _coerce(raw: str) -> object:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw
