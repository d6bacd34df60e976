"""Argument validation helpers and the repository exception hierarchy."""

from __future__ import annotations

import os
from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation."""


class SchedulingError(ReproError, RuntimeError):
    """A scheduler produced an inconsistent decision (e.g. popped a task
    twice or assigned a task to a worker that cannot execute it)."""


class DeadlockError(ReproError, RuntimeError):
    """The simulation stopped making progress with unfinished tasks."""


class InvariantError(ReproError, RuntimeError):
    """The opt-in invariant checker (:mod:`repro.check`) found the engine
    or a scheduler violating one of its structural contracts (MSI
    coherence, link-clock monotonicity, task conservation, ...)."""


class FaultError(ReproError, RuntimeError):
    """Base class for unrecoverable injected-fault outcomes."""


class DataLossError(FaultError):
    """A fail-stop worker failure destroyed the sole valid replica of a
    handle that an unfinished task still needs to read."""


class RetryExhaustedError(FaultError):
    """A task kept failing transiently past the configured retry cap."""


def check_positive(name: str, value: float) -> float:
    """Validate ``value > 0``; returns the value for inline use."""
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate ``value >= 0``; returns the value for inline use."""
    if not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Validate ``lo <= value <= hi``; returns the value for inline use."""
    if not (lo <= value <= hi):
        raise ValidationError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> Any:
    """Validate ``isinstance(value, expected)``; returns the value."""
    if not isinstance(value, expected):
        exp = (
            expected.__name__
            if isinstance(expected, type)
            else "/".join(t.__name__ for t in expected)
        )
        raise ValidationError(f"{name} must be {exp}, got {type(value).__name__}")
    return value


def invariants_enabled(check_invariants: bool | None) -> bool:
    """Resolve a ``check_invariants`` setting: ``None`` defers to the
    ``REPRO_CHECK_INVARIANTS`` environment variable, which turns the
    checker on unless it is unset, empty or ``"0"``."""
    if check_invariants is None:
        return os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")
    return bool(check_invariants)
