"""Helpers for self-checks whose cost follows what changed.

A structure that audits itself after every simulation event (a
scheduler's :meth:`~repro.schedulers.base.Scheduler.check`, the control
plane's audit) keeps its verdicts between calls in a :class:`ChangeLog`
and re-derives only what the log names. The invariant checker's write
barrier (:mod:`repro.check.barrier`) fills the log during a checked run;
outside one there is no log, every call starts from a fresh one, and
the check costs a full sweep.

:class:`ExactSum` keeps the float sums those checks compare against
exactly, so that a cheap test can clear a tolerance check that a full
recomputation would also pass.
"""

from __future__ import annotations

import math

#: Every finite float is an integer multiple of 2**-1074.
_SHIFT = 1074
_SCALE = 1 << _SHIFT
#: Twice the unit roundoff of a float.
_UNIT = 2.0**-52


class ChangeLog:
    """What changed in one structure since its last check.

    ``reset`` says everything counts as changed: the check rebuilds its
    ``memo`` (the verdicts and derived state it keeps between calls).
    Otherwise ``items`` lists the objects whose contribution may have
    changed (tasks, job records) and ``parts`` holds the keys of the
    containers written (heaps, sub-heaps). Writers append through bound
    methods, so a check drains both in place.
    """

    __slots__ = ("reset", "items", "parts", "memo")

    def __init__(self) -> None:
        self.reset = True
        self.items: list = []
        self.parts: set = set()
        self.memo: dict = {}

    def drain(self) -> "tuple[list, set] | None":
        """The logged ``(items, parts)``, emptying the log; ``None`` after
        a reset, with ``memo`` cleared for the caller to rebuild."""
        items, parts = self.items[:], set(self.parts)
        self.items.clear()
        self.parts.clear()
        if self.reset:
            self.reset = False
            self.memo.clear()
            return None
        return items, parts


def _scaled(x: float) -> int:
    """``x * 2**1074`` as an exact integer (``x`` finite)."""
    num, den = x.as_integer_ratio()
    return num << (_SHIFT + 1 - den.bit_length())


class ExactSum:
    """A multiset of floats whose sum is kept exactly.

    :meth:`within` decides a tolerance check ``|got - s| <= tol(s)`` for
    every float ``s`` that adds the terms one by one in any order, which
    is what a full recomputation does. The bound used is the classic
    recursive-summation error, ``n * u * sum(|x|)``, with a factor-two
    margin, so a ``True`` is certain and a ``False`` only means "in
    doubt".
    """

    __slots__ = ("_total", "_mass", "n", "nonfinite")

    def __init__(self) -> None:
        self._total = 0
        self._mass = 0
        self.n = 0
        #: Terms that are infinite or NaN, which only a full sum can judge.
        self.nonfinite = 0

    def add(self, x: float) -> None:
        self.n += 1
        if not math.isfinite(x):
            self.nonfinite += 1
            return
        s = _scaled(x)
        self._total += s
        self._mass += abs(s)

    def remove(self, x: float) -> None:
        """Take back one earlier :meth:`add` of ``x``."""
        self.n -= 1
        if not math.isfinite(x):
            self.nonfinite -= 1
            return
        s = _scaled(x)
        self._total -= s
        self._mass -= abs(s)

    def within(self, got: float, rel: float, floor: float) -> bool:
        """Whether ``|got - s| <= max(floor, rel * |s|)`` holds for every
        float sum ``s`` of the terms, with room to spare."""
        if self.nonfinite:
            return False
        approx = self._total / _SCALE
        err = _UNIT * (abs(approx) + self.n * (self._mass / _SCALE))
        tol = max(floor, rel * (abs(approx) - err))
        return abs(got - approx) + err <= 0.5 * tol
