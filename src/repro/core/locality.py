"""Data locality — the LS_SDH² score, Eq. (3) (from Bramas [20]).

::

    LS_SDH²(m, t) = Σ_{d ∈ D_{t,m}^R} d.size  +  Σ_{d ∈ D_{t,m}^W} d.size²

where ``D_{t,m}`` is the data used by ``t`` already resident on memory
node ``m``, split by access mode. Write accesses count quadratically:
keeping the *output* data where it already lives avoids both the fetch
and the later invalidation traffic, so it dominates the score.

A handle accessed in RW (or COMMUTE) mode contributes to both sums, as
it is both read and written.
"""

from __future__ import annotations

from repro.runtime.task import _READ_MODES, _WRITE_MODES, Task

#: Integers below this bound are exact as floats (53-bit significand).
_EXACT_FLOAT_INT = float(1 << 53)


def ls_sdh2(task: Task, node: int) -> float:
    """Locality score of ``task`` on memory node ``node`` (higher = more local).

    MultiPrio scores up to a window's worth of candidates per admitted
    pop, so the sum runs over the task's pre-split access lists
    (``Task._reads``: read handles of non-zero size; ``Task._writes``)
    rather than testing each access's mode. That adds the terms in
    another order than :func:`_ls_sdh2_in_access_order`, the plain loop,
    but gives the same float: sizes are ints (``DataHandle`` coerces
    them), so while the sum stays below 2**53 every term and partial sum
    is an integer a float holds exactly, whatever the order. Rounding
    can only push a sum up, so a result below 2**53 proves no term was
    rounded; at or above it the plain loop is used instead.
    """
    score = 0.0
    for handle in task._reads:
        if node in handle.valid_nodes:
            score += handle.size
    for handle in task._writes:
        if node in handle.valid_nodes:
            size = float(handle.size)
            score += size * size
    if score < _EXACT_FLOAT_INT:
        return score
    return _ls_sdh2_in_access_order(task, node)


def _ls_sdh2_in_access_order(task: Task, node: int) -> float:
    """Eq. (3) with the terms added in access order."""
    score = 0.0
    for handle, mode in task.accesses:
        if node not in handle.valid_nodes:
            continue
        if mode in _READ_MODES:
            score += float(handle.size)
        if mode in _WRITE_MODES:
            score += float(handle.size) ** 2
    return score
