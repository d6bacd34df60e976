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


def ls_sdh2(task: Task, node: int) -> float:
    """Locality score of ``task`` on memory node ``node`` (higher = more local).

    MultiPrio scores up to a window's worth of candidates per admitted
    pop, so the loop reads ``valid_nodes`` and the mode sets directly
    instead of going through ``DataHandle.is_valid_on`` and the
    ``AccessMode.is_read``/``is_write`` properties. The terms are added
    in access order, so the float sum is the same as the plain loop's.
    """
    score = 0.0
    for handle, mode in task.accesses:
        if node not in handle.valid_nodes:
            continue
        if mode in _READ_MODES:
            score += float(handle.size)
        if mode in _WRITE_MODES:
            score += float(handle.size) ** 2
    return score
