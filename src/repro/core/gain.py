"""The gain (affinity) heuristic — Eq. (1) of the paper.

For a ready task ``t`` and an architecture ``a``::

    gain(t, a) = 1                                          if |A| = 1
               = (δ(t, a_2nd) - δ(t, a) + hd(a)) / (2·hd(a))  if a is fastest
               = (δ(t, a_1st) - δ(t, a) + hd(a)) / (2·hd(a))  otherwise

``hd(a)`` is the highest execution-time difference recorded so far on
architecture ``a`` (a running maximum over pushed tasks of the absolute
difference appearing in the numerator — the semantics pinned down by the
paper's Table II worked example, where hd(a₁) = hd(a₂) = 19 ms).

The resulting scores are in [0, 1]: the fastest architecture always gets
a score in [0.5, 1], every slower one a score in [0, 0.5], so across any
heap pair the task "pulls" toward the unit it accelerates most on.
"""

from __future__ import annotations

from repro.utils.validation import ValidationError


def pairwise_gain(delta_a: float, delta_ref: float, hd: float, fastest: bool) -> float:
    """Gain of an architecture given its δ, the reference δ and hd(a).

    ``delta_ref`` is δ on the second-fastest architecture when ``fastest``
    is true, and δ on the fastest architecture otherwise. With ``hd == 0``
    (no difference ever recorded) the score degenerates to the neutral 0.5.
    """
    if hd < 0:
        raise ValidationError(f"hd must be >= 0, got {hd}")
    if hd == 0.0:
        return 0.5
    value = (delta_ref - delta_a + hd) / (2.0 * hd)
    # Clamp: a task's own difference may exceed a stale hd for a few pushes.
    return min(1.0, max(0.0, value))


def gain_scores(deltas: dict[str, float], hd: dict[str, float]) -> dict[str, float]:
    """Gain of every architecture for one task (pure function).

    ``deltas`` maps each executable architecture to δ(t, a); ``hd`` maps
    each architecture to its current highest-difference. Single-
    architecture tasks score 1 (the |A| = 1 branch of Eq. 1).
    """
    if not deltas:
        raise ValidationError("gain_scores needs at least one architecture")
    if len(deltas) == 1:
        return {arch: 1.0 for arch in deltas}
    ordered = sorted(deltas, key=lambda a: (deltas[a], a))
    fastest, second = ordered[0], ordered[1]
    out: dict[str, float] = {}
    for arch, delta in deltas.items():
        if arch == fastest:
            out[arch] = pairwise_gain(delta, deltas[second], hd.get(arch, 0.0), True)
        else:
            out[arch] = pairwise_gain(delta, deltas[fastest], hd.get(arch, 0.0), False)
    return out


class GainTracker:
    """Stateful gain computation with the running hd(a) maxima.

    ``observe_and_score`` first folds the task's execution-time
    differences into the per-architecture hd maxima, then scores the task
    — so the very first task on a fresh tracker already receives a
    non-degenerate score (its own difference defines hd), matching the
    Table II example where hd is the maximum over the displayed task set.

    ``version`` counts hd rises and resets: scores computed at an
    unchanged version are still current.
    """

    def __init__(self) -> None:
        self._hd: dict[str, float] = {}
        self.version = 0

    def hd(self, arch: str) -> float:
        """Current highest recorded difference for ``arch``."""
        return self._hd.get(arch, 0.0)

    def observe_and_score(self, deltas: dict[str, float]) -> dict[str, float]:
        """Update hd(a) with this task, then return its gain scores."""
        if not deltas:
            raise ValidationError("observe_and_score needs at least one architecture")
        if len(deltas) >= 2:
            ordered = sorted(deltas, key=lambda a: (deltas[a], a))
            fastest, second = ordered[0], ordered[1]
            for arch, delta in deltas.items():
                ref = deltas[second] if arch == fastest else deltas[fastest]
                diff = abs(ref - delta)
                if diff > self._hd.get(arch, 0.0):
                    self._hd[arch] = diff
                    self.version += 1
        return gain_scores(deltas, self._hd)

    def score(self, deltas: dict[str, float]) -> dict[str, float]:
        """Gain scores under the current hd(a), observing nothing."""
        return gain_scores(deltas, self._hd)

    def reset(self) -> None:
        """Forget all recorded differences."""
        self._hd.clear()
        self.version += 1
