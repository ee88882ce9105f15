"""Interaction-list machinery and FLOP accounting.

The production code measures performance by *counting interactions* and
multiplying by the per-interaction operation counts of Table 4 (gravity 27,
density/pressure 73, hydro force 101) — Sec. 4.3: "we counted the number of
interactions that evaluate gravity and hydro force, multiplied the number of
operations of those interactions, and finally divided them by the measured
timings."  :class:`InteractionCounter` reproduces that ledger and is threaded
through every kernel in :mod:`repro.gravity` and :mod:`repro.sph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Operations per pairwise interaction (Table 4).
OPS_PER_INTERACTION = {
    "gravity": 27,
    "hydro_density": 73,
    "hydro_force": 101,
}


@dataclass
class InteractionCounter:
    """Counts pairwise interactions per kernel kind and converts to FLOPs.

    State is O(kinds) however long the run: per kind one interaction total
    and a running ``[n_lists, total_length]`` for the mean list length.
    """

    counts: dict[str, int] = field(default_factory=dict)
    _lists: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def add(self, kind: str, n_targets: int, n_sources: int) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + int(n_targets) * int(n_sources)
        tally = self._lists.setdefault(kind, [0, 0])
        tally[0] += 1
        tally[1] += int(n_sources)

    def interactions(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def flops(self, kind: str | None = None) -> int:
        """Total FLOPs, optionally for one kernel kind."""
        if kind is not None:
            return self.counts.get(kind, 0) * OPS_PER_INTERACTION.get(kind, 0)
        return sum(
            c * OPS_PER_INTERACTION.get(k, 0) for k, c in self.counts.items()
        )

    def mean_list_length(self, kind: str) -> float:
        n_lists, total = self._lists.get(kind, (0, 0))
        return total / n_lists if n_lists else 0.0

    def reset(self) -> None:
        self.counts.clear()
        self._lists.clear()
