"""Reference symmetry dedupe: the enumerate-then-filter pipeline.

Test oracle for :func:`repro.core.symmetry.iter_canonical_placements`,
which must admit exactly the placements (in exactly the order) that
streaming :func:`repro.core.placement.iter_placements` through
:class:`CanonicalFilter` admits.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.placement import Chassis, Placement
from repro.core.symmetry import _preimage, slot_group_symmetries


def canonical_key(
    placement: Placement, symmetries: Sequence[Dict[str, str]]
) -> Tuple:
    """Orbit-canonical key: the lexicographically smallest count tuple
    over all chassis symmetries."""
    order = placement.chassis.group_names
    best = None
    for sym in symmetries:
        permuted = tuple(
            (
                placement.count(_preimage(sym, g), "gpu"),
                placement.count(_preimage(sym, g), "ssd"),
            )
            for g in order
        )
        if best is None or permuted < best:
            best = permuted
    return best


class CanonicalFilter:
    """Incremental symmetry dedupe: admit one placement per orbit.

    Computes the chassis automorphisms once, then filters a *stream* of
    placements — :meth:`admit` returns the orbit-canonical key the first
    time an orbit is seen and ``None`` for every later member, so the
    search engine can prune candidates as they are produced instead of
    materialising the full enumeration first.
    """

    def __init__(self, chassis: Chassis) -> None:
        self.chassis = chassis
        self.symmetries = slot_group_symmetries(chassis)
        self._seen: set = set()

    @property
    def num_admitted(self) -> int:
        """Distinct orbits admitted so far."""
        return len(self._seen)

    def key(self, placement: Placement) -> Tuple:
        """Orbit-canonical key of ``placement`` (no admission)."""
        return canonical_key(placement, self.symmetries)

    def admit(self, placement: Placement) -> "Tuple | None":
        """The canonical key if this orbit is new, else ``None``."""
        key = self.key(placement)
        if key in self._seen:
            return None
        self._seen.add(key)
        return key


def dedupe_placements(
    placements: Sequence[Placement],
    chassis: Chassis = None,
) -> List[Placement]:
    """Keep one representative per symmetry orbit, preserving input order.

    This is the paper's "isomorphic graph reduction" step; on Machine A
    it roughly halves the candidate count (the two sides are mirrors).
    """
    if not placements:
        return []
    chassis = chassis or placements[0].chassis
    filt = CanonicalFilter(chassis)
    return [p for p in placements if filt.admit(p) is not None]
