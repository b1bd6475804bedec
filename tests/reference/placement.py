"""Reference enumeration: the full slot-feasible space, materialised.

The search engine never builds this list (it streams canonical
placements and counts the raw space analytically); tests use it as
the ground truth those shortcuts must match.
"""

from __future__ import annotations

from typing import List

from repro.core.placement import Chassis, Placement, iter_placements


def enumerate_placements(
    chassis: Chassis,
    num_gpus: int,
    num_ssds: int,
) -> List[Placement]:
    """All feasible placements, materialised (see :func:`iter_placements`)."""
    return list(iter_placements(chassis, num_gpus, num_ssds))
