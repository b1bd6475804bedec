"""Symmetry pruning of the placement search space (paper Section 3.2).

The paper removes "symmetrical-, rotation-invariant, or physically
equivalent structures" before scoring placements with max flow.  Two
mechanisms:

* **switch symmetry** — slots on the same switch are interchangeable.
  This is structural in our model: a :class:`~repro.core.placement.Placement`
  stores only per-group *counts*, so intra-group permutations never
  appear.
* **topological symmetry** — whole subtrees of the chassis can be
  swapped (e.g. the two mirrored sides of Machine A).  We compute the
  automorphism group of the chassis skeleton from scratch —
  Weisfeiler–Lehman colour refinement for an initial partition, then
  backtracking over colour classes — and keep one canonical placement
  per orbit.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import (
    GPU,
    SLOT_UNITS,
    SSD,
    Chassis,
    Placement,
    _compositions,
    iter_placements,
)


# ----------------------------------------------------------------------
# Chassis skeleton as a coloured graph
# ----------------------------------------------------------------------
def _skeleton(chassis: Chassis):
    """Return (names, colours, adjacency) for the chassis skeleton.

    Nodes are interconnects, memory banks, and slot groups.  Colours
    encode everything a swap must preserve: node role, slot units,
    per-slot bandwidth, allowed device kinds, memory size/bandwidth.
    Adjacency is a dict ``node -> {neighbor: edge_colour}`` where edge
    colour encodes link capacity and kind.
    """
    names: List[str] = []
    colours: Dict[str, Tuple] = {}
    adj: Dict[str, Dict[str, Tuple]] = {}

    def add(name: str, colour: Tuple) -> None:
        names.append(name)
        colours[name] = colour
        adj[name] = {}

    for iname, ikind in chassis.interconnects.items():
        add(iname, ("interconnect", ikind.value))
    for mem in chassis.memories:
        add(mem.name, ("memory", round(mem.capacity_bytes), round(mem.bandwidth)))
    for g in chassis.slot_groups:
        add(
            g.name,
            (
                "slots",
                g.units,
                round(g.link_bw),
                tuple(sorted(g.allowed)),
                # electrical-identity tag: groups hosting different
                # device parts (mixed GPU generations) must never be
                # treated as swappable even when units/bw/kinds match
                g.tag,
            ),
        )

    def connect(a: str, b: str, colour: Tuple) -> None:
        adj[a][b] = colour
        adj[b][a] = colour

    for t in chassis.trunks:
        connect(t.a, t.b, ("trunk", round(t.capacity), t.kind.value))
    for mem in chassis.memories:
        connect(mem.name, mem.attach, ("membus",))
    for g in chassis.slot_groups:
        connect(g.name, g.attach, ("slotbus",))
    return names, colours, adj


def _wl_refine(
    names: Sequence[str],
    colours: Dict[str, Tuple],
    adj: Dict[str, Dict[str, Tuple]],
    rounds: int = None,
) -> Dict[str, int]:
    """Weisfeiler–Lehman colour refinement to a stable partition."""
    # Intern initial colours as integers.
    palette: Dict[Tuple, int] = {}
    colour_of: Dict[str, int] = {}
    for n in names:
        colour_of[n] = palette.setdefault(colours[n], len(palette))
    rounds = rounds if rounds is not None else len(names)
    for _ in range(rounds):
        sigs = {}
        for n in names:
            neigh = tuple(
                sorted((edge_colour, colour_of[m]) for m, edge_colour in adj[n].items())
            )
            sigs[n] = (colour_of[n], neigh)
        palette2: Dict[Tuple, int] = {}
        new = {n: palette2.setdefault(sigs[n], len(palette2)) for n in names}
        if len(set(new.values())) == len(set(colour_of.values())):
            colour_of = new
            break
        colour_of = new
    return colour_of


def chassis_automorphisms(chassis: Chassis) -> List[Dict[str, str]]:
    """All automorphisms of the chassis skeleton, as node-name maps.

    Exhaustive backtracking restricted to WL colour classes; chassis
    graphs have at most a dozen nodes so this is instant.  The identity
    is always included.
    """
    names, colours, adj = _skeleton(chassis)
    wl = _wl_refine(names, colours, adj)

    # Group nodes by WL colour; permutations may only map within classes.
    classes: Dict[int, List[str]] = {}
    for n in names:
        classes.setdefault(wl[n], []).append(n)

    order = sorted(names, key=lambda n: (wl[n], n))
    autos: List[Dict[str, str]] = []

    def consistent(mapping: Dict[str, str], a: str, b: str) -> bool:
        # edge structure (with colours) must be preserved among mapped nodes
        for u, eu in adj[a].items():
            if u in mapping:
                v = mapping[u]
                if adj[b].get(v) != eu:
                    return False
        # also reverse: neighbors of b already used as images
        inv = {v: u for u, v in mapping.items()}
        for v, ev in adj[b].items():
            if v in inv:
                u = inv[v]
                if adj[a].get(u) != ev:
                    return False
        return True

    def backtrack(i: int, mapping: Dict[str, str], used: set) -> None:
        if i == len(order):
            autos.append(dict(mapping))
            return
        a = order[i]
        for b in classes[wl[a]]:
            if b in used or not consistent(mapping, a, b):
                continue
            mapping[a] = b
            used.add(b)
            backtrack(i + 1, mapping, used)
            used.discard(b)
            del mapping[a]

    backtrack(0, {}, set())
    return autos


def slot_group_symmetries(chassis: Chassis) -> List[Dict[str, str]]:
    """Automorphisms restricted to slot-group names (deduplicated)."""
    group_names = set(chassis.group_names)
    seen = set()
    out: List[Dict[str, str]] = []
    for auto in chassis_automorphisms(chassis):
        restricted = {g: auto[g] for g in group_names}
        key = tuple(sorted(restricted.items()))
        if key not in seen:
            seen.add(key)
            out.append(restricted)
    return out


# ----------------------------------------------------------------------
# Canonicalisation of placements
# ----------------------------------------------------------------------
def _preimage(sym: Dict[str, str], target: str) -> str:
    """The slot group ``sym`` maps onto ``target``."""
    for src, dst in sym.items():
        if dst == target:
            return src
    raise KeyError(target)


def iter_canonical_placements(
    chassis: Chassis,
    num_gpus: int,
    num_ssds: int,
    symmetries: Optional[Sequence[Dict[str, str]]] = None,
) -> Iterator[Placement]:
    """Yield only canonical placements, without generating duplicates.

    Produces exactly the placements (in exactly the order) that
    streaming :func:`~repro.core.placement.iter_placements` through an
    orbit filter admits (the filter is kept as a test oracle in
    ``tests/reference/symmetry.py``), but never constructs the rejected
    orbit members: the enumeration ascends lexicographically on the
    concatenated ``(gpu counts, ssd counts)`` vector, so the first-seen
    orbit member is the orbit's concat-order minimum — a placement is
    canonical iff its concat vector is ``<=`` every symmetric
    relabeling of itself.  That test is run vectorized over the whole
    count matrix with NumPy (one column permutation + lexicographic
    compare per non-trivial symmetry).

    Note the concat order differs from the filter's *interleaved*
    (``(gpu, ssd)`` per group) key order — an orbit's interleaved-lex
    minimum can be a different member than its concat-lex minimum — so
    the admission test deliberately uses concat order to reproduce the
    filter's representatives bit-for-bit.
    """
    if symmetries is None:
        symmetries = slot_group_symmetries(chassis)
    nontrivial = [s for s in symmetries if any(k != v for k, v in s.items())]
    if not nontrivial:
        yield from iter_placements(chassis, num_gpus, num_ssds)
        return

    groups = chassis.slot_groups
    n_groups = len(groups)
    index = {g.name: i for i, g in enumerate(groups)}
    # column map per symmetry: relabeled[:, j] = rows[:, pre[j]] where
    # pre[j] indexes the preimage group; GPU and SSD halves permute
    # identically
    col_maps = []
    for sym in nontrivial:
        pre = [index[_preimage(sym, g.name)] for g in groups]
        col_maps.append(pre + [n_groups + p for p in pre])

    rows: List[Tuple[int, ...]] = []
    gpu_caps = [g.capacity_for(GPU) for g in groups]
    for gpu_counts in _compositions(num_gpus, gpu_caps):
        ssd_caps = []
        for g, ng in zip(groups, gpu_counts):
            free_units = g.units - ng * SLOT_UNITS[GPU]
            ssd_caps.append(free_units if SSD in g.allowed else 0)
        for ssd_counts in _compositions(num_ssds, ssd_caps):
            rows.append(gpu_counts + ssd_counts)
    if not rows:
        return
    mat = np.asarray(rows, dtype=np.int64)
    keep = np.ones(len(rows), dtype=bool)
    arange = np.arange(len(rows))
    for cols in col_maps:
        diff = mat[:, cols] - mat
        nz = diff != 0
        any_nz = nz.any(axis=1)
        first_val = diff[arange, np.argmax(nz, axis=1)]
        # row <= relabeled row  ⇔  equal, or first differing entry grows
        keep &= ~any_nz | (first_val > 0)
    group_names = [g.name for g in groups]
    for row in mat[keep]:
        counts = {
            name: {GPU: int(row[i]), SSD: int(row[n_groups + i])}
            for i, name in enumerate(group_names)
        }
        yield Placement(chassis, counts)
