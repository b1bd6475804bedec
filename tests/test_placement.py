"""Tests for slot groups, placements, enumeration, and topology builds."""

import pytest

from repro.core.placement import (
    Chassis,
    GPU,
    Placement,
    SSD,
    SlotGroup,
    build_topology,
)
from repro.core.topology import NodeKind
from repro.hardware.specs import A100_40GB, P5510, PCIE4_X16, PCIE4_X4, QPI_BW
from repro.core.topology import LinkKind
from tests.reference.placement import enumerate_placements


def mini_chassis() -> Chassis:
    """One RC with 2 bays, one switch with 4 units."""
    ch = Chassis("mini")
    ch.add_interconnect("rc0", NodeKind.ROOT_COMPLEX)
    ch.add_interconnect("sw0", NodeKind.SWITCH)
    ch.add_trunk("rc0", "sw0", PCIE4_X16, label="up")
    ch.add_memory("mem0", "rc0", 64e9, 60e9)
    ch.add_slot_group(SlotGroup("rc0.bays", "rc0", 2, PCIE4_X4, frozenset({SSD})))
    ch.add_slot_group(SlotGroup("sw0.slots", "sw0", 4, PCIE4_X16))
    return ch


class TestSlotGroup:
    def test_capacity_for_respects_units_and_widths(self):
        g = SlotGroup("g", "rc0", 4, PCIE4_X16)
        assert g.capacity_for(GPU) == 2  # dual-width
        assert g.capacity_for(SSD) == 4

    def test_capacity_for_disallowed_kind(self):
        g = SlotGroup("g", "rc0", 4, PCIE4_X4, frozenset({SSD}))
        assert g.capacity_for(GPU) == 0

    def test_bad_units(self):
        with pytest.raises(ValueError):
            SlotGroup("g", "rc0", 0, PCIE4_X4)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SlotGroup("g", "rc0", 2, PCIE4_X4, frozenset({"tpu"}))


class TestChassis:
    def test_duplicate_group_rejected(self):
        ch = mini_chassis()
        with pytest.raises(ValueError):
            ch.add_slot_group(SlotGroup("sw0.slots", "sw0", 2, PCIE4_X4))

    def test_group_on_unknown_interconnect_rejected(self):
        ch = mini_chassis()
        with pytest.raises(ValueError):
            ch.add_slot_group(SlotGroup("x", "nowhere", 2, PCIE4_X4))

    def test_group_lookup(self):
        ch = mini_chassis()
        assert ch.group("rc0.bays").units == 2
        with pytest.raises(KeyError):
            ch.group("nope")


class TestPlacement:
    def test_counts_and_totals(self):
        ch = mini_chassis()
        p = Placement(ch, {"rc0.bays": {SSD: 2}, "sw0.slots": {GPU: 1, SSD: 2}})
        assert p.num_gpus == 1
        assert p.num_ssds == 4
        assert p.count("sw0.slots", GPU) == 1
        assert p.count("rc0.bays", GPU) == 0

    def test_overflow_rejected(self):
        ch = mini_chassis()
        with pytest.raises(ValueError, match="overflows"):
            Placement(ch, {"sw0.slots": {GPU: 2, SSD: 1}})  # 5 units > 4

    def test_disallowed_kind_rejected(self):
        ch = mini_chassis()
        with pytest.raises(ValueError):
            Placement(ch, {"rc0.bays": {GPU: 1}})

    def test_unknown_group_rejected(self):
        ch = mini_chassis()
        with pytest.raises(KeyError):
            Placement(ch, {"nope": {SSD: 1}})

    def test_negative_count_rejected(self):
        ch = mini_chassis()
        with pytest.raises(ValueError):
            Placement(ch, {"rc0.bays": {SSD: -1}})

    def test_equality_and_hash(self):
        ch = mini_chassis()
        p1 = Placement(ch, {"rc0.bays": {SSD: 1}})
        p2 = Placement(ch, {"rc0.bays": {SSD: 1}})
        p3 = Placement(ch, {"rc0.bays": {SSD: 2}})
        assert p1 == p2 and hash(p1) == hash(p2)
        assert p1 != p3

    def test_repr_mentions_devices(self):
        ch = mini_chassis()
        p = Placement(ch, {"sw0.slots": {GPU: 1}}, name="demo")
        assert "1gpu" in repr(p) and "demo" in repr(p)


class TestBuildTopology:
    def test_builds_all_devices(self):
        ch = mini_chassis()
        p = Placement(ch, {"rc0.bays": {SSD: 2}, "sw0.slots": {GPU: 2}})
        topo = build_topology(p, A100_40GB, P5510)
        assert topo.gpus() == ["gpu0", "gpu1"]
        assert topo.ssds() == ["ssd0", "ssd1"]
        assert "gpu0:mem" in topo
        assert "mem0" in topo

    def test_ssd_link_capped_by_device_width(self):
        ch = mini_chassis()
        # SSD in a x16 slot still links at its own x4 width
        p = Placement(ch, {"sw0.slots": {GPU: 1, SSD: 1}})
        topo = build_topology(p, A100_40GB, P5510)
        assert topo.link("ssd0", "sw0").capacity == pytest.approx(P5510.link_bw)

    def test_gpu_mem_node_attached(self):
        ch = mini_chassis()
        p = Placement(ch, {"sw0.slots": {GPU: 1}})
        topo = build_topology(p, A100_40GB, P5510)
        assert topo.node("gpu0:mem").kind is NodeKind.GPU_MEM
        assert topo.has_link("gpu0:mem", "gpu0")

    def test_nvlink_pairs(self):
        ch = mini_chassis()
        p = Placement(ch, {"sw0.slots": {GPU: 2}})
        topo = build_topology(p, A100_40GB, P5510, nvlink_pairs=[(0, 1)])
        link = topo.link("gpu0", "gpu1")
        assert link.kind is LinkKind.NVLINK

    def test_nvlink_missing_gpu_rejected(self):
        ch = mini_chassis()
        p = Placement(ch, {"sw0.slots": {GPU: 1}})
        with pytest.raises(ValueError):
            build_topology(p, A100_40GB, P5510, nvlink_pairs=[(0, 3)])


class TestEnumeration:
    def test_counts_preserved(self):
        ch = mini_chassis()
        for p in enumerate_placements(ch, num_gpus=1, num_ssds=2):
            assert p.num_gpus == 1
            assert p.num_ssds == 2

    def test_enumeration_exhaustive_small(self):
        ch = mini_chassis()
        # GPUs only fit in sw0.slots (max 2); SSDs in bays (2) or slots.
        got = enumerate_placements(ch, num_gpus=1, num_ssds=2)
        # gpu in sw0 leaves 2 units there: ssd splits (0..2 in bays):
        # (bays=2, sw=0), (bays=1, sw=1), (bays=0, sw=2) -> 3 placements
        assert len(got) == 3

    def test_infeasible_pool_yields_nothing(self):
        ch = mini_chassis()
        assert enumerate_placements(ch, num_gpus=3, num_ssds=0) == []

    def test_zero_devices(self):
        ch = mini_chassis()
        got = enumerate_placements(ch, num_gpus=0, num_ssds=0)
        assert len(got) == 1
        assert got[0].num_gpus == 0
