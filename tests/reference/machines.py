"""Reference machine constructions: Machines A and B built imperatively.

The shipped :func:`repro.hardware.machines.machine_a` /
:func:`~repro.hardware.machines.machine_b` compile declarative fabric
specs; these hand-built originals are the equality oracle the fabric
compiler tests compare against.
"""

from __future__ import annotations

from repro.core.placement import GPU, SSD, Chassis, SlotGroup
from repro.core.topology import LinkKind, NodeKind
from repro.hardware.machines import MachineSpec
from repro.hardware.specs import (
    A100_40GB,
    P5510,
    PCIE4_X4,
    PCIE4_X16,
    QPI_BW,
    XEON_GOLD_5320,
    XEON_GOLD_6426Y,
    CpuSpec,
)


def _two_socket_skeleton(chassis: Chassis, cpu: CpuSpec) -> None:
    """Common dual-socket base: two root complexes, QPI, two DRAM banks."""
    chassis.add_interconnect("rc0", NodeKind.ROOT_COMPLEX)
    chassis.add_interconnect("rc1", NodeKind.ROOT_COMPLEX)
    chassis.add_trunk("rc0", "rc1", QPI_BW, LinkKind.QPI, "qpi")
    chassis.add_memory("mem0", "rc0", cpu.mem_bytes, cpu.mem_bw)
    chassis.add_memory("mem1", "rc1", cpu.mem_bytes, cpu.mem_bw)


def _legacy_machine_a(cpu: CpuSpec = XEON_GOLD_5320) -> MachineSpec:
    """Machine A via the original imperative construction path."""
    ch = Chassis("machine_a")
    _two_socket_skeleton(ch, cpu)
    ch.add_interconnect("plx0", NodeKind.SWITCH)
    ch.add_interconnect("plx1", NodeKind.SWITCH)
    ch.add_trunk("rc0", "plx0", PCIE4_X16, LinkKind.PCIE, "bus9")
    ch.add_trunk("rc1", "plx1", PCIE4_X16, LinkKind.PCIE, "bus10")
    # Four direct NVMe bays per socket (buses 1-4 on the left in Fig 1b).
    ch.add_slot_group(
        SlotGroup("rc0.bays", "rc0", 4, PCIE4_X4, frozenset({SSD}), "bus1-4")
    )
    ch.add_slot_group(
        SlotGroup("rc1.bays", "rc1", 4, PCIE4_X4, frozenset({SSD}), "bus5-8")
    )
    # Twelve slot units per switch: up to 4 dual-width GPUs plus SSDs.
    ch.add_slot_group(
        SlotGroup("plx0.slots", "plx0", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus12-15")
    )
    ch.add_slot_group(
        SlotGroup("plx1.slots", "plx1", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus17-20")
    )
    ch.validate()
    return MachineSpec("machine_a", ch, cpu, A100_40GB, P5510)


def _legacy_machine_b(cpu: CpuSpec = XEON_GOLD_6426Y) -> MachineSpec:
    """Machine B via the original imperative construction path."""
    ch = Chassis("machine_b")
    _two_socket_skeleton(ch, cpu)
    ch.add_interconnect("plx0", NodeKind.SWITCH)
    ch.add_interconnect("plx1", NodeKind.SWITCH)
    ch.add_trunk("rc0", "plx0", PCIE4_X16, LinkKind.PCIE, "bus11")
    ch.add_trunk("plx0", "plx1", PCIE4_X16, LinkKind.PCIE, "bus16")
    # Direct x16 slots on both sockets (used by Moment's Fig-7 layout).
    ch.add_slot_group(
        SlotGroup("rc0.x16", "rc0", 2, PCIE4_X16, frozenset({GPU}), "bus10")
    )
    ch.add_slot_group(
        SlotGroup("rc1.x16", "rc1", 2, PCIE4_X16, frozenset({GPU}), "bus19")
    )
    # NVMe bays: four per socket ("SSD prioritizes the front board").
    ch.add_slot_group(
        SlotGroup("rc0.bays", "rc0", 4, PCIE4_X4, frozenset({SSD}), "bus1-4")
    )
    ch.add_slot_group(
        SlotGroup("rc1.bays", "rc1", 4, PCIE4_X4, frozenset({SSD}), "bus5-8")
    )
    # Cascaded switches, twelve slot units each.
    ch.add_slot_group(
        SlotGroup("plx0.slots", "plx0", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus12-15")
    )
    ch.add_slot_group(
        SlotGroup("plx1.slots", "plx1", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus17-18")
    )
    ch.validate()
    return MachineSpec("machine_b", ch, cpu, A100_40GB, P5510)
