"""Declarative fabric model: machine specs as data, compiled to machines.

The paper's platforms were born as hand-built constructors
(:func:`~repro.hardware.machines.machine_a` and friends); every other
layer — placement search, the epoch simulator, fault injection,
replanning — is generic over a :class:`~repro.hardware.machines.MachineSpec`
but could only ever see those three fabrics.  This module makes the
hardware layer data-driven:

* a :class:`FabricSpec` dataclass tree describes a machine — sockets,
  root complexes, PCIe switches (arbitrarily cascaded), slot banks with
  per-bank link generations and optional device-part overrides, an
  optional CXL-style memory expander per socket, and an optional
  NIC-attached NVMe shelf;
* :func:`compile_fabric` lowers a spec onto the existing
  :class:`~repro.core.placement.Chassis` substrate, producing a
  ``MachineSpec`` that flows through search/simulation/faults unchanged;
* every spec round-trips through JSON (schema ``repro.fabric/v1``), so
  fabrics can live in files, CI matrices, and run records.

The compiler's lowering order is deliberately pinned (see
:func:`compile_fabric`) so that :func:`machine_a_spec` /
:func:`machine_b_spec` compile to chassis *identical* to the legacy
constructors (kept in ``tests/reference/machines.py``) — node for node,
link for link — which is asserted by test against
:func:`topology_fingerprint`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.placement import (
    DEVICE_KINDS,
    GPU,
    SSD,
    Chassis,
    SlotGroup,
)
from repro.core.topology import LinkKind, NodeKind, Topology
from repro.hardware.specs import (
    A100_40GB,
    CXL_MEM_BW,
    CXL_MEM_BYTES,
    CpuSpec,
    GpuSpec,
    H100_80GB,
    NIC_100G_BW,
    P4510,
    P5510,
    PM1743,
    QPI_BW,
    SsdSpec,
    V100_32GB,
    XEON_GOLD_5320,
    XEON_GOLD_6426Y,
    XEON_SILVER_4214,
    pcie_bw,
)

#: Versioned schema tag for :meth:`FabricSpec.to_dict` payloads.
FABRIC_SCHEMA = "repro.fabric/v1"


# ----------------------------------------------------------------------
# Part libraries: specs are referenced from fabric files by name
# ----------------------------------------------------------------------
GPU_PARTS: Dict[str, GpuSpec] = {
    g.name: g for g in (A100_40GB, V100_32GB, H100_80GB)
}
SSD_PARTS: Dict[str, SsdSpec] = {s.name: s for s in (P5510, P4510, PM1743)}
CPU_PARTS: Dict[str, CpuSpec] = {
    c.name: c for c in (XEON_GOLD_5320, XEON_GOLD_6426Y, XEON_SILVER_4214)
}


def _register(library: Dict[str, object], spec: object) -> str:
    existing = library.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(
            f"part {spec.name!r} already registered with different values"
        )
    library[spec.name] = spec
    return spec.name


def register_gpu_part(spec: GpuSpec) -> str:
    """Add a GPU model to the part library (idempotent by name)."""
    return _register(GPU_PARTS, spec)


def register_ssd_part(spec: SsdSpec) -> str:
    """Add an SSD model to the part library (idempotent by name)."""
    return _register(SSD_PARTS, spec)


def register_cpu_part(spec: CpuSpec) -> str:
    """Add a CPU model to the part library (idempotent by name)."""
    return _register(CPU_PARTS, spec)


def _resolve(library: Dict[str, object], name: str, what: str):
    try:
        return library[name]
    except KeyError:
        raise KeyError(
            f"unknown {what} part {name!r}; known: {', '.join(sorted(library))}"
        ) from None


def resolve_gpu(name: str) -> GpuSpec:
    """GPU part by name (raises ``KeyError`` listing known parts)."""
    return _resolve(GPU_PARTS, name, "GPU")


def resolve_ssd(name: str) -> SsdSpec:
    """SSD part by name (raises ``KeyError`` listing known parts)."""
    return _resolve(SSD_PARTS, name, "SSD")


def resolve_cpu(name: str) -> CpuSpec:
    """CPU part by name (raises ``KeyError`` listing known parts)."""
    return _resolve(CPU_PARTS, name, "CPU")


# ----------------------------------------------------------------------
# The spec tree
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkWidth:
    """A PCIe link as (generation, lanes); bandwidth is derived."""

    gen: int
    lanes: int

    def __post_init__(self) -> None:
        pcie_bw(self.gen, self.lanes)  # validates both fields

    @property
    def bw(self) -> float:
        """Sustained bandwidth of this link (bytes/s)."""
        return pcie_bw(self.gen, self.lanes)

    def to_dict(self) -> Dict:
        return {"gen": self.gen, "lanes": self.lanes}

    @classmethod
    def from_dict(cls, d: Dict) -> "LinkWidth":
        return cls(gen=int(d["gen"]), lanes=int(d["lanes"]))


@dataclass(frozen=True)
class SlotBankSpec:
    """A bank of interchangeable slots on one attach point.

    ``name`` is local to the attach point (the compiled slot group is
    ``"<attach>.<name>"``, e.g. ``"rc0.bays"``).  ``gpu_part`` /
    ``ssd_part`` override the fabric-level device parts for this bank
    only — that is how mixed GPU generations are expressed.
    """

    name: str
    units: int
    link: LinkWidth
    allowed: Tuple[str, ...] = (GPU, SSD)
    bus: str = ""
    gpu_part: Optional[str] = None
    ssd_part: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", tuple(self.allowed))
        if self.units <= 0:
            raise ValueError(f"bank {self.name!r} must have units > 0")
        bad = set(self.allowed) - set(DEVICE_KINDS)
        if bad or not self.allowed:
            raise ValueError(
                f"bank {self.name!r} allows unknown/empty device kinds "
                f"{sorted(bad) or '(none)'}"
            )

    def to_dict(self) -> Dict:
        d: Dict = {
            "name": self.name,
            "units": self.units,
            "link": self.link.to_dict(),
            "allowed": list(self.allowed),
        }
        if self.bus:
            d["bus"] = self.bus
        if self.gpu_part:
            d["gpu_part"] = self.gpu_part
        if self.ssd_part:
            d["ssd_part"] = self.ssd_part
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "SlotBankSpec":
        return cls(
            name=d["name"],
            units=int(d["units"]),
            link=LinkWidth.from_dict(d["link"]),
            allowed=tuple(d.get("allowed", (GPU, SSD))),
            bus=d.get("bus", ""),
            gpu_part=d.get("gpu_part"),
            ssd_part=d.get("ssd_part"),
        )


@dataclass(frozen=True)
class SwitchSpec:
    """A PCIe switch: an uplink, local slot banks, cascaded children."""

    uplink: LinkWidth
    bus: str = ""
    banks: Tuple[SlotBankSpec, ...] = ()
    children: Tuple["SwitchSpec", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "banks", tuple(self.banks))
        object.__setattr__(self, "children", tuple(self.children))

    def to_dict(self) -> Dict:
        d: Dict = {"uplink": self.uplink.to_dict()}
        if self.bus:
            d["bus"] = self.bus
        if self.banks:
            d["banks"] = [b.to_dict() for b in self.banks]
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "SwitchSpec":
        return cls(
            uplink=LinkWidth.from_dict(d["uplink"]),
            bus=d.get("bus", ""),
            banks=tuple(
                SlotBankSpec.from_dict(b) for b in d.get("banks", ())
            ),
            children=tuple(
                SwitchSpec.from_dict(c) for c in d.get("children", ())
            ),
        )


@dataclass(frozen=True)
class CxlMemSpec:
    """A CXL.mem expander on one socket: an extra DRAM-class tier."""

    capacity_bytes: float = CXL_MEM_BYTES
    bandwidth: float = CXL_MEM_BW

    def to_dict(self) -> Dict:
        return {
            "capacity_bytes": self.capacity_bytes,
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CxlMemSpec":
        return cls(
            capacity_bytes=float(d["capacity_bytes"]),
            bandwidth=float(d["bandwidth"]),
        )


@dataclass(frozen=True)
class NicStorageSpec:
    """A NIC-attached NVMe shelf (NVMe-oF style) hanging off one socket.

    The shelf's drives sit behind a forwarding NIC node whose uplink
    caps aggregate shelf bandwidth.  The uplink is modelled as a PCIe
    trunk (not a :data:`~repro.core.topology.LinkKind.NETWORK` link):
    on a single machine the shelf contends on the local fabric, while
    NETWORK links mean *cluster* all-reduce paths to the simulator.
    """

    bays: SlotBankSpec
    nic_bw: float = NIC_100G_BW
    bus: str = ""

    def to_dict(self) -> Dict:
        d: Dict = {"bays": self.bays.to_dict(), "nic_bw": self.nic_bw}
        if self.bus:
            d["bus"] = self.bus
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "NicStorageSpec":
        return cls(
            bays=SlotBankSpec.from_dict(d["bays"]),
            nic_bw=float(d["nic_bw"]),
            bus=d.get("bus", ""),
        )


@dataclass(frozen=True)
class SocketSpec:
    """One CPU socket: its root complex and everything hanging off it."""

    cpu_part: str
    banks: Tuple[SlotBankSpec, ...] = ()
    switches: Tuple[SwitchSpec, ...] = ()
    cxl: Optional[CxlMemSpec] = None
    nic_storage: Optional[NicStorageSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "banks", tuple(self.banks))
        object.__setattr__(self, "switches", tuple(self.switches))

    def to_dict(self) -> Dict:
        d: Dict = {"cpu_part": self.cpu_part}
        if self.banks:
            d["banks"] = [b.to_dict() for b in self.banks]
        if self.switches:
            d["switches"] = [s.to_dict() for s in self.switches]
        if self.cxl is not None:
            d["cxl"] = self.cxl.to_dict()
        if self.nic_storage is not None:
            d["nic_storage"] = self.nic_storage.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "SocketSpec":
        return cls(
            cpu_part=d["cpu_part"],
            banks=tuple(
                SlotBankSpec.from_dict(b) for b in d.get("banks", ())
            ),
            switches=tuple(
                SwitchSpec.from_dict(s) for s in d.get("switches", ())
            ),
            cxl=(
                CxlMemSpec.from_dict(d["cxl"]) if d.get("cxl") else None
            ),
            nic_storage=(
                NicStorageSpec.from_dict(d["nic_storage"])
                if d.get("nic_storage")
                else None
            ),
        )


@dataclass(frozen=True)
class FabricSpec:
    """A whole machine, declaratively.

    ``gpu_part``/``ssd_part`` are the machine's *primary* device models
    (used for memory/capacity budgeting and by any bank that does not
    override them).  ``generator_seed`` records provenance when the
    spec came out of :mod:`repro.hardware.generate`.
    """

    name: str
    sockets: Tuple[SocketSpec, ...]
    gpu_part: str = A100_40GB.name
    ssd_part: str = P5510.name
    socket_link_bw: float = QPI_BW
    generator_seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sockets", tuple(self.sockets))

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Check part references and structural sanity; raises."""
        if not self.sockets:
            raise ValueError(f"fabric {self.name!r} has no sockets")
        if self.socket_link_bw <= 0:
            raise ValueError("socket_link_bw must be > 0")
        resolve_gpu(self.gpu_part)
        resolve_ssd(self.ssd_part)

        def check_bank(bank: SlotBankSpec) -> None:
            if bank.gpu_part is not None:
                resolve_gpu(bank.gpu_part)
            if bank.ssd_part is not None:
                resolve_ssd(bank.ssd_part)

        def check_switch(sw: SwitchSpec) -> None:
            for bank in sw.banks:
                check_bank(bank)
            for child in sw.children:
                check_switch(child)

        for sock in self.sockets:
            resolve_cpu(sock.cpu_part)
            local = [b.name for b in sock.banks]
            if len(local) != len(set(local)):
                raise ValueError(
                    f"fabric {self.name!r}: duplicate bank names {local} "
                    "on one socket"
                )
            for bank in sock.banks:
                check_bank(bank)
            for sw in sock.switches:
                check_switch(sw)
            if sock.nic_storage is not None:
                check_bank(sock.nic_storage.bays)

    # -- JSON round-trip -------------------------------------------------
    def to_dict(self) -> Dict:
        d: Dict = {
            "schema": FABRIC_SCHEMA,
            "name": self.name,
            "gpu_part": self.gpu_part,
            "ssd_part": self.ssd_part,
            "socket_link_bw": self.socket_link_bw,
            "sockets": [s.to_dict() for s in self.sockets],
        }
        if self.generator_seed is not None:
            d["generator_seed"] = self.generator_seed
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "FabricSpec":
        schema = d.get("schema", FABRIC_SCHEMA)
        if schema != FABRIC_SCHEMA:
            raise ValueError(
                f"unsupported fabric schema {schema!r}; "
                f"expected {FABRIC_SCHEMA!r}"
            )
        seed = d.get("generator_seed")
        return cls(
            name=d["name"],
            sockets=tuple(
                SocketSpec.from_dict(s) for s in d.get("sockets", ())
            ),
            gpu_part=d.get("gpu_part", A100_40GB.name),
            ssd_part=d.get("ssd_part", P5510.name),
            socket_link_bw=float(d.get("socket_link_bw", QPI_BW)),
            generator_seed=None if seed is None else int(seed),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FabricSpec":
        return cls.from_dict(json.loads(text))


def load_fabric(path) -> FabricSpec:
    """Read a ``repro.fabric/v1`` JSON file into a :class:`FabricSpec`."""
    with open(path, "r", encoding="utf-8") as fh:
        return FabricSpec.from_dict(json.load(fh))


def save_fabric(spec: FabricSpec, path) -> None:
    """Write a spec as indented ``repro.fabric/v1`` JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())
        fh.write("\n")


# ----------------------------------------------------------------------
# The compiler: FabricSpec -> MachineSpec on the Chassis substrate
# ----------------------------------------------------------------------
def _bank_tag(spec: FabricSpec, bank: SlotBankSpec) -> str:
    """Symmetry tag for a bank: non-empty iff it overrides a part."""
    marks = []
    if bank.gpu_part is not None and bank.gpu_part != spec.gpu_part:
        marks.append(f"gpu={bank.gpu_part}")
    if bank.ssd_part is not None and bank.ssd_part != spec.ssd_part:
        marks.append(f"ssd={bank.ssd_part}")
    return ";".join(marks)


def compile_fabric(spec: FabricSpec) -> "MachineSpec":  # noqa: F821
    """Lower a :class:`FabricSpec` to a ``MachineSpec``.

    The lowering order is pinned so specs of the paper's machines
    reproduce the legacy constructors *exactly* (device numbering in
    :func:`~repro.core.placement.build_topology` follows slot-group
    declaration order, so order is part of the contract):

    1. root complexes ``rc{i}`` per socket, socket trunk(s) (``qpi``);
    2. DRAM banks ``mem{i}``, then CXL expanders ``cxl{i}``;
    3. switches in depth-first discovery order per socket, globally
       numbered ``plx{k}``, each adding its uplink trunk on discovery;
    4. NIC shelves ``nic{i}`` with their uplink trunks;
    5. slot groups: RC-direct banks round-robin by position across
       sockets (``rc0.x16, rc1.x16, rc0.bays, rc1.bays`` on Machine B),
       then switch banks in the same DFS order, then NIC-shelf bays.
    """
    from repro.hardware.machines import MachineSpec

    spec.validate()
    ch = Chassis(spec.name)
    nsock = len(spec.sockets)

    # 1. root complexes + socket interconnect
    for i in range(nsock):
        ch.add_interconnect(f"rc{i}", NodeKind.ROOT_COMPLEX)
    for i in range(nsock - 1):
        label = "qpi" if nsock == 2 else f"qpi{i}"
        ch.add_trunk(
            f"rc{i}", f"rc{i + 1}", spec.socket_link_bw, LinkKind.QPI, label
        )

    # 2. memory tiers
    for i, sock in enumerate(spec.sockets):
        cpu = resolve_cpu(sock.cpu_part)
        ch.add_memory(f"mem{i}", f"rc{i}", cpu.mem_bytes, cpu.mem_bw)
    for i, sock in enumerate(spec.sockets):
        if sock.cxl is not None:
            ch.add_memory(
                f"cxl{i}", f"rc{i}", sock.cxl.capacity_bytes, sock.cxl.bandwidth
            )

    # 3. switches (DFS, global numbering) — remember bank attach points
    switch_banks: List[Tuple[str, SlotBankSpec]] = []
    counter = itertools.count()

    def lower_switch(parent: str, sw: SwitchSpec) -> None:
        name = f"plx{next(counter)}"
        ch.add_interconnect(name, NodeKind.SWITCH)
        ch.add_trunk(parent, name, sw.uplink.bw, LinkKind.PCIE, sw.bus)
        for bank in sw.banks:
            switch_banks.append((name, bank))
        for child in sw.children:
            lower_switch(name, child)

    for i, sock in enumerate(spec.sockets):
        for sw in sock.switches:
            lower_switch(f"rc{i}", sw)

    # 4. NIC-attached storage shelves
    nic_banks: List[Tuple[str, SlotBankSpec]] = []
    for i, sock in enumerate(spec.sockets):
        shelf = sock.nic_storage
        if shelf is not None:
            name = f"nic{i}"
            ch.add_interconnect(name, NodeKind.NIC)
            ch.add_trunk(
                f"rc{i}",
                name,
                shelf.nic_bw,
                LinkKind.PCIE,
                shelf.bus or f"nvmeof{i}",
            )
            nic_banks.append((name, shelf.bays))

    # 5. slot groups
    gpu_overrides: List[Tuple[str, GpuSpec]] = []
    ssd_overrides: List[Tuple[str, SsdSpec]] = []

    def add_group(attach: str, bank: SlotBankSpec) -> None:
        gname = f"{attach}.{bank.name}"
        ch.add_slot_group(
            SlotGroup(
                gname,
                attach,
                bank.units,
                bank.link.bw,
                frozenset(bank.allowed),
                bank.bus,
                _bank_tag(spec, bank),
            )
        )
        if bank.gpu_part is not None and bank.gpu_part != spec.gpu_part:
            gpu_overrides.append((gname, resolve_gpu(bank.gpu_part)))
        if bank.ssd_part is not None and bank.ssd_part != spec.ssd_part:
            ssd_overrides.append((gname, resolve_ssd(bank.ssd_part)))

    for rank in range(max(len(s.banks) for s in spec.sockets) if spec.sockets else 0):
        for i, sock in enumerate(spec.sockets):
            if rank < len(sock.banks):
                add_group(f"rc{i}", sock.banks[rank])
    for attach, bank in switch_banks:
        add_group(attach, bank)
    for attach, bank in nic_banks:
        add_group(attach, bank)

    ch.validate()
    return MachineSpec(
        name=spec.name,
        chassis=ch,
        cpu=resolve_cpu(spec.sockets[0].cpu_part),
        gpu=resolve_gpu(spec.gpu_part),
        ssd=resolve_ssd(spec.ssd_part),
        num_sockets=nsock,
        gpu_overrides=tuple(gpu_overrides),
        ssd_overrides=tuple(ssd_overrides),
        fabric_spec=spec,
    )


# ----------------------------------------------------------------------
# The paper's machines, re-expressed as specs
# ----------------------------------------------------------------------
def machine_a_spec(cpu: CpuSpec = XEON_GOLD_5320) -> FabricSpec:
    """Machine A (balanced, Figure 1) as a :class:`FabricSpec`."""
    register_cpu_part(cpu)
    x4, x16 = LinkWidth(4, 4), LinkWidth(4, 16)

    def side(bay_bus: str, up_bus: str, slot_bus: str) -> SocketSpec:
        return SocketSpec(
            cpu_part=cpu.name,
            banks=(SlotBankSpec("bays", 4, x4, (SSD,), bay_bus),),
            switches=(
                SwitchSpec(
                    uplink=x16,
                    bus=up_bus,
                    banks=(
                        SlotBankSpec("slots", 12, x16, (GPU, SSD), slot_bus),
                    ),
                ),
            ),
        )

    return FabricSpec(
        name="machine_a",
        sockets=(
            side("bus1-4", "bus9", "bus12-15"),
            side("bus5-8", "bus10", "bus17-20"),
        ),
    )


def machine_b_spec(cpu: CpuSpec = XEON_GOLD_6426Y) -> FabricSpec:
    """Machine B (cascaded, Figure 2) as a :class:`FabricSpec`."""
    register_cpu_part(cpu)
    x4, x16 = LinkWidth(4, 4), LinkWidth(4, 16)
    cascade = SwitchSpec(
        uplink=x16,
        bus="bus11",
        banks=(SlotBankSpec("slots", 12, x16, (GPU, SSD), "bus12-15"),),
        children=(
            SwitchSpec(
                uplink=x16,
                bus="bus16",  # the contended link of Section 2.3
                banks=(
                    SlotBankSpec("slots", 12, x16, (GPU, SSD), "bus17-18"),
                ),
            ),
        ),
    )
    return FabricSpec(
        name="machine_b",
        sockets=(
            SocketSpec(
                cpu_part=cpu.name,
                banks=(
                    SlotBankSpec("x16", 2, x16, (GPU,), "bus10"),
                    SlotBankSpec("bays", 4, x4, (SSD,), "bus1-4"),
                ),
                switches=(cascade,),
            ),
            SocketSpec(
                cpu_part=cpu.name,
                banks=(
                    SlotBankSpec("x16", 2, x16, (GPU,), "bus19"),
                    SlotBankSpec("bays", 4, x4, (SSD,), "bus5-8"),
                ),
            ),
        ),
    )


@dataclass(frozen=True)
class ClusterFabricSpec:
    """A cluster: N identical nodes (each a :class:`FabricSpec`) on a NIC."""

    name: str
    num_machines: int
    node: FabricSpec
    nic_bw: float = NIC_100G_BW

    def to_dict(self) -> Dict:
        return {
            "schema": FABRIC_SCHEMA,
            "name": self.name,
            "num_machines": self.num_machines,
            "node": self.node.to_dict(),
            "nic_bw": self.nic_bw,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "ClusterFabricSpec":
        return cls(
            name=d["name"],
            num_machines=int(d["num_machines"]),
            node=FabricSpec.from_dict(d["node"]),
            nic_bw=float(d.get("nic_bw", NIC_100G_BW)),
        )


def cluster_c_spec() -> FabricSpec:
    """One Cluster-C node (dual Xeon Silver, one PCIe 3.0 x16 GPU slot)."""
    x16_gen3 = LinkWidth(3, 16)
    return FabricSpec(
        name="cluster_c_node",
        sockets=(
            SocketSpec(
                cpu_part=XEON_SILVER_4214.name,
                banks=(SlotBankSpec("x16", 2, x16_gen3, (GPU,), "bus1"),),
            ),
            SocketSpec(cpu_part=XEON_SILVER_4214.name),
        ),
    )


def cluster_c_fabric() -> ClusterFabricSpec:
    """Cluster C (four DistDGL nodes) as a declarative cluster spec."""
    return ClusterFabricSpec(
        name="cluster_c", num_machines=4, node=cluster_c_spec()
    )


def compile_cluster(spec: ClusterFabricSpec) -> "ClusterSpec":  # noqa: F821
    """Lower a cluster spec to the analytic ``ClusterSpec`` model."""
    from repro.hardware.machines import ClusterSpec

    node = spec.node
    node.validate()
    gpu_banks = [
        b for s in node.sockets for b in s.banks if GPU in b.allowed
    ]
    if not gpu_banks:
        raise ValueError(f"cluster node {node.name!r} has no GPU slot bank")
    return ClusterSpec(
        name=spec.name,
        num_machines=spec.num_machines,
        cpu=resolve_cpu(node.sockets[0].cpu_part),
        gpu=resolve_gpu(node.gpu_part),
        gpu_link_bw=gpu_banks[0].link.bw,
        nic_bw=spec.nic_bw,
    )


# ----------------------------------------------------------------------
# Fingerprints and run-record summaries
# ----------------------------------------------------------------------
def chassis_fingerprint(chassis: Chassis) -> str:
    """Short stable hash of a chassis' full structure.

    Covers interconnects (name+kind, in order), trunks, memory banks,
    and slot groups (including tags), so two chassis share a
    fingerprint iff they are structurally identical.  Numeric fields
    are canonicalised to float so a spec that came through a JSON
    round-trip (where ints become floats) fingerprints identically to
    the in-memory original.
    """
    payload = {
        "name": chassis.name,
        "interconnects": [
            [n, k.value] for n, k in chassis.interconnects.items()
        ],
        "trunks": [
            [t.a, t.b, float(t.capacity), t.kind.value, t.label]
            for t in chassis.trunks
        ],
        "memories": [
            [m.name, m.attach, float(m.capacity_bytes), float(m.bandwidth)]
            for m in chassis.memories
        ],
        "slot_groups": [
            [
                g.name,
                g.attach,
                g.units,
                float(g.link_bw),
                sorted(g.allowed),
                g.bus_label,
                g.tag,
            ]
            for g in chassis.slot_groups
        ],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:12]


def topology_fingerprint(topo: Topology) -> str:
    """Short stable hash of a topology's nodes and directed links.

    Numerics are canonicalised to float, matching
    :func:`chassis_fingerprint`.
    """
    payload = {
        "nodes": sorted(
            (
                n.name,
                n.kind.value,
                None if n.egress_bw is None else float(n.egress_bw),
            )
            for n in topo.nodes
        ),
        "links": sorted(
            (l.src, l.dst, float(l.capacity), l.kind.value, l.label)
            for l in topo.links
        ),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:12]


def fabric_summary(machine: "MachineSpec", topo: Topology) -> Dict:  # noqa: F821
    """Shape summary of a built topology for run records.

    ``tiers`` counts distinct storage tiers present: GPU HBM, socket
    DRAM, CXL expanders (memory banks named ``cxl*``), and SSDs.
    """
    tiers = 0
    if any(n.kind is NodeKind.GPU_MEM for n in topo.nodes):
        tiers += 1
    cpu_mems = [n for n in topo.nodes if n.kind is NodeKind.CPU_MEM]
    if any(not n.name.startswith("cxl") for n in cpu_mems):
        tiers += 1
    if any(n.name.startswith("cxl") for n in cpu_mems):
        tiers += 1
    if any(n.kind is NodeKind.SSD for n in topo.nodes):
        tiers += 1
    fab = getattr(machine, "fabric_spec", None)
    return {
        "name": machine.name,
        "fingerprint": chassis_fingerprint(machine.chassis),
        "nodes": len(topo.nodes),
        "links": len(topo.links),
        "tiers": tiers,
        "generator_seed": (
            None if fab is None else getattr(fab, "generator_seed", None)
        ),
    }
