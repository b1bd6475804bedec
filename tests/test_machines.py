"""Tests for the Machine A/B/Cluster C models and classic layouts."""

import pytest

from repro.core.placement import GPU, SSD
from repro.hardware.machines import (
    classic_layouts,
    cluster_c,
    machine_a,
    machine_b,
    moment_paper_layout_b,
)
from repro.utils.units import GB, GiB
from tests.reference.flowmodel import plain_max_flow


class TestMachineA:
    def test_table_specs(self):
        m = machine_a()
        assert m.cpu_mem_total == pytest.approx(768 * GiB)
        assert m.gpu.hbm_bytes == pytest.approx(40 * GiB)
        assert m.ssd.read_bw == pytest.approx(6 * GB)

    def test_chassis_structure(self):
        ch = machine_a().chassis
        assert set(ch.interconnects) == {"rc0", "rc1", "plx0", "plx1"}
        assert any(t.label == "qpi" for t in ch.trunks)
        assert any(t.label == "bus9" for t in ch.trunks)

    def test_classic_layouts_fit(self):
        m = machine_a()
        layouts = classic_layouts(m)
        assert set(layouts) == {"a", "b", "c", "d"}
        for p in layouts.values():
            assert p.num_gpus == 4
            assert p.num_ssds == 8

    def test_layout_semantics(self):
        m = machine_a()
        lay = classic_layouts(m)
        # (a): SSDs on bays, GPUs split
        assert lay["a"].count("rc0.bays", SSD) == 4
        assert lay["a"].count("plx0.slots", GPU) == 2
        assert lay["a"].count("plx1.slots", GPU) == 2
        # (b): GPUs together
        assert lay["b"].count("plx0.slots", GPU) == 4
        # (c): SSDs co-located with GPUs on switches
        assert lay["c"].count("plx0.slots", SSD) == 4
        assert lay["c"].count("plx0.slots", GPU) == 2
        # (d): GPUs together, SSDs split across switches
        assert lay["d"].count("plx0.slots", GPU) == 4
        assert lay["d"].count("plx0.slots", SSD) == 4
        assert lay["d"].count("plx1.slots", SSD) == 4

    def test_build_topologies(self):
        m = machine_a()
        for p in classic_layouts(m).values():
            topo = m.build(p)
            assert len(topo.gpus()) == 4
            assert len(topo.ssds()) == 8
            topo.validate()

    def test_scaled_layouts(self):
        m = machine_a()
        for n in (1, 2, 3, 4):
            lay = classic_layouts(m, num_gpus=n)
            for p in lay.values():
                assert p.num_gpus == n

    def test_plain_maxflow_ordering(self):
        """Layout (c) admits strictly more raw flow than (b)."""
        m = machine_a()
        lay = classic_layouts(m)
        flow = {k: plain_max_flow(m.build(p)) for k, p in lay.items()}
        assert flow["c"] > flow["b"]
        assert flow["c"] > flow["d"]


class TestMachineB:
    def test_cascade_structure(self):
        ch = machine_b().chassis
        labels = {t.label for t in ch.trunks}
        assert "bus11" in labels and "bus16" in labels
        # cascade: plx1 hangs off plx0, not off a root complex
        t16 = next(t for t in ch.trunks if t.label == "bus16")
        assert {t16.a, t16.b} == {"plx0", "plx1"}

    def test_direct_slots_exist(self):
        ch = machine_b().chassis
        assert "rc0.x16" in ch.group_names
        assert "rc1.x16" in ch.group_names

    def test_moment_fig7_layout(self):
        m = machine_b()
        p = moment_paper_layout_b(m)
        assert p.num_gpus == 4
        assert p.num_ssds == 8
        assert p.count("rc0.x16", GPU) == 1
        assert p.count("rc1.x16", GPU) == 1
        assert p.count("rc1.bays", SSD) == 4
        assert p.count("plx1.slots", GPU) == 2
        m.build(p).validate()

    def test_fig7_layout_rejected_on_machine_a(self):
        with pytest.raises(ValueError):
            moment_paper_layout_b(machine_a())

    def test_fig7_beats_classic_c_in_raw_flow(self):
        m = machine_b()
        fig7 = plain_max_flow(m.build(moment_paper_layout_b(m)))
        c = plain_max_flow(m.build(classic_layouts(m)["c"]))
        assert fig7 >= c

    def test_classic_layouts_fit(self):
        m = machine_b()
        for p in classic_layouts(m).values():
            m.build(p).validate()


class TestClusterC:
    def test_specs(self):
        c = cluster_c()
        assert c.num_machines == 4
        assert c.total_cpu_mem == pytest.approx(4 * 256 * GiB)
        assert c.nic_bw == pytest.approx(12.5 * GB)
