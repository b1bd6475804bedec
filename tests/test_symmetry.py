"""Tests for chassis automorphisms and placement orbit dedup."""

import pytest

from repro.core.placement import GPU, Placement, SSD
from repro.core.symmetry import chassis_automorphisms, slot_group_symmetries
from repro.hardware.machines import machine_a, machine_b
from tests.reference.placement import enumerate_placements
from tests.reference.symmetry import canonical_key, dedupe_placements


class TestAutomorphisms:
    def test_machine_a_has_mirror_symmetry(self):
        autos = chassis_automorphisms(machine_a().chassis)
        # identity + left/right mirror
        assert len(autos) == 2
        mirror = [a for a in autos if a["rc0"] == "rc1"]
        assert len(mirror) == 1
        m = mirror[0]
        assert m["plx0"] == "plx1"
        assert m["rc0.bays"] == "rc1.bays"
        assert m["plx0.slots"] == "plx1.slots"
        assert m["mem0"] == "mem1"

    def test_machine_b_is_asymmetric(self):
        # The cascade breaks the mirror: only the identity survives.
        autos = chassis_automorphisms(machine_b().chassis)
        assert len(autos) == 1

    def test_identity_always_present(self):
        autos = chassis_automorphisms(machine_a().chassis)
        assert any(all(k == v for k, v in a.items()) for a in autos)

    def test_slot_group_symmetries_restrict_to_groups(self):
        syms = slot_group_symmetries(machine_a().chassis)
        groups = set(machine_a().chassis.group_names)
        for sym in syms:
            assert set(sym) == groups
            assert set(sym.values()) == groups


class TestDedup:
    def test_mirror_placements_collapse(self):
        ch = machine_a().chassis
        left = Placement(ch, {"plx0.slots": {GPU: 2}, "rc0.bays": {SSD: 2}})
        right = Placement(ch, {"plx1.slots": {GPU: 2}, "rc1.bays": {SSD: 2}})
        syms = slot_group_symmetries(ch)
        assert canonical_key(left, syms) == canonical_key(right, syms)
        assert len(dedupe_placements([left, right])) == 1

    def test_distinct_placements_survive(self):
        ch = machine_a().chassis
        p1 = Placement(ch, {"plx0.slots": {GPU: 2}})
        p2 = Placement(ch, {"plx0.slots": {GPU: 1}, "plx1.slots": {GPU: 1}})
        assert len(dedupe_placements([p1, p2])) == 2

    def test_dedupe_preserves_first_representative(self):
        ch = machine_a().chassis
        left = Placement(ch, {"plx0.slots": {GPU: 2}}, name="left")
        right = Placement(ch, {"plx1.slots": {GPU: 2}}, name="right")
        out = dedupe_placements([left, right])
        assert out[0].name == "left"

    def test_dedupe_empty(self):
        assert dedupe_placements([]) == []

    def test_machine_a_search_space_roughly_halves(self):
        ch = machine_a().chassis
        all_p = enumerate_placements(ch, num_gpus=2, num_ssds=4)
        uniq = dedupe_placements(all_p)
        # mirror symmetry: strictly fewer, at least half (self-symmetric
        # placements are their own mirror)
        assert len(uniq) < len(all_p)
        assert len(uniq) >= len(all_p) // 2

    def test_machine_b_dedupe_is_identity(self):
        ch = machine_b().chassis
        all_p = enumerate_placements(ch, num_gpus=1, num_ssds=2)
        assert len(dedupe_placements(all_p)) == len(all_p)
