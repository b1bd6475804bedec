"""Declarative fabric layer: spec round-trips, compiled-vs-legacy
identity, generator properties, rate reconciliation, and fabric-keyed
run records."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.topology import NodeKind
from repro.graphs.datasets import tiny_dataset
from repro.hardware.fabric import (
    FABRIC_SCHEMA,
    FabricSpec,
    chassis_fingerprint,
    compile_fabric,
    fabric_summary,
    load_fabric,
    machine_a_spec,
    machine_b_spec,
    save_fabric,
    topology_fingerprint,
)
from repro.hardware.generate import (
    generate_fabric,
    gpu_slot_capacity,
    has_cxl,
    is_asymmetric,
    ssd_slot_capacity,
)
from repro.hardware.machines import classic_layouts, machine_a, machine_b
from repro.hardware.registry import get_machine, list_machines
from repro.obs.metrics import parse_key
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem, SystemResult
from repro.simulator.routing import (
    Router,
    fair_storage_rates,
    reconcile_storage_rates,
)
from tests.reference.machines import _legacy_machine_a, _legacy_machine_b

DATA = os.path.join(os.path.dirname(__file__), "data")

#: The fixed fleet the CI sweep covers (mirrors fabric_sweep defaults).
SWEEP_SEEDS = tuple(range(25))


@pytest.fixture(scope="module")
def tiny():
    return tiny_dataset(num_vertices=800, seed=0)


# ---------------------------------------------------------------------------
# Tentpole acceptance: compiled specs are identical to the legacy
# hand-built machines, node for node and link for link.
# ---------------------------------------------------------------------------
class TestCompiledVsLegacy:
    @pytest.mark.parametrize(
        "compiled,legacy",
        [(machine_a, _legacy_machine_a), (machine_b, _legacy_machine_b)],
        ids=["machine_a", "machine_b"],
    )
    def test_machine_identity(self, compiled, legacy):
        new, old = compiled(), legacy()
        # MachineSpec equality ignores fabric_spec (compare=False), so
        # this covers name, chassis, parts, and socket count
        assert new == old
        assert chassis_fingerprint(new.chassis) == chassis_fingerprint(
            old.chassis
        )

    @pytest.mark.parametrize(
        "compiled,legacy",
        [(machine_a, _legacy_machine_a), (machine_b, _legacy_machine_b)],
        ids=["machine_a", "machine_b"],
    )
    def test_built_topology_identity(self, compiled, legacy):
        new, old = compiled(), legacy()
        for key, layout in classic_layouts(new).items():
            t_new, t_old = new.build(layout), old.build(layout)
            assert [(n.name, n.kind) for n in t_new.nodes] == [
                (n.name, n.kind) for n in t_old.nodes
            ], key
            assert [
                (l.src, l.dst, l.kind, l.capacity) for l in t_new.links
            ] == [
                (l.src, l.dst, l.kind, l.capacity) for l in t_old.links
            ], key
            assert topology_fingerprint(t_new) == topology_fingerprint(
                t_old
            ), key

    def test_compiled_records_its_spec(self):
        assert machine_a().fabric_spec == machine_a_spec()
        assert machine_b().fabric_spec == machine_b_spec()
        assert _legacy_machine_a().fabric_spec is None


# ---------------------------------------------------------------------------
# Spec serialization: JSON round-trips and committed golden files.
# ---------------------------------------------------------------------------
class TestSpecSerialization:
    @pytest.mark.parametrize(
        "factory", [machine_a_spec, machine_b_spec], ids=["a", "b"]
    )
    def test_json_round_trip(self, factory):
        spec = factory()
        again = FabricSpec.from_json(spec.to_json())
        assert again == spec
        assert chassis_fingerprint(
            compile_fabric(again).chassis
        ) == chassis_fingerprint(compile_fabric(spec).chassis)

    def test_schema_marker(self):
        assert machine_a_spec().to_dict()["schema"] == FABRIC_SCHEMA

    @pytest.mark.parametrize(
        "golden,factory,machine",
        [
            ("fabric_machine_a.json", machine_a_spec, machine_a),
            ("fabric_machine_b.json", machine_b_spec, machine_b),
        ],
        ids=["a", "b"],
    )
    def test_golden_file(self, golden, factory, machine):
        """The committed spec file is the source of truth: it must
        parse back to the in-code spec and compile to the same
        chassis the machine registry hands out."""
        spec = load_fabric(os.path.join(DATA, golden))
        assert spec == factory()
        assert chassis_fingerprint(
            compile_fabric(spec).chassis
        ) == chassis_fingerprint(machine().chassis)

    def test_save_load_round_trip(self, tmp_path):
        spec = generate_fabric(11)
        path = tmp_path / "gen11.json"
        save_fabric(spec, path)
        assert load_fabric(path) == spec

    def test_generated_specs_round_trip(self):
        for seed in SWEEP_SEEDS:
            spec = generate_fabric(seed)
            assert FabricSpec.from_json(spec.to_json()) == spec, seed


# ---------------------------------------------------------------------------
# Machine registry: names, generated references, spec files.
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_listed(self):
        names = {e.name for e in list_machines()}
        assert {"machine_a", "machine_b"} <= names

    def test_gen_reference_is_deterministic(self):
        a = get_machine("gen:7")
        b = compile_fabric(generate_fabric(7))
        assert chassis_fingerprint(a.chassis) == chassis_fingerprint(
            b.chassis
        )

    def test_json_path_reference(self, tmp_path):
        path = tmp_path / "fab.json"
        save_fabric(generate_fabric(3), path)
        machine = get_machine(str(path))
        assert chassis_fingerprint(machine.chassis) == chassis_fingerprint(
            get_machine("gen:3").chassis
        )

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown machine"):
            get_machine("machine_z")

    def test_bad_gen_reference_raises(self):
        with pytest.raises(KeyError, match="gen:<integer seed>"):
            get_machine("gen:xyz")


# ---------------------------------------------------------------------------
# Generator properties over the CI fleet (seeded fuzzing).
# ---------------------------------------------------------------------------
class TestGeneratorProperties:
    def test_deterministic(self):
        for seed in SWEEP_SEEDS[:8]:
            assert generate_fabric(seed) == generate_fabric(seed)

    def test_positive_capacities_and_slots(self):
        for seed in SWEEP_SEEDS:
            spec = generate_fabric(seed)
            machine = compile_fabric(spec)
            assert gpu_slot_capacity(spec) >= 2, seed
            assert ssd_slot_capacity(spec) >= 3, seed
            for group in machine.chassis.slot_groups:
                assert group.units > 0, seed
                assert group.link_bw > 0, seed

    def test_topology_connected_all_links_positive(self):
        from repro.core.search import sample_placements

        for seed in SWEEP_SEEDS[:6]:
            machine = compile_fabric(generate_fabric(seed))
            placement = sample_placements(machine.chassis, 2, 2, cap=1)[0]
            topo = machine.build(placement)
            assert all(l.capacity > 0 for l in topo.links), seed
            # Router precomputes every (storage, GPU) route and raises
            # if any storage node is unreachable
            router = Router(topo)
            for store in topo.storage_nodes:
                for gpu in topo.gpus():
                    router.path(store.name, gpu)

    def test_fleet_coverage(self):
        """The fixed CI fleet exercises the interesting shapes."""
        specs = [generate_fabric(s) for s in SWEEP_SEEDS]
        assert sum(1 for s in specs if is_asymmetric(s)) >= 1
        assert sum(1 for s in specs if has_cxl(s)) >= 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_any_seed_generates_a_valid_spec(self, seed):
        spec = generate_fabric(seed)
        spec.validate()
        assert spec.generator_seed == seed
        assert FabricSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------------
# RunSpec hardware identity: machine names vs inline fabrics.
# ---------------------------------------------------------------------------
class TestRunSpecFabric:
    def test_machine_and_fabric_mutually_exclusive(self, tiny):
        with pytest.raises(ValueError, match="drop one"):
            RunSpec(
                dataset=tiny,
                machine="machine_a",
                fabric=machine_b_spec().to_dict(),
            )

    def test_fabric_spec_resolves(self, tiny):
        spec = RunSpec(dataset=tiny, fabric=machine_b_spec())
        machine = spec.resolve_machine()
        assert machine.name == "machine_b"
        assert machine == machine_b()

    def test_fabric_dict_resolves(self, tiny):
        spec = RunSpec(dataset=tiny, fabric=machine_a_spec().to_dict())
        assert spec.resolve_machine() == machine_a()

    def test_fabric_path_resolves(self, tiny, tmp_path):
        path = tmp_path / "gen5.json"
        save_fabric(generate_fabric(5), path)
        spec = RunSpec(dataset=tiny, fabric=str(path))
        assert chassis_fingerprint(
            spec.resolve_machine().chassis
        ) == chassis_fingerprint(get_machine("gen:5").chassis)

    def test_machine_name_resolves(self, tiny):
        assert (
            RunSpec(dataset=tiny, machine="machine_a").resolve_machine()
            == machine_a()
        )

    def test_mismatched_system_rejected(self, tiny):
        layout = classic_layouts(machine_a())["c"]
        spec = RunSpec(
            dataset=tiny,
            placement=layout,
            machine="machine_b",
            sample_batches=2,
        )
        with pytest.raises(ValueError, match="built for"):
            MomentSystem(machine_a()).run(spec)


# ---------------------------------------------------------------------------
# Fabric-shaped run records: telemetry counters and result payloads.
# ---------------------------------------------------------------------------
class TestFabricRunRecords:
    @pytest.fixture(scope="class")
    def run_and_counters(self):
        ds = tiny_dataset(num_vertices=800, seed=0)
        machine = machine_a()
        spec = RunSpec(
            dataset=ds,
            placement=classic_layouts(machine)["c"],
            sample_batches=2,
        )
        with obs.capture() as tel:
            result = MomentSystem(machine).run(spec)
        return result, tel.snapshot()["metrics"]["counters"]

    def test_result_carries_fabric_summary(self, run_and_counters):
        result, _ = run_and_counters
        fab = result.fabric
        expected = fabric_summary(
            machine_a(), machine_a().build(result.placement)
        )
        assert fab == expected
        assert fab["name"] == "machine_a"
        assert fab["generator_seed"] is None
        assert fab["nodes"] > 0 and fab["links"] > 0 and fab["tiers"] >= 3

    def test_run_record_round_trip(self, run_and_counters):
        result, _ = run_and_counters
        again = SystemResult.from_dict(result.to_dict())
        assert again.fabric == result.fabric

    def test_counters_keyed_by_fingerprint(self, run_and_counters):
        result, counters = run_and_counters
        fp = result.fabric["fingerprint"]
        for stat in ("nodes", "links", "tiers"):
            key = f"fabric.{stat}{{fabric={fp}}}"
            assert key in counters
            assert counters[key] == result.fabric[stat]
            assert parse_key(key) == (f"fabric.{stat}", (("fabric", fp),))


# ---------------------------------------------------------------------------
# Warehouse: rows keyed by fabric fingerprint, old tables tolerated.
# ---------------------------------------------------------------------------
class TestWarehouseFabricKeys:
    def _record(self):
        ds = tiny_dataset(num_vertices=800, seed=0)
        machine = machine_a()
        spec = RunSpec(
            dataset=ds,
            placement=classic_layouts(machine)["c"],
            sample_batches=2,
        )
        return MomentSystem(machine).run(spec).to_dict()

    def test_run_record_rows_keyed_by_fabric(self):
        from repro.warehouse.ingest import rows_from_run_record

        record = self._record()
        keys, metrics = rows_from_run_record(record)
        assert keys["fabric"] == record["fabric"]["fingerprint"]
        assert metrics["fabric.nodes"] == record["fabric"]["nodes"]
        assert metrics["fabric.links"] == record["fabric"]["links"]
        assert metrics["fabric.tiers"] == record["fabric"]["tiers"]

    def test_fabric_key_column_declared(self):
        from repro.warehouse.table import KEY_COLUMNS

        assert "fabric" in KEY_COLUMNS

    def test_old_table_without_fabric_column_loads(self):
        from repro.warehouse.table import RunTable

        table = RunTable()
        table.add_row({"run_id": "r0", "benchmark": "b"}, {"m:x": 1.0})
        payload = table.to_dict()
        del payload["columns"]["fabric"]
        again = RunTable.from_dict(payload)
        assert len(again) == 1
        assert again.columns["fabric"] == [None]


# ---------------------------------------------------------------------------
# LP-rate reconciliation against fair-share arbitration.
# ---------------------------------------------------------------------------
class TestRateReconciliation:
    @pytest.fixture(scope="class")
    def topo_a(self):
        machine = machine_a()
        return machine.build(classic_layouts(machine)["a"])

    @pytest.fixture(scope="class")
    def topo_d(self):
        machine = machine_a()
        return machine.build(classic_layouts(machine)["d"])

    def test_fair_rates_symmetric_drives_tie(self, topo_a):
        fair = fair_storage_rates(topo_a)
        drives = {d: r for d, r in fair.items() if d.startswith("ssd")}
        assert len(drives) == 8
        assert len({round(r) for r in drives.values()}) == 1
        assert all(r > 0 for r in drives.values())

    def test_fair_rates_see_cascade_asymmetry(self, topo_d):
        fair = fair_storage_rates(topo_d)
        # layout (d) parks half the drives behind a cascaded switch:
        # their sustainable rate must come out strictly lower
        direct = [fair[f"ssd{i}"] for i in range(4)]
        cascaded = [fair[f"ssd{i}"] for i in range(4, 8)]
        assert min(direct) > max(cascaded)

    def test_degenerate_zero_in_best_class_lifted(self, topo_a):
        fair = fair_storage_rates(topo_a)
        rates = {d: r for d, r in fair.items() if d.startswith("ssd")}
        rates["ssd2"] = 0.0  # symmetric drive parked by a degenerate LP
        fixed = reconcile_storage_rates(topo_a, rates)
        assert fixed["ssd2"] == pytest.approx(fair["ssd2"])

    def test_deliberate_zero_behind_cascade_kept(self, topo_d):
        fair = fair_storage_rates(topo_d)
        rates = {d: r for d, r in fair.items() if d.startswith("ssd")}
        rates["ssd6"] = 0.0  # cascaded drive: concentration, not waste
        fixed = reconcile_storage_rates(topo_d, rates)
        assert fixed["ssd6"] == 0.0

    def test_overestimate_capped_at_fair_rate(self, topo_a):
        fair = fair_storage_rates(topo_a)
        rates = {d: r for d, r in fair.items() if d.startswith("ssd")}
        rates["ssd0"] = fair["ssd0"] * 4.0
        fixed = reconcile_storage_rates(topo_a, rates)
        assert fixed["ssd0"] == pytest.approx(fair["ssd0"])

    def test_healthy_rates_untouched(self, topo_a):
        fair = fair_storage_rates(topo_a)
        rates = {d: r * 0.8 for d, r in fair.items()}
        assert reconcile_storage_rates(topo_a, rates) == rates


# ---------------------------------------------------------------------------
# Sweep harness smoke test (one seed; the full fleet runs in CI).
# ---------------------------------------------------------------------------
class TestFabricSweepSmoke:
    def test_one_seed_passes_all_invariants(self):
        from repro.experiments.fabric_sweep import run_fabric_sweep

        result = run_fabric_sweep(quick=True, seeds=(3,))
        report = result.data["reports"][0]
        assert report["violations"] == []
        assert report["summary"]["generator_seed"] == 3

    def test_env_override_parses(self, monkeypatch):
        from repro.experiments.fabric_sweep import sweep_seeds

        monkeypatch.setenv("REPRO_FABRIC_SEEDS", "3, 7 11")
        assert sweep_seeds() == (3, 7, 11)
        monkeypatch.delenv("REPRO_FABRIC_SEEDS")
        assert len(sweep_seeds(quick=True)) < len(sweep_seeds())
