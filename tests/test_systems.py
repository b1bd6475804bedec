"""Tests for the system runners: Moment, M-Hyperion, M-GIDS, DistDGL."""

import sys

import pytest

import repro.runtime.system as system_module
from repro.baselines.distdgl import DistDglSystem
from repro.baselines.mgids import MGidsSystem
from repro.baselines.mhyperion import MHyperionSystem
from repro.core import ddak
from repro.core.ddak import GPU_REPLICATED
from repro.core.optimizer import MomentOptimizer, OptimizerConfig
from repro.core.symmetry import iter_canonical_placements
from repro.faults import FaultSchedule
from repro.graphs.datasets import CLUEWEB, IGB_HOM, PAPER100M, UK_2014
from repro.hardware.machines import classic_layouts, machine_a
from repro.hardware.registry import get_machine
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem, gpu_memory_budget
from repro.simulator.iostack import IoStackConfig

QUICK = 40  # extra scale factor so graphs stay test-sized


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def ig(machine):
    return IGB_HOM.build(scale=IGB_HOM.default_scale * QUICK, seed=0)


@pytest.fixture(scope="module")
def placement_c(machine):
    return classic_layouts(machine)["c"]


@pytest.fixture
def ddak_calls(monkeypatch):
    """Count ``ddak_place`` calls, wherever a module imported the name."""
    real = ddak.ddak_place
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "ddak_place", None) is real:
            monkeypatch.setattr(module, "ddak_place", counting)
    return calls


class TestGpuMemoryBudget:
    def test_fits_common_case(self, machine, ig):
        ledger = gpu_memory_budget(machine, ig, "graphsage", 4, IoStackConfig())
        assert ledger.free_bytes > 0
        assert "activations" in ledger.entries

    def test_extra_reservation_can_oom(self, machine, ig):
        from repro.simulator.memory import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            gpu_memory_budget(
                machine, ig, "graphsage", 4, IoStackConfig(),
                extra={"huge": 100e9},
            )


class TestMomentSystem:
    def test_end_to_end(self, machine, ig):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, num_gpus=2, num_ssds=4, sample_batches=2)
        )
        assert r.ok
        assert r.system == "moment"
        assert r.paper_epoch_seconds > 0
        assert r.plan is not None
        assert r.placement.num_gpus == 2

    def test_fixed_placement(self, machine, ig, placement_c):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert r.ok
        assert r.placement == placement_c

    def test_repr(self, machine, ig, placement_c):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert "moment" in repr(r)

    def test_data_placement_is_the_simulated_one(self, machine, ig):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, num_gpus=2, num_ssds=4, sample_batches=2)
        )
        r.data_placement.validate(ig.feature_bytes)
        assert GPU_REPLICATED in [b.name for b in r.data_placement.bins]
        assert r.placement == r.plan.placement

    def test_partitioned_policy_reaches_the_simulation(self, machine, ig):
        cfg = OptimizerConfig(gpu_cache_policy="partitioned")
        r = MomentSystem(machine, optimizer_config=cfg).run(
            RunSpec(dataset=ig, num_gpus=2, num_ssds=4, sample_batches=2)
        )
        names = [b.name for b in r.data_placement.bins]
        assert names[:2] == ["gpu0:mem", "gpu1:mem"]
        assert GPU_REPLICATED not in names


class TestOneDataPlacementPerRun:
    def test_moment_run_places_data_once(self, machine, ig, ddak_calls):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, num_gpus=2, num_ssds=4, sample_batches=2)
        )
        assert r.ok
        assert len(ddak_calls) == 1

    def test_optimize_places_no_data(self, machine, ig, ddak_calls):
        MomentOptimizer(machine, num_gpus=2, num_ssds=4).optimize(ig)
        assert ddak_calls == []

    def test_serve_plan_only_solve_places_no_data(self, ddak_calls):
        from repro.serve.planner import solve
        from repro.serve.schema import parse_request

        payload = solve(
            parse_request({"dataset": {"key": "TINY"}, "simulate": False})
        )
        assert payload["result"] is None
        assert ddak_calls == []


class TestMHyperion:
    def test_runs_with_binding(self, machine, ig, placement_c):
        r = MHyperionSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert r.ok
        # binding: every SSD demand entry must be a bound drive
        from repro.simulator.binding import static_ssd_binding

        topo = machine.build(placement_c)
        binding = static_ssd_binding(topo)
        for (b, g), _ in r.epoch.demand.entries.items():
            if b.startswith("ssd"):
                assert b in binding[g]

    def test_defaults_to_classic_layout_c(self, machine, ig, placement_c):
        r = MHyperionSystem(machine).run(RunSpec(dataset=ig, sample_batches=2))
        assert r.ok
        assert r.placement.as_tuple() == placement_c.as_tuple()

    def test_replan_fallback_counts_the_machines_banks(self, monkeypatch):
        # gen:2 has one DRAM bank; the baseline replan fallback must not
        # count its CPU-cache slots twice
        machine = get_machine("gen:2")
        assert len(machine.chassis.memories) == 1
        banks = []
        real = system_module.tier_fractions

        def spy(*args, **kwargs):
            banks.append(kwargs.get("num_banks"))
            return real(*args, **kwargs)

        monkeypatch.setattr(system_module, "tier_fractions", spy)
        ds = IGB_HOM.build(scale=IGB_HOM.default_scale * QUICK, seed=0)
        placement = next(iter_canonical_placements(machine.chassis, 2, 4))
        r = MHyperionSystem(machine).run(
            RunSpec(
                dataset=ds,
                placement=placement,
                num_gpus=2,
                num_ssds=4,
                sample_batches=3,
                faults=FaultSchedule.parse("fail@1:ssd0"),
                replan=True,
            )
        )
        assert r.ok
        assert banks == [1]

    def test_base_system_requires_placement(self, machine, ig):
        from repro.runtime.system import GnnSystem

        with pytest.raises(ValueError):
            GnnSystem(machine).run(RunSpec(dataset=ig, sample_batches=2))


class TestMGids:
    def test_runs_on_small_dataset(self, machine, ig, placement_c):
        r = MGidsSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert r.ok

    @pytest.mark.parametrize("spec", [UK_2014, CLUEWEB])
    def test_oom_on_terabyte_features(self, machine, placement_c, spec):
        ds = spec.build(scale=spec.default_scale * QUICK, seed=0)
        r = MGidsSystem(machine).run(
            RunSpec(dataset=ds, placement=placement_c, sample_batches=2)
        )
        assert not r.ok
        assert "page_cache_metadata" in (r.oom or "")

    def test_paper100m_fits(self, machine, placement_c):
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        r = MGidsSystem(machine).run(
            RunSpec(dataset=ds, placement=placement_c, sample_batches=2)
        )
        assert r.ok


class TestDistDgl:
    def test_pa_runs(self):
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        r = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=2))
        assert r.ok
        assert r.epoch_seconds > 0
        assert r.seeds_per_s > 0
        # CPU sampling should be the bottleneck stage (paper's claim)
        assert r.sample_seconds >= r.network_seconds * 0.5

    @pytest.mark.parametrize("spec", [IGB_HOM, UK_2014, CLUEWEB])
    def test_oom_on_big_datasets(self, spec):
        ds = spec.build(scale=spec.default_scale * QUICK, seed=0)
        r = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=2))
        assert not r.ok

    def test_network_not_the_bottleneck(self):
        """Paper: observed 20 Gb/s peak on a 100 Gb/s network."""
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        r = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=2))
        assert r.network_seconds < r.sample_seconds


class TestComparisons:
    def test_moment_beats_binding_baseline(self, machine, ig, placement_c):
        # Moment searches its own placement; the baseline runs the best
        # classic layout with its static drive binding.
        moment = MomentSystem(machine).run(RunSpec(dataset=ig, sample_batches=3))
        hyperion = MHyperionSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=3)
        )
        assert moment.seeds_per_s >= hyperion.seeds_per_s * 0.95

    def test_moment_beats_distdgl_on_pa(self, machine):
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        moment = MomentSystem(machine).run(
            RunSpec(dataset=ds, num_gpus=4, sample_batches=3)
        )
        dgl = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=3))
        assert moment.ok and dgl.ok
        assert moment.seeds_per_s > dgl.seeds_per_s
