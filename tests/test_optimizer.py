"""Tests for the automatic module (MomentOptimizer) and the
multicommodity predictor."""

import numpy as np
import pytest

from repro.core.flowmodel import TrafficDemand
from repro.core.mcmf import multicommodity_min_time
from repro.core.optimizer import (
    MomentOptimizer,
    OptimizerConfig,
    capacity_plan,
    concrete_demand,
    scoring_demand,
    tier_fractions,
)
from repro.core.placement import GPU, Placement, SSD
from repro.graphs.datasets import IGB_HOM, tiny_dataset
from repro.hardware.machines import classic_layouts, machine_a, machine_b
from repro.utils.units import GB
from tests.reference.flowmodel import min_completion_time


@pytest.fixture(scope="module")
def dataset():
    # small IG stand-in so capacity maths uses paper specs
    return IGB_HOM.build(scale=IGB_HOM.default_scale * 40, seed=0)


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def optimizer(machine):
    return MomentOptimizer(machine, num_gpus=2, num_ssds=4)


@pytest.fixture(scope="module")
def plan(optimizer, dataset):
    return optimizer.optimize(dataset)


class TestCapacityPlan:
    def test_budgets_positive_and_scaled(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        assert plan.gpu_cache_bytes > 0
        assert plan.cpu_cache_bytes > 0
        assert plan.ssd_capacity_bytes > 0
        # scaled: far below the physical sizes
        assert plan.gpu_cache_bytes < machine.gpu.hbm_bytes

    def test_cpu_cache_is_one_percent_rule(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        spec = dataset.spec
        target = 0.01 * spec.num_vertices * spec.feature_bytes / 2
        assert plan.cpu_cache_bytes == pytest.approx(
            dataset.scaled_capacity(target), rel=1e-6
        )

    def test_fraction_validation(self, machine, dataset):
        with pytest.raises(ValueError):
            capacity_plan(machine, dataset, gpu_cache_fraction=1.5)


class TestTierFractions:
    def test_sum_to_one(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        h = np.random.default_rng(0).random(dataset.graph.num_vertices)
        f = tier_fractions(h, dataset.feature_bytes, plan, 4)
        assert sum(f) == pytest.approx(1.0)
        assert all(x >= 0 for x in f)

    def test_skew_raises_gpu_fraction(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        n = dataset.graph.num_vertices
        uniform = np.ones(n)
        skewed = (np.arange(1, n + 1)) ** -1.0
        f_u = tier_fractions(uniform, dataset.feature_bytes, plan, 4)
        f_s = tier_fractions(skewed, dataset.feature_bytes, plan, 4)
        assert f_s[0] > f_u[0]

    def test_partitioned_policy_caches_more(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        h = (np.arange(1, dataset.graph.num_vertices + 1)) ** -0.8
        f_rep = tier_fractions(h, dataset.feature_bytes, plan, 4)
        f_part = tier_fractions(
            h, dataset.feature_bytes, plan, 4, gpu_cache_policy="partitioned"
        )
        assert f_part[0] > f_rep[0]

    def test_zero_hotness(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        f = tier_fractions(
            np.zeros(dataset.graph.num_vertices), dataset.feature_bytes, plan, 4
        )
        assert f == (0.0, 0.0, 1.0)


class TestScoringDemands:
    def test_replicated_has_no_peer_entries(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        d = scoring_demand(topo, (0.5, 0.2, 0.3))
        assert not any(":mem" in b for (b, _) in d.entries)

    def test_partitioned_has_peer_entries(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        d = scoring_demand(
            topo, (0.5, 0.2, 0.3), gpu_cache_policy="partitioned"
        )
        assert any(":mem" in b for (b, _) in d.entries)

    def test_concrete_fans_out_to_all_gpus(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        d = concrete_demand(topo, (0.0, 0.0, 1.0), {})
        gpus = set(topo.gpus())
        for ssd in topo.ssds():
            assert {g for (b, g) in d.entries if b == ssd} == gpus


class TestMulticommodity:
    def test_matches_capacity_on_line(self):
        from repro.core.topology import NodeKind, Topology

        t = Topology()
        t.add("rc", NodeKind.ROOT_COMPLEX)
        t.add("gpu0", NodeKind.GPU)
        t.add("ssd0", NodeKind.SSD, egress_bw=6 * GB)
        t.add_link("ssd0", "rc", 6 * GB)
        t.add_link("gpu0", "rc", 24 * GB)
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 6 * GB)
        pred = multicommodity_min_time(t, d)
        assert pred.time == pytest.approx(1.0, rel=1e-3)
        assert pred.throughput == pytest.approx(6 * GB, rel=1e-3)

    def test_never_exceeds_single_commodity(self, machine):
        """The LP (exact) can't beat the single-commodity relaxation."""
        topo = machine.build(classic_layouts(machine)["c"])
        d = concrete_demand(topo, (0.0, 0.1, 0.9), {})
        lp = multicommodity_min_time(topo, d)
        sc = min_completion_time(topo, d)
        assert lp.time >= sc.time * 0.999

    def test_rejects_class_demand(self, machine):
        from repro.core.flowmodel import SSD_CLASS

        topo = machine.build(classic_layouts(machine)["c"])
        d = TrafficDemand()
        d.add(SSD_CLASS, "gpu0", 1e9)
        with pytest.raises(ValueError):
            multicommodity_min_time(topo, d)

    def test_zero_demand(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        pred = multicommodity_min_time(topo, TrafficDemand())
        assert pred.time == 0.0

    def test_utilisation_bounded(self, machine):
        topo = machine.build(classic_layouts(machine)["b"])
        d = concrete_demand(topo, (0.0, 0.0, 1.0), {})
        pred = multicommodity_min_time(topo, d)
        assert pred.utilisation
        assert all(0 <= u <= 1.0 for u in pred.utilisation.values())
        assert pred.bottlenecks()  # something saturates at the optimum


class TestOptimizer:
    def test_plan_structure(self, plan, optimizer):
        assert plan.placement.num_gpus == 2
        assert plan.placement.num_ssds == 4
        assert plan.num_candidates >= plan.num_unique >= 1
        assert plan.predicted_throughput > 0
        # the plan carries the DDAK traffic targets, not a placement:
        # data is placed once, by the run that simulates the plan
        assert not hasattr(plan, "data_placement")
        assert plan.prediction.storage_rate

    def test_scored_sorted_desc(self, plan):
        scores = [s.throughput for s in plan.scored]
        assert scores == sorted(scores, reverse=True)

    def test_winner_at_least_matches_classics(self, optimizer, plan, dataset):
        for key, p in classic_layouts(
            optimizer.machine, num_gpus=2, num_ssds=4
        ).items():
            sc = optimizer.score_placement(p, plan.fractions)
            assert plan.predicted_throughput >= sc.throughput * 0.999, key

    def test_fixed_candidate_restricts_search(self, optimizer, dataset):
        p = classic_layouts(optimizer.machine, num_gpus=2, num_ssds=4)["c"]
        plan = optimizer.optimize(dataset, candidates=[p])
        assert plan.placement == p
        assert plan.num_unique == 1

    def test_summary_renders(self, plan):
        text = plan.summary()
        assert "predicted throughput" in text
        assert "search space" in text

    def test_invalid_pool(self, machine):
        with pytest.raises(ValueError):
            MomentOptimizer(machine, num_gpus=0, num_ssds=4)

    def test_infeasible_pool_raises(self, dataset):
        m = machine_a()
        opt = MomentOptimizer(m, num_gpus=4, num_ssds=8)
        with pytest.raises(ValueError):
            # 30 GPUs never fit
            MomentOptimizer(m, num_gpus=30, num_ssds=1).optimize(dataset)

    def test_hotness_smoothing_covers_all_vertices(self, optimizer, dataset):
        h = optimizer.estimate_hotness(dataset)
        assert h.shape == (dataset.graph.num_vertices,)
        assert (h > 0).all()  # degree-proxy smoothing: no zero ties
