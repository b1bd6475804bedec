"""Tests for the repro.obs telemetry subsystem.

Covers the disabled-mode no-op contract, span nesting/ordering,
histogram percentiles, the JSONL record schema round-trip, and an
integration test asserting the EpochSimulator's tier-byte metrics
reconcile with its :class:`EpochResult` / :class:`TrafficAccount`
totals.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.ddak import ddak_place, make_bins
from repro.graphs.datasets import tiny_dataset
from repro.hardware.machines import classic_layouts, machine_a
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    metric_key,
    parse_key,
    render_key,
)
from repro.obs.trace import Tracer, traced
from repro.sampling.hotness import degree_proxy_hotness
from repro.simulator.pipeline import EpochSimulator, SimConfig
from repro.simulator.routing import egress_key


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# Disabled mode: pure no-op
# ----------------------------------------------------------------------
class TestDisabledMode:
    def test_helpers_are_noops(self):
        assert obs.active() is None
        obs.add("x", 1.0, tier="ssd")
        obs.observe("y", 2.0)
        obs.set_gauge("z", 3.0)
        assert obs.active() is None
        assert obs.snapshot() is None
        assert obs.scope() is None

    def test_disabled_span_still_measures_but_records_nothing(self):
        with obs.span("work", step=1) as sp:
            sum(range(1000))
        assert sp.duration > 0
        assert obs.active() is None

    def test_traced_function_identity(self):
        @traced("t.f")
        def f(a, b=2):
            return a + b

        assert f(1) == 3
        assert f(5, b=7) == 12
        assert obs.active() is None

    def test_no_registry_state_leaks_across_enable(self):
        obs.add("leak", 1.0)
        tel = obs.enable()
        assert len(tel.registry) == 0
        assert tel.tracer.spans == []

    def test_disabled_overhead_is_one_none_check(self):
        # identity-overhead contract: the disabled helpers must not
        # allocate metrics or touch any registry; calling them many
        # times leaves the process exactly as it started
        for _ in range(10_000):
            obs.add("hot.counter", 1.0, tier="ssd")
        assert obs.active() is None


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_ordering(self):
        with obs.capture() as tel:
            with obs.span("root"):
                with obs.span("child_a"):
                    with obs.span("grandchild"):
                        pass
                with obs.span("child_b"):
                    pass
        names = [s.name for s in tel.tracer.spans]
        assert names == ["root", "child_a", "grandchild", "child_b"]
        by_name = {s.name: s for s in tel.tracer.spans}
        assert by_name["root"].depth == 0
        assert by_name["root"].parent is None
        assert by_name["child_a"].parent == by_name["root"].index
        assert by_name["grandchild"].depth == 2
        assert by_name["grandchild"].parent == by_name["child_a"].index
        assert by_name["child_b"].parent == by_name["root"].index

    def test_durations_nest(self):
        with obs.capture() as tel:
            with obs.span("outer"):
                with obs.span("inner"):
                    sum(range(100))
        outer, inner = tel.tracer.spans
        assert outer.duration >= inner.duration > 0

    def test_span_attrs_and_set(self):
        with obs.capture() as tel:
            with obs.span("s", fixed=1) as sp:
                sp.set(result=42)
        d = tel.tracer.spans[0].to_dict(tel.tracer.t0)
        assert d["attrs"] == {"fixed": 1, "result": 42}
        assert d["start_s"] >= 0

    def test_traced_records_when_enabled(self):
        @traced("math.double")
        def double(x):
            return 2 * x

        with obs.capture() as tel:
            assert double(4) == 8
        assert [s.name for s in tel.tracer.spans] == ["math.double"]

    def test_tracer_find_and_totals(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("a"):
            pass
        assert len(t.find("a")) == 2
        assert t.total_seconds("a") >= 0

    def test_capture_restores_previous_session(self):
        outer = obs.enable()
        with obs.capture() as inner:
            assert obs.active() is inner
            assert inner is not outer
        assert obs.active() is outer


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c", tier="ssd").inc(5)
        reg.counter("c", tier="ssd").inc(2.5)
        reg.gauge("g").set(1.0)
        reg.gauge("g").set(9.0)
        reg.histogram("h").observe(3.0)
        assert reg.counter("c", tier="ssd").value == 7.5
        assert reg.gauge("g").value == 9.0
        assert reg.histogram("h").count == 1

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram_percentiles(self):
        h = Histogram(metric_key("h", {}))
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        assert h.mean == pytest.approx(50.5)
        stats = h.stats()
        assert stats["count"] == 100
        assert stats["p99"] == pytest.approx(99.01)
        assert stats["min"] == 1.0 and stats["max"] == 100.0

    def test_histogram_percentile_edge_cases(self):
        h = Histogram(metric_key("h", {}))
        assert np.isnan(h.percentile(50))
        h.observe(7.0)
        assert h.percentile(50) == 7.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_key_render_parse_roundtrip(self):
        key = metric_key("sim.tier_bytes", {"tier": "ssd", "gpu": "gpu0"})
        assert parse_key(render_key(key)) == key
        assert parse_key(render_key(metric_key("plain", {}))) == ("plain", ())

    def test_snapshot_delta(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(10)
        reg.histogram("h").observe(1.0)
        mark = reg.mark()
        reg.counter("c").inc(5)
        reg.counter("new").inc(1)
        reg.histogram("h").observe(3.0)
        reg.gauge("g").set(2.0)
        delta = reg.snapshot(since=mark)
        assert delta["counters"] == {"c": 5.0, "new": 1.0}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["mean"] == 3.0
        assert delta["gauges"]["g"] == 2.0
        full = reg.snapshot()
        assert full["counters"]["c"] == 15.0
        assert full["histograms"]["h"]["count"] == 2


# ----------------------------------------------------------------------
# JSONL records
# ----------------------------------------------------------------------
class TestRunRecords:
    def test_schema_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with obs.capture() as tel:
            with obs.span("optimizer.optimize", machine="machine_a"):
                obs.add("sim.tier_bytes", 60.0, tier="ssd")
                obs.add("sim.tier_bytes", 40.0, tier="gpu")
                obs.observe("sim.stage_seconds", 0.5, stage="io")
                obs.set_gauge("traffic.link_utilization", 0.7,
                              src="rc0", dst="plx0")
        record = obs.build_run_record(
            run_id="unit",
            config={"experiment": "unit", "quick": True},
            telemetry=tel,
            meta=obs.run_metadata(seed=0),
        )
        obs.append_jsonl(path, record)
        obs.append_jsonl(path, record)  # appends, not truncates

        back = obs.read_jsonl(path)
        assert len(back) == 2
        r = back[0]
        assert obs.validate_record(r) == []
        assert r["run_id"] == "unit"
        assert r["config"]["quick"] is True
        assert r["spans"][0]["name"] == "optimizer.optimize"
        assert r["metrics"]["counters"]["sim.tier_bytes{tier=ssd}"] == 60.0
        assert r["metrics"]["histograms"]["sim.stage_seconds{stage=io}"][
            "count"
        ] == 1
        assert r["derived"]["tier_fractions"]["ssd"] == pytest.approx(0.6)
        assert "seed" in r["meta"] and "platform" in r["meta"]
        # every line is standalone JSON
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_validate_flags_problems(self):
        assert obs.validate_record({}) != []
        bad = {"schema": obs.record.SCHEMA, "run_id": "x",
               "timestamp_unix_s": 0, "config": {}, "meta": {},
               "derived": {}, "spans": [{"name": "a"}]}
        assert any("span" in p for p in obs.validate_record(bad))

    def test_numpy_values_serialize(self, tmp_path):
        path = tmp_path / "np.jsonl"
        with obs.capture() as tel:
            with obs.span("s", n=np.int64(3), f=np.float64(0.5)):
                obs.add("c", float(np.float32(2.0)))
        record = obs.build_run_record("np", telemetry=tel)
        obs.append_jsonl(path, record)
        back = obs.read_jsonl(path)[0]
        assert back["spans"][0]["attrs"] == {"n": 3, "f": 0.5}

    def test_report_renders_record(self):
        with obs.capture() as tel:
            with obs.span("optimizer.optimize"):
                obs.add("sim.tier_bytes", 10.0, tier="ssd")
                obs.add("traffic.link_bytes", 5.0, src="a", dst="b")
        record = obs.build_run_record("r", telemetry=tel)
        text = obs.report.render_record(record)
        assert "optimizer.optimize" in text
        assert "ssd" in text
        assert "a -> b" in text


# ----------------------------------------------------------------------
# Integration: simulator + optimizer telemetry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sim_setup():
    machine = machine_a()
    topo = machine.build(classic_layouts(machine)["c"])
    dataset = tiny_dataset(num_vertices=3000, avg_degree=8, batch_size=64,
                           seed=0)
    bins = make_bins(
        topo,
        gpu_cache_bytes=200 * dataset.feature_bytes,
        cpu_cache_bytes=100 * dataset.feature_bytes,
        ssd_capacity_bytes=1e12,
    )
    hot = degree_proxy_hotness(dataset.graph)
    placement = ddak_place(bins, hot, dataset.feature_bytes)
    return machine, topo, dataset, placement


class TestSimulatorTelemetry:
    def test_tier_bytes_reconcile_with_traffic_account(self, sim_setup):
        machine, topo, dataset, placement = sim_setup
        sim = EpochSimulator(
            topo, machine, dataset, placement, SimConfig(sample_batches=3)
        )
        with obs.capture() as tel:
            epoch = sim.run_epoch()
        tiers = {
            dict(key[1])["tier"]: value
            for key, value in tel.registry.counter_values(
                "sim.tier_bytes"
            ).items()
        }
        # external tiers reconcile with the epoch's external byte total
        external = sum(v for t, v in tiers.items() if t != "gpu")
        assert external == pytest.approx(epoch.external_bytes, rel=1e-9)
        assert tiers.get("gpu", 0.0) == pytest.approx(
            epoch.local_bytes, rel=1e-9
        )
        # SSD tier bytes equal the TrafficAccount's summed SSD egress
        ssd_egress = sum(
            epoch.traffic.egress_bytes(ssd) for ssd in topo.ssds()
        )
        assert tiers.get("ssd", 0.0) == pytest.approx(ssd_egress, rel=1e-9)
        # per-link counters match the TrafficAccount link for link
        counters = tel.registry.counter_values("traffic.link_bytes")
        for key, value in counters.items():
            labels = dict(key[1])
            assert value == pytest.approx(
                epoch.traffic.link_bytes(
                    labels["src"], labels["dst"], both_directions=False
                ),
                rel=1e-9,
            )

    def test_stage_histograms_and_gauges(self, sim_setup):
        machine, topo, dataset, placement = sim_setup
        sim = EpochSimulator(
            topo, machine, dataset, placement, SimConfig(sample_batches=3)
        )
        with obs.capture() as tel:
            sim.run_epoch()
        counts = {
            stage: tel.registry.histogram(
                "sim.stage_seconds", stage=stage
            ).count
            for stage in ("io", "sample", "compute", "sync")
        }
        # one sample per simulated step, same count for every stage
        assert min(counts.values()) >= 1
        assert len(set(counts.values())) == 1
        assert counts["io"] == tel.registry.histogram(
            "sim.step_seconds"
        ).count
        snap = tel.registry.snapshot()
        shares = [
            v for k, v in snap["gauges"].items()
            if k.startswith("sim.stage_share")
        ]
        assert shares and all(0 <= s <= 1.0 + 1e-9 for s in shares)
        utils = [
            v for k, v in snap["gauges"].items()
            if k.startswith("traffic.link_utilization")
        ]
        assert utils and all(u >= 0 for u in utils)

    def test_epoch_result_identical_with_and_without_telemetry(
        self, sim_setup
    ):
        machine, topo, dataset, placement = sim_setup
        cfg = SimConfig(sample_batches=2)
        plain = EpochSimulator(topo, machine, dataset, placement, cfg)
        r1 = plain.run_epoch()
        with obs.capture():
            traced_sim = EpochSimulator(topo, machine, dataset, placement, cfg)
            r2 = traced_sim.run_epoch()
        assert r1.epoch_seconds == pytest.approx(r2.epoch_seconds)
        assert r1.external_bytes == pytest.approx(r2.external_bytes)
        assert r1.local_bytes == pytest.approx(r2.local_bytes)

    def test_optimizer_spans_one_source_of_truth(self):
        from repro.core.optimizer import MomentOptimizer, OptimizerConfig

        machine = machine_a()
        dataset = tiny_dataset(num_vertices=2000, avg_degree=6,
                               batch_size=64, seed=0)
        opt = MomentOptimizer(
            machine, num_gpus=2, num_ssds=2,
            config=OptimizerConfig(presample_batches=1, lp_top_k=2),
        )
        with obs.capture() as tel:
            plan = opt.optimize(dataset)
        root = tel.tracer.find("optimizer.optimize")
        assert len(root) == 1
        assert plan.optimize_seconds == pytest.approx(root[0].duration)
        names = {s.name for s in tel.tracer.spans}
        # the scoring passes now run inside the search engine's spans;
        # data placement belongs to the run, not the optimizer
        assert {"search.run", "search.pass1", "search.pass2"} <= names
        assert "optimizer.ddak" not in names
        assert tel.registry.counter("optimizer.unique").value == \
            plan.num_unique
        assert tel.registry.counter("search.unique").value == \
            plan.num_unique
        # and with telemetry off the number is still populated
        plan2 = opt.optimize(dataset)
        assert plan2.optimize_seconds > 0

    def test_system_result_carries_scoped_telemetry(self):
        from repro.runtime.spec import RunSpec
        from repro.runtime.system import MomentSystem

        machine = machine_a()
        dataset = tiny_dataset(num_vertices=2000, avg_degree=6,
                               batch_size=64, seed=0)
        with obs.capture():
            obs.add("pre.existing", 99.0)  # outside the run scope
            result = MomentSystem(machine).run(
                RunSpec(dataset=dataset, num_gpus=2, num_ssds=2, sample_batches=2)
            )
        assert result.telemetry is not None
        span_names = {s["name"] for s in result.telemetry["spans"]}
        assert "system.run" in span_names
        assert "epoch.run" in span_names
        counters = result.telemetry["metrics"]["counters"]
        assert "pre.existing" not in counters
        assert any(k.startswith("sim.tier_bytes") for k in counters)

    def test_system_result_telemetry_none_when_disabled(self):
        from repro.runtime.spec import RunSpec
        from repro.runtime.system import MomentSystem

        machine = machine_a()
        dataset = tiny_dataset(num_vertices=2000, avg_degree=6,
                               batch_size=64, seed=0)
        result = MomentSystem(machine).run(
            RunSpec(dataset=dataset, num_gpus=2, num_ssds=2, sample_batches=2)
        )
        assert result.telemetry is None


# ----------------------------------------------------------------------
# Bounded histograms (opt-in reservoir)
# ----------------------------------------------------------------------


class TestBoundedHistograms:
    def test_exact_mode_is_the_default_and_unchanged(self):
        h = Histogram(metric_key("h", {}))
        for v in range(10_000):
            h.observe(float(v))
        assert len(h.values) == 10_000 and not h.sampled
        assert "approx" not in h.stats()

    def test_reservoir_bounds_memory_keeps_exact_moments(self):
        h = Histogram(metric_key("h", {}), max_samples=100)
        n = 10_000
        for v in range(1, n + 1):
            h.observe(float(v))
        assert len(h.values) == 100  # bounded
        assert h.sampled
        assert h.count == n  # exact accumulators
        assert h.total == n * (n + 1) / 2
        assert h.mean == pytest.approx((n + 1) / 2)
        stats = h.stats()
        assert stats["approx"] is True
        assert stats["count"] == n
        # a uniform sample of 1..n has percentiles near the truth
        assert stats["p50"] == pytest.approx(n / 2, rel=0.35)

    def test_reservoir_is_deterministic_per_key(self):
        def fill():
            h = Histogram(metric_key("sim.step", {"gpu": "g0"}),
                          max_samples=50)
            for v in range(1000):
                h.observe(float(v))
            return list(h.values)

        assert fill() == fill()

    def test_sampled_delta_window_degrades_gracefully(self):
        h = Histogram(metric_key("h", {}), max_samples=10)
        for v in range(100):
            h.observe(float(v))
        delta = h.stats(since=90)
        assert delta["count"] == 10 and delta.get("approx") is True

    def test_max_samples_validation(self):
        with pytest.raises(ValueError):
            Histogram(metric_key("h", {}), max_samples=0)

    def test_registry_threads_cap_to_new_histograms(self):
        reg = MetricsRegistry(histogram_max_samples=5)
        h = reg.histogram("h")
        for v in range(20):
            h.observe(float(v))
        assert len(h.values) == 5 and h.count == 20

    def test_env_default_applies_to_sessions(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HIST_MAX", "7")
        assert obs.default_histogram_max_samples() == 7
        with obs.capture() as tel:
            h = tel.registry.histogram("h")
            for v in range(100):
                h.observe(float(v))
        assert len(h.values) == 7 and h.count == 100
        monkeypatch.setenv("REPRO_OBS_HIST_MAX", "0")
        assert obs.default_histogram_max_samples() is None
        monkeypatch.delenv("REPRO_OBS_HIST_MAX")
        assert obs.default_histogram_max_samples() is None
