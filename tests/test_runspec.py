"""Tests for the RunSpec-only run entry point and serializable run
records."""

import json

import pytest

from repro import RunSpec, run
from repro.api import run as api_run
from repro.faults import FaultSchedule
from repro.baselines.distdgl import DistDglSystem
from repro.baselines.mgids import MGidsSystem
from repro.graphs.datasets import IGB_HOM, UK_2014
from repro.hardware.machines import classic_layouts, machine_a
from repro.runtime.replan import ReplanConfig
from repro.runtime.system import (
    RUN_RECORD_SCHEMA,
    MomentSystem,
    SystemResult,
)

QUICK = 40


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def ig():
    return IGB_HOM.build(scale=IGB_HOM.default_scale * QUICK, seed=0)


@pytest.fixture(scope="module")
def placement_c(machine):
    return classic_layouts(machine)["c"]


@pytest.fixture(scope="module")
def spec(ig, placement_c):
    return RunSpec(dataset=ig, placement=placement_c, sample_batches=3)


@pytest.fixture(scope="module")
def result(machine, spec):
    return MomentSystem(machine).run(spec)


class TestRunSpec:
    def test_replace_returns_new_spec(self, spec):
        other = spec.replace(sample_batches=5)
        assert other.sample_batches == 5
        assert spec.sample_batches == 3

    def test_fanouts_coerced_to_tuple(self, ig):
        assert RunSpec(dataset=ig, fanouts=[10, 5]).fanouts == (10, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_gpus": 0},
            {"num_ssds": 0},
            {"sample_batches": 0},
            {"faults": "fail@2:ssd0"},  # must be parsed, not a string
            {"replan": True},  # replan needs faults
            {"replan": "yes", "faults": FaultSchedule.parse("fail@2:ssd0")},
        ],
    )
    def test_validation(self, ig, kwargs):
        with pytest.raises((ValueError, TypeError)):
            spec = RunSpec(dataset=ig, **kwargs)
            spec.replan_config  # noqa: B018 — replan type errors raise here

    def test_replan_config_forms(self, ig):
        sched = FaultSchedule.parse("fail@2:ssd0")
        assert RunSpec(dataset=ig).replan_config is None
        assert (
            RunSpec(dataset=ig, faults=sched, replan=False).replan_config
            is None
        )
        assert isinstance(
            RunSpec(dataset=ig, faults=sched, replan=True).replan_config,
            ReplanConfig,
        )
        custom = ReplanConfig(max_replans=1)
        assert (
            RunSpec(dataset=ig, faults=sched, replan=custom).replan_config
            is custom
        )


class TestShim:
    def test_loose_dataset_rejected(self, machine, ig):
        with pytest.raises(TypeError, match="RunSpec"):
            MomentSystem(machine).run(ig)
        with pytest.raises(TypeError, match="RunSpec"):
            DistDglSystem().run(ig)

    def test_spec_plus_kwargs_rejected(self, machine, spec):
        with pytest.raises(TypeError):
            MomentSystem(machine).run(spec, sample_batches=5)

    def test_api_run(self, machine, spec, result):
        r = run(MomentSystem(machine), spec)
        assert r.epoch.epoch_seconds == result.epoch.epoch_seconds
        assert api_run is run or api_run(
            MomentSystem(machine), spec
        ).ok  # same facade re-exported at top level

    def test_api_run_rejects_loose_dataset(self, machine, ig):
        with pytest.raises(TypeError):
            run(MomentSystem(machine), ig)


class TestRunRecord:
    def test_round_trip_is_json_safe(self, result):
        record = result.to_dict()
        assert record["schema"] == RUN_RECORD_SCHEMA
        text = json.dumps(record)  # must not raise on numpy scalars
        back = SystemResult.from_dict(json.loads(text))
        assert back.system == result.system
        assert back.ok and not result.oom
        assert back.epoch.epoch_seconds == pytest.approx(
            result.epoch.epoch_seconds
        )
        assert back.epoch.step_seconds == pytest.approx(
            result.epoch.step_seconds
        )
        assert back.epoch.seeds_per_s == pytest.approx(
            result.epoch.seeds_per_s
        )

    def test_replan_report_serialized(self, machine, spec):
        small = spec.replace(
            dataset=IGB_HOM.build(
                scale=IGB_HOM.default_scale * 16, seed=0
            ),
            sample_batches=6,
            faults=FaultSchedule.parse("fail@2:ssd0"),
            replan=True,
        )
        r = MomentSystem(machine).run(small)
        record = r.to_dict()
        assert record["replan"]["recovered"] is True
        assert record["replan"]["migrated_bytes"] > 0
        assert len(record["replan"]["events"]) == 1
        back = SystemResult.from_dict(json.loads(json.dumps(record)))
        assert back.replan["recovered"] is True

    def test_bad_schema_rejected(self, result):
        record = result.to_dict()
        record["schema"] = "repro.run/v999"
        with pytest.raises(ValueError):
            SystemResult.from_dict(record)

    def test_oom_round_trip(self, machine, placement_c):
        # UK-2014's terabyte-scale features blow the page-cache metadata
        # budget on MGids (same trigger as tests/test_systems.py)
        huge = UK_2014.build(scale=UK_2014.default_scale * QUICK, seed=0)
        r = MGidsSystem(machine).run(
            RunSpec(dataset=huge, placement=placement_c, sample_batches=2)
        )
        assert not r.ok
        assert "page_cache_metadata" in (r.oom or "")
        back = SystemResult.from_dict(r.to_dict())
        assert not back.ok and back.oom == r.oom


class TestSeedsAndRepetitions:
    def test_spec_validation(self, ig):
        with pytest.raises(ValueError, match="repetition"):
            RunSpec(dataset=ig, repetition=-1)
        with pytest.raises(TypeError, match="seed"):
            RunSpec(dataset=ig, seed="zero")

    def test_with_repetition_derives_seeds(self, spec):
        from repro.utils.rng import derive_seed

        s0 = spec.replace(seed=7)
        r0 = s0.with_repetition(0)
        r2 = s0.with_repetition(2)
        assert (r0.seed, r0.repetition) == (7, 0)
        assert (r2.seed, r2.repetition) == (derive_seed(7, 2), 2)
        assert r2.seed != 7
        # rep 0 of an unseeded spec stays unseeded (canonical run)
        assert spec.with_repetition(0).seed is None
        assert spec.with_repetition(1).seed == derive_seed(None, 1)

    def test_spec_seed_overrides_system_and_restores(self, machine, spec):
        system = MomentSystem(machine, seed=1)
        result = system.run(spec.replace(seed=42, repetition=3))
        assert system.seed == 1  # restored after the run
        assert result.seed == 42 and result.repetition == 3
        d = result.to_dict()
        assert d["seed"] == 42 and d["repetition"] == 3

    def test_result_defaults_to_system_seed(self, machine, spec, result):
        assert result.seed == MomentSystem(machine).seed
        assert result.repetition == 0


class TestTelemetryRoundTrip:
    def test_to_dict_from_dict_preserves_telemetry(self, machine, spec):
        from repro import obs

        with obs.capture():
            result = MomentSystem(machine).run(spec)
        assert result.telemetry is not None
        wire = json.dumps(result.to_dict())
        back = SystemResult.from_dict(json.loads(wire))
        assert back.telemetry == result.telemetry
        span_names = {s["name"] for s in back.telemetry["spans"]}
        assert "system.run" in span_names
        assert back.seed == result.seed
        assert back.repetition == result.repetition

    def test_from_dict_tolerates_pre_telemetry_records(self, result):
        d = result.to_dict()
        for legacy_missing in ("telemetry", "seed", "repetition"):
            d.pop(legacy_missing, None)
        back = SystemResult.from_dict(d)
        assert back.telemetry is None
        assert back.seed is None and back.repetition == 0
