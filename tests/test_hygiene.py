"""Repo hygiene: package layout and public-surface invariants.

Guards against the stale-``faults``-package failure mode: a directory
under ``src/repro`` that contains (or once contained) Python modules but
no ``__init__.py``.  Such a directory still imports on machines where an
old ``__pycache__`` survives, then breaks everywhere else.

Also pins the public surface: every exported name resolves, the test
oracles under ``tests/reference`` stay out of the package, and the
placement search keeps the worker count as its only setting.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _package_dirs():
    """Every directory under src/repro that holds .py files."""
    dirs = set()
    for py in SRC.rglob("*.py"):
        if "__pycache__" in py.parts:
            continue
        dirs.add(py.parent)
    return sorted(dirs)


def test_every_package_dir_has_init():
    missing = [
        str(d.relative_to(SRC.parent))
        for d in _package_dirs()
        if not (d / "__init__.py").is_file()
    ]
    assert not missing, f"package dirs missing __init__.py: {missing}"


def test_no_pycache_only_package_dirs():
    """A dir whose only Python artifacts live in __pycache__ is a stale
    package: imports succeed locally off cached bytecode and fail on a
    fresh checkout."""
    stale = []
    for d in SRC.rglob("__pycache__"):
        parent = d.parent
        has_sources = any(
            p.suffix == ".py" for p in parent.iterdir() if p.is_file()
        )
        if not has_sources:
            stale.append(str(parent.relative_to(SRC.parent)))
    assert not stale, f"__pycache__-only dirs (stale packages): {stale}"


def test_faults_is_a_real_package():
    pkg = SRC / "faults"
    assert (pkg / "__init__.py").is_file()
    sources = [p.name for p in pkg.glob("*.py")]
    assert "schedule.py" in sources and "injector.py" in sources


#: Reference implementations that live only under ``tests/reference``,
#: by the package module they were moved out of.
ORACLES = {
    "repro.core.flowmodel": (
        "build_time_network",
        "min_completion_time",
        "plain_max_flow",
        "predict_throughput",
    ),
    "repro.core.symmetry": (
        "CanonicalFilter",
        "canonical_key",
        "dedupe_placements",
    ),
    "repro.core.placement": ("enumerate_placements",),
    "repro.hardware.machines": (
        "_legacy_machine_a",
        "_legacy_machine_b",
        "_two_socket_skeleton",
    ),
}
MAXFLOW_NAMES = (
    "FlowNetwork",
    "bisect_min_time",
    "dinic",
    "edmonds_karp",
    "max_flow",
    "min_cut",
)


@pytest.mark.parametrize("package", ["repro", "repro.core"])
def test_exported_names_resolve(package):
    module = importlib.import_module(package)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("package", ["repro", "repro.core"])
def test_no_oracle_exported(package):
    module = importlib.import_module(package)
    oracle_names = set(MAXFLOW_NAMES).union(*ORACLES.values())
    assert not oracle_names & set(module.__all__)
    assert not [n for n in oracle_names if hasattr(module, n)]


def test_oracles_live_only_under_tests():
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.maxflow")
    for module_name, names in ORACLES.items():
        module = importlib.import_module(module_name)
        assert not [n for n in names if hasattr(module, n)], module_name
    leaks = [
        str(py.relative_to(SRC.parent))
        for py in SRC.rglob("*.py")
        if "tests.reference" in py.read_text()
    ]
    assert not leaks, f"package modules importing test oracles: {leaks}"


#: The only ``REPRO_SEARCH_*`` variable the package may read.
SEARCH_ENV = {"REPRO_SEARCH_WORKERS"}

#: Field sets of the search's two configuration types.  Adding a field
#: means adding a switch to the placement search: edit this list only
#: with a reason the search needs a second setting besides the worker
#: count.
SEARCH_REQUEST_FIELDS = (
    "machine",
    "num_gpus",
    "num_ssds",
    "fractions",
    "gpu_cache_policy",
    "nvlink_pairs",
    "lp_top_k",
    "top_k",
    "workers",
    "candidates",
    "mask",
    "warm_cut",
)
OPTIMIZER_CONFIG_FIELDS = (
    "gpu_cache_fraction",
    "cpu_cache_vertex_fraction",
    "ddak_pool_size",
    "presample_batches",
    "gpu_cache_policy",
    "fanouts",
    "report_top_k",
    "lp_top_k",
    "nvlink_pairs",
    "seed",
    "search_workers",
)


def test_search_reads_only_the_workers_variable():
    read = {}
    for py in SRC.rglob("*.py"):
        for name in re.findall(r"REPRO_SEARCH_[A-Z_]+", py.read_text()):
            read.setdefault(name, set()).add(str(py.relative_to(SRC.parent)))
    extra = {name: paths for name, paths in read.items() if name not in SEARCH_ENV}
    assert not extra, f"package reads search variables besides workers: {extra}"


@pytest.mark.parametrize(
    "module_name,cls_name,expected",
    [
        ("repro.core.search", "SearchRequest", SEARCH_REQUEST_FIELDS),
        ("repro.core.optimizer", "OptimizerConfig", OPTIMIZER_CONFIG_FIELDS),
    ],
)
def test_search_config_fields_are_pinned(module_name, cls_name, expected):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == expected
