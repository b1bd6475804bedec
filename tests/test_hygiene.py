"""Repo hygiene: package layout and public-surface invariants.

Guards against the stale-``faults``-package failure mode: a directory
under ``src/repro`` that contains (or once contained) Python modules but
no ``__init__.py``.  Such a directory still imports on machines where an
old ``__pycache__`` survives, then breaks everywhere else.

Also pins the public surface: every exported name resolves, and the
test oracles under ``tests/reference`` stay out of the package.
"""

import importlib
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
