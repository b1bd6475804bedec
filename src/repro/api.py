"""Top-level run facade: ``repro.api.run(system, spec)``.

One function, two values in, one value out — the stable surface for
scripts, benchmarks, and the experiments CLI.  Everything a run needs
travels in the :class:`~repro.runtime.spec.RunSpec`; everything it
produced comes back as a :class:`~repro.runtime.system.SystemResult`
(serializable via :meth:`SystemResult.to_dict`).

>>> from repro import MomentSystem, RunSpec, machine_a
>>> from repro.api import run
>>> result = run(MomentSystem(machine_a()), RunSpec(dataset=ds))
"""

from __future__ import annotations

from repro.runtime.spec import RunSpec, require_spec
from repro.runtime.system import GnnSystem, SystemResult

__all__ = ["run", "system_for", "RunSpec", "SystemResult"]


def run(system: GnnSystem, spec: RunSpec) -> SystemResult:
    """Run one epoch of ``system`` as described by ``spec``."""
    return system.run(require_spec(spec, "repro.api.run"))


def system_for(spec: RunSpec, system_cls=None, **kwargs) -> GnnSystem:
    """Build the system a spec's hardware identity calls for.

    The spec must name its hardware (``machine="machine_a"``,
    ``machine="gen:7"``, or an inline/on-disk ``fabric``); the named
    fabric is compiled and handed to ``system_cls`` (default
    :class:`~repro.runtime.system.MomentSystem`) along with any extra
    constructor ``kwargs``::

        spec = RunSpec(dataset=ds, fabric=generate_fabric(7))
        result = run(system_for(spec), spec)
    """
    machine = spec.resolve_machine()
    if machine is None:
        raise ValueError(
            "spec carries no hardware identity; set RunSpec.machine "
            "(a registry name like 'machine_a' or 'gen:<seed>') or "
            "RunSpec.fabric (a FabricSpec, its dict, or a spec path)"
        )
    if system_cls is None:
        from repro.runtime.system import MomentSystem

        system_cls = MomentSystem
    return system_cls(machine, **kwargs)
