"""Optimize device placement for a custom server description.

Moment's pitch: you describe (or it extracts) your server's PCIe
topology, and the automatic module tells you *which slot every GPU and
SSD should go in* before you rack the machine.  This example:

1. parses a custom cascaded-switch server from the lspci-style text
   format (the stand-in for lspci/dmidecode extraction);
2. profiles its link bandwidths through the simulator;
3. enumerates placements (with symmetry pruning), scores them with the
   max-flow model, and prints the top recommendations;
4. runs the winner and shows the DDAK embedding layout it simulated.

Run:  python examples/optimize_custom_server.py
"""

from repro import MomentSystem, RunSpec, run
from repro.core.optimizer import MomentOptimizer, OptimizerConfig
from repro.graphs.datasets import PAPER100M
from repro.hardware.machines import MachineSpec
from repro.hardware.pcie import parse_chassis, render_chassis
from repro.hardware.profiler import HardwareProfiler
from repro.hardware.specs import A100_40GB, P5510, XEON_GOLD_5320
from repro.utils.units import fmt_rate

#: A hypothetical 2-socket server: socket 0 carries a two-deep switch
#: cascade (like Machine B), socket 1 has direct bays and one x16 slot.
SERVER_DESCRIPTION = """
machine custom_cascade
rc rc0
rc rc1
switch sw0
switch sw1
link rc0 rc1 qpi
link rc0 sw0 pcie4 x16 bus11
link sw0 sw1 pcie4 x16 bus16
mem mem0 rc0 384GiB
mem mem1 rc1 384GiB
slots rc1.bays rc1 4 x4 ssd bays
slots rc1.x16 rc1 2 x16 gpu slot7
slots sw0.slots sw0 10 x16 gpu,ssd slot1-3
slots sw1.slots sw1 10 x16 gpu,ssd slot4-6
"""


def main() -> None:
    print("=== 1. parse the server description ===")
    chassis = parse_chassis(SERVER_DESCRIPTION)
    print(render_chassis(chassis))
    machine = MachineSpec(
        chassis.name, chassis, XEON_GOLD_5320, A100_40GB, P5510
    )

    print("=== 2. profile link bandwidths (simulated micro-benchmarks) ===")
    # profile a trivial all-GPU build just to exercise every trunk
    from repro.core.placement import Placement

    probe = machine.build(
        Placement(chassis, {"sw0.slots": {"gpu": 1}, "rc1.bays": {"ssd": 1}})
    )
    profiler = HardwareProfiler(probe, ssd=P5510, noise=0.02, seed=0)
    for (src, dst), bw in sorted(profiler.profile().links.items()):
        if src < dst:
            print(f"  {src:>9} -> {dst:<9} {fmt_rate(bw)}")

    print("\n=== 3. search placements for 3 GPUs + 6 SSDs ===")
    dataset = PAPER100M.build(scale=PAPER100M.default_scale * 16, seed=1)
    config = OptimizerConfig(report_top_k=5)
    optimizer = MomentOptimizer(machine, num_gpus=3, num_ssds=6, config=config)
    plan = optimizer.optimize(dataset)
    print(plan.summary())
    print("\n  top candidates:")
    for scored in plan.scored[:5]:
        print(
            f"    {fmt_rate(scored.throughput):>12}  {scored.placement!r}"
        )

    print("\n=== 4. DDAK embedding layout for the winner ===")
    result = run(
        MomentSystem(machine, optimizer_config=config),
        RunSpec(
            dataset=dataset,
            placement=plan.placement,
            num_gpus=3,
            num_ssds=6,
            sample_batches=2,
        ),
    )
    occ = result.data_placement.occupancy(dataset.feature_bytes)
    for name, frac in sorted(occ.items()):
        count = result.data_placement.vertices_in(name).size
        print(f"  {name:<10} {count:>8,} vertices  ({frac:.0%} full)")


if __name__ == "__main__":
    main()
