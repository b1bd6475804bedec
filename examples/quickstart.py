"""Quickstart: train a GNN, then co-optimize a server for it.

Three steps:

1. build a small synthetic power-law graph and *actually train* a
   NumPy GraphSAGE on it (node classification, the paper's task);
2. run Moment's automatic module on Machine A — enumerate hardware
   placements, prune symmetries, score with max flow;
3. run the chosen plan: place data with DDAK, simulate one training
   epoch, and print where the data and the time go.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import MomentSystem, RunSpec, machine_a, run
from repro.core.optimizer import MomentOptimizer
from repro.gnn import Trainer, graphsage, make_planted_labels
from repro.graphs.datasets import tiny_dataset
from repro.utils.units import fmt_rate


def main() -> None:
    # ------------------------------------------------------------------
    # 1. real training on a small graph
    # ------------------------------------------------------------------
    print("=== 1. train GraphSAGE (NumPy, for real) ===")
    ds = tiny_dataset(num_vertices=1500, avg_degree=10, feature_dim=32,
                      batch_size=64, seed=7)
    feats, labels = make_planted_labels(ds.graph, num_classes=4,
                                        feature_dim=32, noise=0.3, seed=7)
    model = graphsage(in_dim=32, num_classes=4, hidden_dim=64, seed=7)
    trainer = Trainer(model, ds.graph, feats, labels, fanouts=(10, 10),
                      lr=5e-3, seed=7)
    for epoch in range(5):
        stats = trainer.train_epoch(ds.train_ids, batch_size=ds.batch_size)
        print(f"  epoch {epoch}: loss={stats.mean_loss:.3f} "
              f"acc={stats.mean_accuracy:.2f}")

    # ------------------------------------------------------------------
    # 2. co-optimize hardware + data placement for an out-of-core run
    #    (a 1/6400-scale IGB-HOM stand-in: big enough that caches no
    #    longer hold everything, so tiering decisions matter)
    # ------------------------------------------------------------------
    print("\n=== 2. Moment's automatic module on Machine A ===")
    from repro.graphs.datasets import IGB_HOM

    ds = IGB_HOM.build(scale=IGB_HOM.default_scale * 16, seed=7)
    machine = machine_a()
    optimizer = MomentOptimizer(machine, num_gpus=4, num_ssds=8)
    plan = optimizer.optimize(ds)
    print(plan.summary())

    # ------------------------------------------------------------------
    # 3. place data and simulate an epoch on the chosen placement
    # ------------------------------------------------------------------
    print("\n=== 3. simulated epoch on the chosen placement ===")
    result = run(
        MomentSystem(machine),
        RunSpec(dataset=ds, placement=plan.placement, sample_batches=5),
    )
    occupancy = result.data_placement.occupancy(ds.feature_bytes)
    hottest = sorted(occupancy.items(), key=lambda kv: -kv[1])[:4]
    print("  fullest bins:",
          ", ".join(f"{name}={frac:.0%}" for name, frac in hottest))
    epoch = result.epoch
    print(f"  epoch time:        {epoch.paper_epoch_seconds * 1e3:.1f} ms "
          f"({epoch.num_steps} steps)")
    print(f"  stage (worst GPU): io={epoch.io_seconds * 1e3:.2f} ms, "
          f"sample={epoch.sample_seconds * 1e3:.2f} ms, "
          f"compute={epoch.compute_seconds * 1e3:.2f} ms")
    print(f"  fabric throughput: {fmt_rate(epoch.throughput_bytes_per_s)}")
    print(f"  cache hits (local bytes): "
          f"{epoch.local_bytes / max(epoch.local_bytes + epoch.external_bytes, 1):.0%}")


if __name__ == "__main__":
    main()
