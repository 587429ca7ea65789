#!/usr/bin/env python
"""Scalability study — a miniature of the paper's Figure 6.

Runs the MR-Angle pipeline once on a large service set, then replays the
measured task timings on simulated clusters from 4 to 32 servers,
printing the Map/Reduce breakdown the paper plots as sectioned bars.
Also compares all three partitioning methods at a fixed cluster size
(a miniature of Figure 5b at one dimension).

Run:  python examples/scalability_study.py
"""

from repro import generate_qws, extend_dataset, run_mr_skyline
from repro.core.optimality import optimality_of_result
from repro.mapreduce.cluster import ClusterSpec

def main() -> None:
    base = generate_qws(10_000, seed=42)
    big = extend_dataset(base, 50_000, seed=43)
    matrix = big.qos_matrix(8)
    print(f"workload: {matrix.shape[0]:,} services x {matrix.shape[1]} attributes\n")

    # --- Figure-6 style sweep: one run, replayed per cluster size --------
    node_counts = (4, 8, 16, 24, 32)
    result = run_mr_skyline(
        matrix, method="angle",
        num_workers=max(node_counts),
        num_partitions=2 * max(node_counts),
    )
    base_cluster = ClusterSpec(num_nodes=4, speed_factor=100.0)
    print("servers   map_time   reduce_time   total")
    for nodes in node_counts:
        sim = result.simulate(base_cluster.scaled(num_nodes=nodes))
        print(f"{nodes:7d}   {sim.map_time_s:8.1f}   {sim.reduce_time_s:11.1f}"
              f"   {sim.total_s:5.1f}")

    # --- Method comparison at 4 servers (Figure-5b style) ----------------
    print("\nmethod     total_s   optimality   dominance_tests")
    for method in ("dim", "grid", "angle"):
        res = run_mr_skyline(matrix, method=method, num_workers=4)
        sim = res.simulate(base_cluster)
        opt = optimality_of_result(res).optimality
        print(f"{method:8s} {sim.total_s:9.1f}   {opt:10.3f}   "
              f"{res.dominance_tests:15,}")

if __name__ == "__main__":
    main()
