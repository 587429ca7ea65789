"""Cluster specification for the deterministic timing simulation.

The paper's Figure 6 sweeps a Hadoop cluster from 4 to 32 servers (Intel
Core Duo E7400, 3.25 GB RAM, Hadoop 0.20.2).  We cannot spawn 32 servers on
one machine, so the reproduction measures *per-task* costs once (serial
runner) and replays them through a slot/wave model parameterised by a
:class:`ClusterSpec`.  The defaults mirror Hadoop-0.20-era settings: two map
slots and two reduce slots per dual-core node, multi-second task launch
overhead (JVM start), and a per-job submission overhead.

``speed_factor`` rescales measured Python task seconds into simulated
cluster-node seconds.  It scales task compute only: the launch, job and
shuffle charges are fixed, so the balance between compute and overhead,
and with it every ratio between methods, moves with the factor.  The
experiments use :data:`repro.bench.harness.DEFAULT_CLUSTER`'s factor and
check the paper's shapes at that value only.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """A homogeneous cluster for the wave-based timing model.

    Attributes
    ----------
    num_nodes:
        Worker (slave) server count.
    map_slots_per_node / reduce_slots_per_node:
        Concurrent task slots per node (Hadoop 0.20 defaults: 2 / 2).
    task_launch_s:
        Per-task startup charge (JVM spawn + task setup).
    job_overhead_s:
        Per-job fixed cost (job submission, split computation, cleanup).
    network_mbps_per_node:
        Per-node NIC throughput available to the shuffle, in megabytes/s.
        The shuffle is all-to-all, so aggregate bandwidth grows with nodes.
    shuffle_latency_s:
        Fixed connection-setup cost of the copy phase.
    speed_factor:
        Multiplier converting measured driver seconds into simulated
        cluster-node seconds (>1 means the simulated node is slower than
        the measuring machine).
    """

    num_nodes: int
    map_slots_per_node: int = 2
    reduce_slots_per_node: int = 2
    task_launch_s: float = 1.0
    job_overhead_s: float = 5.0
    network_mbps_per_node: float = 40.0
    shuffle_latency_s: float = 0.5
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.map_slots_per_node <= 0 or self.reduce_slots_per_node <= 0:
            raise ValueError("slots per node must be >= 1")
        for name in (
            "task_launch_s",
            "job_overhead_s",
            "network_mbps_per_node",
            "shuffle_latency_s",
            "speed_factor",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.speed_factor == 0:
            raise ValueError("speed_factor must be positive")

    @property
    def map_slots(self) -> int:
        return self.num_nodes * self.map_slots_per_node

    @property
    def reduce_slots(self) -> int:
        return self.num_nodes * self.reduce_slots_per_node

    @property
    def aggregate_shuffle_bytes_per_s(self) -> float:
        """All-to-all copy bandwidth: each node contributes its NIC."""
        return self.network_mbps_per_node * 1e6 * self.num_nodes

    def scaled(self, **overrides) -> "ClusterSpec":
        """A copy with some fields replaced (spec is frozen)."""
        from dataclasses import replace

        return replace(self, **overrides)
