"""Seeded fault plans for the ``fault_recovery`` workload.

Every plan runs on one scenario shape: a sequential coupling of 32
producer tasks into 8 + 16 consumer tasks on a 10-node, 40-core cluster
(two spare nodes, so re-dispatched bundles always fit), with k=2
replication and producer/consumer compute of 1.0/0.1 simulated seconds so
that mid-flight faults have a window to land in.

Each fault family has one generator. A generator maps an integer plan seed
to a :class:`~repro.faults.plan.FaultPlan` plus the run options the family
arms (hedging, speculation, scrubbing, quorums, memory budgets). Only the
public ``repro.faults.plan`` types and :func:`run_scenario` keyword
arguments are used, so the plans survive refactors of the soak scripts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.scenarios import CoupledScenario, layout_for
from repro.core.task import AppSpec
from repro.domain.descriptor import DecompositionDescriptor
from repro.faults.plan import (
    DataCorruption,
    DHTCoreFailure,
    DuplicateDelivery,
    FaultPlan,
    MemoryPressure,
    NetworkPartition,
    NodeCrash,
    SlowNode,
)
from repro.hardware.cluster import Cluster
from repro.hardware.spec import generic_multicore
from repro.resilience.manager import ResilienceConfig

REPLICATION = 2
PRODUCER_COMPUTE = 1.0
CONSUMER_COMPUTE = 0.1
CORES_PER_NODE = 4
PRODUCER_TASKS = 32
CONSUMER_TASKS = (8, 16)
SPARE_NODES = 2
TASK_SIDE = 8
#: memory family: 4 cores x 2 coupled objects of 4096 B per node
OOM_MEMORY_PER_NODE = CORES_PER_NODE * 2 * 4096


def soak_scenario() -> CoupledScenario:
    """The 40-core sequential coupling every fault plan runs on."""
    cluster = Cluster(
        num_nodes=PRODUCER_TASKS // CORES_PER_NODE + SPARE_NODES,
        machine=generic_multicore(CORES_PER_NODE),
    )
    domain = tuple(p * TASK_SIDE for p in layout_for(PRODUCER_TASKS))

    def app(app_id: int, name: str, ntasks: int) -> AppSpec:
        return AppSpec(
            app_id=app_id, name=name,
            descriptor=DecompositionDescriptor.uniform(
                domain, layout_for(ntasks), "blocked", 4
            ),
            element_size=8, var="coupled",
        )

    return CoupledScenario(
        name="fault-recovery", mode="seq", cluster=cluster, domain=domain,
        producer=app(1, "SAP1", PRODUCER_TASKS),
        consumers=[
            app(2 + i, f"SAP{2 + i}", n) for i, n in enumerate(CONSUMER_TASKS)
        ],
    )


@dataclass(frozen=True)
class FaultOp:
    """One ``fault_recovery`` operation: a family, a plan seed, a plan."""

    family: str
    plan_seed: int
    plan: FaultPlan
    #: keyword arguments for run_scenario beyond scenario and plan
    options: dict[str, Any] = field(hash=False, compare=False)

    @property
    def label(self) -> str:
        return f"{self.family}#{self.plan_seed}"


def _crash(seed: int, num_nodes: int) -> tuple[FaultPlan, dict]:
    """One node crash mid-flight, sometimes a DHT core on another node too."""
    rng = random.Random(seed)
    node = rng.randrange(num_nodes)
    dht = ()
    crash_time = round(rng.uniform(0.05, 1.05), 4)
    if rng.random() < 0.3:
        other = rng.choice([n for n in range(num_nodes) if n != node])
        dht = (DHTCoreFailure(
            core=other * CORES_PER_NODE, time=round(rng.uniform(0.05, 1.05), 4)
        ),)
    plan = FaultPlan(
        seed=seed, node_crashes=(NodeCrash(node=node, time=crash_time),),
        dht_failures=dht,
    )
    return plan, {"resilience": ResilienceConfig(replication=REPLICATION)}


def _gray_faults(seed: int, num_nodes: int) -> dict[str, tuple]:
    rng = random.Random(f"{seed}/gray")
    node = rng.randrange(num_nodes)
    return {
        "slow_nodes": (SlowNode(
            node=node,
            start=round(rng.uniform(0.0, 0.5), 4),
            duration=round(rng.uniform(2.0, 6.0), 4),
            factor=round(rng.uniform(2.0, 6.0), 2),
        ),),
        "corruptions": (
            DataCorruption(probability=round(rng.uniform(0.01, 0.08), 3)),
        ),
        "duplications": (
            DuplicateDelivery(probability=round(rng.uniform(0.02, 0.15), 3)),
        ),
    }


def _partition_faults(seed: int, num_nodes: int) -> tuple[dict, float | None]:
    """A two-island cut (node 0, the monitor, stays in the majority)."""
    rng = random.Random(f"{seed}/partition")
    minority = tuple(sorted(rng.sample(range(1, num_nodes), rng.choice((1, 2)))))
    majority = tuple(n for n in range(num_nodes) if n not in minority)
    flap = round(rng.uniform(0.2, 0.5), 4) if rng.random() < 0.3 else None
    cut = NetworkPartition(
        start=round(rng.uniform(0.0, 0.9), 4),
        duration=round(rng.uniform(0.3, 1.5), 4),
        groups=(majority, minority),
        flap_period=flap,
    )
    deadline = 0.4 if rng.random() < 0.5 else None
    return {"partitions": (cut,)}, deadline


_GRAY_OPTIONS = {"hedge_factor": 2.0, "speculation_threshold": 1.5}
_QUORUM_OPTIONS = {"write_quorum": 2, "read_quorum": 1}
_SCRUB_PERIOD = 0.1


def _gray(seed: int, num_nodes: int) -> tuple[FaultPlan, dict]:
    """Slow node + corruption + duplication; hedging, speculation, scrub."""
    plan = FaultPlan(seed=seed, **_gray_faults(seed, num_nodes))
    return plan, {
        "resilience": ResilienceConfig(
            replication=REPLICATION, scrub_period=_SCRUB_PERIOD
        ),
        **_GRAY_OPTIONS,
    }


def _partition(seed: int, num_nodes: int) -> tuple[FaultPlan, dict]:
    """Two-island cut under W=2/R=1 quorums, waited out until it heals.

    The partition deadline is left out here: escalating a two-node
    minority after 0.4 s can leave fewer schedulable cores than the
    re-dispatched producer needs, and the run then stops with a
    MappingError on some seeds (131 and 282 of 0-599, for example). The
    fixed gray x partition plans still arm the deadline on half their seeds.
    """
    faults, _deadline = _partition_faults(seed, num_nodes)
    plan = FaultPlan(seed=seed, **faults)
    return plan, {
        "resilience": ResilienceConfig(replication=REPLICATION),
        **_QUORUM_OPTIONS,
    }


def _oom(seed: int, num_nodes: int) -> tuple[FaultPlan, dict]:
    """One or two capacity-shrink windows over an enforced memory budget."""
    rng = random.Random(f"{seed}/oom")
    nodes = rng.sample(range(num_nodes), rng.choice((1, 2)))
    plan = FaultPlan(seed=seed, memory_pressure=tuple(
        MemoryPressure(
            node=node,
            start=round(rng.uniform(0.0, 0.9), 4),
            duration=round(rng.uniform(0.3, 1.5), 4),
            factor=rng.choice((0.4, 0.5, 0.6, 0.75)),
        )
        for node in sorted(nodes)
    ))
    return plan, {
        "resilience": ResilienceConfig(replication=REPLICATION),
        "enforce_memory": True,
        "memory_per_node": OOM_MEMORY_PER_NODE,
    }


def _gray_partition(seed: int, num_nodes: int) -> tuple[FaultPlan, dict]:
    """The gray and partition families' faults and knobs in one plan."""
    faults, deadline = _partition_faults(seed, num_nodes)
    plan = FaultPlan(seed=seed, **_gray_faults(seed, num_nodes), **faults)
    return plan, {
        "resilience": ResilienceConfig(
            replication=REPLICATION, scrub_period=_SCRUB_PERIOD,
            partition_deadline=deadline,
        ),
        **_GRAY_OPTIONS,
        **_QUORUM_OPTIONS,
    }


FAMILIES: dict[str, Callable[[int, int], tuple[FaultPlan, dict]]] = {
    "crash": _crash,
    "gray": _gray,
    "partition": _partition,
    "oom": _oom,
    "gray_partition": _gray_partition,
}


def fault_op(family: str, plan_seed: int, num_nodes: int) -> FaultOp:
    plan, options = FAMILIES[family](plan_seed, num_nodes)
    return FaultOp(family, plan_seed, plan, options)


def run_options(op: FaultOp) -> dict[str, Any]:
    """Keyword arguments for ``run_scenario(scenario, **run_options(op))``."""
    return {
        "fault_plan": op.plan,
        "producer_compute": PRODUCER_COMPUTE,
        "consumer_compute": CONSUMER_COMPUTE,
        **op.options,
    }
