"""The benchmark's workloads: inputs from a seed, operations, digests.

A workload builds one *round* of operations from ``--seed``; a run times
whole rounds. Every operation goes through a public entry point
(:func:`repro.apps.jaguar.run_jaguar_scale` or
:func:`repro.analysis.experiments.run_scenario`). After each operation a
small digest of its simulated outputs is taken outside the timer; the
checks in :mod:`checks` run on the digests after the timed region, and a
digest doubles as the operation's identity when the warm-up operation is
compared with the same operation timed.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass
from typing import Any

import checks
import plans
from repro.analysis.experiments import run_scenario
from repro.apps.jaguar import JaguarScaleConfig, run_jaguar_scale
from repro.apps.scenarios import (
    paper_concurrent,
    paper_sequential,
    small_concurrent,
    small_sequential,
)
from repro.errors import NetworkPartitionError
from repro.hardware.spec import jaguar_xt5
from repro.transport.message import TransferKind, Transport


def derive(seed: int, *parts: Any) -> int:
    """A 31-bit seed for one input, fixed by the run seed and its name."""
    return random.Random("/".join(map(str, (seed, *parts)))).randrange(2**31)


@dataclass
class Outcome:
    """What one operation left behind: a digest or the known fault hit."""

    digest: "dict[str, Any] | None"
    #: per-op counts read off the run's own state, for the traced report
    counts: dict[str, float]
    #: description of a known fault that made the operation fail
    fault: "str | None" = None


class Workload:
    name = ""
    #: nominal host seconds per round on a 2-core x86 host; with
    #: ``--seconds`` it fixes how many rounds a run times, so every run of
    #: one length does the same work
    nominal_round_s = 1.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def round(self) -> list[Any]:
        raise NotImplementedError

    def rounds_for(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.nominal_round_s - 1e-9))

    def ops_for(self, seconds: float) -> list[Any]:
        """The timed operation list: whole rounds, fixed by ``seconds``."""
        return self.round() * self.rounds_for(seconds)

    def run(self, op: Any) -> Any:
        raise NotImplementedError

    def outcome(self, op: Any, out: Any) -> Outcome:
        raise NotImplementedError

    def known_fault(self, exc: BaseException) -> "str | None":
        """A description if ``exc`` is a known program fault, else None."""
        return None

    def check(self, op: Any, digest: dict[str, Any]) -> list[str]:
        raise NotImplementedError


#: fault kinds the injector records when it injects (not recovery steps)
INJECTED_KINDS = frozenset({
    "node_crash", "dht_failure", "partition_start", "memory_pressure_start",
    "data_corruption", "duplicate_delivery",
})


def _registry_counts(results: list[Any]) -> dict[str, float]:
    """Per-layer counts the run's own registry, engine and injector hold."""
    counts = {"spills": 0.0, "reenactments": 0.0, "injected": 0.0,
              "recoveries": 0.0}
    for res in results:
        reg = res.registry
        for key, name in (("spills", "mem.spills"),
                          ("recoveries", "resilience.ladder"),
                          ("recoveries", "resilience.failover.reads")):
            if reg is not None and name in reg:
                counts[key] += reg[name].total()
        if res.engine is not None:
            counts["reenactments"] += sum(res.engine.reenactments.values())
        if res.injector is not None:
            counts["injected"] += sum(
                ev.kind in INJECTED_KINDS for ev in res.injector.trace()
            )
    return counts


# -- jaguar_events -------------------------------------------------------------


class JaguarEvents(Workload):
    """Jaguar-scale iterative coupling shrunk to about a second per run."""

    name = "jaguar_events"
    nominal_round_s = 1.25
    shape = {"num_nodes": 1000, "ranks": 10_000, "coupling_groups": 1000}
    tiny_shape = {
        "num_nodes": 24, "ranks": 240, "iterations": 3, "coupling_groups": 12,
        "cells_per_group": 1024, "halo_cells": 64,
    }

    def ops_for(self, seconds: float) -> list[JaguarScaleConfig]:
        """One distinct compute schedule per operation."""
        shape = self.tiny_shape if self.tiny else self.shape
        return [
            JaguarScaleConfig(seed=derive(self.seed, self.name, i), **shape)
            for i in range(self.rounds_for(seconds))
        ]

    def run(self, cfg: JaguarScaleConfig) -> Any:
        return run_jaguar_scale(cfg)

    def outcome(self, cfg: JaguarScaleConfig, res: Any) -> Outcome:
        digest = {
            "sim_events": res.sim_events,
            "makespan": res.makespan,
            "coupling_times": list(res.coupling_times),
            "bytes_shm": res.bytes_shm,
            "bytes_network": res.bytes_network,
            "bundle_hits": res.bundle_hits,
            "component_solves": res.component_solves,
            "flows_resolved": res.flows_resolved,
        }
        return Outcome(digest, {})

    def check(self, cfg: JaguarScaleConfig, digest: dict[str, Any]) -> list[str]:
        nic = jaguar_xt5().network.nic_bandwidth
        return checks.check_jaguar(cfg, digest, nic)


# -- paper_rr_timed / paper_dc_timed --------------------------------------------


def scenario_shape(scenario: Any) -> dict[str, Any]:
    """The inputs the independent byte counts need, read off a scenario."""
    return {
        "mode": scenario.mode,
        "domain": tuple(scenario.domain),
        "element_size": scenario.producer.element_size,
        "cores_per_node": scenario.cluster.cores_per_node,
        "producer_layout": tuple(scenario.producer.descriptor.process_layout),
        "consumer_layouts": [
            tuple(c.descriptor.process_layout) for c in scenario.consumers
        ],
    }


def _max_node_inflow(res: Any) -> dict[int, int]:
    node_of = res.scenario.cluster.node_of_core
    out = {}
    for app, by_rank in res.schedules.items():
        inflow: dict[int, int] = {}
        for sched in by_rank.values():
            dst = node_of(sched.dst_core)
            for plan in sched.plans:
                if node_of(plan.src_core) != dst:
                    inflow[dst] = inflow.get(dst, 0) + plan.nbytes
        out[app] = max(inflow.values(), default=0)
    return out


def scenario_digest(res: Any) -> dict[str, Any]:
    m = res.metrics
    coupling = TransferKind.COUPLING
    return {
        "sim_events": res.sim_events,
        "retrieval_times": dict(res.retrieval_times),
        "coupling_bytes": {
            app: m.bytes(kind=coupling, app_id=app) for app in res.consumer_ids
        },
        "network_bytes": m.bytes(kind=coupling, transport=Transport.NETWORK),
        "max_node_inflow": _max_node_inflow(res),
        "transfers": sorted(m.as_dict().items(), key=repr),
    }


class PaperTimed(Workload):
    """Sequential 512->128+384 then concurrent 512/64, retrievals timed.

    The paper scenarios are fixed by the paper; the seed only seeds the
    mapper (the server-side partitioner of data-centric concurrent runs).
    """

    mapper = ""
    builders = (paper_sequential, paper_concurrent)
    tiny_builders = (small_sequential, small_concurrent)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self._rr_bytes: dict[str, int] = {}

    def round(self) -> list[int]:
        return [0]

    def run(self, op: int) -> list[Any]:
        builders = self.tiny_builders if self.tiny else self.builders
        return [
            run_scenario(
                build(), mapper=self.mapper, time_transfers=True,
                seed=self.seed,
            )
            for build in builders
        ]

    def outcome(self, op: int, results: list[Any]) -> Outcome:
        digest = {
            "scenarios": [
                {"shape": scenario_shape(r.scenario),
                 "nic_bandwidth": r.scenario.cluster.machine.network.nic_bandwidth,
                 **scenario_digest(r)}
                for r in results
            ],
        }
        digest["sim_events"] = sum(s["sim_events"] for s in digest["scenarios"])
        return Outcome(digest, _registry_counts(results))

    def rr_bytes(self, shape: dict[str, Any]) -> int:
        key = repr(sorted(shape.items()))
        if key not in self._rr_bytes:
            self._rr_bytes[key] = checks.round_robin_network_bytes(shape)
        return self._rr_bytes[key]

    def check(self, op: int, digest: dict[str, Any]) -> list[str]:
        problems = []
        for s in digest["scenarios"]:
            problems += [
                f"{s['shape']['mode']}: {p}"
                for p in checks.check_paper(
                    s["shape"], s, self.rr_bytes(s["shape"]),
                    self.mapper == "round-robin", s["nic_bandwidth"],
                )
            ]
        return problems


class PaperRoundRobin(PaperTimed):
    name = "paper_rr_timed"
    mapper = "round-robin"
    nominal_round_s = 5.0


class PaperDataCentric(PaperTimed):
    name = "paper_dc_timed"
    mapper = "data-centric"
    nominal_round_s = 1.7


# -- fault_recovery -------------------------------------------------------------

class FaultRecovery(Workload):
    """Seeded fault plans of every family, plus fixed gray x partition plans.

    Per round: ``PLANS_PER_FAMILY`` plans of each single family, drawn from
    the run seed, then the gray x partition composition for the fixed plan
    seeds ``0..COMPOSED_PLANS-1``. Those do not depend on the run seed, so
    the operations that hit the known scrub-across-a-cut fault are the same
    in every run.
    """

    name = "fault_recovery"
    nominal_round_s = 7.5
    PLANS_PER_FAMILY = 10
    COMPOSED_PLANS = 60
    SINGLE_FAMILIES = ("crash", "gray", "partition", "oom")

    def round(self) -> list[plans.FaultOp]:
        nodes = plans.soak_scenario().cluster.num_nodes
        per_family = 1 if self.tiny else self.PLANS_PER_FAMILY
        ops = [
            plans.fault_op(family, derive(self.seed, family, i), nodes)
            for family in self.SINGLE_FAMILIES
            for i in range(per_family)
        ]
        composed = (3, 4) if self.tiny else range(self.COMPOSED_PLANS)
        ops += [plans.fault_op("gray_partition", s, nodes) for s in composed]
        return ops

    def run(self, op: plans.FaultOp) -> Any:
        return run_scenario(plans.soak_scenario(), **plans.run_options(op))

    def known_fault(self, exc: BaseException) -> "str | None":
        """The integrity scrubber's repair pull crossing an open cut."""
        if not isinstance(exc, NetworkPartitionError):
            return None
        for frame in traceback.extract_tb(exc.__traceback__):
            if frame.name == "scrub" and frame.filename.replace(
                    "\\", "/").endswith("repro/cods/space.py"):
                return "NetworkPartitionError raised from CoDS.scrub"
        return None

    def outcome(self, op: plans.FaultOp, res: Any) -> Outcome:
        space = res.space
        copies: dict[str, dict[str, Any]] = {}
        for core in res.scenario.cluster.cores():
            try:
                store = space.store_of(core)
            except Exception:  # noqa: BLE001 - a dropped store holds nothing
                continue
            for obj in store.objects():
                key = repr((obj.var, obj.version, obj.logical_owner))
                held = copies.setdefault(key, {"primary": None, "replicas": []})
                if obj.is_replica:
                    held["replicas"].append(obj.checksum)
                else:
                    held["primary"] = {
                        "checksum": obj.checksum, "ok": obj.verify_checksum()
                    }
        for held in copies.values():
            held["replicas"].sort()
        digest = {
            "sim_events": res.sim_events,
            "makespan": res.engine.makespan if res.engine is not None else 0.0,
            "cells_by_rank": {
                app: {rank: s.total_cells for rank, s in by_rank.items()}
                for app, by_rank in res.schedules.items()
            },
            "lost": [list(k) for k in space.lost_objects()],
            "copies": copies,
            "transfers": sorted(res.metrics.as_dict().items(), key=repr),
        }
        return Outcome(digest, _registry_counts([res]))

    def check(self, op: plans.FaultOp, digest: dict[str, Any]) -> list[str]:
        scenario = plans.soak_scenario()
        shape = {
            "domain": tuple(scenario.domain),
            "consumer_layouts": {
                c.app_id: tuple(c.descriptor.process_layout)
                for c in scenario.consumers
            },
        }
        return [
            f"{op.label}: {p}"
            for p in checks.check_fault(
                shape, digest, plans.REPLICATION,
                restores_replication=op.family == "crash",
            )
        ]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (JaguarEvents, PaperRoundRobin, PaperDataCentric, FaultRecovery)
}
