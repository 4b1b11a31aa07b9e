"""Per-layer host-time attribution by wrapping each layer's entry points.

A traced pass installs timing wrappers over the entry points listed in
:data:`LAYERS`, runs the workload's operations, and removes the wrappers
again. Untraced passes install nothing, so the timed code is the program
as shipped.

Each wrapper records calls, inclusive busy time (outermost entry of its
layer only, so recursion is not counted twice) and self time: its elapsed
time minus the time spent in wrapped child layers it called. Some wrappers
also read a count off the call (events dispatched, flows solved, bytes
moved, cache hits); see :data:`EXTRAS`.

A target that no longer exists (a method renamed or removed by a refactor)
is reported in :attr:`LayerTracer.absent` instead of raising, and the
metrics that depend only on it are left out of the report.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

#: layer -> entry points ("module:Qualified.name"); the first layer listed
#: for a target owns it
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine:SimEngine.run",),
    "sim.queue": (
        "repro.sim.engine:SimEngine.schedule",
        "repro.sim.engine:SimEngine.schedule_at",
        "repro.sim.engine:SimEngine.schedule_daemon",
    ),
    "sim.fluid": ("repro.sim.fluid:FluidSimulation.run",),
    "sfc.spans": ("repro.sfc.linearize:DomainLinearizer.spans_for_box",),
    "cods.dht": ("repro.cods.dht:SpatialDHT.query",),
    "cods.get": (
        "repro.cods.space:CoDS.get_seq",
        "repro.cods.space:CoDS.get_cont",
        "repro.cods.space:CoDS.get_bundle",
    ),
    "cods.put": (
        "repro.cods.space:CoDS.put_seq",
        "repro.cods.space:CoDS.put_cont",
    ),
    "cods.schedule": (
        "repro.cods.schedule:compute_schedule",
        "repro.cods.schedule:producer_schedule",
    ),
    "cods.schedule_cache": (
        "repro.cods.schedule:ScheduleCache.get",
        "repro.cods.schedule:BundleScheduleCache.get",
    ),
    "partition": ("repro.partition.multilevel:MultilevelKWay.partition",),
    "core.mapping": (
        "repro.core.mapping.roundrobin:RoundRobinMapper.map_bundle",
        "repro.core.mapping.serverside:ServerSideMapper.map_bundle",
        "repro.core.mapping.clientside:ClientSideMapper.map_bundle",
    ),
    "workflow": (
        "repro.workflow.engine:WorkflowEngine.run",
        "repro.workflow.engine:WorkflowEngine._launch_bundle",
        "repro.workflow.engine:WorkflowEngine._complete_app",
        "repro.workflow.engine:WorkflowEngine.reenact_bundle",
    ),
    "resilience.scrub": ("repro.cods.space:CoDS.scrub",),
    "transport": ("repro.transport.hybriddart:HybridDART.transfer",),
}


def _events_fired(engine: Any, fn: Callable, args: tuple, kwargs: dict):
    before = engine.events_fired
    out = fn(engine, *args, **kwargs)
    return out, {"events": engine.events_fired - before}


def _fluid_flows(sim: Any, fn: Callable, args: tuple, kwargs: dict):
    flows = len(sim)
    return fn(sim, *args, **kwargs), {"flows": flows}


def _cache_hit(cache: Any, fn: Callable, args: tuple, kwargs: dict):
    out = fn(cache, *args, **kwargs)
    return out, {"hits": int(out is not None)}


def _transfer_bytes(dart: Any, fn: Callable, args: tuple, kwargs: dict):
    rec = fn(dart, *args, **kwargs)
    kind = getattr(getattr(rec, "transport", None), "value", "")
    return rec, {"bytes_" + str(kind): getattr(rec, "nbytes", 0)}


#: targets whose wrapper also reads a count off the call
EXTRAS: dict[str, Callable] = {
    "repro.sim.engine:SimEngine.run": _events_fired,
    "repro.sim.fluid:FluidSimulation.run": _fluid_flows,
    "repro.cods.schedule:ScheduleCache.get": _cache_hit,
    "repro.cods.schedule:BundleScheduleCache.get": _cache_hit,
    "repro.transport.hybriddart:HybridDART.transfer": _transfer_bytes,
}


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute, original) for a target, or raise LookupError."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if not callable(original):
        raise LookupError(target)
    return owner, attr, original


class LayerStats:
    __slots__ = ("calls", "busy", "self_time", "depth", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.extra: dict[str, float] = {}


class LayerTracer:
    """Installs the wrappers for the lifetime of a ``with`` block."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
        self.layers = layers
        self.stats = {name: LayerStats() for name in layers}
        self.absent: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: child time accumulated by each open wrapper frame
        self._stack: list[float] = []

    def _wrap(self, layer: str, original: Callable, extra: "Callable | None"):
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stats.calls += 1
            stats.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                if extra is None:
                    return original(*args, **kwargs)
                out, counts = extra(args[0], original, args[1:], kwargs)
                for key, value in counts.items():
                    stats.extra[key] = stats.extra.get(key, 0) + value
                return out
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stats.self_time += elapsed - child
                stats.depth -= 1
                if stats.depth == 0:
                    stats.busy += elapsed
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for layer, targets in self.layers.items():
            for target in targets:
                try:
                    owner, attr, original = _resolve(target)
                except LookupError:
                    self.absent.append(target)
                    continue
                wrapper = self._wrap(layer, original, EXTRAS.get(target))
                self._patch(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    # Modules that imported the function by name hold their
                    # own reference; rebind those too.
                    for mod in list(sys.modules.values()):
                        name = getattr(mod, "__name__", "")
                        if (name.startswith("repro") and mod is not owner
                                and mod.__dict__.get(attr) is original):
                            self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def present(self, layer: str) -> bool:
        """True when at least one of the layer's targets was wrapped."""
        return any(t not in self.absent for t in self.layers[layer])


#: (metric, layer, statistic, unit); statistic is "calls", "busy", "self"
#: or a key of the layer's extra counts
LAYER_METRICS = (
    ("sim.engine.events", "sim.engine", "events", "count/op"),
    ("sim.engine.self_s", "sim.engine", "self", "s/op"),
    ("sim.queue.schedule_calls", "sim.queue", "calls", "count/op"),
    ("sim.queue.schedule_s", "sim.queue", "busy", "s/op"),
    ("sim.fluid.runs", "sim.fluid", "calls", "count/op"),
    ("sim.fluid.flows", "sim.fluid", "flows", "count/op"),
    ("sim.fluid.busy_s", "sim.fluid", "busy", "s/op"),
    ("sfc.spans.calls", "sfc.spans", "calls", "count/op"),
    ("sfc.spans.busy_s", "sfc.spans", "busy", "s/op"),
    ("cods.dht.queries", "cods.dht", "calls", "count/op"),
    ("cods.dht.busy_s", "cods.dht", "busy", "s/op"),
    ("cods.get.calls", "cods.get", "calls", "count/op"),
    ("cods.get.busy_s", "cods.get", "busy", "s/op"),
    ("cods.schedule.builds", "cods.schedule", "calls", "count/op"),
    ("cods.schedule.busy_s", "cods.schedule", "busy", "s/op"),
    ("cods.schedule.cache_hits", "cods.schedule_cache", "hits", "count/op"),
    ("partition.calls", "partition", "calls", "count/op"),
    ("partition.busy_s", "partition", "busy", "s/op"),
    ("core.mapping.calls", "core.mapping", "calls", "count/op"),
    ("core.mapping.busy_s", "core.mapping", "busy", "s/op"),
    ("cods.put.calls", "cods.put", "calls", "count/op"),
    ("cods.put.busy_s", "cods.put", "busy", "s/op"),
    ("workflow.self_s", "workflow", "self", "s/op"),
    ("resilience.scrub_s", "resilience.scrub", "busy", "s/op"),
    ("transport.transfers", "transport", "calls", "count/op"),
    ("transport.busy_s", "transport", "busy", "s/op"),
    ("transport.bytes_network", "transport", "bytes_network", "B/op"),
    ("transport.bytes_shm", "transport", "bytes_shm", "B/op"),
)

#: (metric, key of Outcome.counts) read off each run's own registry,
#: engine and injector
RUN_COUNTS = (
    ("cods.mem.spills", "spills"),
    ("workflow.reenactments", "reenactments"),
    ("faults.injected", "injected"),
    ("resilience.recoveries", "recoveries"),
)


def report(tracer: LayerTracer, traced: Any, untraced_wall: float) -> dict:
    """Per-operation layer metrics of a traced pass, plus its overhead.

    Layer times are scaled to the reference host speed by the traced
    pass's overall factor; ``untraced_wall`` is already scaled.
    """
    n = len(traced.times)
    factor = sum(traced.scaled) / sum(traced.times)
    out = {}
    for metric, layer, stat, unit in LAYER_METRICS:
        if not tracer.present(layer):
            continue
        st = tracer.stats[layer]
        value = {
            "calls": st.calls, "busy": st.busy * factor,
            "self": st.self_time * factor,
        }.get(stat, st.extra.get(stat, 0))
        out[metric] = {"value": value / n, "unit": unit}
    outcomes = [o for o in traced.outcomes if o is not None]
    for metric, key in RUN_COUNTS:
        total = sum(o.counts.get(key, 0) for o in outcomes)
        out[metric] = {"value": total / n, "unit": "count/op"}
    out["trace.overhead_pct"] = {
        "value": 100.0 * (sum(traced.scaled) / untraced_wall - 1.0), "unit": "%",
    }
    return out
