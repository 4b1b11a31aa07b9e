#!/usr/bin/env python3
"""Host-time benchmark of the in-situ coupling stack.

Usage (from the repository root)::

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``jaguar_events``, ``paper_rr_timed``, ``paper_dc_timed``,
``fault_recovery`` (see README.md in this directory).

A run imports the package from ``src/`` of the checkout, builds the
workload's inputs from ``--seed``, runs one untimed warm-up operation, then
times a fixed list of operations whose length follows from ``--seconds``.
The simulated outputs of every operation are checked after the timed
region. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` times
the same list untraced and then again with per-layer wrappers installed,
and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when a check failed, and 2 when the package
cannot be imported from the checkout.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS/OpenMP pools are sized when numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Any  # noqa: E402

from speed import PROBE_REF_S, SpeedTrack  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = (
    "jaguar_events", "paper_rr_timed", "paper_dc_timed", "fault_recovery",
)
#: set-ups per run; setup_s reports their median
SETUP_REPS = 3


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke tests only)")
    return ap.parse_args(argv)


def import_program() -> float:
    """Import the package from the checkout; returns the seconds it took."""
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    try:
        import repro
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"imported repro from {where}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return time.perf_counter() - t0


class Pass:
    """One pass over the timed operation list."""

    def __init__(self, expected_op_s: float) -> None:
        #: host seconds per operation, as measured
        self.times: list[float] = []
        #: the same, scaled to the reference host speed
        self.scaled: list[float] = []
        self.outcomes: list[Any] = []
        self.unexpected: list[str] = []
        self.speed = SpeedTrack(expected_op_s)

    @property
    def failed(self) -> int:
        return sum(o is None or o.fault is not None for o in self.outcomes)


def run_op(wl: Any, op: Any) -> tuple[float, Any]:
    """Time one operation; the digest is taken outside the timer."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # noqa: BLE001 - classified below
        dt = time.perf_counter() - t0
        fault = wl.known_fault(exc)
        if fault is None:
            raise
        return dt, Outcome(None, {}, fault)
    dt = time.perf_counter() - t0
    return dt, wl.outcome(op, out)


def time_ops(wl: Any, ops: list[Any], expected_op_s: float) -> Pass:
    p = Pass(expected_op_s)
    for i, op in enumerate(ops):
        # Collect the previous operation's garbage outside the timer and
        # park what survives, so collections stay cheap as digests pile up.
        gc.collect()
        gc.freeze()
        p.speed.before(i)
        try:
            dt, outcome = run_op(wl, op)
        except Exception as exc:  # noqa: BLE001 - reported, fails the run
            p.times.append(math.nan)
            p.outcomes.append(None)
            p.unexpected.append(f"{getattr(op, 'label', op)!r}: "
                                f"{type(exc).__name__}: {exc}")
            continue
        p.times.append(dt)
        p.outcomes.append(outcome)
    p.speed.mark(len(ops))
    p.scaled = p.speed.scale(p.times)
    return p


def set_up(
    wl: Any, seconds: float, import_s: float
) -> tuple[float, list[Any], Any, float]:
    """Build the inputs and run the warm-up operation, ``SETUP_REPS`` times.

    Returns the set-up seconds (the import plus the median set-up, scaled
    to the reference host speed), the timed operation list, the warm-up
    outcome and the last warm-up's host seconds.
    """
    speed = SpeedTrack(import_s)
    samples = []
    for rep in range(SETUP_REPS):
        gc.collect()
        speed.mark(rep)
        t0 = time.perf_counter()
        ops = wl.ops_for(seconds)
        warm_s, warm = run_op(wl, ops[0])
        samples.append(time.perf_counter() - t0)
    speed.mark(SETUP_REPS)
    imported = speed.scale([import_s])[0]
    setup_s = imported + statistics.median(speed.scale(samples))
    return setup_s, ops, warm, warm_s


def verify(wl: Any, ops: list[Any], passes: list[Pass], warm: Any) -> list[str]:
    problems = []
    base = passes[0]
    for p in passes:
        problems += p.unexpected
    for op, outcome in zip(ops, base.outcomes):
        if outcome is not None and outcome.digest is not None:
            problems += wl.check(op, outcome.digest)
    first = base.outcomes[0]
    if first is not None and (warm.digest, warm.fault) != (
            first.digest, first.fault):
        problems.append("warm-up and timed runs of the first operation differ")
    for p in passes[1:]:
        for i, (a, b) in enumerate(zip(base.outcomes, p.outcomes)):
            if a is not None and b is not None and (a.digest, a.fault) != (
                    b.digest, b.fault):
                problems.append(f"operation {i} differs when traced")
    return problems


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: fewest timed operations whose 90th percentile has ten samples above it
P90_MIN_OPS = 100


def end_to_end(p: Pass, setup_s: float) -> dict[str, dict]:
    """The metrics every workload reports, with tracing off.

    Times are in reference-host seconds (see speed.py); the unscaled
    figures are printed alongside. op_p90_s is printed on its own line,
    and only when at least ``P90_MIN_OPS`` operations were timed: below
    that it is no tail. It stays out of the result object, which carries
    the same metrics for every workload.
    """
    times = [t for t in p.scaled if not math.isnan(t)] or [math.nan]
    raw = [t for t in p.times if not math.isnan(t)] or [math.nan]
    wall = sum(times)
    events = sum(
        o.digest["sim_events"] for o in p.outcomes
        if o is not None and o.digest is not None
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"timed {len(times)} operations; unscaled wall_s {sum(raw)!r} s, "
          f"op_p50_s {statistics.median(raw)!r} s; median mark "
          f"{p.speed.median_mark!r} s (reference {PROBE_REF_S} s)")
    if len(times) >= P90_MIN_OPS:
        print(f"op_p90_s: {quantile(times, 0.9)!r} s")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "sim_events_per_s": {"value": events / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    import layers
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    setup_s, ops, warm, warm_s = set_up(wl, args.seconds, import_s)
    passes = [time_ops(wl, ops, warm_s)]
    if args.trace:
        tracer = layers.LayerTracer()
        with tracer:
            passes.append(time_ops(wl, ops, warm_s))
        metrics = layers.report(tracer, passes[1], sum(passes[0].scaled))
        if tracer.absent:
            print("absent wrap targets: " + ", ".join(tracer.absent))
    else:
        metrics = end_to_end(passes[0], setup_s)

    problems = verify(wl, ops, passes, warm)
    for problem in problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    faults = sorted({o.fault for o in passes[0].outcomes if o and o.fault})
    for fault in faults:
        print(f"known fault: {fault}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
