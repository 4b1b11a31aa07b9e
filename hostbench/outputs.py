#!/usr/bin/env python3
"""Print the simulated outputs of each workload's first operation.

Usage (from the repository root)::

    python3 hostbench/outputs.py [--seed N]

These are the values the benchmark checks, not scores: a change that only
makes the program faster must leave every line printed here unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    for name, cls in WORKLOADS.items():
        wl = cls(seed)
        if name == "fault_recovery":
            failed, events = [], 0
            ops = wl.round()
            for op in ops:
                try:
                    events += wl.outcome(op, wl.run(op)).digest["sim_events"]
                except Exception as exc:  # noqa: BLE001 - known fault only
                    if wl.known_fault(exc) is None:
                        raise
                    failed.append(op.label)
            print(f"{name}: {len(ops) - len(failed)} of {len(ops)} operations "
                  f"completed, {events} events; failed (CoDS.scrub across "
                  f"a cut): {', '.join(failed)}")
            continue
        d = wl.outcome(None, wl.run(wl.ops_for(1)[0])).digest
        if name == "jaguar_events":
            print(f"{name}: makespan {d['makespan']!r} s, "
                  f"{d['sim_events']} events, shm {d['bytes_shm']} B, "
                  f"network {d['bytes_network']} B")
            continue
        for s in d["scenarios"]:
            times = ", ".join(
                f"app {a} {t!r} s" for a, t in s["retrieval_times"].items()
            )
            print(f"{name} {s['shape']['mode']}: network "
                  f"{s['network_bytes']} B, retrieval {times}")


if __name__ == "__main__":
    main()
