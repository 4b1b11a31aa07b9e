"""Tests of the benchmark's checks and a tiny end-to-end run per workload.

Run from the repository root::

    python3 -m pytest hostbench -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import layers  # noqa: E402
import plans  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _first(workload: str):
    """A tiny workload, its first operation and that operation's digest."""
    wl = WORKLOADS[workload](seed=7, tiny=True)
    op = wl.ops_for(1)[0]
    _, outcome = run.run_op(wl, op)
    assert wl.check(op, outcome.digest) == []
    return wl, op, outcome.digest


@pytest.fixture(scope="module")
def jaguar():
    return _first("jaguar_events")


@pytest.fixture(scope="module")
def paper_rr():
    return _first("paper_rr_timed")


@pytest.fixture(scope="module")
def crash():
    wl = WORKLOADS["fault_recovery"](seed=7, tiny=True)
    op = next(o for o in wl.round() if o.family == "crash")
    _, outcome = run.run_op(wl, op)
    assert wl.check(op, outcome.digest) == []
    return wl, op, outcome.digest


# -- every workload runs to its end -----------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_completes(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = {n for n, *_ in layers.LAYER_METRICS} if trace == "1" else {
        "setup_s", "wall_s", "op_p50_s", "sim_events_per_s", "peak_rss_mb",
    }
    assert names <= set(result["metrics"])
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_fault_recovery_fails_only_the_known_fault(capsys):
    run.main(["--workload", "fault_recovery", "--seed", "1", "--seconds", "1",
              "--tiny"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    # the tiny round composes gray x partition plans 3 (scrub across an
    # open cut) and 4 (clean)
    assert result["failed"] == 1
    assert "known fault: NetworkPartitionError raised from CoDS.scrub" in out


def test_same_seed_same_inputs():
    a = WORKLOADS["fault_recovery"](seed=11).round()
    b = WORKLOADS["fault_recovery"](seed=11).round()
    assert [o.plan for o in a] == [o.plan for o in b]
    c = WORKLOADS["fault_recovery"](seed=12).round()
    assert [o.plan for o in a] != [o.plan for o in c]


# -- the checks reject perturbed results -------------------------------------


def _rejected(wl, op, digest) -> bool:
    return bool(wl.check(op, digest))


def test_jaguar_bytes_off_by_one_element(jaguar):
    wl, op, digest = jaguar
    for key in ("bytes_network", "bytes_shm"):
        bad = copy.deepcopy(digest)
        bad[key] += op.element_size
        assert _rejected(wl, op, bad)


def test_jaguar_events_and_makespan(jaguar):
    wl, op, digest = jaguar
    bad = copy.deepcopy(digest)
    bad["sim_events"] -= 1
    assert _rejected(wl, op, bad)
    bad = copy.deepcopy(digest)
    bad["makespan"] = math.nextafter(bad["makespan"], math.inf)
    assert _rejected(wl, op, bad)


def test_jaguar_coupling_below_nic_bound(jaguar):
    wl, op, digest = jaguar
    bad = copy.deepcopy(digest)
    bad["coupling_times"][0] = 1e-12
    assert _rejected(wl, op, bad)


def test_paper_bytes_off_by_one_element(paper_rr):
    wl, op, digest = paper_rr
    es = digest["scenarios"][0]["shape"]["element_size"]
    bad = copy.deepcopy(digest)
    app = next(iter(bad["scenarios"][0]["coupling_bytes"]))
    bad["scenarios"][0]["coupling_bytes"][app] -= es
    assert _rejected(wl, op, bad)
    bad = copy.deepcopy(digest)
    bad["scenarios"][1]["network_bytes"] += es
    assert _rejected(wl, op, bad)


def test_paper_retrieval_below_nic_bound(paper_rr):
    wl, op, digest = paper_rr
    bad = copy.deepcopy(digest)
    s = bad["scenarios"][0]
    app = next(iter(s["retrieval_times"]))
    s["retrieval_times"][app] = 0.5 * s["max_node_inflow"][app] / s["nic_bandwidth"]
    assert _rejected(wl, op, bad)
    s["retrieval_times"][app] = math.inf
    assert _rejected(wl, op, bad)


def test_data_centric_may_not_exceed_round_robin(paper_rr):
    _, op, digest = paper_rr
    dc = WORKLOADS["paper_dc_timed"](seed=7, tiny=True)
    bad = copy.deepcopy(digest)
    s = bad["scenarios"][0]
    s["network_bytes"] = dc.rr_bytes(s["shape"]) + s["shape"]["element_size"]
    assert _rejected(dc, op, bad)


def test_fault_consumer_schedule_dropped(crash):
    wl, op, digest = crash
    bad = copy.deepcopy(digest)
    ranks = next(iter(bad["cells_by_rank"].values()))
    ranks.pop(max(ranks))
    assert _rejected(wl, op, bad)
    bad = copy.deepcopy(digest)
    ranks = next(iter(bad["cells_by_rank"].values()))
    ranks[0] -= 1
    assert _rejected(wl, op, bad)


def test_fault_lost_replica(crash):
    wl, op, digest = crash
    bad = copy.deepcopy(digest)
    held = next(h for h in bad["copies"].values() if h["replicas"])
    held["replicas"].pop()
    assert _rejected(wl, op, bad)
    bad = copy.deepcopy(digest)
    bad["lost"] = [["coupled", 0, 1]]
    assert _rejected(wl, op, bad)


def test_fault_corrupt_copies(crash):
    wl, op, digest = crash
    bad = copy.deepcopy(digest)
    held = next(h for h in bad["copies"].values() if h["replicas"])
    held["replicas"][0] ^= 1
    assert _rejected(wl, op, bad)
    bad = copy.deepcopy(digest)
    held = next(h for h in bad["copies"].values() if h["primary"])
    held["primary"]["ok"] = False
    assert _rejected(wl, op, bad)


# -- the independent computations ---------------------------------------------


def test_overlap_matrix_partitions_the_domain():
    domain, p, c = (10, 12, 7), (2, 3, 2), (3, 2, 1)
    cells = checks.overlap_matrix(domain, p, c)
    assert cells.sum() == math.prod(domain)
    assert list(cells.sum(axis=0)) == checks.requested_cells(domain, c)


def test_known_fault_is_only_scrub_partition_error():
    wl = WORKLOADS["fault_recovery"](seed=0, tiny=True)
    assert wl.known_fault(ValueError("x")) is None
    from repro.errors import NetworkPartitionError

    assert wl.known_fault(NetworkPartitionError("not from scrub")) is None


def test_absent_wrap_target_is_reported_not_raised():
    tracer = layers.LayerTracer({"gone": ("repro.sim.engine:SimEngine.nope",)})
    with tracer:
        pass
    assert tracer.absent == ["repro.sim.engine:SimEngine.nope"]
    assert not tracer.present("gone")


def test_wrappers_are_removed_after_the_traced_pass():
    from repro.apps import jaguar
    from repro.sim.engine import SimEngine

    run_before, schedule_fn = SimEngine.run, jaguar.producer_schedule
    with layers.LayerTracer():
        assert SimEngine.run is not run_before
        assert jaguar.producer_schedule is not schedule_fn
    assert SimEngine.run is run_before
    assert jaguar.producer_schedule is schedule_fn


def test_plans_use_every_family():
    ops = WORKLOADS["fault_recovery"](seed=3).round()
    families = {o.family for o in ops}
    assert families == set(plans.FAMILIES)
    composed = [o.plan_seed for o in ops if o.family == "gray_partition"]
    assert composed == list(range(60))
