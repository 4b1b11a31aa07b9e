"""Correctness checks on the simulated outputs of each workload.

Every check takes a *digest*: a small plain-data summary of one
operation's outputs, extracted right after the operation (see
``workloads.py``). A check returns a list of problems; an empty list means
the outputs passed. Expected values are computed here from the workload's
inputs, apart from the program (closed-form byte counts, overlap counts
over the blocked decompositions, a regenerated compute schedule), or are
properties the method must have (bandwidth lower bounds, coverage,
durability).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

# -- jaguar_events -----------------------------------------------------------


def jaguar_expected(cfg: Any) -> dict[str, Any]:
    """Event count, byte counts and per-iteration slowest rank from ``cfg``."""
    rng = np.random.default_rng(cfg.seed)
    span = cfg.compute_hi - cfg.compute_lo
    slowest = [
        max((cfg.compute_lo + span * rng.random(cfg.ranks)).tolist())
        for _ in range(cfg.iterations)
    ]
    g, it, es = cfg.coupling_groups, cfg.iterations, cfg.element_size
    return {
        "events": cfg.ranks * it + it,
        "bytes_network": (g - 1) * cfg.halo_cells * es * it,
        "bytes_total": (g * cfg.cells_per_group + (g - 1) * cfg.halo_cells)
        * es * it,
        "slowest": slowest,
    }


def check_jaguar(
    cfg: Any, digest: dict[str, Any], nic_bandwidth: float
) -> list[str]:
    want = jaguar_expected(cfg)
    problems = []
    if digest["sim_events"] != want["events"]:
        problems.append(
            f"dispatched {digest['sim_events']} events, want {want['events']}"
        )
    if digest["bytes_network"] != want["bytes_network"]:
        problems.append(
            f"network bytes {digest['bytes_network']}, "
            f"want {want['bytes_network']}"
        )
    total = digest["bytes_shm"] + digest["bytes_network"]
    if total != want["bytes_total"]:
        problems.append(f"shm+network bytes {total}, want {want['bytes_total']}")
    couplings = digest["coupling_times"]
    if len(couplings) != cfg.iterations:
        problems.append(
            f"{len(couplings)} coupling phases, want {cfg.iterations}"
        )
        return problems
    # The clock advances by the slowest rank, then by the coupling phase,
    # once per iteration; float addition is monotone, so this is exact.
    t = 0.0
    for slowest, coupling in zip(want["slowest"], couplings):
        t = (t + slowest) + coupling
    if digest["makespan"] != t:
        problems.append(f"makespan {digest['makespan']!r}, want {t!r}")
    floor = cfg.halo_cells * cfg.element_size / nic_bandwidth
    if cfg.coupling_groups > 1 and min(couplings) < floor:
        problems.append(
            f"coupling phase {min(couplings)!r} s faster than one halo slab "
            f"over the NIC ({floor!r} s)"
        )
    return problems


# -- paper_rr_timed / paper_dc_timed -----------------------------------------


def _blocked_starts(size: int, nprocs: int) -> np.ndarray:
    """Block bounds of a balanced blocked split (first ``size % nprocs``
    blocks one cell longer)."""
    base, extra = divmod(size, nprocs)
    coords = np.arange(nprocs + 1)
    return coords * base + np.minimum(coords, extra)


def _dim_overlap(size: int, p: int, c: int) -> np.ndarray:
    """Cells shared by producer block i and consumer block j along a dim."""
    ps, cs = _blocked_starts(size, p), _blocked_starts(size, c)
    lo = np.maximum(ps[:-1, None], cs[None, :-1])
    hi = np.minimum(ps[1:, None], cs[None, 1:])
    return np.maximum(hi - lo, 0)


def _grid_coords(layout: Sequence[int]) -> np.ndarray:
    """Row-major (last dimension fastest) grid coordinates of every rank."""
    return np.stack(np.unravel_index(np.arange(math.prod(layout)), layout), 1)


def overlap_matrix(
    domain: Sequence[int],
    producer_layout: Sequence[int],
    consumer_layout: Sequence[int],
) -> np.ndarray:
    """Cells each producer rank owns of each consumer rank's block."""
    pc, cc = _grid_coords(producer_layout), _grid_coords(consumer_layout)
    out = np.ones((len(pc), len(cc)), dtype=np.int64)
    for d, size in enumerate(domain):
        ov = _dim_overlap(size, producer_layout[d], consumer_layout[d])
        out *= ov[pc[:, d][:, None], cc[:, d][None, :]]
    return out


def round_robin_network_bytes(shape: dict[str, Any]) -> int:
    """Coupling bytes that cross nodes under the block launcher order.

    The launcher fills cores in order, app after app within a bundle: the
    producer takes cores ``0..P-1``; concurrent consumers follow it in the
    same bundle, sequential consumers start over at core 0 on the nodes
    the producer freed.
    """
    cpn = shape["cores_per_node"]
    p_layout = shape["producer_layout"]
    p_nodes = np.arange(math.prod(p_layout)) // cpn
    first = math.prod(p_layout) if shape["mode"] == "cont" else 0
    total = 0
    for c_layout in shape["consumer_layouts"]:
        n = math.prod(c_layout)
        c_nodes = np.arange(first, first + n) // cpn
        first += n
        cells = overlap_matrix(shape["domain"], p_layout, c_layout)
        total += int(cells[p_nodes[:, None] != c_nodes[None, :]].sum())
    return total * shape["element_size"]


def check_paper(
    shape: dict[str, Any],
    digest: dict[str, Any],
    rr_network_bytes: int,
    round_robin: bool,
    nic_bandwidth: float,
) -> list[str]:
    problems = []
    volume = math.prod(shape["domain"]) * shape["element_size"]
    for app, moved in digest["coupling_bytes"].items():
        if moved != volume:
            problems.append(
                f"consumer {app} received {moved} coupling bytes, want {volume}"
            )
    if len(digest["coupling_bytes"]) != len(shape["consumer_layouts"]):
        problems.append(
            f"{len(digest['coupling_bytes'])} consumers moved data, want "
            f"{len(shape['consumer_layouts'])}"
        )
    net = digest["network_bytes"]
    if round_robin and net != rr_network_bytes:
        problems.append(
            f"round-robin network bytes {net}, launcher-order count "
            f"{rr_network_bytes}"
        )
    if not round_robin and net > rr_network_bytes:
        problems.append(
            f"data-centric network bytes {net} exceed round-robin "
            f"{rr_network_bytes}"
        )
    for app, t in digest["retrieval_times"].items():
        floor = digest["max_node_inflow"][app] / nic_bandwidth
        if not math.isfinite(t) or t < floor:
            problems.append(
                f"consumer {app} retrieval time {t!r} s below the NIC bound "
                f"{floor!r} s"
            )
    return problems


# -- fault_recovery -----------------------------------------------------------


def requested_cells(domain: Sequence[int], layout: Sequence[int]) -> list[int]:
    """Cells in each consumer rank's blocked request, by rank."""
    lengths = [np.diff(_blocked_starts(s, p)) for s, p in zip(domain, layout)]
    coords = _grid_coords(layout)
    return [
        int(math.prod(int(lengths[d][c[d]]) for d in range(len(domain))))
        for c in coords
    ]


def check_fault(
    shape: dict[str, Any], digest: dict[str, Any], replication: int,
    restores_replication: bool,
) -> list[str]:
    """Coverage, durability and replica integrity after one completed run."""
    problems = []
    for app, layout in shape["consumer_layouts"].items():
        want = requested_cells(shape["domain"], layout)
        got = digest["cells_by_rank"].get(app, {})
        if sorted(got) != list(range(len(want))):
            problems.append(
                f"consumer {app} has schedules for {len(got)} of "
                f"{len(want)} ranks"
            )
            continue
        short = [r for r, cells in got.items() if cells != want[r]]
        if short:
            problems.append(
                f"consumer {app} ranks {short[:4]} not covered by schedules"
            )
    if digest["lost"]:
        problems.append(f"objects lost every copy: {digest['lost'][:4]}")
    copies = digest["copies"]
    for key, held in copies.items():
        primary = held["primary"]
        if primary is not None:
            if not primary["ok"]:
                problems.append(f"primary of {key} fails its checksum")
            bad = [c for c in held["replicas"] if c != primary["checksum"]]
            if bad:
                problems.append(
                    f"{len(bad)} replica(s) of {key} differ from primary"
                )
        count = (primary is not None) + len(held["replicas"])
        if restores_replication and count != replication:
            problems.append(f"{key}: {count} copies, want {replication}")
    if restores_replication and not copies:
        problems.append("no stored objects after the run")
    return problems
