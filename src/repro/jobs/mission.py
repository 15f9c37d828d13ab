"""Mission control: the live campaign board behind ``repro.jobs top``.

``gather`` produces one status dict per refresh — preferably live from
an attached coordinator's ``fleet`` RPC (queue counts, job summaries,
and the in-memory fleet rollup in one round trip), falling back to the
campaign directory (last persisted rollup beside the queue journal +
a direct queue read) when no coordinator is reachable.  ``render``
turns it into the board: backlog by priority class, throughput, the
§III-D cost-model ETA (LPT makespan over pending+running work), one
row per worker (step rate, liveness, degraded flag, delta losses,
clock offset), fleet RPC latency quantiles, and active SLO alerts.
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.telemetry.fleet import ROLLUPS_FILE, load_rollups
from .fabric import CoordinatorUnreachable, FabricClient, ShardedQueue
from .queue import PENDING
from .scheduler import pack


def gather(root, *, fabric=None, n_workers: int | None = None) -> dict:
    """One mission-control status snapshot.

    ``fabric`` is a parsed ``(host, port)`` address; when given and
    reachable the coordinator's live view is used, otherwise the last
    persisted rollup under ``<root>/fleet/`` plus a direct queue read.
    """
    root = pathlib.Path(root)
    status: dict | None = None
    source = "offline"
    if fabric is not None:
        client = FabricClient(fabric, deadline=4.0)
        try:
            status = client.call("fleet")
            source = "live"
        except CoordinatorUnreachable:
            status = None
        finally:
            client.close()
    if status is None:
        rollups = load_rollups(root / "fleet" / ROLLUPS_FILE) \
            if (root / "fleet" / ROLLUPS_FILE).exists() else []
        status = dict(rollups[-1]) if rollups else {"workers": {},
                                                   "alerts": [],
                                                   "histograms": []}
        try:
            shards = ShardedQueue([root])
            status["counts"] = shards.counts()
            status["jobs"] = shards.backlog()
        except OSError:
            status.setdefault("counts", {})
            status.setdefault("jobs", [])
    status["source"] = source
    status["root"] = str(root)
    workers = status.get("workers", {})
    status["n_workers"] = n_workers or max(
        1, sum(1 for w in workers if w != "coordinator"))
    return status


def _eta_seconds(status: dict) -> float:
    """LPT makespan of pending+running work over the fleet's workers —
    the same §III-D estimate ``status`` prints, but fed from the live
    coordinator view."""
    jobs = status.get("jobs") or []
    records = [{"state": j.get("state", PENDING),
                "seq": j.get("seq", i),
                "cost": j.get("cost")}
               for i, j in enumerate(jobs)]
    if not records:
        return 0.0
    _, makespan = pack(records, status.get("n_workers", 1))
    return makespan


def _fmt_seconds(v: float) -> str:
    if v >= 120.0:
        return f"{v / 60.0:.1f}m"
    return f"{v:.1f}s"


def _fmt_latency(v) -> str:
    if v is None:
        return "-"
    if v < 1e-3:
        return f"{v * 1e6:.0f}µs"
    if v < 1.0:
        return f"{v * 1e3:.1f}ms"
    return f"{v:.2f}s"


def render(status: dict) -> str:
    """The mission-control board as plain text."""
    lines = []
    counts = status.get("counts", {})
    workers = status.get("workers", {})
    fleet_workers = {w: info for w, info in workers.items()
                     if w != "coordinator"}
    alive = sum(1 for info in fleet_workers.values() if info.get("alive"))
    lines.append(
        f"mission control — {status.get('root', '?')} "
        f"[{status.get('source', '?')}]  "
        f"{len(fleet_workers)} worker(s), {alive} alive"
    )

    # -- queue / backlog ------------------------------------------------
    lines.append("queue: " + ("  ".join(f"{k}={v}"
                                        for k, v in sorted(counts.items()))
                              if counts else "(no queue data)"))
    jobs = status.get("jobs") or []
    backlog: dict[int, int] = {}
    for j in jobs:
        if j.get("state") == PENDING:
            backlog[int(j.get("priority", 0))] = \
                backlog.get(int(j.get("priority", 0)), 0) + 1
    if backlog:
        by_class = "  ".join(f"prio {p:+d}: {n}"
                             for p, n in sorted(backlog.items(),
                                                reverse=True))
    else:
        by_class = "(empty)"
    eta = _eta_seconds(status)
    lines.append(f"backlog by class: {by_class}    "
                 f"cost-model ETA: {_fmt_seconds(eta)} "
                 f"({status.get('n_workers', 1)} workers, LPT)")

    # -- throughput -----------------------------------------------------
    total_steps = sum(info.get("steps_total", 0)
                      for info in fleet_workers.values())
    rate = sum(info.get("step_rate", 0.0)
               for info in fleet_workers.values())
    lines.append(f"throughput: {rate:.1f} steps/s fleet-wide "
                 f"({total_steps} steps total)")

    # -- fleet RPC latency ----------------------------------------------
    rpc = []
    for h in status.get("histograms", []):
        if h.get("name") == "rpc_latency_seconds":
            op = dict(h.get("labels", {})).get("op", "?")
            rpc.append(f"{op} p99={_fmt_latency(h.get('p99'))}")
    if rpc:
        lines.append("rpc: " + "  ".join(sorted(rpc)))

    # -- per-worker rows ------------------------------------------------
    if workers:
        lines.append("")
        lines.append(f"{'worker':<14} {'alive':>5} {'degr':>5} "
                     f"{'steps':>8} {'steps/s':>8} {'lost':>5} "
                     f"{'offset':>9}")
        for w, info in sorted(workers.items()):
            lost = (info.get("lost_deltas", 0)
                    + info.get("lost_events", 0))
            lines.append(
                f"{w:<14} {'yes' if info.get('alive') else 'NO':>5} "
                f"{'YES' if info.get('degraded') else 'no':>5} "
                f"{info.get('steps_total', 0):>8} "
                f"{info.get('step_rate', 0.0):>8.2f} "
                f"{lost:>5} "
                f"{info.get('clock_offset', 0.0) * 1e3:>8.2f}ms"
            )

    # -- alerts ---------------------------------------------------------
    alerts = status.get("alerts") or []
    lines.append("")
    if alerts:
        lines.append(f"ALERTS ({len(alerts)} active):")
        for a in alerts:
            who = f" [{a['worker']}]" if a.get("worker") else ""
            lines.append(f"  !! {a.get('rule', '?')}{who}: "
                         f"{a.get('message', '')}")
    else:
        lines.append("alerts: none")
    return "\n".join(lines)


def run_top(root, *, fabric=None, interval: float = 2.0,
            once: bool = False, n_workers: int | None = None,
            out=None, clock=time.monotonic,
            max_refreshes: int | None = None) -> int:
    """The ``top`` loop: gather + render on a cadence (ANSI clear
    between refreshes), or a single board with ``once``."""
    out = out or sys.stdout
    refreshes = 0
    while True:
        status = gather(root, fabric=fabric, n_workers=n_workers)
        board = render(status)
        if once:
            print(board, file=out)
            return 0
        print("\x1b[2J\x1b[H" + board, flush=True, file=out)
        refreshes += 1
        if max_refreshes is not None and refreshes >= max_refreshes:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
