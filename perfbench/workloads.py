"""The benchmark's workloads: configs, outcome digests and one iteration each.

Every function here runs inside a fresh interpreter started by
``perfbench/child.py``; ``repro`` is imported lazily so the child can time
the package import itself.  The workload seed is passed only to
``ScenarioConfig.seed``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from pathlib import Path

__all__ = ["WORKLOADS", "CELLS", "SWEEP_ATTEMPTS", "SWEEP_WORKERS",
           "cell_config", "sweep_configs", "cell_digest", "cell_counts",
           "run_cell", "run_sweep"]

CELLS = ("paper_cell", "incast_rto")
WORKLOADS = CELLS + ("fig10_sweep",)

#: flows in the paper-scale cell (fixed; sizes come from the seed)
PAPER_FLOWS = 200
INCAST_SPEC = "incast:fanin=40,period=5ms,size=64KB,requests=80"
SWEEP_SCHEMES = ("ecmp", "rps", "presto", "letflow", "tlb")
SWEEP_LOADS = (0.3, 0.7)
SWEEP_FLOWS = 30
SWEEP_WORKERS = 2
#: cells one sweep iteration attempts: the grid in the pool, fleet and warm pass
SWEEP_ATTEMPTS = 3 * len(SWEEP_SCHEMES) * len(SWEEP_LOADS)


def cell_config(name: str, seed: int):
    """The ``ScenarioConfig`` of one cell workload."""
    from repro.experiments.common import ScenarioConfig
    from repro.experiments.largescale import paper_scale_config

    if name == "paper_cell":
        return paper_scale_config("web_search", scheme="tlb", load=0.8,
                                  n_flows=PAPER_FLOWS, seed=seed)
    if name == "incast_rto":
        return ScenarioConfig(scheme="tlb", workload=INCAST_SPEC, n_leaves=4,
                              n_paths=8, hosts_per_leaf=16, buffer_packets=64,
                              seed=seed)
    raise ValueError(f"not a cell workload: {name!r}")


def sweep_configs(seed: int) -> list:
    """The reduced-scale Fig. 10 grid, scheme-major like ``repro sweep``."""
    from repro.experiments.largescale import default_config

    base = default_config("web_search", n_flows=SWEEP_FLOWS, seed=seed)
    return [base.with_(scheme=s, load=l) for s in SWEEP_SCHEMES for l in SWEEP_LOADS]


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def _finite(x: float):
    return x if x == x and abs(x) != float("inf") else None


def cell_digest(result) -> str:
    """sha256 over the outcome fields, every port's counters and the event count."""
    from repro.metrics.export import metrics_to_dict

    h = hashlib.sha256()
    h.update(json.dumps(metrics_to_dict(result.metrics), sort_keys=True).encode())
    for key in sorted(result.net.ports):
        st = result.net.ports[key].stats
        h.update(f"{key}:{st.enqueued},{st.dropped},{st.transmitted},"
                 f"{st.bytes_enqueued},{st.bytes_transmitted},{st.ecn_marked},"
                 f"{st.busy_time!r};".encode())
    h.update(str(result.net.sim.events_processed).encode())
    return h.hexdigest()


def cell_counts(result) -> dict:
    """Work and loss counts of one finished ``ScenarioResult``."""
    stats = [p.stats for p in result.net.ports.values()]
    flows = result.registry.all_stats()
    return {
        "events": result.net.sim.events_processed,
        "transmitted": sum(s.transmitted for s in stats),
        "flows": len(result.workload.flows),
        "drops": sum(s.dropped for s in stats),
        "ecn_marks": sum(s.ecn_marked for s in stats),
        "retransmits": sum(s.retransmits for s in flows),
        "timeouts": sum(s.timeouts for s in flows),
        "packets_sent": sum(s.packets_sent for s in flows),
        "long_reroutes": result.metrics.extras.get("long_reroutes", 0),
    }


def run_cell(name: str, seed: int, tracer, t_start: float, tmp: Path) -> dict:
    """One cell the way ``repro run --cache --csv`` runs it into a fresh
    cache, timed from ``t_start``.

    ``tracer`` is an installed :class:`~perfbench.tracer.LayerTracer`; at
    least its coarse wrappers must be in place.
    """
    from repro.cache import ResultCache
    from repro.experiments.common import run_scenario
    # called through the module so the tracer's wrapper sees the call
    import repro.metrics.export as export

    config = cell_config(name, seed)
    cache = ResultCache(tmp / "cache")
    errors = []
    if cache.get(config) is not None:
        errors.append("fresh cache returned a hit")
    result = run_scenario(config)
    sim_end = time.perf_counter()
    cache.put(config, result.metrics)
    csv_path = export.write_metrics_csv(tmp / f"{name}.csv", [result.metrics])
    if not result.completed_all:
        errors.append("flows left incomplete at the horizon")
    if not csv_path.read_text().strip():
        errors.append("empty metrics CSV")
    t_end = time.perf_counter()

    m = result.metrics
    counts = cell_counts(result)
    counts["cache_bytes"] = cache.stats().total_bytes
    return {
        "errors": errors,
        "digest": cell_digest(result),
        "times": {
            "setup_s": tracer.first_run_at - t_start,
            "wall_s": t_end - t_start,
            "sim_run_s": tracer.report()["sim"]["incl_s"],
        },
        "counts": counts,
        "model": {
            "short_afct_ms": _finite(m.short_fct.mean * 1e3),
            "deadline_miss_pct": _finite(m.deadline_miss * 100.0),
            "long_goodput_mbps": _finite(m.long_goodput_bps / 1e6),
        },
        "layers": tracer.report(),
        "peak_rss_mb": _peak_rss_mb(),
        "windows": {"sim": (tracer.first_run_at, sim_end)},
    }


def _fleet_timing(fleet_dir: Path, pass_start_wall: float) -> dict:
    """Per-cell compute time, first claim and reclaims from the fleet journal."""
    from repro.fleet.observer import FleetObserver

    view = FleetObserver(fleet_dir).refresh()
    claims = [c.claims[0][0] for c in view.cells if c.claims]
    return {
        "cell_s": sum(c.elapsed or 0.0 for c in view.cells),
        "first_claim_s": (view.t0 + min(claims) - pass_start_wall) if claims else None,
        "reclaims": view.reclaim_total,
    }


def run_sweep(seed: int, t_start: float, tmp: Path, tracer=None) -> dict:
    """The Fig. 10 grid three ways: cold pool, cold fleet, warm re-read.

    ``tracer``, when installed, sees the parent process only: runner,
    cache and export.
    """
    from repro.cache import ResultCache
    from repro.experiments.runner import TaskFailure, run_many
    from repro.obs.metrics import get_registry
    import repro.metrics.export as export

    configs = sweep_configs(seed)
    extra = [{"load": c.load, "swept_scheme": c.scheme} for c in configs]
    errors: list[str] = []
    cell_errors: list[str] = []
    passes: dict[str, float] = {}
    windows: dict[str, tuple[float, float]] = {}
    csvs: dict[str, bytes] = {}
    events = 0
    cache_pool = ResultCache(tmp / "cache_pool")
    setup_s = time.perf_counter() - t_start

    def one_pass(label: str, cache, **kwargs):
        nonlocal events
        t0 = time.perf_counter()
        results = run_many(configs, processes=SWEEP_WORKERS, cache=cache,
                           on_error="record", label=label, **kwargs)
        windows[label] = (t0, time.perf_counter())
        passes[label] = windows[label][1] - t0
        for cfg, r in zip(configs, results):
            if isinstance(r, TaskFailure):
                cell_errors.append(f"{label}: {cfg.scheme}@{cfg.load} failed: {r.error}")
            elif not r.extras.get("completed_all", False):
                cell_errors.append(
                    f"{label}: {cfg.scheme}@{cfg.load} left flows incomplete")
        ok = [r for r in results if not isinstance(r, TaskFailure)]
        if label != "warm":
            events += sum(r.extras.get("events", 0) for r in ok)
        t1 = time.perf_counter()
        path = export.write_metrics_csv(tmp / f"{label}.csv", ok, extra_columns=extra)
        passes[f"{label}_export"] = time.perf_counter() - t1
        csvs[label] = path.read_bytes()

    registry = get_registry()
    one_pass("pool", cache_pool)
    grid_events = events
    fleet_start_wall = time.time()
    one_pass("fleet", ResultCache(tmp / "cache_fleet"), fleet_dir=tmp / "fleet")
    cache_stats = cache_pool.stats()
    warm = ResultCache(tmp / "cache_pool")
    one_pass("warm", warm)
    if not (csvs["pool"] == csvs["fleet"] == csvs["warm"]):
        errors.append("pool, fleet and warm CSVs differ")
    t_end = time.perf_counter()

    fleet = _fleet_timing(tmp / "fleet", fleet_start_wall)
    lookups = warm.hits + warm.misses
    return {
        "errors": errors,
        "cell_errors": cell_errors,
        "digest": hashlib.sha256(csvs["pool"]).hexdigest(),
        "times": {
            "setup_s": setup_s,
            "wall_s": t_end - t_start,
            "pool_pass_s": passes["pool"],
            "fleet_pass_s": passes["fleet"],
            "export_s": passes["pool_export"] + passes["fleet_export"]
            + passes["warm_export"],
            "fleet_cell_s": fleet["cell_s"],
            "fleet_first_claim_s": fleet["first_claim_s"],
        },
        "counts": {
            "events": events,
            "grid_events": grid_events,
            "cache_bytes": cache_stats.total_bytes,
            "warm_hit_ratio": warm.hits / lookups if lookups else 0.0,
            "reclaims": fleet["reclaims"],
            "retries": registry.counter("repro_runner_retries_total").total(),
            "runner_failed": registry.counter("repro_runner_tasks_total").value(
                kind="failed"),
        },
        "layers": tracer.report() if tracer is not None else {},
        "peak_rss_mb": _peak_rss_mb(),
        "windows": {k: windows[k] for k in ("pool", "fleet")},
    }
