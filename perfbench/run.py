"""The repository benchmark: seeded workloads timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 20 --trace 0

Each iteration runs in a fresh interpreter (``perfbench/child.py``), the way
a user's ``repro run`` or ``repro sweep`` would.  ``--trace 0`` repeats the
workload, at least twice and until ``--seconds`` have passed, and reports
the median of every end-to-end metric over the iterations; ``--trace 1``
makes one untraced and one traced iteration and reports the per-layer
metrics.  The gated host times (``setup_s``, ``events_per_s``) are given
at a reference host speed measured alongside the work (see
:mod:`speed`).  The metric names come from ``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is the JSON result.

A run is correct when no iteration raised, left flows incomplete or wrote a
different outcome digest than the others, and, where
``perfbench/reference.json`` holds a digest for the workload and seed, the
digest matches it.  ``--record`` makes one iteration and stores its digest
there instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import CELLS, SWEEP_ATTEMPTS, SWEEP_WORKERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: a run ends within this many seconds, whatever ``--seconds`` says
RUN_LIMIT_S = 170.0
#: untraced iterations per run, at least; more while ``--seconds`` last
MIN_ITERATIONS = 2


# -- machine stamp --------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over ``src/repro/**/*.py`` (path and content), for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_stamp(traced: bool) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "source": _source_digest(),
        "traced": traced,
    }


# -- iterations -------------------------------------------------------------

def run_child(workload: str, seed: int, level: str, tmp: Path,
              deadline: float) -> dict:
    """One iteration in a fresh interpreter; its result dict.

    The child runs in its own process group, so a child still running at
    ``deadline`` (a ``perf_counter`` reading) is killed together with any
    worker processes it started.
    """
    work = Path(tempfile.mkdtemp(prefix="iter-", dir=tmp))
    out = work / "result.json"
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t_start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), level,
         repr(t_start), str(out), str(work)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - t_start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stderr = "killed at the run's time limit"
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        result = {"errors": [f"child exited {proc.returncode} without a result:"
                             f" {stderr.strip()[-2000:]}"]}
    if proc.returncode != 0:
        result.setdefault("errors", []).append(f"child exit code {proc.returncode}")
    shutil.rmtree(work, ignore_errors=True)
    return result


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


def check(workload: str, seed: int,
          results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over a run's iterations.

    An iteration that raised or whose digest is off fails all its cells; a
    sweep cell that failed on its own fails only itself.
    """
    per_iter = SWEEP_ATTEMPTS if workload == "fig10_sweep" else 1
    expected = load_reference().get(workload, {}).get(str(seed))
    digests = {r.get("digest") for r in results}
    failed = 0
    problems: list[str] = []
    for i, r in enumerate(results):
        errors = list(r.get("errors", []))
        if expected is not None and r.get("digest") != expected:
            errors.append(f"outcome digest {r.get('digest')} != reference {expected}")
        elif len(digests) > 1:
            errors.append(f"outcome digest {r.get('digest')} differs between iterations")
        cell_errors = r.get("cell_errors", [])
        problems += [f"iteration {i}: {e}" for e in errors + cell_errors]
        failed += per_iter if errors else min(per_iter, len(cell_errors))
    return per_iter * len(results), failed, problems


# -- metrics ------------------------------------------------------------------

#: every end-to-end metric the human table shows, with its unit; the gated
#: subset is ``end_to_end`` in BENCHMARK.json
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "pkts_per_s": "pkt/s",
    "pool_pass_s": "s",
    "fleet_pass_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
    "short_afct_ms": "ms (simulated)",
    "deadline_miss_pct": "% (simulated)",
    "long_goodput_mbps": "Mbps (simulated)",
}


def end_to_end(workload: str, results: list[dict]) -> dict:
    """Every metric of :data:`E2E_UNITS`, the median over the run's
    iterations; ``None`` where the workload has no such quantity.

    ``setup_s``, ``events_per_s`` and ``pkts_per_s`` count host seconds at
    the reference speed: a window's host time divided by its slowness (see
    :mod:`speed`).  The throughput window is ``Simulator.run`` for the
    cells and the cold pool pass for the sweep.
    """
    def med(fn):
        return statistics.median(fn(r) for r in results)

    def ref_s(r, time_key, window):
        return r["times"][time_key] / r["slowness"][window]

    out = dict.fromkeys(E2E_UNITS)
    out.update({
        "setup_s": med(lambda r: ref_s(r, "setup_s", "setup")),
        "wall_s": med(lambda r: r["times"]["wall_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    })
    if workload in CELLS:
        out["events_per_s"] = med(
            lambda r: r["counts"]["events"] / ref_s(r, "sim_run_s", "sim"))
        out["pkts_per_s"] = med(
            lambda r: r["counts"]["transmitted"] / ref_s(r, "sim_run_s", "sim"))
        out.update(results[0]["model"])
    else:
        out["events_per_s"] = med(
            lambda r: r["counts"]["grid_events"] / ref_s(r, "pool_pass_s", "pool"))
        out["pool_pass_s"] = med(lambda r: r["times"]["pool_pass_s"])
        out["fleet_pass_s"] = med(lambda r: r["times"]["fleet_pass_s"])
    return out


def per_layer(workload: str, plain: dict, traced: dict) -> dict:
    """Every per-layer metric from one untraced and one traced iteration.

    Set-up stages, counts and ``Simulator.run`` time come from the untraced
    iteration (its coarse wrappers fire a few hundred times); self times and
    hot-path call counts come from the traced one.  The sweep's untraced
    iteration carries no wrappers and its traced one covers the parent
    process only, so its set-up stages and simulation layers read 0, like
    every layer a workload does not reach.
    """
    layers = traced.get("layers", {})
    coarse = plain.get("layers") or layers
    counts = plain["counts"]
    times = plain["times"]

    def incl(name, src=coarse):
        return src.get(name, {}).get("incl_s", 0.0)

    def self_s(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    enqueue_calls = calls("net.port.enqueue")
    sim_run_s = incl("sim")
    events = counts.get("grid_events", counts["events"])
    m = {
        "import.s": plain["import_s"],
        "net.topology.build_s": incl("net.topology.build"),
        "workload.install_s": incl("workload.install"),
        "workload.flows": counts.get("flows", 0),
        "lb.attach_s": incl("lb.attach"),
        "sim.run_s": sim_run_s,
        "sim.events": events,
        "sim.events_per_s": events / sim_run_s if sim_run_s else 0.0,
        "sim.events_per_pkt": events / enqueue_calls if enqueue_calls else 0.0,
        "sim.self_s": self_s("sim"),
        "net.port.enqueue_calls": enqueue_calls,
        "net.port.self_s": self_s("net.port.enqueue", "net.port.tx"),
        "net.port.drops": counts.get("drops", 0),
        "net.port.ecn_marks": counts.get("ecn_marks", 0),
        "net.switch.receive_calls": calls("net.switch"),
        "net.switch.self_s": self_s("net.switch"),
        "net.host.receive_calls": calls("net.host"),
        "net.host.self_s": self_s("net.host"),
        "lb.pick_calls": calls("lb"),
        "lb.self_s": self_s("lb", "lb.timer"),
        "lb.long_reroutes": counts.get("long_reroutes", 0),
        "core.qth_updates": calls("core"),
        "core.self_s": self_s("core", "core.timer"),
        "transport.sender_calls": calls("transport.sender"),
        "transport.sender_self_s": self_s("transport.sender"),
        "transport.receiver_calls": calls("transport.receiver"),
        "transport.receiver_self_s": self_s("transport.receiver"),
        "transport.timer_self_s": self_s("transport.timer"),
        "transport.retransmits": counts.get("retransmits", 0),
        "transport.timeouts": counts.get("timeouts", 0),
        "transport.retx_ratio": (counts["retransmits"] / counts["packets_sent"]
                                 if counts.get("packets_sent") else 0.0),
        "metrics.finalize_s": incl("metrics.finalize"),
        "metrics.export_s": times.get("export_s", incl("metrics.export")),
        "cache.key_s": self_s("cache.key"),
        "cache.put_s": self_s("cache.put"),
        "cache.get_s": self_s("cache.get"),
        "cache.bytes": counts.get("cache_bytes", 0),
        "cache.hit_ratio": counts.get("warm_hit_ratio", 0.0),
        "experiments.runner.overhead_s": 0.0,
        "experiments.runner.retries": counts.get("retries", 0),
        "experiments.runner.failed": counts.get("runner_failed", 0),
        "fleet.overhead_s": 0.0,
        "fleet.first_claim_s": times.get("fleet_first_claim_s") or 0.0,
        "fleet.reclaims": counts.get("reclaims", 0),
        "trace.overhead_ratio": traced["times"]["wall_s"] / times["wall_s"],
    }
    if workload == "fig10_sweep":
        per_worker_cell_s = times["fleet_cell_s"] / SWEEP_WORKERS
        m["experiments.runner.overhead_s"] = times["pool_pass_s"] - per_worker_cell_s
        m["fleet.overhead_s"] = times["fleet_pass_s"] - per_worker_cell_s
    return m


# -- output -------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outcome digest in reference.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full"
              " checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        return _measure(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, spec: dict, tmp: Path) -> int:
    traced = bool(args.trace)
    stamp = machine_stamp(traced)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print("# machine " + json.dumps(stamp, sort_keys=True))

    t0 = time.perf_counter()
    deadline = t0 + RUN_LIMIT_S
    if args.record:
        result = run_child(args.workload, args.seed, "untraced", tmp, deadline)
        if result.get("errors") or not result.get("digest"):
            print("error: " + "; ".join(result.get("errors", ["no digest"])),
                  file=sys.stderr)
            return 1
        ref = load_reference()
        ref.setdefault(args.workload, {})[str(args.seed)] = result["digest"]
        REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
        print(f"recorded {args.workload} seed {args.seed}: {result['digest']}")
        return 0

    plain: list[dict] = []

    def child(level: str) -> dict:
        return run_child(args.workload, args.seed, level, tmp, deadline)

    if traced:
        plain.append(child("untraced"))
        runs = plain + [child("traced")]
    else:
        # No iteration starts that could not finish before the deadline.
        while True:
            started = time.perf_counter()
            plain.append(child("untraced"))
            now = time.perf_counter()
            if now + 2 * (now - started) > deadline or (
                    len(plain) >= MIN_ITERATIONS and now - t0 >= args.seconds):
                break
        runs = plain
    attempted, failed, problems = check(args.workload, args.seed, runs)
    for p in problems:
        print("# FAIL " + p.rstrip().replace("\n", "\n#   "))

    metrics: dict = {}
    plain_ok = [r for r in plain if "times" in r]
    if plain_ok and (not traced or "times" in runs[1]):
        plain = plain_ok
        e2e = end_to_end(args.workload, plain)
        e2e["failed_share"] = failed / attempted
        print(f"# iterations={len(plain)} untraced"
              + (", 1 traced" if traced else ""))
        for r in plain:
            print("# iteration " + json.dumps({
                "times": {k: round(v, 4) for k, v in r["times"].items()
                          if k in ("setup_s", "sim_run_s", "pool_pass_s")},
                "slowness": {k: round(v, 4) for k, v in r["slowness"].items()}}))
        for name, value in e2e.items():
            print(f"# e2e {name:<20} {_fmt(value):>14} {E2E_UNITS[name]}")
        if traced:
            layer = per_layer(args.workload, plain[0], runs[1])
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, value in layer.items():
                print(f"# layer {name:<30} {_fmt(value):>14} {units.get(name, '')}")
            wanted, source = spec["per_layer"], layer
        else:
            wanted, source = spec["end_to_end"], e2e
        metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
