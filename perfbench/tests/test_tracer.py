"""Tracer hygiene: passive, removable, exact and repeatable.

Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

import importlib
import json
import math
from pathlib import Path

import pytest

import run as bench
import tracer as layer_tracer
import workloads
from repro.experiments.common import ScenarioConfig, run_scenario
from tracer import SIM_LAYERS, LayerTracer, _LEVELS, _SCHEDULERS

SMALL = ScenarioConfig(scheme="tlb", n_short=20, n_long=1, n_paths=4,
                       hosts_per_leaf=21, short_window=0.02,
                       distinct_hosts=True, seed=3)


def _targets():
    """(owner, attribute) for everything the full tracer patches."""
    out = []
    for module_name, cls_name, attr, _ in _LEVELS["full"]:
        module = importlib.import_module(module_name)
        out.append((getattr(module, cls_name) if cls_name else module, attr))
    from repro.sim.engine import Simulator

    out += [(Simulator, name) for name in _SCHEDULERS]
    return out


def _traced_run(config=SMALL):
    with LayerTracer("full") as tracer:
        result = run_scenario(config)
    return tracer, result


def test_uninstall_restores_original_functions():
    originals = {(id(o), a): o.__dict__[a] for o, a in _targets()}
    tracer = LayerTracer("full").install()
    try:
        patched = [(o, a) for o, a in _targets()
                   if o.__dict__[a] is not originals[(id(o), a)]]
        assert len(patched) == len(originals)
    finally:
        tracer.uninstall()
    for owner, attr in _targets():
        assert owner.__dict__[attr] is originals[(id(owner), attr)], attr
    # an untraced run afterwards records nothing into the old tracer
    before = tracer.report()
    run_scenario(SMALL)
    assert tracer.report() == before


def test_self_times_sum_to_simulator_run_inclusive_time():
    tracer, _ = _traced_run()
    layers = tracer.report()
    inside = sum(layers[n]["self_s"] for n in SIM_LAYERS if n in layers)
    assert inside == pytest.approx(layers["sim"]["incl_s"], rel=1e-9, abs=1e-9)
    assert layers["net.port.enqueue"]["calls"] > 0
    assert layers["lb"]["calls"] > 0
    assert all(v["self_s"] >= -1e-9 for v in layers.values())


def test_call_counts_repeat_across_traced_runs():
    first, _ = _traced_run()
    second, _ = _traced_run()
    calls = lambda t: {k: v["calls"] for k, v in t.report().items()}  # noqa: E731
    assert calls(first) == calls(second)


def test_tracing_is_passive():
    _, traced = _traced_run()
    plain = run_scenario(SMALL)
    assert workloads.cell_digest(traced) == workloads.cell_digest(plain)


def test_handler_layer_follows_defining_module():
    from repro.core.granularity_calculator import GranularityCalculator
    from repro.net.port import Port
    from repro.sim.engine import Simulator
    from repro.sim.timers import PeriodicTimer

    assert layer_tracer.handler_layer(Port._transmission_done) == "net.port.tx"
    assert layer_tracer.handler_layer(print) == "other"
    timer = PeriodicTimer(Simulator(), 1.0, GranularityCalculator.compute)
    assert layer_tracer.handler_layer(timer._fire) == "core.timer"


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    tracer, result = _traced_run()
    layers = tracer.report()
    plain = {"import_s": 1.0, "layers": layers,
             "times": {"wall_s": 2.0, "setup_s": 0.5, "sim_run_s": 1.0},
             "counts": {"events": 10, "packets_sent": 5, "retransmits": 1}}
    traced = {"layers": layers, "times": {"wall_s": 3.0}}
    metrics = bench.per_layer("paper_cell", plain, traced)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(metrics)
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in metrics.values())


def test_every_layer_metric_is_described():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    described = json.loads((Path(bench.HERE) / "layers.json").read_text())
    assert sorted(described) == sorted(m["name"] for m in spec["per_layer"])
    workload_names = {w["name"] for w in spec["workloads"]}
    for name, entry in described.items():
        assert set(entry["on"]) <= workload_names, name
