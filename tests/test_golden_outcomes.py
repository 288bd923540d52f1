"""Golden outcomes: small seeded runs must reproduce byte-for-byte.

The hot path (kernel, ports, switch, balancer, transport) is tuned for
speed, and every such change must leave the simulated outcome exactly as
it was.  Each scenario below is digested the way ``perfbench`` digests a
cell — the exported metrics, then every ``PortStats`` counter of every
port, then the kernel event count — and compared with a digest recorded
before the hot path was last reworked.  A mismatch means the change
altered which events ran or in what order; re-record only for a change
that alters the model on purpose, and say why in CHANGES.md.

The trace counts pin the traced branch of the hot path as well: a run
with a :class:`~repro.obs.tracers.CountingTracer` installed must give the
same digest as the untraced run, and emit exactly the recorded number of
trace points of each kind.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.metrics.export import metrics_to_dict
from repro.obs.tracers import CountingTracer

SCENARIOS = {
    # TLB over DCTCP on a 4x4 leaf-spine: ECN marks, reordering, reroutes.
    "tlb_dctcp_4x4": ScenarioConfig(
        scheme="tlb", transport="dctcp", workload="poisson", n_leaves=4,
        n_paths=4, hosts_per_leaf=4, load=0.7, n_flows=40,
        truncate_tail=400_000, seed=3),
    # Incast into 64-packet buffers: drops, RTOs and loss recovery.
    "incast_64pkt": ScenarioConfig(
        scheme="tlb", workload="incast:fanin=16,period=5ms,size=64KB,requests=3",
        n_leaves=2, n_paths=4, hosts_per_leaf=16, buffer_packets=64, seed=5),
    # A link cut in drop mode, another paused in park mode, a loss burst.
    "faulted": ScenarioConfig(
        scheme="tlb", workload="static", n_short=30, n_long=2,
        long_size=500_000, n_paths=4, hosts_per_leaf=4, seed=2,
        faults="0.002:link_down:leaf0-spine1;0.012:link_up:leaf0-spine1;"
               "0.003:link_down:leaf1-spine2:park;0.009:link_up:leaf1-spine2;"
               "0.001:loss_start:leaf0-spine0:0.05;0.02:loss_stop:leaf0-spine0"),
}

#: name -> (digest, events, trace totals per kind)
GOLDEN = {
    "tlb_dctcp_4x4": (
        "0369e95a083b7b5522ef4b3212e678595fefe76b6d130fedef6dfe7dd9e57d98",
        104524,
        {"dequeue": 52160, "enqueue": 52160, "mark": 3321, "ooo": 331,
         "reroute": 14, "retransmit": 918},
    ),
    "incast_64pkt": (
        "1e029f927755fe662d7e08e1a2e4da166648ccda6a8ac9a2d6c7409e13c5ffcf",
        36052,
        {"dequeue": 17932, "drop": 36, "enqueue": 17932, "mark": 1212,
         "ooo": 102, "retransmit": 20, "rto": 11},
    ),
    "faulted": (
        "4bd1a96a8f7d8d7f55d7e3586c2dce4d3f60f16c3f4d4c92838fa53add23756a",
        35593,
        {"dequeue": 17674, "drop": 94, "enqueue": 17674, "link_down": 2,
         "link_up": 2, "loss_start": 1, "loss_stop": 1, "mark": 258,
         "ooo": 341, "reroute": 1, "retransmit": 48, "rto": 6},
    ),
}


def outcome_digest(result) -> str:
    """sha256 over the metrics, every port's counters and the event count."""
    h = hashlib.sha256()
    h.update(json.dumps(metrics_to_dict(result.metrics), sort_keys=True).encode())
    for key in sorted(result.net.ports):
        st = result.net.ports[key].stats
        h.update(f"{key}:{st.enqueued},{st.dropped},{st.transmitted},"
                 f"{st.bytes_enqueued},{st.bytes_transmitted},{st.ecn_marked},"
                 f"{st.busy_time!r};".encode())
    h.update(str(result.net.sim.events_processed).encode())
    return h.hexdigest()


def _port_counters(result) -> dict:
    return {
        key: (st.enqueued, st.dropped, st.transmitted, st.bytes_enqueued,
              st.bytes_transmitted, st.ecn_marked, st.busy_time)
        for key, st in ((k, p.stats) for k, p in result.net.ports.items())
    }


@pytest.fixture(scope="module")
def runs():
    """Each scenario once untraced and once under a CountingTracer."""
    out = {}
    for name, config in SCENARIOS.items():
        tracer = CountingTracer()
        out[name] = (run_scenario(config), run_scenario(config, tracer=tracer),
                     tracer)
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outcome_matches_golden(runs, name):
    plain, _, _ = runs[name]
    digest, events, _ = GOLDEN[name]
    assert plain.completed_all
    assert plain.net.sim.events_processed == events
    assert outcome_digest(plain) == digest


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traced_run_is_identical(runs, name):
    plain, traced, tracer = runs[name]
    assert _port_counters(traced) == _port_counters(plain)
    assert traced.net.sim.events_processed == plain.net.sim.events_processed
    assert outcome_digest(traced) == outcome_digest(plain)
    assert tracer.totals() == GOLDEN[name][2]


def test_scenarios_exercise_loss_paths(runs):
    """The golden set keeps covering drops, RTOs and both down modes."""
    incast, _, incast_trace = runs["incast_64pkt"]
    assert incast_trace.count("drop") > 0 and incast_trace.count("rto") > 0
    faulted, _, _ = runs["faulted"]
    modes = {ev.mode for ev in faulted.injector.schedule if ev.kind == "link_down"}
    assert modes == {"drop", "park"}
