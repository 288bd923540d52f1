"""The host-speed sampler that puts throughputs at a reference speed."""

import time

import pytest

import run as bench
from speed import INTERVAL_S, REFERENCE_S, SpeedSampler, snippet


def test_snippet_takes_positive_cpu_time():
    assert snippet() > 0.0


def test_slowness_is_mean_snippet_time_over_reference():
    sampler = SpeedSampler().start()
    t0 = time.perf_counter()
    time.sleep(6 * INTERVAL_S)
    t1 = time.perf_counter()
    sampler.stop()
    inside = [dt for t, dt in sampler.samples if t0 <= t <= t1]
    assert len(inside) >= 3
    assert sampler.slowness(t0, t1) == pytest.approx(
        sum(inside) / len(inside) / REFERENCE_S)
    assert not sampler._thread.is_alive()


def test_window_without_samples_is_an_error():
    with pytest.raises(ValueError):
        SpeedSampler().slowness(0.0, 1.0)


def test_host_times_are_given_at_reference_speed():
    def iteration(sim_run_s, slowness):
        return {"times": {"setup_s": 0.5 * slowness, "wall_s": 5.0,
                          "sim_run_s": sim_run_s},
                "counts": {"events": 1000, "transmitted": 400},
                "slowness": {"sim": slowness, "setup": slowness},
                "peak_rss_mb": 100.0,
                "model": {}}

    # the same work on a host twice as slow reads the same
    fast = bench.end_to_end("paper_cell", [iteration(2.0, 1.0)])
    slow = bench.end_to_end("paper_cell", [iteration(4.0, 2.0)])
    assert fast["events_per_s"] == slow["events_per_s"] == pytest.approx(500.0)
    assert fast["pkts_per_s"] == slow["pkts_per_s"] == pytest.approx(200.0)
    assert fast["setup_s"] == slow["setup_s"] == pytest.approx(0.5)
