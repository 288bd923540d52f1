"""One benchmark iteration in a fresh interpreter.

Started by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``::

    python3 perfbench/child.py WORKLOAD SEED LEVEL T_START OUT_JSON TMP_DIR

``LEVEL`` is ``untraced`` or ``traced``.  A cell pins itself to one CPU.
Untraced iterations run a :class:`~speed.SpeedSampler`, started before
the package import, and untraced cells carry only the coarse wrappers (a
few hundred calls); traced iterations carry the full set of wrappers (see
:mod:`tracer`) and no sampler.  ``T_START`` is the parent's ``time.perf_counter()`` just
before it spawned this process; on Linux that clock is system-wide
``CLOCK_MONOTONIC``, so interpreter start-up counts toward ``setup_s``.
The result is written as JSON to ``OUT_JSON``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path

import speed


def main(argv: list[str]) -> int:
    name, seed, level, t_start, out, tmp = argv
    seed, t_start, tmp = int(seed), float(t_start), Path(tmp)
    if name != "fig10_sweep":
        # a cell is single-threaded: keep it and the sampler on one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = speed.SpeedSampler().start() if level == "untraced" else None
    import repro.experiments  # noqa: F401  (timed: the package import)

    import_s = time.perf_counter() - t_start
    import tracer as layer_tracer
    import workloads

    tracer = None
    try:
        if name in workloads.CELLS:
            tracer = layer_tracer.LayerTracer(
                "full" if level == "traced" else "coarse").install()
            result = workloads.run_cell(name, seed, tracer, t_start, tmp)
        else:
            if level == "traced":
                tracer = layer_tracer.LayerTracer("full").install()
            result = workloads.run_sweep(seed, t_start, tmp, tracer)
    except Exception:
        result = {"errors": [traceback.format_exc()]}
    finally:
        if tracer is not None:
            tracer.uninstall()
    if sampler is not None and "times" in result:
        sampler.stop()
        windows = result.pop("windows")
        windows["setup"] = (t_start, t_start + result["times"]["setup_s"])
        result["slowness"] = {k: sampler.slowness(*w) for k, w in windows.items()}
    result["import_s"] = import_s
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
