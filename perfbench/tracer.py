"""Layer tracer: times calls into the simulator's public functions from outside.

:class:`LayerTracer` replaces class and module attributes of ``repro`` with
timing wrappers and puts the originals back on :meth:`LayerTracer.uninstall`.
Nothing inside ``src/`` is edited.  Two levels:

``coarse``
    One wrapper per set-up stage (topology build, workload install, scheme
    attach, metrics finalize/export) plus ``Simulator.run``.  These fire a
    few hundred times per cell, so the untraced runs use this level to find
    the first ``Simulator.run`` call and the host time spent inside it.
``full``
    Adds ``ResultCache.key_for``/``put``/``get`` and the hot path: ``Port.enqueue``,
    ``Switch.receive``, ``Host.receive``, ``LoadBalancer.pick``,
    ``GranularityCalculator.compute``, ``TcpSender.handle``,
    ``TcpReceiver.handle``, and every handler passed to the ``Simulator``
    scheduling API.  A handler is attributed to the layer of the module
    that defines it.

Each layer keeps a call count, inclusive time and self time (inclusive
minus the time of wrapped children).  A call into the layer already on top
of the stack (e.g. ``super().pick``) is folded into the outer span.  Stats
live in memory; :meth:`LayerTracer.report` hands them out at the end.
"""

from __future__ import annotations

import importlib
from time import perf_counter

__all__ = ["LayerTracer", "SIM_LAYERS", "handler_layer"]

#: layers that run inside ``Simulator.run``; their self times sum to its
#: inclusive time
SIM_LAYERS = ("sim", "net.port.enqueue", "net.port.tx", "net.switch",
              "net.host", "lb", "lb.timer", "core", "core.timer",
              "transport.sender", "transport.receiver", "transport.timer",
              "other")

# (module, class or None, attribute, layer); class None = module function
_COARSE = (
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.experiments.common", None, "build_leaf_spine", "net.topology.build"),
    ("repro.experiments.common", None, "apply_asymmetry", "net.topology.build"),
    ("repro.experiments.common", None, "attach_scheme", "lb.attach"),
    ("repro.workload.generator", "PoissonWorkload", "install", "workload.install"),
    ("repro.workload.generator", "StaticWorkload", "install", "workload.install"),
    ("repro.workload.incast", "IncastWorkload", "install", "workload.install"),
    ("repro.workload.scenarios", "Scenario", "install", "workload.install"),
    ("repro.metrics.collector", "MetricsCollector", "finalize", "metrics.finalize"),
    ("repro.metrics.export", None, "write_metrics_csv", "metrics.export"),
)

_FULL = (
    ("repro.cache.store", "ResultCache", "key_for", "cache.key"),
    ("repro.cache.store", "ResultCache", "put", "cache.put"),
    ("repro.cache.store", "ResultCache", "get", "cache.get"),
    ("repro.net.port", "Port", "enqueue", "net.port.enqueue"),
    ("repro.net.switch", "Switch", "receive", "net.switch"),
    ("repro.net.host", "Host", "receive", "net.host"),
    ("repro.lb.base", "LoadBalancer", "pick", "lb"),
    ("repro.core.granularity_calculator", "GranularityCalculator", "compute",
     "core"),
    ("repro.transport.tcp", "TcpSender", "handle", "transport.sender"),
    ("repro.transport.receiver", "TcpReceiver", "handle", "transport.receiver"),
)

_LEVELS = {"coarse": _COARSE, "full": _COARSE + _FULL}

_SCHEDULERS = ("schedule", "call_later", "schedule_fast", "call_later_fast")

# handler module prefix -> layer; first match wins
_HANDLER_LAYERS = (
    ("repro.net.port", "net.port.tx"),
    ("repro.net.switch", "net.switch"),
    ("repro.net.host", "net.host"),
    ("repro.transport.", "transport.timer"),
    ("repro.core.", "core.timer"),
    ("repro.lb.", "lb.timer"),
)


def handler_layer(fn) -> str:
    """The layer a kernel-dispatched handler belongs to.

    A :class:`~repro.sim.timers.PeriodicTimer` tick is attributed to the
    module of the callback it drives (TLB's q_th update lives in
    ``repro.core``), not to the timer plumbing.
    """
    owner = getattr(fn, "__self__", None)
    callback = getattr(owner, "_fn", None)
    if callback is not None and type(owner).__name__ == "PeriodicTimer":
        fn = callback
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in _HANDLER_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class LayerTracer:
    """Install timing wrappers, collect per-layer stats, uninstall.

    ``stats[layer]`` is ``[calls, inclusive_s, self_s]``.  ``first_run_at``
    is the ``perf_counter`` reading of the first ``Simulator.run`` call.
    """

    def __init__(self, level: str = "coarse"):
        if level not in _LEVELS:
            raise ValueError(f"level must be one of {sorted(_LEVELS)}, got {level!r}")
        self.level = level
        self.stats: dict[str, list] = {}
        self.first_run_at: float | None = None
        # one entry per open span: [layer_stats, child_time]
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- stats ----------------------------------------------------------

    def _stat(self, layer: str) -> list:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = [0, 0.0, 0.0]
        return stat

    def report(self) -> dict[str, dict]:
        """``{layer: {"calls", "incl_s", "self_s"}}``, layers sorted."""
        return {layer: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                for layer, s in sorted(self.stats.items())}

    # -- wrappers -------------------------------------------------------

    def _span(self, layer: str, fn):
        """``fn`` timed as one span of ``layer``."""
        stat = self._stat(layer)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is stat:
                return fn(*args, **kwargs)
            frame = [stat, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__qualname__ = getattr(fn, "__qualname__", "traced")
        traced._perfbench_layer = layer
        return traced

    def _run_span(self, fn):
        """``Simulator.run`` wrapper that also stamps the first call."""
        traced = self._span("sim", fn)
        tracer = self

        def run(sim, *args, **kwargs):
            if tracer.first_run_at is None:
                tracer.first_run_at = perf_counter()
            return traced(sim, *args, **kwargs)

        run.__wrapped__ = fn
        run._perfbench_layer = "sim"
        return run

    def _dispatch(self, stat, fn, *args):
        """Trampoline the kernel calls in place of a wrapped handler."""
        stack = self._stack
        frame = [stat, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def _scheduler(self, fn):
        """A scheduling method that routes handlers through the trampoline.

        Handlers that are already wrapped (``Switch.receive`` bound to a
        switch) are passed through untouched so they are counted once.
        """
        dispatch = self._dispatch
        stat_for = self._stat

        def schedule(sim, when, handler, *args):
            if getattr(handler, "_perfbench_layer", None) is not None:
                return fn(sim, when, handler, *args)
            return fn(sim, when, dispatch, stat_for(handler_layer(handler)),
                      handler, *args)

        schedule.__wrapped__ = fn
        return schedule

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = _LEVELS[self.level]
        for module_name, cls_name, attr, layer in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._run_span(original) if layer == "sim"
                        else self._span(layer, original))
        if self.level == "full":
            from repro.sim.engine import Simulator

            for name in _SCHEDULERS:
                self._patch(Simulator, name, self._scheduler(Simulator.__dict__[name]))
        return self

    def uninstall(self) -> None:
        """Put every original attribute back, last patch first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
