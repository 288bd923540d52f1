"""Scheme registry: build and attach balancers by name.

Experiments refer to schemes by the paper's names (``"ecmp"``, ``"rps"``,
``"presto"``, ``"letflow"``, ``"tlb"``, ...).  The registry maps each name
to a factory ``(seed, net, switch, params) -> LoadBalancer`` so that every
switch gets its own instance with its own derived seed — switch-local
state and decoupled randomness, as on real hardware.

TLB registers itself here when :mod:`repro.core` is imported;
:func:`attach_scheme` imports it lazily so users never have to care.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import SchemeError
from repro.lb.base import LoadBalancer
from repro.lb.conga import CongaLiteBalancer
from repro.lb.drill import DrillBalancer
from repro.lb.ecmp import EcmpBalancer
from repro.lb.flowbender import FlowBenderLiteBalancer
from repro.lb.granularity import FixedGranularityBalancer
from repro.lb.hermes import HermesLiteBalancer
from repro.lb.letflow import LetFlowBalancer
from repro.lb.presto import PrestoBalancer
from repro.lb.rps import RpsBalancer
from repro.lb.wcmp import WcmpBalancer
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.switch import Switch
    from repro.net.topology import Network

__all__ = [
    "SCHEMES", "register_scheme", "attach_scheme", "available_schemes",
    "build_scheme", "check_scheme",
]

#: name -> factory(seed, net, switch, params) -> LoadBalancer
SCHEMES: dict[str, Callable[..., LoadBalancer]] = {}


def register_scheme(name: str, factory: Callable[..., LoadBalancer]) -> None:
    """Register a factory under ``name`` (overwrites silently so tests can
    stub schemes)."""
    SCHEMES[name] = factory


def _simple(cls):
    """Adapt a plain ``cls(seed=..., **params)`` balancer to the factory
    signature (ignores net/switch)."""

    def factory(seed: int, net: "Network", switch: "Switch", params: dict) -> LoadBalancer:
        return cls(seed=seed, **params)

    return factory


register_scheme("ecmp", _simple(EcmpBalancer))
register_scheme("rps", _simple(RpsBalancer))
register_scheme("presto", _simple(PrestoBalancer))
register_scheme("letflow", _simple(LetFlowBalancer))
register_scheme("drill", _simple(DrillBalancer))
register_scheme("conga", _simple(CongaLiteBalancer))
register_scheme("wcmp", _simple(WcmpBalancer))
register_scheme("fixed", _simple(FixedGranularityBalancer))
register_scheme("hermes", _simple(HermesLiteBalancer))
register_scheme("flowbender", _simple(FlowBenderLiteBalancer))


def _ensure_builtins_loaded() -> None:
    """Import the TLB package so its registration side effect runs."""
    if "tlb" not in SCHEMES:
        import repro.core  # noqa: F401  (registers "tlb" and variants)


def available_schemes() -> list[str]:
    """Sorted names of all registered schemes."""
    _ensure_builtins_loaded()
    return sorted(SCHEMES)


def check_scheme(name: str) -> None:
    """Raise :class:`SchemeError` unless ``name`` is a registered scheme."""
    _ensure_builtins_loaded()
    if name not in SCHEMES:
        raise SchemeError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}")


def build_scheme(name: str, net: "Network", switch: "Switch", **params) -> LoadBalancer:
    """Build one balancer instance for one switch."""
    check_scheme(name)
    seed = derive_seed(net.rngs.root_seed, f"lb:{name}:{switch.name}")
    return SCHEMES[name](seed, net, switch, dict(params))


def attach_scheme(net: "Network", name: str, **params) -> dict[str, LoadBalancer]:
    """Attach a fresh instance of scheme ``name`` to every switch that
    faces a multi-path choice.

    Switches whose every route has a single candidate port (the spines of
    a leaf–spine fabric) never consult a balancer, so none is attached —
    this matters for schemes with periodic timers (TLB), whose idle ticks
    would otherwise dominate the event count.  Returns the instances
    keyed by switch name, so experiments can read their counters.
    """
    instances: dict[str, LoadBalancer] = {}
    for sw_name, sw in net.switches.items():
        if not any(len(ports) > 1 for ports in sw.routes.values()):
            continue
        lb = build_scheme(name, net, sw, **params)
        sw.attach_lb(lb)
        instances[sw_name] = lb
    return instances
