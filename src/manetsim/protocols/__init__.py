from .base import RoutingProtocol, connect
from .dsdv import DsdvRouter
from .aodv import AodvRouter
from .dsr import DsrRouter

PROTOCOLS = {
    "DSDV": DsdvRouter,
    "AODV": AodvRouter,
    "DSR": DsrRouter,
}


def make_router(name, node_id, sim, radio, trace, rng):
    """The router of protocol name, which ScenarioConfig.check has accepted."""
    return PROTOCOLS[name.upper()](node_id, sim, radio, trace, rng)


__all__ = ["RoutingProtocol", "DsdvRouter", "AodvRouter", "DsrRouter",
           "PROTOCOLS", "connect", "make_router"]
