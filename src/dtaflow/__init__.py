"""Dynamic traffic assignment toolkit: kinematic-wave network loading and a
fixed-point solver for route-and-departure-time user equilibria."""

from .network import (
    Link,
    Network,
    NetworkError,
    Node,
    ODPair,
    Path,
    TimeGrid,
    derive_fd,
    validate_network,
)
from .junctions import JunctionError, resolve_junction
from .dnl import run_dnl
from .delays import (
    PenaltyParams,
    arrival_penalty,
    effective_delay,
    truncation_sentinel,
)
from .solver import (
    SolverConfig,
    dual_residual,
    fixed_point_update,
    init_departures,
    od_gap,
    relative_gap,
    solve_dual,
    solve_due,
)

__all__ = [
    "Link", "Network", "NetworkError", "Node", "ODPair", "Path", "TimeGrid",
    "derive_fd", "validate_network",
    "JunctionError", "resolve_junction",
    "run_dnl",
    "PenaltyParams", "arrival_penalty", "effective_delay", "truncation_sentinel",
    "SolverConfig", "dual_residual", "fixed_point_update", "init_departures",
    "od_gap", "relative_gap", "solve_dual", "solve_due",
]
__version__ = "0.1.0"
