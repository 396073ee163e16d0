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
    fd_flow,
    validate_network,
)
from .junctions import (
    DistributionMatrix,
    JunctionError,
    JunctionIO,
    register_junction_model,
    resolve_junction,
)
from .dnl import (
    DNLError,
    DNLResult,
    LinkState,
    OriginState,
    exit_time,
    link_demand,
    link_supply,
    origin_demand,
    propagate_composition,
    run_dnl,
    step_origin_queue,
)
from .delays import (
    DelayProfile,
    PenaltyParams,
    arrival_penalty,
    effective_delay,
    truncation_sentinel,
)
from .solver import (
    SolveReport,
    SolverConfig,
    dual_residual,
    fixed_point_update,
    init_departures,
    od_gap,
    relative_gap,
    solve_dual,
    solve_due,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
