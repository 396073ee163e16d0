"""Junction flow resolution from demands, supplies and split fractions.

The model is a FIFO diverge combined with a priority merge: each outgoing
link's supply limits the oriented demand routed to it, the worst movement
throttles its whole incoming link (FIFO), and when a congested merge has
unequal incoming priorities the supply is rationed by priority with
redistribution of unused shares. resolve_junction applies it, with input
checks, to one junction; resolve_network applies it to every junction of
a network at once, as the loader does at each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

_EPS = 1e-12


class JunctionError(ValueError):
    """Raised when junction inputs are internally inconsistent."""


def _priority_allocate(
    total: float, demands: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Ration `total` among demanders proportionally to weights, redistributing
    unused shares until a fixed point (at most len(demands) rounds)."""
    m = len(demands)
    alloc = np.zeros(m)
    residual = demands.astype(float).copy()
    remaining = float(total)
    for _ in range(m):
        hungry = residual > _EPS
        if remaining <= _EPS or not hungry.any():
            break
        w = np.where(hungry, weights, 0.0)
        wsum = w.sum()
        if wsum <= _EPS:
            w = hungry.astype(float)
            wsum = w.sum()
        offer = remaining * w / wsum
        take = np.minimum(offer, residual)
        alloc += take
        residual -= take
        remaining -= take.sum()
        if np.all(offer - take <= _EPS):
            break  # every offer fully consumed: proportional split is final
    return alloc


def resolve_junction(
    demands, supplies, priorities, alpha
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve (outflows per incoming, inflows per outgoing).

    demands: veh/s per incoming link (incl. virtual source); supplies: veh/s
    per outgoing link (incl. virtual sink); priorities: merge weights per
    incoming link, summing to 1; alpha[i, j]: share of incoming link i's exit
    flow headed for outgoing link j (rows without demand may be zero).

    Guarantees: flow conservation (sum out == sum in), feasibility
    (f_out <= D, f_in <= S), and reduction to min(D, S) on a 1x1 node.
    """
    D = np.asarray(demands, dtype=float)
    S = np.asarray(supplies, dtype=float)
    pri = np.asarray(priorities, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    # written so that NaN fails every check
    if not (np.all(D >= 0) and np.all(S >= 0) and np.all(pri >= 0)):
        raise JunctionError("junction demands/supplies/priorities must be >= 0")
    if not abs(pri.sum() - 1.0) <= 1e-12:
        raise JunctionError(f"priorities sum to {pri.sum()}, expected 1")
    if alpha.ndim != 2:
        raise JunctionError("distribution matrix must be 2-D")
    if not np.all((alpha >= -_EPS) & (alpha <= 1 + 1e-9)):
        raise JunctionError("split fractions must lie in [0, 1]")
    m, n = alpha.shape
    if len(D) != m or len(S) != n:
        raise JunctionError("shape mismatch between demands/supplies and matrix")
    sums = alpha.sum(axis=1)
    for i in np.flatnonzero(D > _EPS):
        if not abs(sums[i] - 1.0) <= 1e-6:
            raise JunctionError(
                f"distribution row {i} sums to {sums[i]:.9f} with positive demand"
            )

    oriented = alpha.T @ D  # demand aimed at each outgoing link
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta = np.where(oriented > _EPS, np.minimum(1.0, S / oriented), 1.0)

    # ration by priority only at a congested merge: an exit short of supply
    # whose feeders (movements into it above 1e-12 of the largest) differ in
    # priority
    equal_pri = True
    for j in np.flatnonzero(beta < 1.0 - _EPS):
        move = alpha[:, j] * D
        equal_pri &= np.ptp(pri[move > 1e-12 * move.max()]) <= 1e-12

    if equal_pri:
        gamma = np.ones(m)
        for i in range(m):
            used = alpha[i] > _EPS
            if used.any():
                gamma[i] = beta[used].min()
    else:
        gamma = _ration_by_priority(D, S, pri, alpha)

    f_out = gamma * D
    f_in = alpha.T @ f_out
    return f_out, f_in


def _ration_by_priority(D: np.ndarray, S: np.ndarray, pri: np.ndarray,
                        alpha: np.ndarray) -> np.ndarray:
    """Service ratios of the inputs of a congested merge whose feeders differ
    in priority: each exit short of supply rations it by priority, and an
    input is throttled by its worst movement, until no exit is overfilled."""
    m, n = alpha.shape
    gamma = np.ones(m)
    for _ in range(m):
        f_out = gamma * D
        f_in = alpha.T @ f_out
        violated = [j for j in range(n) if f_in[j] > S[j] * (1 + 1e-12) + _EPS]
        if not violated:
            break
        for j in violated:
            move = alpha[:, j] * D  # movement demand i -> j at full service
            alloc = _priority_allocate(S[j], move, pri)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(move > _EPS, alloc / move, 1.0)
            gamma = np.minimum(gamma, ratio)
    return gamma


# -- whole-network resolution -------------------------------------------------


@dataclass(frozen=True)
class Movements:
    """The movements of every junction of a network.

    Inputs and outputs are numbered network-wide, and each belongs to one of
    `n_junctions` junctions. A movement is an (input, output) pair that flow
    can take; movements are listed in ascending (input, output) order.
    Priorities are checked here, once, as resolve_junction checks them.
    """

    src: np.ndarray  # input of each movement
    dst: np.ndarray  # output of each movement
    in_junction: np.ndarray  # junction of each input
    out_junction: np.ndarray  # junction of each output
    priority: np.ndarray  # merge weight of each input, summing to 1 per junction
    n_junctions: int
    movers: np.ndarray = field(init=False)  # inputs that have a movement
    first: np.ndarray = field(init=False)  # index of each mover's first movement

    def __post_init__(self):
        if not np.all(self.priority >= 0):  # NaN fails too
            raise JunctionError("junction demands/supplies/priorities must be >= 0")
        sums = np.bincount(self.in_junction, self.priority, minlength=self.n_junctions)
        fed = np.bincount(self.in_junction, minlength=self.n_junctions) > 0
        for j in np.flatnonzero(fed & ~(np.abs(sums - 1.0) <= 1e-12)):
            raise JunctionError(f"priorities sum to {sums[j]}, expected 1")
        first = np.flatnonzero(np.diff(self.src, prepend=-1))
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "movers", self.src[first])


def resolve_network(
    movements: Movements, demands, supplies, alpha
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every junction at once: (outflow per input, inflow per output).

    demands: veh/s per input; supplies: veh/s per output (a sink's is inf);
    alpha: per movement, the share of its input's exit flow that takes it.
    Each junction whose demands sum above 1e-12 follows resolve_junction's
    rule, with the same input checks; the other junctions pass nothing. A
    junction with a congested exit whose feeders differ in priority is
    rationed by resolve_junction's own priority kernel; all others are
    resolved in one array pass.
    """
    mv = movements
    D = np.asarray(demands, dtype=float)
    S = np.asarray(supplies, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    m, n = len(mv.in_junction), len(mv.out_junction)
    if D.shape != (m,) or S.shape != (n,) or alpha.shape != mv.src.shape:
        raise JunctionError("shape mismatch between demands/supplies and matrix")
    # written so that NaN fails every check
    if not ((D >= 0).all() and (S >= 0).all()):
        raise JunctionError("junction demands/supplies/priorities must be >= 0")
    if not ((alpha >= -_EPS) & (alpha <= 1 + 1e-9)).all():
        raise JunctionError("split fractions must lie in [0, 1]")
    sums = np.bincount(mv.src, alpha, minlength=m)
    bad = (D > _EPS) & ~(np.abs(sums - 1.0) <= 1e-6)
    if bad.any():
        i = bad.argmax()
        raise JunctionError(
            f"distribution row {i} sums to {sums[i]:.9f} with positive demand"
        )

    busy = np.bincount(mv.in_junction, D, minlength=mv.n_junctions) > _EPS
    D = np.where(busy[mv.in_junction], D, 0.0)
    move = alpha * D[mv.src]  # movement demand at full service
    oriented = np.bincount(mv.dst, move, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta = np.where(oriented > _EPS, np.minimum(1.0, S / oriented), 1.0)
    gamma = np.ones(m)
    if mv.first.size:
        gamma[mv.movers] = np.minimum.reduceat(
            np.where(alpha > _EPS, beta[mv.dst], 1.0), mv.first)

    congested = beta < 1.0 - _EPS
    if congested.any():
        # feeders of a congested exit: movements above 1e-12 of its largest
        into = np.flatnonzero(congested[mv.dst])
        top = np.zeros(n)
        np.maximum.at(top, mv.dst[into], move[into])
        fed = into[move[into] > 1e-12 * top[mv.dst[into]]]
        pri = mv.priority[mv.src[fed]]
        hi, lo = np.full(n, -np.inf), np.full(n, np.inf)
        np.maximum.at(hi, mv.dst[fed], pri)
        np.minimum.at(lo, mv.dst[fed], pri)
        mixed = np.bincount(mv.out_junction[hi - lo > 1e-12], minlength=mv.n_junctions)
        for j in np.flatnonzero(mixed):
            ins = np.flatnonzero(mv.in_junction == j)
            outs = np.flatnonzero(mv.out_junction == j)
            own = np.flatnonzero(mv.in_junction[mv.src] == j)
            a = np.zeros((len(ins), len(outs)))
            a[np.searchsorted(ins, mv.src[own]),
              np.searchsorted(outs, mv.dst[own])] = alpha[own]
            gamma[ins] = _ration_by_priority(D[ins], S[outs], mv.priority[ins], a)

    f_out = gamma * D
    return f_out, np.bincount(mv.dst, alpha * f_out[mv.src], minlength=n)


# -- model registry -------------------------------------------------------------

# The loader calls resolve_network and does not consult this registry; it
# stays because bench/tracing.py wraps the registered model by name.

# model(demands, supplies, priorities, alpha) -> (f_out, f_in)
JunctionModel = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                         Tuple[np.ndarray, np.ndarray]]

_MODELS: Dict[str, JunctionModel] = {"fifo_priority": resolve_junction}


def register_junction_model(name: str, model: JunctionModel) -> None:
    _MODELS[name] = model


def get_junction_model(name: str) -> JunctionModel:
    try:
        return _MODELS[name]
    except KeyError:
        raise JunctionError(
            f"unknown junction model {name!r}; available: {sorted(_MODELS)}"
        ) from None
