"""Junction flow resolution from demands, supplies and split fractions.

The model is a FIFO diverge combined with a priority merge: each outgoing
link's supply limits the oriented demand routed to it, and the worst
movement throttles its whole incoming link (FIFO). When the feeders of a
congested exit differ in priority, each exit of that junction that full
demand overfills rations its supply among the movements into it by
priority, with redistribution of unused shares, and each input again keeps
its worst ratio. resolve_network applies it, with input checks, to every
junction of a network at once on one table of movements, as the loader does
at each step; resolve_junction is the one-junction case of resolve_network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

_EPS = 1e-12
# The same constants as array operands of the per-step arithmetic: numpy 2
# takes a 0-d array as a ufunc operand about 0.3 us faster than a Python
# float, with the same result
_EPS_A, _BELOW_ONE, _ZERO, _ONE = (np.array(x) for x in (_EPS, 1.0 - _EPS, 0.0, 1.0))


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


# -- whole-network resolution -------------------------------------------------


@dataclass(frozen=True)
class Movements:
    """The movements of every junction of a network.

    Inputs and outputs are numbered network-wide, and each belongs to one of
    `n_junctions` junctions. A movement is an (input, output) pair that flow
    can take; movements are listed in ascending (input, output) order.
    Priorities are checked here, once per table, and the feeders of each
    output whose inputs differ in priority are tabulated: only a jam at such
    an output can make its junction ration by priority.
    """

    src: np.ndarray  # input of each movement
    dst: np.ndarray  # output of each movement
    in_junction: np.ndarray  # junction of each input
    out_junction: np.ndarray  # junction of each output
    priority: np.ndarray  # merge weight of each input, summing to 1 per junction
    n_junctions: int
    movers: np.ndarray = field(init=False)  # inputs that have a movement
    first: np.ndarray = field(init=False)  # index of each mover's first movement
    mixed: np.ndarray = field(init=False)  # outputs fed by inputs of differing priority
    feeders: np.ndarray = field(init=False)  # per mixed output, its movements, padded
    feeding: np.ndarray = field(init=False)  # where `feeders` holds a movement
    feeder_priority: np.ndarray = field(init=False)  # priority of each feeder's input

    def __post_init__(self):
        if not np.all(self.priority >= 0):  # NaN fails too
            raise JunctionError("junction demands/supplies/priorities must be >= 0")
        sums = np.bincount(self.in_junction, self.priority, minlength=self.n_junctions)
        fed = np.bincount(self.in_junction, minlength=self.n_junctions) > 0
        for j in np.flatnonzero(fed & ~(np.abs(sums - 1.0) <= 1e-12)):
            raise JunctionError(f"priorities sum to {sums[j]}, expected 1")
        first = np.flatnonzero(np.diff(self.src, prepend=-1))

        n = len(self.out_junction)
        pri = self.priority[self.src]
        hi, lo = np.full(n, -np.inf), np.full(n, np.inf)
        np.maximum.at(hi, self.dst, pri)
        np.minimum.at(lo, self.dst, pri)
        mixed = np.flatnonzero(hi - lo > 1e-12)
        into = [np.flatnonzero(self.dst == o) for o in mixed]
        width = max(map(len, into), default=0)
        feeders = np.zeros((len(mixed), width), dtype=np.int64)
        feeding = np.zeros((len(mixed), width), dtype=bool)
        for r, moves in enumerate(into):
            feeders[r, :len(moves)] = moves
            feeding[r, :len(moves)] = True
        for name, value in (("first", first), ("movers", self.src[first]),
                            ("mixed", mixed), ("feeders", feeders), ("feeding", feeding),
                            ("feeder_priority", pri[feeders])):
            object.__setattr__(self, name, value)


def resolve_network(
    movements: Movements, demands, supplies, alpha
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every junction at once: (outflow per input, inflow per output).

    demands: veh/s per input; supplies: veh/s per output (a sink's is inf);
    alpha: per movement, the share of its input's exit flow that takes it.
    Each junction whose demands sum above 1e-12 follows the rule in the
    module docstring; the other junctions pass nothing. A junction with a
    congested exit whose feeders differ in priority is rationed exit by exit
    on the movement table; all others are resolved in one array pass.
    """
    mv = movements
    D = np.asarray(demands, dtype=float)
    S = np.asarray(supplies, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    m, n = len(mv.in_junction), len(mv.out_junction)
    if D.shape != (m,) or S.shape != (n,) or alpha.shape != mv.src.shape:
        raise JunctionError("shape mismatch between demands/supplies and matrix")
    # minimum and maximum propagate NaN, so NaN fails every check
    if not (np.minimum.reduce(D, initial=0.0) >= 0
            and np.minimum.reduce(S, initial=0.0) >= 0):
        raise JunctionError("junction demands/supplies/priorities must be >= 0")
    if not (np.minimum.reduce(alpha, initial=0.0) >= -_EPS
            and np.maximum.reduce(alpha, initial=0.0) <= 1 + 1e-9):
        raise JunctionError("split fractions must lie in [0, 1]")
    # the fractions are finite here, and so are their row sums
    sums = np.bincount(mv.src, alpha, minlength=m)
    off = np.abs(sums - _ONE)
    if np.maximum.reduce(off, where=D > _EPS_A, initial=0.0) > 1e-6:
        i = ((D > _EPS) & (off > 1e-6)).argmax()
        raise JunctionError(
            f"distribution row {i} sums to {sums[i]:.9f} with positive demand"
        )

    busy = np.bincount(mv.in_junction, D, minlength=mv.n_junctions) > _EPS_A
    D = np.where(busy[mv.in_junction], D, _ZERO)
    move = alpha * D[mv.src]  # movement demand at full service
    oriented = np.bincount(mv.dst, move, minlength=n)
    # min(1, S / oriented), dividing only where that is below 1: no overflow
    beta = np.divide(S, oriented, out=np.ones(n), where=(S < oriented) & (oriented > _EPS_A))
    gamma = np.ones(m)
    if mv.first.size:
        gamma[mv.movers] = np.minimum.reduceat(
            np.where(alpha > _EPS_A, beta[mv.dst], _ONE), mv.first)

    if mv.mixed.size:
        jam = (beta[mv.mixed] < _BELOW_ONE).nonzero()[0]
        if jam.size:
            # feeders of a congested exit: movements above 1e-12 of its largest
            feeding, fmove = mv.feeding[jam], move[mv.feeders[jam]]
            top = np.where(feeding, fmove, 0.0).max(axis=1, initial=0.0)
            fed = feeding & (fmove > 1e-12 * top[:, None])
            pri = mv.feeder_priority[jam]
            spread = (np.where(fed, pri, -np.inf).max(axis=1)
                      - np.where(fed, pri, np.inf).min(axis=1))
            rationed = np.zeros(mv.n_junctions, dtype=bool)
            rationed[mv.out_junction[mv.mixed[jam[spread > 1e-12]]]] = True
            # a rationed junction's inputs restart from full service; each of
            # its exits that full demand overfills shares its supply among its
            # feeders by priority, and an input keeps its worst ratio
            gamma[rationed[mv.in_junction]] = 1.0
            over = rationed[mv.out_junction] & (oriented > S * (1 + 1e-12) + _EPS)
            for o in over.nonzero()[0]:
                into = (mv.dst == o).nonzero()[0]
                ins, fmove = mv.src[into], move[into]  # distinct inputs
                alloc = _priority_allocate(S[o], fmove, mv.priority[ins])
                ratio = np.divide(alloc, fmove, out=np.ones(len(into)), where=fmove > _EPS)
                gamma[ins] = np.minimum(gamma[ins], ratio)

    f_out = gamma * D
    return f_out, np.bincount(mv.dst, alpha * f_out[mv.src], minlength=n)


def resolve_junction(
    demands, supplies, priorities, alpha
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve (outflows per incoming, inflows per outgoing) at one junction.

    demands: veh/s per incoming link (incl. virtual source); supplies: veh/s
    per outgoing link (incl. virtual sink); priorities: merge weights per
    incoming link, summing to 1; alpha[i, j]: share of incoming link i's exit
    flow headed for outgoing link j (rows without demand may be zero).

    This is one junction of resolve_network, with every (i, j) pair as a
    movement: the loader's rule and input checks. As in the loader, a
    junction whose demands sum to at most 1e-12 passes nothing.
    Guarantees: flow conservation (sum out == sum in), feasibility
    (f_out <= D, f_in <= S), and reduction to min(D, S) on a 1x1 node.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2:
        raise JunctionError("distribution matrix must be 2-D")
    m, n = alpha.shape
    if (np.shape(demands), np.shape(supplies), np.shape(priorities)) != ((m,), (n,), (m,)):
        raise JunctionError("shape mismatch between demands/supplies and matrix")
    one = Movements(*np.divmod(np.arange(m * n), n), np.zeros(m, dtype=np.int64),
                    np.zeros(n, dtype=np.int64), np.asarray(priorities, dtype=float), 1)
    return resolve_network(one, demands, supplies, alpha.ravel())


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
