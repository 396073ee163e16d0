"""Junction flow resolution from demands, supplies and split fractions.

The model is a FIFO diverge combined with a priority merge: each outgoing
link's supply limits the oriented demand routed to it, and the worst
movement throttles its whole incoming link (FIFO). When the feeders of a
congested exit differ in priority, each exit of that junction that full
demand overfills splits its supply among the movements into it by
closed-form priority water-filling, and each input again keeps its worst
ratio. resolve_network applies it, with input checks, to every junction of
a network at once on one table of movements; resolve_junction is the
one-junction case of resolve_network. The checks (input_fault) and the rule
(resolve_unchecked) are also separate: the loader calls the rule at each
step and checks the inputs of all its steps at once, after them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

_EPS = 1e-12
# The same constants as array operands of the per-step arithmetic: numpy 2
# takes a 0-d array as a ufunc operand about 0.3 us faster than a Python
# float, with the same result
_EPS_A, _BELOW_ONE, _ZERO, _ONE = (np.array(x) for x in (_EPS, 1.0 - _EPS, 0.0, 1.0))


class JunctionError(ValueError):
    """Raised when junction inputs are internally inconsistent."""


def _water_fill(supply: np.ndarray, demand: np.ndarray,
                priority: np.ndarray) -> np.ndarray:
    """Split each row's supply among its feeders by priority: feeder i
    takes min(m_i, mu * p_i), the level mu making the takes sum to the
    supply, or its whole demand where the supply covers the row. Demands at
    or below 1e-12 take nothing, nor does any feeder of a supply at or below
    1e-12; feeders of priority 0 share equally what the others leave, if
    above 1e-12. Rows are padded with zero demands.

    As in solver.solve_dual, mu is read off the breakpoints m_i / p_i: the
    takes sum below M + mu * (P - P_M) for any feeders of demands M and
    priorities P_M, and reach it when those are the ones below mu. So mu is
    the largest (S - M) / (P - P_M) over the feeders below each breakpoint.
    """
    m = np.where(demand > _EPS_A, demand, _ZERO)
    ranked = priority > 0
    # [tier, row, feeder]: the feeders of positive priority, then those of 0
    weight = np.array([priority, ~ranked])
    level = np.array([supply, supply - np.add.reduce(m * ranked, axis=1)])
    level = np.where(level > _EPS_A, level, _ZERO)
    # [..., i, j]: m_j / w_j < m_i / w_i, so feeder j is served in full first
    below = m[:, None, :] * weight[..., :, None] < m[:, :, None] * weight[..., None, :]
    served = (below @ m[:, :, None])[..., 0]
    rest = (~below @ weight[..., None])[..., 0]  # 0 where every weight is below
    mu = np.maximum.reduce(np.divide(level[..., None] - served, rest, out=np.zeros(rest.shape),
                                     where=rest > 0), axis=-1, initial=0.0)
    return np.add.reduce(np.minimum(m, mu[..., None] * weight), axis=0)


# -- whole-network resolution -------------------------------------------------


@dataclass(frozen=True)
class Movements:
    """The movements of every junction of a network.

    Inputs and outputs are numbered network-wide, and each belongs to one of
    `n_junctions` junctions. A movement is an (input, output) pair that flow
    can take. Movements may come in any order: sorted here by input, they
    let the kernel take each input's worst ratio over its movements with
    np.minimum.reduceat. Priorities are checked here, once per table. The
    feeder table has a row per output, its movements padded, with their
    inputs' priorities; only a jam at an output whose feeders differ in
    priority (`mixed`) can make its junction ration by priority.
    """

    src: np.ndarray  # input of each movement
    dst: np.ndarray  # output of each movement
    in_junction: np.ndarray  # junction of each input
    out_junction: np.ndarray  # junction of each output
    priority: np.ndarray  # merge weight of each input, summing to 1 per junction
    n_junctions: int
    by_input: np.ndarray = field(init=False)  # movements, sorted by input
    moved: np.ndarray = field(init=False)  # inputs that have a movement
    starts: np.ndarray = field(init=False)  # where each of those begins in by_input
    ones: np.ndarray = field(init=False)  # 1 per input, then 1 per output
    mixed: np.ndarray = field(init=False)  # outputs fed by inputs of differing priority
    feeders: np.ndarray = field(init=False)  # per output, its movements, padded
    feeding: np.ndarray = field(init=False)  # where `feeders` holds a movement
    feeder_priority: np.ndarray = field(init=False)  # priority of each feeder's input

    def __post_init__(self):
        if not np.all(self.priority >= 0):  # NaN fails too
            raise JunctionError("junction demands/supplies/priorities must be >= 0")
        sums = np.bincount(self.in_junction, self.priority, minlength=self.n_junctions)
        fed = np.bincount(self.in_junction, minlength=self.n_junctions) > 0
        for j in np.flatnonzero(fed & ~(np.abs(sums - 1.0) <= 1e-12)):
            raise JunctionError(f"priorities sum to {sums[j]}, expected 1")

        by_input = np.argsort(self.src, kind="stable")
        moved, starts = np.unique(self.src[by_input], return_index=True)
        into = np.argsort(self.dst, kind="stable")  # movements by output
        count = np.bincount(self.dst, minlength=len(self.out_junction))
        col = np.arange(len(into)) - np.repeat(np.cumsum(count) - count, count)
        feeders = np.zeros((len(count), count.max(initial=0)), dtype=np.int64)
        feeding = np.zeros(feeders.shape, dtype=bool)
        feeders[self.dst[into], col] = into
        feeding[self.dst[into], col] = True
        pri = self.priority[self.src[feeders]]
        spread = (np.where(feeding, pri, -np.inf).max(axis=1, initial=-np.inf)
                  - np.where(feeding, pri, np.inf).min(axis=1, initial=np.inf))
        for name, value in (("by_input", by_input), ("moved", moved), ("starts", starts),
                            ("ones", np.ones(len(self.in_junction) + len(count))),
                            ("mixed", np.flatnonzero(spread > 1e-12)), ("feeders", feeders),
                            ("feeding", feeding), ("feeder_priority", pri)):
            object.__setattr__(self, name, value)


def input_fault(movements: Movements, demands: np.ndarray, supplies: np.ndarray,
                alpha: np.ndarray) -> Optional[Tuple[int, JunctionError]]:
    """The first row of junction inputs that resolve_network refuses, and the
    error it raises, or None. The arrays have one leading axis of rows (a
    loading's steps), then one entry per input, output and movement.

    Within a row the checks run in order: demands and supplies >= 0 (NaN
    fails), fractions in [-1e-12, 1 + 1e-9], then the split row of each input
    whose demand is above 1e-12 sums to 1 within 1e-6. Row sums add in
    movement order, so each is bit for bit that of a check of its row alone.
    """
    mv = movements
    rows, m = demands.shape
    # minimum and maximum propagate NaN, so NaN fails every check
    signed = ~((np.minimum.reduce(demands, axis=1, initial=0.0) >= 0)
               & (np.minimum.reduce(supplies, axis=1, initial=0.0) >= 0))
    ranged = ~((np.minimum.reduce(alpha, axis=1, initial=0.0) >= -_EPS)
               & (np.maximum.reduce(alpha, axis=1, initial=0.0) <= 1 + 1e-9))
    # a row whose fractions pass is finite, and so are its row sums
    sums = np.bincount((mv.src + m * np.arange(rows)[:, None]).ravel(), alpha.ravel(),
                       minlength=rows * m).reshape(rows, m)
    off = (demands > _EPS) & (np.abs(sums - 1.0) > 1e-6)
    bad = (signed | ranged | off.any(axis=1)).nonzero()[0]
    if not bad.size:
        return None
    k = bad[0]
    if signed[k]:
        return k, JunctionError("junction demands/supplies/priorities must be >= 0")
    if ranged[k]:
        return k, JunctionError("split fractions must lie in [0, 1]")
    i = off[k].argmax()
    return k, JunctionError(
        f"distribution row {i} sums to {sums[k, i]:.9f} with positive demand")


def resolve_network(
    movements: Movements, demands, supplies, alpha
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every junction at once: (outflow per input, inflow per output).

    demands: veh/s per input; supplies: veh/s per output (a sink's is inf);
    alpha: per movement, the share of its input's exit flow that takes it.
    Raises JunctionError on inputs that input_fault refuses. Each junction
    whose demands sum above 1e-12 follows the rule in the module docstring;
    the other junctions pass nothing. A junction with a congested exit whose
    feeders differ in priority has its overfilled exits split by closed-form
    priority water-filling, all at once on the feeder table.
    """
    mv = movements
    D = np.asarray(demands, dtype=float)
    S = np.asarray(supplies, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if (D.shape != (len(mv.in_junction),) or S.shape != (len(mv.out_junction),)
            or alpha.shape != mv.src.shape):
        raise JunctionError("shape mismatch between demands/supplies and matrix")
    fault = input_fault(mv, D[None], S[None], alpha[None])
    if fault is not None:
        raise fault[1]
    return _kernel(mv, D, S, alpha)


def resolve_unchecked(mv: Movements, D: np.ndarray, S: np.ndarray,
                      alpha: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """resolve_network on float arrays of the right shapes, without its input
    checks: the loader's kernel, which checks a loading's inputs once, after
    its steps. On inputs that the checks refuse (NaN, negative) it returns
    some flows, and neither raises nor warns."""
    busy = np.bincount(mv.in_junction, D, minlength=mv.n_junctions) > _EPS_A
    D = np.where(busy[mv.in_junction], D, _ZERO)
    move = alpha * D[mv.src]  # movement demand at full service
    oriented = np.bincount(mv.dst, move, minlength=len(S))
    short = (S < oriented) & (oriented > _EPS_A)
    if not np.count_nonzero(short):  # every input sends its demand
        return D, oriented
    # min(1, S / oriented), dividing only where that is below 1: no overflow
    ones = mv.ones.copy()
    gamma, beta = ones[:len(D)], ones[len(D):]
    np.divide(S, oriented, out=beta, where=short)
    gamma[mv.moved] = np.minimum.reduceat(  # each input's worst ratio, or 1 with no movement
        np.where(alpha > _EPS_A, beta[mv.dst], _ONE)[mv.by_input], mv.starts)

    if mv.mixed.size:
        jam = mv.mixed[beta[mv.mixed] < _BELOW_ONE]
        if jam.size:
            flow = np.where(mv.feeding, move[mv.feeders], _ZERO)  # per feeder
            # feeders of a congested exit: movements above 1e-12 of its largest
            fed = flow[jam] > 1e-12 * flow[jam].max(axis=1, keepdims=True)
            pri = mv.feeder_priority[jam]
            spread = (np.where(fed, pri, -np.inf).max(axis=1)
                      - np.where(fed, pri, np.inf).min(axis=1))
            rationed = np.zeros(mv.n_junctions, dtype=bool)
            rationed[mv.out_junction[jam[spread > 1e-12]]] = True
            # a rationed junction's inputs restart from full service; its
            # exits that full demand overfills split their supplies among
            # their feeders by priority, and an input keeps its worst ratio
            gamma[rationed[mv.in_junction]] = 1.0
            over = rationed[mv.out_junction] & (oriented > S * (1 + 1e-12) + _EPS)
            fmove = flow[over]
            take = _water_fill(S[over], fmove, mv.feeder_priority[over])
            np.minimum.at(gamma, mv.src[mv.feeders[over]], np.divide(
                take, fmove, out=np.ones(take.shape), where=fmove > _EPS_A))

    f_out = gamma * D
    return f_out, np.bincount(mv.dst, alpha * f_out[mv.src], minlength=len(S))


# resolve_network's own reference to the kernel: a wrapper patched over
# resolve_unchecked that calls resolve_network, as the tests' audits and
# fault injections do, would otherwise call itself without end
_kernel = resolve_unchecked


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

# The loader calls resolve_unchecked at each step, checks its inputs with
# input_fault after its steps, and does not consult this registry; it stays
# because bench/tracing.py wraps the registered model by name.

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
