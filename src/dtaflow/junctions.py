"""Junction flow resolution from demands, supplies and split fractions.

The default model is a FIFO diverge combined with a priority merge: each
outgoing link's supply limits the oriented demand routed to it, the worst
movement throttles its whole incoming link (FIFO), and when a congested
merge has unequal incoming priorities the supply is rationed by priority
with redistribution of unused shares.
"""

from __future__ import annotations

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

    f_out = gamma * D
    f_in = alpha.T @ f_out
    return f_out, f_in


# -- pluggable model registry -------------------------------------------------

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
