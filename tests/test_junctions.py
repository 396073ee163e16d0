import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtaflow import JunctionError, resolve_junction
from dtaflow.junctions import (
    _EPS,
    Movements,
    _water_fill,
    get_junction_model,
    input_fault,
    resolve_network,
    resolve_unchecked,
)

EVEN2 = [0.5, 0.5]  # equal merge priorities of two incoming links


# -- reference oracle ----------------------------------------------------------
#
# The dense per-junction form of the junction rule, kept as an independent
# reference for resolve_network (and so for resolve_junction, one junction
# of it). It shares no code with the package: it rations on the junction's
# split matrix, exit by exit and round by round with _priority_allocate,
# where the package water-fills all overfilled exits at once in closed form
# on its feeder table (junctions._water_fill).


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


def reference_junction(demands, supplies, priorities, alpha):
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
        # each exit short of supply rations it by priority, and an input is
        # throttled by its worst movement, until no exit is overfilled
        gamma = np.ones(m)
        for _ in range(m):
            f_out = gamma * D
            f_in = alpha.T @ f_out
            violated = (f_in > S * (1 + 1e-12) + _EPS).nonzero()[0]
            if not violated.size:
                break
            for j in violated:
                move = alpha[:, j] * D  # movement demand i -> j at full service
                alloc = _priority_allocate(S[j], move, pri)
                ratio = np.divide(alloc, move, out=np.ones(m), where=move > _EPS)
                gamma = np.minimum(gamma, ratio)

    f_out = gamma * D
    f_in = alpha.T @ f_out
    return f_out, f_in


# -- one junction ------------------------------------------------------------


class TestResolveJunction:
    def test_uncongested_pass_through(self):
        alpha = np.array([[0.5, 0.5], [1.0, 0.0]])
        f_out, f_in = resolve_junction([0.3, 0.2], [1.0, 1.0], EVEN2, alpha)
        assert f_out == pytest.approx([0.3, 0.2])
        assert f_in == pytest.approx([0.35, 0.15])

    def test_equal_priority_merge(self):
        f_out, f_in = resolve_junction([6.0, 6.0], [8.0], EVEN2, np.ones((2, 1)))
        assert f_out == pytest.approx([4.0, 4.0])
        assert f_in == pytest.approx([8.0])

    def test_fifo_diverge(self):
        f_out, f_in = resolve_junction([10.0], [10.0, 2.0], [1.0],
                                       np.array([[0.5, 0.5]]))
        assert f_out == pytest.approx([4.0])
        assert f_in == pytest.approx([2.0, 2.0])

    def test_two_link_node_reduces_to_min(self):
        for d, s in [(0.4, 0.9), (0.9, 0.4), (0.5, 0.5)]:
            f_out, f_in = resolve_junction([d], [s], [1.0], np.array([[1.0]]))
            assert f_out[0] == pytest.approx(min(d, s))
            assert f_in[0] == pytest.approx(min(d, s))

    def test_unequal_priority_merge_redistributes(self):
        # low-priority link demands less than its share; leftovers go across
        f_out, f_in = resolve_junction([1.0, 6.0], [4.0], [0.75, 0.25],
                                       np.ones((2, 1)))
        assert f_out == pytest.approx([1.0, 3.0])
        assert f_in == pytest.approx([4.0])

    def test_unequal_priority_merge_binding(self):
        f_out, f_in = resolve_junction([6.0, 6.0], [4.0], [0.75, 0.25],
                                       np.ones((2, 1)))
        assert f_out == pytest.approx([3.0, 1.0])
        assert f_in == pytest.approx([4.0])

    def test_zero_priority_feeder_shares_what_is_left_equally(self):
        # once every positive-priority feeder is served, the remaining supply
        # is split equally among the hungry feeders, whatever their weight
        f_out, f_in = resolve_junction([1.0, 6.0], [4.0], [1.0, 0.0], np.ones((2, 1)))
        assert f_out.tolist() == [1.0, 3.0]
        assert f_in.tolist() == [4.0]
        # while a positive-priority feeder is hungry, a zero one gets nothing
        f_out, _ = resolve_junction([6.0, 6.0], [4.0], [1.0, 0.0], np.ones((2, 1)))
        assert f_out.tolist() == [4.0, 0.0]

    def test_zero_demand_rows_skipped(self):
        f_out, f_in = resolve_junction([0.0, 0.5], [1.0], EVEN2,
                                       np.array([[0.0], [1.0]]))
        assert f_out == pytest.approx([0.0, 0.5])

    def test_bad_row_sum_rejected(self):
        with pytest.raises(JunctionError, match="row"):
            resolve_junction([1.0], [1.0], [1.0], np.array([[0.5]]))

    def test_priorities_must_sum_to_one(self):
        with pytest.raises(JunctionError, match="priorities"):
            resolve_junction([1.0, 1.0], [1.0], [0.6, 0.6], np.ones((2, 1)))


# (demands, supplies, priorities, alpha, message) each breaking one input
# check; a valid 2-in, 1-out merge is [1, 1], [1], [0.5, 0.5], ones((2, 1))
BAD_INPUTS = {
    "negative demand": ([-1.0, 1.0], [1.0], EVEN2, np.ones((2, 1)), ">= 0"),
    "negative supply": ([1.0, 1.0], [-1.0], EVEN2, np.ones((2, 1)), ">= 0"),
    "negative priority": ([1.0, 1.0], [1.0], [1.5, -0.5], np.ones((2, 1)), ">= 0"),
    "nan demand": ([np.nan, 1.0], [1.0], EVEN2, np.ones((2, 1)), ">= 0"),
    "nan supply": ([1.0, 1.0], [np.nan], EVEN2, np.ones((2, 1)), ">= 0"),
    "nan priority": ([1.0, 1.0], [1.0], [np.nan, 0.5], np.ones((2, 1)), ">= 0"),
    "priority sum": ([1.0, 1.0], [1.0], [0.5, 0.4], np.ones((2, 1)), "sum to"),
    "1-D alpha": ([1.0, 1.0], [1.0], EVEN2, np.ones(2), "2-D"),
    "fraction below 0": ([1.0], [1.0, 1.0], [1.0], np.array([[1.5, -0.5]]),
                         r"\[0, 1\]"),
    "fraction above 1": ([1.0], [1.0, 1.0], [1.0], np.array([[1.0 + 1e-6, 0.0]]),
                         r"\[0, 1\]"),
    "nan fraction": ([1.0], [1.0, 1.0], [1.0], np.array([[np.nan, 1.0]]),
                     r"\[0, 1\]"),
    "shape mismatch": ([1.0, 1.0], [1.0, 1.0], EVEN2, np.ones((2, 1)), "shape"),
    "row sum": ([1.0, 1.0], [1.0], EVEN2, np.array([[1.0], [0.5]]), "row 1"),
}


@pytest.mark.parametrize("case", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_inputs_rejected(case):
    demands, supplies, priorities, alpha, message = case
    with pytest.raises(JunctionError, match=message):
        resolve_junction(demands, supplies, priorities, alpha)


class TestPriorityAllocate:
    # hand-worked rationings of one exit's supply, by the oracle and by the
    # closed form on a one-row feeder table
    @staticmethod
    def _both(total, demands, weights):
        demands, weights = np.array(demands), np.array(weights)
        closed = _water_fill(np.array([total]), demands[None], weights[None])[0]
        return _priority_allocate(total, demands, weights), closed

    def test_all_satisfied(self):
        for alloc in self._both(10.0, [2.0, 3.0], [0.5, 0.5]):
            assert alloc == pytest.approx([2.0, 3.0])

    def test_binding_proportional(self):
        for alloc in self._both(4.0, [6.0, 6.0], [0.25, 0.75]):
            assert alloc == pytest.approx([1.0, 3.0])

    def test_redistribution(self):
        for alloc in self._both(8.0, [2.0, 10.0], [0.5, 0.5]):
            assert alloc == pytest.approx([2.0, 6.0])


@st.composite
def feeder_rows(draw, rows=st.integers(1, 4), widths=st.integers(1, 5)):
    """(supply, demand, priority) rows of exits' feeders, each padded with
    zero demands to the widest: priorities that include 0, demands that
    include ones at or below 1e-12, and supplies from none to more than the
    row's whole demand."""
    rows, width = draw(rows), draw(widths)
    demand, priority = np.zeros((rows, width)), np.zeros((rows, width))
    supply = np.zeros(rows)
    for r in range(rows):
        k = draw(st.integers(1, width))
        demand[r, :k] = draw(st.lists(
            st.one_of(st.floats(0, 10), st.sampled_from([0.0, 1e-13, 1e-12, 2e-12])),
            min_size=k, max_size=k))
        priority[r] = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1)),
                                    min_size=width, max_size=width))
        supply[r] = draw(st.one_of(st.floats(0, 1.5).map(lambda f: f * demand[r].sum()),
                                   st.sampled_from([0.0, 1e-13, 2e-12])))
    return supply, demand, priority


@settings(max_examples=300, deadline=None)
@given(feeder_rows())
def test_water_fill_matches_priority_allocate(rows):
    # the closed form splits every row at once as the oracle's rounds split
    # each alone. A round of the oracle may stop with up to 1e-12 of supply
    # per feeder unshared, which the closed form shares; its first round's
    # thresholds hold exactly, and padding takes nothing
    supply, demand, priority = rows
    take = _water_fill(supply, demand, priority)
    assert not take[supply <= _EPS].any() and not take[demand <= _EPS].any()
    for s, m, p, t in zip(supply, demand, priority, take):
        np.testing.assert_allclose(t, _priority_allocate(s, m, p), rtol=1e-12,
                                   atol=len(m) * _EPS)


def water_fill_oracle(supply, demand, priority):
    """The closed form of junctions._water_fill, summed and maximised through
    ndarray methods in place of ufunc reductions: its arithmetic is the
    same, so the two agree bit for bit."""
    m = np.where(demand > _EPS, demand, 0.0)
    ranked = priority > 0
    weight = np.array([priority, ~ranked])
    level = np.array([supply, supply - (m * ranked).sum(axis=1)])
    level = np.where(level > _EPS, level, 0.0)
    below = m[:, None, :] * weight[..., :, None] < m[:, :, None] * weight[..., None, :]
    served = (below @ m[:, :, None])[..., 0]
    rest = (~below @ weight[..., None])[..., 0]
    mu = np.divide(level[..., None] - served, rest, out=np.zeros(rest.shape),
                   where=rest > 0).max(axis=-1, initial=0.0)
    return np.minimum(m, mu[..., None] * weight).sum(axis=0)


@settings(max_examples=300, deadline=None)
@given(feeder_rows(rows=st.integers(0, 3), widths=st.integers(1, 4)))
@example((np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2))))
@example((np.array([1e-12, 1.0]), np.array([[1e-12, 2.0], [1e-13, 3.0]]),
          np.array([[0.0, 0.5], [0.0, 0.0]])))
def test_water_fill_is_bit_for_bit_the_oracle(rows):
    np.testing.assert_array_equal(_water_fill(*rows), water_fill_oracle(*rows), strict=True)


@st.composite
def junction_case(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    D = np.array(draw(st.lists(st.floats(0, 10), min_size=m, max_size=m)))
    S = np.array(draw(st.lists(st.floats(0.01, 10), min_size=n, max_size=n)))
    pri = np.array(draw(st.lists(st.floats(0.05, 1), min_size=m, max_size=m)))
    pri = pri / pri.sum()
    alpha = np.zeros((m, n))
    for i in range(m):
        if D[i] > 0:
            w = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
            if w.sum() == 0:
                w[draw(st.integers(0, n - 1))] = 1.0
            alpha[i] = w / w.sum()
    return D, S, pri, alpha


@settings(max_examples=200, deadline=None)
@given(junction_case())
def test_resolve_junction_matches_reference(case):
    # resolve_junction is one junction of resolve_network; a junction whose
    # demands sum to at most 1e-12 passes nothing there, unlike the reference
    D, S, pri, alpha = case
    assume(D.sum() > 1e-12)
    f_out, f_in = resolve_junction(D, S, pri, alpha)
    ref_out, ref_in = reference_junction(D, S, pri, alpha)
    np.testing.assert_allclose(f_out, ref_out, rtol=1e-12, atol=0)
    np.testing.assert_allclose(f_in, ref_in, rtol=1e-12, atol=0)


def test_idle_junction_passes_nothing():
    f_out, f_in = resolve_junction([1e-13, 0.0], [1.0], EVEN2, np.array([[1.0], [0.0]]))
    assert not f_out.any() and not f_in.any()


@settings(max_examples=200, deadline=None)
@given(junction_case())
def test_junction_conservation_and_feasibility(case):
    D, S, pri, alpha = case
    f_out, f_in = resolve_junction(D, S, pri, alpha)
    assert abs(f_out.sum() - f_in.sum()) <= 1e-9 * max(1.0, f_out.sum())
    assert np.all(f_out <= D + 1e-9)
    assert np.all(f_in <= S + 1e-9)
    assert np.all(f_out >= -1e-12)


@settings(max_examples=100, deadline=None)
@given(junction_case(), st.floats(1.01, 5.0), st.integers(0, 3))
def test_junction_supply_monotonicity(case, factor, j_raw):
    D, S, pri, alpha = case
    j = j_raw % len(S)
    f_out0, _ = resolve_junction(D, S, pri, alpha)
    S2 = S.copy()
    S2[j] *= factor
    f_out1, _ = resolve_junction(D, S2, pri, alpha)
    assert np.all(f_out1 >= f_out0 - 1e-9)


@pytest.mark.xfail(strict=True, reason="a jammed exit whose feeders differ in "
                   "priority switches its junction from FIFO to priority rationing")
def test_raising_a_supply_lowers_no_outflow():
    # at S[0] = 1 the mixed-priority exit 0 jams, so exit 1 is split by
    # priority and input 1 keeps its whole demand; at S[0] = 2 nothing mixed
    # jams, and exit 1 throttles both of its feeders FIFO to 2/3
    D, pri = [1.0, 1.0, 1.0], [0.4, 0.4, 0.2]
    alpha = np.array([[0, 1, 0, 0], [0.5, 0.5, 0, 0], [1, 0, 0, 0]], dtype=float)
    f_out0, _ = resolve_junction(D, [1.0, 1.0, 1.0, 1.0], pri, alpha)
    f_out1, _ = resolve_junction(D, [2.0, 1.0, 1.0, 1.0], pri, alpha)
    assert np.all(f_out1 >= f_out0 - 1e-9)


# link 0 carries a trace of flow to an uncongested exit; links 1 and 2
# merge into a congested one with equal priorities
MERGE_ALPHA = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
MERGE_PRI = np.array([0.5, 0.25, 0.25])


@settings(max_examples=100, deadline=None)
@given(junction_case(), st.floats(0.1, 10.0))
@example((np.array([1e-12, 1.0, 2.0]), np.ones(3), MERGE_PRI, MERGE_ALPHA), 2.0)
def test_junction_positive_homogeneity(case, scale):
    D, S, pri, alpha = case
    f_out0, f_in0 = resolve_junction(D, S, pri, alpha)
    f_out1, f_in1 = resolve_junction(D * scale, S * scale, pri, alpha)
    assert f_out1 == pytest.approx(scale * f_out0, rel=1e-9, abs=1e-9)
    assert f_in1 == pytest.approx(scale * f_in0, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("d0", [0.0, 1e-12, 2e-12, 1e-6])
def test_merge_rule_set_by_the_congested_exit(d0):
    # equal priorities at the only congested exit: demand-proportional
    # shares there, whatever runs to the uncongested one
    f_out, _ = resolve_junction([d0, 1.0, 2.0], np.ones(3), MERGE_PRI, MERGE_ALPHA)
    assert f_out == pytest.approx([d0, 1.0 / 3.0, 2.0 / 3.0], rel=1e-12, abs=0.0)


def test_model_registry():
    assert get_junction_model("fifo_priority") is resolve_junction
    with pytest.raises(JunctionError, match="unknown junction model"):
        get_junction_model("nope")


# -- whole-network kernel ----------------------------------------------------


def network_table(junctions):
    """Movements plus per-input/output arrays of junctions given as
    (demands, supplies, priorities, alpha, used) blocks, where `used` marks
    the (input, output) pairs that are movements."""
    src, dst, in_j, out_j, pri, D, S, alpha = [], [], [], [], [], [], [], []
    m0 = n0 = 0
    for j, (d, s, p, a, used) in enumerate(junctions):
        m, n = a.shape
        rows, cols = np.nonzero(used)
        src += list(m0 + rows)
        dst += list(n0 + cols)
        alpha += list(a[rows, cols])
        in_j += [j] * m
        out_j += [j] * n
        pri += list(p)
        D += list(d)
        S += list(s)
        m0, n0 = m0 + m, n0 + n
    mv = Movements(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                   np.array(in_j, dtype=np.int64), np.array(out_j, dtype=np.int64),
                   np.array(pri), len(junctions))
    return mv, np.array(D), np.array(S), np.array(alpha)


@st.composite
def junction_block(draw):
    """One junction: inputs with or without demand (an idle junction has
    none above 1e-12), an origin input with a large demand, a sink, and
    movements that include every pair with a positive split fraction."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    idle = draw(st.booleans())
    D = np.array(draw(st.lists(st.floats(0, 10), min_size=m, max_size=m)))
    if idle:
        D = np.where(D > 0, 1e-13 / m, 0.0)
    elif draw(st.booleans()):
        D[-1] = 50.0  # an origin queue's big-M demand
    S = np.array(draw(st.lists(st.floats(0.01, 10), min_size=n, max_size=n)))
    if draw(st.booleans()):
        S[-1] = np.inf  # a sink
    pri = np.array(draw(st.lists(st.floats(0.05, 1), min_size=m, max_size=m)))
    pri = pri / pri.sum()
    used = np.array(draw(st.lists(st.booleans(), min_size=m * n,
                                  max_size=m * n))).reshape(m, n)
    alpha = np.zeros((m, n))
    for i in range(m):
        if not used[i].any():
            used[i, draw(st.integers(0, n - 1))] = True
        if D[i] > 1e-12:
            w = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
            w[~used[i]] = 0.0
            if w.sum() == 0:
                w[np.flatnonzero(used[i])[0]] = 1.0
            alpha[i] = w / w.sum()
    return D, S, pri, alpha, used


# a congested merge of two unequal-priority inputs, which takes the
# priority-rationing kernel, next to an uncongested diverge
UNEQUAL_MERGE = (np.array([6.0, 6.0]), np.array([4.0]), np.array([0.75, 0.25]),
                 np.ones((2, 1)), np.ones((2, 1), bool))
DIVERGE = (np.array([1.0]), np.array([5.0, np.inf]), np.array([1.0]),
           np.array([[0.4, 0.6]]), np.ones((1, 2), bool))
# a congested merge of unequal priorities whose second exit, fed by two
# inputs of equal priority, is overfilled too: each overfilled exit of a
# rationed junction is rationed, and input 1 keeps its full demand
OVERFILLED_PAIR_ALPHA = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
RATIONED_PAIR = (np.array([6.0, 2.0, 8.0]), np.array([4.0, 2.0]),
                 np.array([0.5, 0.25, 0.25]), OVERFILLED_PAIR_ALPHA,
                 OVERFILLED_PAIR_ALPHA > 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(junction_block(), min_size=1, max_size=4))
@example([UNEQUAL_MERGE, DIVERGE])
@example([RATIONED_PAIR])
def test_network_kernel_matches_per_junction(junctions):
    mv, D, S, alpha = network_table(junctions)
    f_out, f_in = resolve_network(mv, D, S, alpha)
    ref_out, ref_in = [], []
    for d, s, p, a, _ in junctions:
        if d.sum() > 1e-12:
            o, i = reference_junction(d, s, p, a)
        else:  # an idle junction passes nothing
            o, i = np.zeros(len(d)), np.zeros(len(s))
        ref_out.append(o)
        ref_in.append(i)
    np.testing.assert_allclose(f_out, np.concatenate(ref_out), rtol=1e-12, atol=0)
    np.testing.assert_allclose(f_in, np.concatenate(ref_in), rtol=1e-12, atol=0)


def test_unequal_merge_is_rationed_by_priority():
    mv, D, S, alpha = network_table([UNEQUAL_MERGE, DIVERGE])
    f_out, f_in = resolve_network(mv, D, S, alpha)
    assert f_out == pytest.approx([3.0, 1.0, 1.0])
    assert f_in == pytest.approx([4.0, 0.4, 0.6])


def test_every_overfilled_exit_of_a_rationed_junction_is_rationed():
    # exit 0 rations 4 veh/s by priority: 2, 1, 1 of demands 6, 1, 4; exit 1
    # splits 2 veh/s equally between inputs 1 and 2, so input 2 keeps 1/4
    # of its demand and input 1 all of it, not exit 1's supply ratio 2/5
    mv, D, S, alpha = network_table([RATIONED_PAIR])
    f_out, f_in = resolve_network(mv, D, S, alpha)
    assert f_out == pytest.approx([2.0, 2.0, 2.0], rel=1e-15)
    assert f_in == pytest.approx([4.0, 2.0], rel=1e-15)


# the valid table is one 2-in, 1-out merge
MERGE_2X1 = (np.ones(2), np.ones(1), EVEN2, np.ones((2, 1)), np.ones((2, 1), bool))
NETWORK_BAD_INPUTS = {
    "negative demand": ([-1.0, 1.0], [1.0], [1.0, 1.0], ">= 0"),
    "nan supply": ([1.0, 1.0], [np.nan], [1.0, 1.0], ">= 0"),
    "fraction above 1": ([1.0, 1.0], [1.0], [1.0 + 1e-6, 1.0], r"\[0, 1\]"),
    "nan fraction": ([1.0, 1.0], [1.0], [np.nan, 1.0], r"\[0, 1\]"),
    "shape mismatch": ([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], "shape"),
    "row sum": ([1.0, 1.0], [1.0], [1.0, 0.5], "row 1 sums to 0.5"),
    "nan demand": ([np.nan, 1.0], [1.0], [1.0, 1.0], ">= 0"),
    "negative supply": ([1.0, 1.0], [-1.0], [1.0, 1.0], ">= 0"),
    "fraction 1 + 1e-8": ([1.0, 1.0], [1.0], [1.0 + 1e-8, 1.0], r"\[0, 1\]"),
}


@pytest.mark.parametrize("case", NETWORK_BAD_INPUTS.values(), ids=NETWORK_BAD_INPUTS)
def test_network_kernel_bad_inputs_rejected(case):
    demands, supplies, alpha, message = case
    mv, _, _, _ = network_table([MERGE_2X1])
    with pytest.raises(JunctionError, match=message):
        resolve_network(mv, np.array(demands), np.array(supplies), np.array(alpha))


def test_input_fault_reports_the_first_failing_row():
    # rows of junction inputs, checked at once, as a loading's steps are:
    # the first row that resolve_network refuses is found, with its error
    mv, D, S, alpha = network_table([MERGE_2X1])
    cases = [c for c in NETWORK_BAD_INPUTS.values() if len(c[1]) == len(S)]
    assert input_fault(mv, D[None], S[None], alpha[None]) is None
    for bad in range(len(cases)):
        rows = [(D, S, alpha)] * 3 + [tuple(map(np.array, c[:3])) for c in cases[bad:]]
        k, error = input_fault(mv, *(np.array(x) for x in zip(*rows)))
        assert k == 3
        with pytest.raises(JunctionError) as ref:
            resolve_network(mv, *rows[3])
        assert str(error) == str(ref.value)


@pytest.mark.parametrize("fault", [
    lambda D, S: D.fill(np.nan),
    lambda D, S: D.__setitem__(0, np.nan),
    lambda D, S: D.__setitem__(0, -1.0),
    lambda D, S: D.__imul__(-1.0),
    lambda D, S: S.fill(np.nan),
    lambda D, S: S.__setitem__(0, -1.0),
    lambda D, S: (D.__setitem__(1, -6.0), S.__setitem__(3, np.nan)),
    lambda D, S: D.__setitem__(4, -1.0),
    lambda D, S: S.__setitem__(4, np.nan),
], ids=["all-nan-demand", "nan-demand", "negative-demand", "negated-demands",
        "all-nan-supply", "negative-supply", "negative-demand-nan-supply",
        "negative-demand-rationed", "nan-supply-rationed"])
def test_kernel_warns_nothing_on_refused_inputs(fault):
    # the loader's kernel sees a step's inputs before they are checked: on
    # NaN or negative demands and supplies, including at junctions that
    # ration by priority, it returns flows, and raises and warns nothing
    mv, D, S, alpha = network_table([UNEQUAL_MERGE, DIVERGE, RATIONED_PAIR])
    fault(D, S)
    with pytest.raises(JunctionError, match=">= 0"):
        resolve_network(mv, D, S, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f_out, f_in = resolve_unchecked(mv, D, S, alpha)
    assert f_out.shape == D.shape and f_in.shape == S.shape


def test_network_kernel_tolerates_rounding_in_fractions():
    # a diverge whose fractions stray by rounding, within 1e-12 below 0 and
    # 1e-9 above 1, with a row sum of exactly 1
    mv, _, _, _ = network_table([DIVERGE])
    f_out, f_in = resolve_network(mv, np.array([1.0]), np.array([5.0, np.inf]),
                                  np.array([1.0 + 1e-13, -1e-13]))
    assert f_out.tolist() == [1.0]
    assert f_in == pytest.approx([1.0, 0.0], abs=1e-12)


def test_huge_supply_over_tiny_oriented_demand_warns_nothing():
    # 1e300 / 1.1e-12 overflows: the supply ratio is only formed where it is
    # below 1, so no RuntimeWarning (an error under this suite's filter)
    mv, _, _, _ = network_table([DIVERGE])
    f_out, f_in = resolve_network(mv, np.array([1.1e-12]), np.array([1e300, np.inf]),
                                  np.array([1.0, 0.0]))
    assert f_out.tolist() == [1.1e-12]
    assert f_in.tolist() == [1.1e-12, 0.0]


@pytest.mark.parametrize("priorities, message", [([0.5, 0.4], "sum to"),
                                                 ([1.5, -0.5], ">= 0"),
                                                 ([np.nan, 0.5], ">= 0")])
def test_movement_priorities_checked_once(priorities, message):
    with pytest.raises(JunctionError, match=message):
        network_table([MERGE_2X1[:2] + (np.array(priorities),) + MERGE_2X1[3:]])


def _keeping_output_order(dst, rng):
    """A random order of the movements in which the movements into each
    output keep their order: the kernel adds an output's movements in table
    order, so only that order holds its sums bit for bit."""
    order = rng.permutation(len(dst))
    for o in np.unique(dst):
        order[dst[order] == o] = np.flatnonzero(dst == o)
    return order


@settings(max_examples=200, deadline=None)
@given(st.lists(junction_block(), min_size=1, max_size=4), st.integers(0, 2**32 - 1),
       st.integers(0, 3), st.sampled_from([0.0, 1e-13, 1e-12]))
@example([UNEQUAL_MERGE, DIVERGE, RATIONED_PAIR], 0, 0, 1e-12)
def test_movements_resolve_in_any_order(junctions, seed, where, idle_demand):
    # Movements promises any order; the kernel sorts them by input once, for
    # its per-input minimum. An extra input, of priority 0, has no movement
    # and demands at most 1e-12: it keeps gamma = 1, so it sends its whole
    # demand where its junction passes anything
    junctions = list(junctions)
    d, s, p, a, used = junctions[where % len(junctions)]
    junctions[where % len(junctions)] = (
        np.append(d, idle_demand), s, np.append(p, 0.0),
        np.vstack([a, np.zeros(a.shape[1])]), np.vstack([used, np.zeros(a.shape[1], bool)]))
    mv, D, S, alpha = network_table(junctions)
    order = _keeping_output_order(mv.dst, np.random.default_rng(seed))
    shuffled = Movements(mv.src[order], mv.dst[order], mv.in_junction, mv.out_junction,
                         mv.priority, mv.n_junctions)
    f_out, f_in = resolve_network(mv, D, S, alpha)
    for got, want in zip(resolve_network(shuffled, D, S, alpha[order]), (f_out, f_in)):
        np.testing.assert_array_equal(got, want, strict=True)
    idle = np.flatnonzero(~np.isin(np.arange(len(D)), mv.src))
    busy = np.bincount(mv.in_junction, D)[mv.in_junction[idle]] > _EPS
    assert f_out[idle].tolist() == np.where(busy, D[idle], 0.0).tolist()
