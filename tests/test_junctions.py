import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtaflow import JunctionError, resolve_junction
from dtaflow.junctions import (
    Movements,
    _priority_allocate,
    get_junction_model,
    resolve_network,
)

EVEN2 = [0.5, 0.5]  # equal merge priorities of two incoming links


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
    def test_all_satisfied(self):
        alloc = _priority_allocate(10.0, np.array([2.0, 3.0]), np.array([0.5, 0.5]))
        assert alloc == pytest.approx([2.0, 3.0])

    def test_binding_proportional(self):
        alloc = _priority_allocate(4.0, np.array([6.0, 6.0]), np.array([0.25, 0.75]))
        assert alloc == pytest.approx([1.0, 3.0])

    def test_redistribution(self):
        alloc = _priority_allocate(8.0, np.array([2.0, 10.0]), np.array([0.5, 0.5]))
        assert alloc == pytest.approx([2.0, 6.0])


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


@settings(max_examples=200, deadline=None)
@given(st.lists(junction_block(), min_size=1, max_size=4))
@example([UNEQUAL_MERGE, DIVERGE])
def test_network_kernel_matches_per_junction(junctions):
    mv, D, S, alpha = network_table(junctions)
    f_out, f_in = resolve_network(mv, D, S, alpha)
    ref_out, ref_in = [], []
    for d, s, p, a, _ in junctions:
        if d.sum() > 1e-12:
            o, i = resolve_junction(d, s, p, a)
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


# the valid table is one 2-in, 1-out merge
MERGE_2X1 = (np.ones(2), np.ones(1), EVEN2, np.ones((2, 1)), np.ones((2, 1), bool))
NETWORK_BAD_INPUTS = {
    "negative demand": ([-1.0, 1.0], [1.0], [1.0, 1.0], ">= 0"),
    "nan supply": ([1.0, 1.0], [np.nan], [1.0, 1.0], ">= 0"),
    "fraction above 1": ([1.0, 1.0], [1.0], [1.0 + 1e-6, 1.0], r"\[0, 1\]"),
    "nan fraction": ([1.0, 1.0], [1.0], [np.nan, 1.0], r"\[0, 1\]"),
    "shape mismatch": ([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], "shape"),
    "row sum": ([1.0, 1.0], [1.0], [1.0, 0.5], "row 1 sums to 0.5"),
}


@pytest.mark.parametrize("case", NETWORK_BAD_INPUTS.values(), ids=NETWORK_BAD_INPUTS)
def test_network_kernel_bad_inputs_rejected(case):
    demands, supplies, alpha, message = case
    mv, _, _, _ = network_table([MERGE_2X1])
    with pytest.raises(JunctionError, match=message):
        resolve_network(mv, np.array(demands), np.array(supplies), np.array(alpha))



@pytest.mark.parametrize("priorities, message", [([0.5, 0.4], "sum to"),
                                                 ([1.5, -0.5], ">= 0"),
                                                 ([np.nan, 0.5], ">= 0")])
def test_movement_priorities_checked_once(priorities, message):
    with pytest.raises(JunctionError, match=message):
        network_table([MERGE_2X1[:2] + (np.array(priorities),) + MERGE_2X1[3:]])
