import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtaflow import JunctionError, resolve_junction
from dtaflow.junctions import _priority_allocate, get_junction_model

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
