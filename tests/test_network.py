import dataclasses
import math

import numpy as np
import pytest

from dtaflow import (
    Link,
    NetworkError,
    Node,
    ODPair,
    Path,
    PenaltyParams,
    SolverConfig,
    TimeGrid,
    derive_fd,
    run_dnl,
    validate_network,
)
from helpers import BRAESS_LINKS, braess_components, braess_network, path_matrix


class TestDeriveFd:
    def test_default_backward_speed_is_a_third(self):
        w, rho_c, rho_jam = derive_fd(1000.0, 15.0, 0.5, None)
        assert w == pytest.approx(5.0)
        assert rho_c == pytest.approx(1.0 / 30.0)
        assert rho_jam == pytest.approx(4.0 / 30.0)

    def test_equal_wave_speeds_double_the_critical_density(self):
        _, rho_c, rho_jam = derive_fd(1000.0, 15.0, 0.5, 15.0)
        assert rho_jam == pytest.approx(2 * rho_c)

    def test_zero_capacity_rejected(self):
        with pytest.raises(NetworkError, match="nonpositive"):
            derive_fd(1000.0, 15.0, 0.0, None)

    def test_zero_length_rejected(self):
        with pytest.raises(NetworkError, match="nonpositive"):
            derive_fd(0.0, 15.0, 0.5, None)


class TestLinkRecord:
    def test_missing_backward_speed_resolves_to_a_third_of_v(self):
        link = Link("a", "1", "2", 100.0, 10.0, 1.0)
        assert link.backward_speed_mps == 10.0 / 3.0
        assert link == Link.create("a", "1", "2", 100.0, 10.0, 1.0)
        assert link == Link("a", "1", "2", 100.0, 10.0, 1.0, None)
        assert dataclasses.replace(link, id="b").backward_speed_mps == 10.0 / 3.0

    def test_link_without_backward_speed_loads_as_created(self):
        nodes, created, paths, ods = braess_components()
        plain = [Link(i, *spec) for i, spec in BRAESS_LINKS.items()]
        assert plain == created
        grid = TimeGrid(0.0, 2400.0, 30.0)
        results = []
        for links in (plain, created):
            net = validate_network(nodes, links, paths, ods)
            h = path_matrix(net, grid, {p.id: 0.05 for p in paths}, until_s=900.0)
            results.append(run_dnl(net, h, grid))
        a, b = results
        np.testing.assert_array_equal(a.travel_time, b.travel_time)
        for lid, st in a.link_states.items():
            np.testing.assert_array_equal(st.n_up, b.link_states[lid].n_up)
            np.testing.assert_array_equal(st.n_dn, b.link_states[lid].n_dn)

    @pytest.mark.parametrize("args,message", [
        ((0.0, 12.0, 0.5), "nonpositive or non-finite physical parameter: "
                           "L=0.0, v=12.0, C=0.5"),
        ((1200.0, 12.0, 0.5, -4.0), "nonpositive or non-finite physical parameter: "
                                    "w=-4.0"),
    ], ids=["length", "backward-speed"])
    def test_refusal_names_the_link(self, args, message):
        with pytest.raises(NetworkError) as e:
            Link("l7", "a", "b", *args)
        assert str(e.value) == f"link l7: {message}"


class TestFdFlow:
    """The triangular fundamental diagram that Link.create derives."""

    @pytest.fixture
    def link(self):
        return Link.create("1", "a", "b", 1000.0, 15.0, 0.5)

    def test_branches_agree_at_critical_density(self, link):
        # evaluate both branches explicitly at rho_c
        rho_c = link.critical_density_vpm
        free = link.free_speed_mps * rho_c
        congested = link.backward_speed_mps * (link.jam_density_vpm - rho_c)
        assert free == pytest.approx(link.capacity_vps, rel=1e-12)
        assert congested == pytest.approx(link.capacity_vps, rel=1e-12)


class TestValidateNetwork:
    def test_braess_fixture_accepted(self):
        net = braess_network()
        assert len(net.links) == 5
        assert len(net.paths) == 8
        assert len(net.od_pairs) == 4

    def test_disconnected_path_rejected(self):
        nodes, links, paths, ods = braess_components()
        bad = [p for p in paths if p.id != "p4"]
        bad.append(Path("p4", ("1", "4"), ("2", "4")))  # link 2 head=3, link 4 tail=2
        with pytest.raises(NetworkError, match="disconnected path"):
            validate_network(nodes, links, bad, ods)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(NetworkError, match="nonpositive"):
            Link.create("1", "a", "b", 0.0, 12.0, 0.5)

    def test_dangling_link_endpoint(self):
        nodes, links, paths, ods = braess_components()
        links.append(Link.create("9", "1", "zzz", 100.0, 10.0, 0.5))
        with pytest.raises(NetworkError, match="dangling"):
            validate_network(nodes, links, paths, ods)

    def test_demand_without_paths(self):
        nodes = [Node("a", origin=True), Node("b", destination=True)]
        links = [Link.create("1", "a", "b", 100.0, 10.0, 0.5)]
        ods = [ODPair("a", "b", 10.0, 100.0)]
        with pytest.raises(NetworkError, match="no paths"):
            validate_network(nodes, links, [], ods)

    def test_repeated_link_rejected(self):
        with pytest.raises(NetworkError, match="simple"):
            Path("p", ("a", "b"), ("1", "1"))

    def test_validation_idempotent(self):
        net = braess_network()
        again = validate_network(
            list(net.nodes.values()), list(net.links.values()),
            list(net.paths.values()), list(net.od_pairs),
        )
        assert again == net

    def test_priorities_sum_to_one(self):
        net = braess_network()
        for nid, pri in net.priorities.items():
            if pri:
                assert sum(pri.values()) == pytest.approx(1.0, abs=1e-12)

    def test_source_priority_split(self):
        net = braess_network()
        # node 2: origin with source priority 0.4 and one incoming link
        pri = net.priorities["2"]
        assert pri[""] == pytest.approx(0.4)
        assert pri["1"] == pytest.approx(0.6)

    def test_capacity_proportional_defaults(self):
        nodes = [Node("a", origin=True), Node("b", origin=True), Node("c"),
                 Node("d", destination=True)]
        links = [
            Link.create("1", "a", "c", 100.0, 10.0, 0.6),
            Link.create("2", "b", "c", 100.0, 10.0, 0.2),
            Link.create("3", "c", "d", 100.0, 10.0, 0.8),
        ]
        net = validate_network(nodes, links, [], [])
        assert net.priorities["c"]["1"] == pytest.approx(0.75)
        assert net.priorities["c"]["2"] == pytest.approx(0.25)

    def test_origin_that_no_path_leaves_gets_no_source_share(self):
        # node 2 is an origin, but only origin 1's paths are given: link 1,
        # its only entering link, takes the whole merge share
        nodes, links, paths, ods = braess_components(
            demands={("1", "3"): 250.0, ("1", "4"): 350.0})
        net = validate_network(nodes, links, [p for p in paths if p.od[0] == "1"], ods)
        assert net.priorities["2"] == {"1": 1.0}
        assert net.priorities["1"] == {"": 1.0}


# (edit of the Braess components, message): each edit breaks one invariant
# that a record's constructor or validate_network checks
NETWORK_REFUSALS = {
    "source_priority out of range": (
        lambda n, l, p, o: (n + [Node("5", source_priority=1.5)], l, p, o),
        r"source_priority of node 5 must lie in \[0, 1\], got 1.5$"),
    "path without links": (
        lambda n, l, p, o: (n, l, p + [Path("p9", ("1", "3"), ())], o),
        r"path p9 has no links$"),
    "duplicate node id": (
        lambda n, l, p, o: (n + [Node("1")], l, p, o),
        r"duplicate node id 1$"),
    "duplicate link id": (
        lambda n, l, p, o: (n, l + [Link.create("1", "1", "3", 100.0, 10.0, 0.5)], p, o),
        r"duplicate link id 1$"),
    "self-loop": (
        lambda n, l, p, o: (n, l + [Link.create("9", "1", "1", 100.0, 10.0, 0.5)], p, o),
        r"link 9 is a self-loop$"),
    "unflagged destination": (
        lambda n, l, p, o: (n, l, p, o + [ODPair("1", "2", 10.0, 600.0)]),
        r"node 2 is not flagged as a destination$"),
    "duplicate O-D pair": (
        lambda n, l, p, o: (n, l, p, o + [ODPair("1", "3", 10.0, 600.0)]),
        r"duplicate O-D pair \('1', '3'\)$"),
    "duplicate path id": (
        lambda n, l, p, o: (n, l, p + [Path("p1", ("1", "3"), ("2",))], o),
        r"duplicate path id p1$"),
    "path not leaving its origin": (
        lambda n, l, p, o: (n, l, p + [Path("p9", ("1", "3"), ("3",))], o),
        r"path p9 does not start at origin 1 \(starts at 2\)$"),
    "path not reaching its destination": (
        lambda n, l, p, o: (n, l, p + [Path("p9", ("1", "4"), ("1", "3"))], o),
        r"path p9 does not end at destination 4 \(ends at 3\)$"),
    "declared path set differs": (
        lambda n, l, p, o: (n, l, p, [dataclasses.replace(o[0], paths=("p1",))] + o[1:]),
        r"path/O-D mismatch for \('1', '3'\): declared \('p1',\), "
        r"found \('p1', 'p2'\)$"),
}


@pytest.mark.parametrize("edit,message", NETWORK_REFUSALS.values(),
                         ids=NETWORK_REFUSALS)
def test_broken_invariant_is_refused(edit, message):
    validate_network(*braess_components())  # the components as they are validate
    with pytest.raises(NetworkError, match=message):
        validate_network(*edit(*braess_components()))


class TestTimeGrid:
    def test_step_count_rounds_up(self):
        assert TimeGrid(0.0, 100.0, 30.0).n_steps == 4

    def test_bad_horizon(self):
        with pytest.raises(NetworkError):
            TimeGrid(10.0, 10.0, 1.0)
        with pytest.raises(NetworkError):
            TimeGrid(0.0, 10.0, 0.0)

    def test_times_are_uniform(self):
        g = TimeGrid(0.0, 100.0, 25.0)
        assert list(g.times()) == [0.0, 25.0, 50.0, 75.0, 100.0]


NONFINITE_BUILDS = {
    "derive_fd L": lambda x: derive_fd(x, 15.0, 0.5, None),
    "derive_fd v": lambda x: derive_fd(1000.0, x, 0.5, None),
    "derive_fd C": lambda x: derive_fd(1000.0, 15.0, x, None),
    "derive_fd w": lambda x: derive_fd(1000.0, 15.0, 0.5, x),
    "ODPair demand": lambda x: ODPair("a", "b", x, 600.0),
    "ODPair target": lambda x: ODPair("a", "b", 10.0, x),
    "TimeGrid t0": lambda x: TimeGrid(x, 600.0, 10.0),
    "TimeGrid tf": lambda x: TimeGrid(0.0, x, 10.0),
    "TimeGrid dt": lambda x: TimeGrid(0.0, 600.0, x),
    "SolverConfig alpha": lambda x: SolverConfig(alpha=x),
    "SolverConfig epsilon": lambda x: SolverConfig(epsilon=x),
    "SolverConfig br_tolerance": lambda x: SolverConfig(br_tolerance=x),
    "SolverConfig max_iters": lambda x: SolverConfig(max_iters=x),
    "SolverConfig window lo": lambda x: SolverConfig(initial_window_s=(x, 100.0)),
    "SolverConfig window hi": lambda x: SolverConfig(initial_window_s=(0.0, x)),
    "PenaltyParams early": lambda x: PenaltyParams(early_weight=x),
    "PenaltyParams late": lambda x: PenaltyParams(late_weight=x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", NONFINITE_BUILDS.values(), ids=NONFINITE_BUILDS)
def test_constructors_reject_nonfinite(build, value):
    # NetworkError and the solver's ValueError are both ValueErrors
    with pytest.raises(ValueError):
        build(value)


@pytest.mark.parametrize("window", [(300.0, 100.0), (100.0, 100.0), (0.0,),
                                    (0.0, 100.0, 200.0)])
def test_solver_config_rejects_window_not_lo_below_hi(window):
    with pytest.raises(ValueError, match="initial_window_s"):
        SolverConfig(initial_window_s=window)
