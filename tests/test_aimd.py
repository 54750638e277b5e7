"""Multi-link AIMD fluid network: events, closed forms, capacity rules."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcpfluid.aimd_net import (
    CAPACITY_STRATEGIES,
    FlowSet,
    FluidNetwork,
    StagnationError,
    SyncModel,
    _SCALAR_MAX_MEMBERS,
    _connected,
    _distinct_pairs,
    assign_capacities,
    run_simulation,
    uniform_tree_flows,
)
from tcpfluid.tree_gen import GrowingTree, TreeParams, grow, measure

import aimd_reference
from aimd_reference import apply_congestion, next_congestion


def _single_link(capacity: float = 10.0) -> FluidNetwork:
    return FluidNetwork(
        endpoints=np.array([[0, 1]], dtype=np.int64),
        capacities=np.array([capacity]),
        n_vertices=2,
    )


def _flows_on_link(n: int, **kw) -> FlowSet:
    fields = dict(alphas=1.0, betas=0.5, rtts=1.0, packet_sizes=1.0, X=np.zeros(n))
    fields.update(kw)
    return FlowSet(route_ptr=np.arange(n + 1), route_links=np.zeros(n, np.int64), **fields)


def _path_tree(tau: int) -> GrowingTree:
    parent = np.concatenate([[-1], np.arange(tau)]).astype(np.int64)
    return GrowingTree(
        alpha_t=0.5,
        tau=tau,
        parent=parent,
        in_degree=np.bincount(parent[1:], minlength=tau + 1),
    )


def test_next_congestion_hand_case():
    # two flows at 2 and 3 on a 10-capacity link, growth 1 each:
    # 2 + 3 + 2 g tau = 10  =>  tau = 2.5
    net = _single_link(10.0)
    flows = _flows_on_link(2, X=np.array([2.0, 3.0]))
    tau, edge = next_congestion(net, flows)
    assert edge == 0
    assert tau == pytest.approx(2.5, rel=1e-14)


def test_next_congestion_picks_tightest_link():
    # 0-1 has slack 4 shared by two unit-growth flows, 1-2 slack 1 by one
    net = FluidNetwork(
        endpoints=np.array([[0, 1], [1, 2]], dtype=np.int64),
        capacities=np.array([10.0, 4.0]),
        n_vertices=3,
    )
    # flow 0 crosses link 0, flow 1 links 0 and 1
    flows = FlowSet(route_ptr=[0, 1, 3], route_links=[0, 0, 1], alphas=1.0, betas=0.5,
                    rtts=1.0, packet_sizes=1.0, X=np.array([3.0, 3.0]))
    tau, edge = next_congestion(net, flows)
    assert edge == 1
    assert tau == pytest.approx(1.0)


def test_apply_congestion_full_sync_halves_losers():
    net = _single_link(10.0)
    flows = _flows_on_link(2, X=np.array([2.0, 3.0]))
    tau, edge = next_congestion(net, flows)
    rng = np.random.default_rng(0)
    after = apply_congestion(flows, edge, tau, SyncModel(pi=1.0), rng)
    # both flows grew by tau then halved
    assert after.X[0] == pytest.approx((2.0 + 2.5) / 2.0)
    assert after.X[1] == pytest.approx((3.0 + 2.5) / 2.0)


def test_apply_congestion_only_touches_edge_members():
    net = FluidNetwork(
        endpoints=np.array([[0, 1], [1, 2]], dtype=np.int64),
        capacities=np.array([100.0, 4.0]),
        n_vertices=3,
    )
    flows = FlowSet(route_ptr=[0, 1, 2], route_links=[0, 1], alphas=1.0, betas=0.5, rtts=1.0,
                    packet_sizes=1.0, X=np.array([1.0, 1.0]))
    tau, edge = next_congestion(net, flows)
    assert edge == 1
    after = apply_congestion(flows, edge, tau, SyncModel(pi=1.0), np.random.default_rng(0))
    # flow 0 rides through the other link's event: grows, never cut
    assert after.X[0] == pytest.approx(1.0 + tau)
    assert after.X[1] == pytest.approx((1.0 + tau) / 2.0)


def test_sync_draw_conditioned_on_at_least_one():
    sync = SyncModel(pi=0.3)
    rng = np.random.default_rng(42)
    for _ in range(200):
        xi = sync.draw(rng, np.full(5, 0.3))
        assert xi.dtype == bool
        assert xi.any()


def test_single_flow_sawtooth_exact():
    # deterministic sawtooth between C/2 and C: time average 3C/4 per
    # epoch after the opening ramp, computable in closed form
    C, g, epochs = 8.0, 1.0, 5
    net = _single_link(C)
    flows = _flows_on_link(1, X=np.array([0.0]))
    report = run_simulation(net, flows, SyncModel(pi=1.0), epochs, seed=0)
    beta = 0.5
    ramp_area = C**2 / (2 * g)
    cycle_area = (C**2 - (beta * C) ** 2) / (2 * g)
    total_time = C / g + (epochs - 1) * (1 - beta) * C / g
    want = (ramp_area + (epochs - 1) * cycle_area) / total_time
    assert report.per_flow_q[0] == want
    assert report.mean_q == want


def test_full_sync_homogeneous_is_deterministic():
    # pi=1: every epoch cuts every flow, so post-event X and tau are exact
    N, C = 4, 20.0
    net = _single_link(C)
    flows = _flows_on_link(N, X=np.full(N, C / N * 0.5))
    report = run_simulation(net, flows, SyncModel(pi=1.0), 500, seed=1)
    assert report.mean_post_event_throughput == pytest.approx(0.5 * C / N, rel=1e-12)
    assert report.mean_tau == pytest.approx(0.5 * C / N, rel=1e-12)
    assert np.allclose(report.taus, 0.5 * C / N)


def test_homogeneous_closed_forms_partial_sync():
    # E[X_post] = [1-(1-beta) r] C/N and E[tau] = (1-beta) C R r / (alpha N P)
    # with r = pi / (1 - (1-pi)^N), the per-loser rate given >= 1 loss
    N, C, pi = 10, 100.0, 0.5
    r = pi / (1.0 - (1.0 - pi) ** N)
    want_x = (1.0 - 0.5 * r) * C / N
    want_tau = 0.5 * C * r / N
    net = _single_link(C)
    flows = _flows_on_link(N, X=np.full(N, want_x))
    report = run_simulation(net, flows, SyncModel(pi=pi), 30000, seed=7)
    # batch means absorb the epoch-to-epoch correlation
    for values, want in ((report.post_event_means, want_x), (report.taus, want_tau)):
        tail = values[2000:]
        batches = tail.reshape(40, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert tail.mean() == pytest.approx(want, abs=3 * se)
    assert report.realized_r == pytest.approx(r, abs=0.01)


def test_fast_path_equals_event_loop():
    # the vectorized run must replay the one-step primitives event for event
    tree = grow(TreeParams(alpha_t=0.5, tau=30, seed=21))
    stats = measure(tree)
    base = FluidNetwork.from_tree(tree, np.full(tree.tau, 50.0))
    net = assign_capacities(base, "mean_field", 50.0, tree_stats=stats)
    flows = uniform_tree_flows(tree, 25, seed=5)
    sync = SyncModel(pi=0.7)
    epochs = 200

    report = run_simulation(net, flows, sync, epochs, seed=11)

    rng = np.random.default_rng(11)
    cur = flows
    taus = []
    area = np.zeros(len(flows.routes))
    for _ in range(epochs):
        tau, edge = next_congestion(net, cur)
        area += (cur.X + 0.5 * cur.growth_rates * tau) * tau
        nxt = apply_congestion(cur, edge, tau, sync, rng)
        taus.append(tau)
        cur = nxt
    assert np.allclose(report.taus, taus, rtol=1e-9)
    assert np.allclose(report.per_flow_q, area / sum(taus), rtol=1e-9)


def test_congested_edges_name_each_event():
    # one unit-growth flow per link, full sync: link 1 (capacity 3.2) hits
    # at 3.2, 4.8, ..., 9.6, 11.2, 12.8 and link 0 (capacity 10) at 10
    net = FluidNetwork(
        endpoints=np.array([[0, 1], [1, 2]], dtype=np.int64),
        capacities=np.array([10.0, 3.2]),
        n_vertices=3,
    )
    flows = FlowSet(route_ptr=[0, 1, 2], route_links=[0, 1], alphas=1.0, betas=0.5, rtts=1.0,
                    packet_sizes=1.0, X=np.zeros(2))
    report = run_simulation(net, flows, SyncModel(pi=1.0), 8, seed=0)
    assert report.congested_edges.dtype == np.int64
    assert report.congested_edges.tolist() == [1, 1, 1, 1, 1, 0, 1, 1]
    assert np.allclose(np.cumsum(report.taus), [3.2, 4.8, 6.4, 8.0, 9.6, 10.0, 11.2, 12.8])


def test_kernel_drops_links_no_flow_grows_on():
    # flow 0 fills link 0 but never grows (infinite rtt), so link 0, which
    # only it crosses, never congests; its cuts still come off link 1's load
    net = FluidNetwork(endpoints=[[0, 1], [1, 2]], capacities=[10.0, 40.0], n_vertices=3)
    flows = FlowSet(route_ptr=[0, 2, 3], route_links=[0, 1, 1], alphas=1.0, betas=0.5,
                    rtts=[np.inf, 1.0], packet_sizes=1.0, X=[10.0, 0.0])
    got = run_simulation(net, flows, SyncModel(pi=1.0), 20, seed=0)
    want = aimd_reference.run_simulation(net, flows, SyncModel(pi=1.0), 20, seed=0)
    assert np.array_equal(got.taus, want.taus)
    assert np.array_equal(got.per_flow_q, want.per_flow_q)
    assert np.all(got.congested_edges == 1)


# The first three explicit examples put 6 to 9 members on congested
# links (the first all four).  numpy sums 8 or more terms pairwise, so a
# kernel that sums 8 members sequentially on its scalar path fails them.
# At pi = 1 the kernel makes no draw: the fourth example has 9 to 20
# members on every congested link (the numpy path), the fifth 3 to 7 (the
# scalar path).  The sixth gives flow 0, on 114 of its 300 events, pi =
# 0.5 and every other flow 1.0, so the kernel must keep drawing.
@settings(max_examples=80, deadline=None)
@given(
    tau=st.integers(2, 60),
    tree_seed=st.integers(0, 2**16),
    n_flows=st.integers(2, 40),
    flow_seed=st.integers(0, 2**16),
    strategy=st.sampled_from(CAPACITY_STRATEGIES),
    pi=st.sampled_from((0.2, 0.5, 0.7, 1.0)),
    epochs=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
@example(tau=30, tree_seed=3, n_flows=40, flow_seed=4, strategy="maximum",
         pi=0.5, epochs=300, seed=0)
@example(tau=60, tree_seed=3, n_flows=30, flow_seed=4, strategy="uniform",
         pi=0.7, epochs=300, seed=1)
@example(tau=45, tree_seed=2, n_flows=40, flow_seed=3, strategy="uniform",
         pi=0.2, epochs=300, seed=2)
@example(tau=6, tree_seed=2, n_flows=40, flow_seed=3, strategy="uniform",
         pi=1.0, epochs=300, seed=0)
@example(tau=30, tree_seed=1, n_flows=15, flow_seed=2, strategy="uniform",
         pi=1.0, epochs=300, seed=0)
@example(tau=30, tree_seed=3, n_flows=40, flow_seed=4, strategy="uniform",
         pi=(0.5,) + (1.0,) * 39, epochs=300, seed=0)
def test_kernel_matches_frozen_reference(
    tau, tree_seed, n_flows, flow_seed, strategy, pi, epochs, seed
):
    tree = grow(TreeParams(alpha_t=0.5, tau=tau, seed=tree_seed))
    base = FluidNetwork.from_tree(tree, np.full(tau, 10.0))
    net = assign_capacities(base, strategy, 10.0, tree_stats=measure(tree))
    # unequal growth rates and cuts, so no two members' terms coincide
    rng = np.random.default_rng(flow_seed)
    flows = replace(
        uniform_tree_flows(tree, n_flows, seed=flow_seed),
        alphas=rng.uniform(0.5, 2.0, n_flows),
        betas=rng.uniform(0.3, 0.8, n_flows),
    )
    sync = SyncModel(pi=pi)
    got = run_simulation(net, flows, sync, epochs, seed=seed)
    want = aimd_reference.run_simulation(net, flows, sync, epochs, seed=seed)
    assert np.array_equal(got.taus, want.taus)
    assert np.array_equal(got.per_flow_q, want.per_flow_q)
    assert np.array_equal(got.post_event_means, want.post_event_means)
    assert got.realized_r == want.realized_r
    route_cap = np.array([net.capacities[r].min() for r in flows.routes])
    assert np.all(got.per_flow_q <= route_cap * (1 + 1e-9))


def test_kernel_matches_frozen_reference_on_a_dense_instance():
    # uniform capacities on a 2000-node tree: 98 members per event on
    # average.  5 events take the scalar path; of those on the numpy
    # path, whose whole-array passes leave untouched links as they were,
    # 270 touch more than a tenth of the live links and 25 fewer
    tree = grow(TreeParams(alpha_t=0.5, tau=1999, seed=0))
    net = FluidNetwork.from_tree(tree, np.full(1999, 10.0))
    flows = uniform_tree_flows(tree, 300, seed=0)
    sync = SyncModel(pi=1.0)
    got = run_simulation(net, flows, sync, 300, seed=0)
    want = aimd_reference.run_simulation(net, flows, sync, 300, seed=0)
    assert np.array_equal(got.taus, want.taus)
    assert np.array_equal(got.per_flow_q, want.per_flow_q)
    assert np.array_equal(got.post_event_means, want.post_event_means)
    assert got.realized_r == want.realized_r == 1.0
    owner = np.repeat(np.arange(flows.n_flows), np.diff(flows.route_ptr))
    n_live = np.unique(flows.route_links).size
    touched = {e: np.unique(flows.route_links[np.isin(owner, owner[flows.route_links == e])]).size
               for e in np.unique(got.congested_edges)}
    members = np.bincount(flows.route_links, minlength=net.n_edges)[got.congested_edges]
    share = np.array([touched[e] / n_live for e in got.congested_edges])
    numpy_path = members > _SCALAR_MAX_MEMBERS
    assert members.mean() >= 50
    assert (~numpy_path).any()
    assert (numpy_path & (share < 0.1)).any() and (numpy_path & (share > 0.1)).any()


def test_kernel_matches_frozen_reference_on_a_sparse_instance():
    # mean_field capacities on a 1000-node tree: 1.4 members per event, so
    # every event takes the scalar path, and some events cut several
    # members whose routes share links
    tree = grow(TreeParams(alpha_t=0.5, tau=999, seed=0))
    base = FluidNetwork.from_tree(tree, np.full(999, 10.0))
    net = assign_capacities(base, "mean_field", 10.0, tree_stats=measure(tree))
    flows = uniform_tree_flows(tree, 100, seed=0)
    sync = SyncModel(pi=1.0)
    got = run_simulation(net, flows, sync, 1000, seed=0)
    want = aimd_reference.run_simulation(net, flows, sync, 1000, seed=0)
    assert np.array_equal(got.taus, want.taus)
    assert np.array_equal(got.per_flow_q, want.per_flow_q)
    assert np.array_equal(got.post_event_means, want.post_event_means)
    assert got.realized_r == want.realized_r == 1.0
    members = np.bincount(flows.route_links, minlength=net.n_edges)[got.congested_edges]
    assert members.max() <= _SCALAR_MAX_MEMBERS
    assert (members > 1).any()


@pytest.mark.parametrize("n_vertices", [2, 3, 10**4, 2**31 + 1, 2**32 + 5])
def test_distinct_pairs_match_the_per_pair_loop(n_vertices):
    # 2 draws u = v in half the rows, so batches refill; 2^31 + 1 rejects
    # about half of the 32-bit words; 2^32 + 5 draws 64-bit words
    for seed in range(6):
        rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _distinct_pairs(rng, n_vertices, 300)
        want = aimd_reference.vertex_pairs(rng_loop, n_vertices, 300)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # the same words of the stream, and no more
        assert rng.bit_generator.state == rng_loop.bit_generator.state


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("workload", ["netsim-sparse", "netsim-dense"])
def test_netsim_benchmark_checks_and_golden_digests_hold(workload, scale):
    # at seed 0 the run also compares the taus, per_flow_q and grown-tree
    # parent digests of perfbench/golden.json, which fix every kernel bit
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    out = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--scale", scale],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is True, out


def test_redraws_count_the_empty_draws():
    # no draw at pi = 1; at pi = 0.2 two members draw nothing with
    # probability 0.64, so the retries per event are geometric with mean
    # 0.64 / 0.36 and variance 0.64 / 0.36^2
    net, flows = _single_link(), _flows_on_link(2)
    assert run_simulation(net, flows, SyncModel(pi=1.0), 500, seed=0).redraws == 0
    n = 20000
    report = run_simulation(net, flows, SyncModel(pi=0.2), n, seed=3)
    empty = (1.0 - 0.2) ** 2
    mean, var = empty / (1.0 - empty), empty / (1.0 - empty) ** 2
    assert report.redraws / n == pytest.approx(mean, abs=3 * math.sqrt(var / n))


@given(
    n_vertices=st.integers(1, 40),
    n_edges=st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_connected_matches_union_find(n_vertices, n_edges, seed):
    # random multigraphs: repeated edges and self-loops, often disconnected
    rng = np.random.default_rng(seed)
    endpoints = rng.integers(0, n_vertices, size=(n_edges, 2))
    want = aimd_reference.connected(n_vertices, endpoints)
    assert _connected(n_vertices, endpoints) == want


def test_connected_on_long_paths_and_split_graphs():
    n = 100_000
    perm = np.random.default_rng(4).permutation(n)
    path = np.stack([perm[:-1], perm[1:]], axis=1)
    assert aimd_reference.connected(n, path)
    assert _connected(n, path)
    # cut the path once, or leave one vertex isolated: two components
    assert not _connected(n, np.delete(path, n // 2, axis=0))
    assert not _connected(n + 1, path)
    # a grown tree plus self-loops stays connected; minus its last edge not
    tree = grow(TreeParams(alpha_t=0.5, tau=5000, seed=1))
    edges = np.stack([np.arange(1, 5001), tree.parent[1:]], axis=1)
    loops = np.repeat(np.arange(0, 5001, 7)[:, None], 2, axis=1)
    assert _connected(5001, np.concatenate([loops, edges]))
    assert not _connected(5001, edges[:-1])
    assert _connected(1, np.empty((0, 2), dtype=np.int64))


def test_feasibility_never_violated():
    tree = grow(TreeParams(alpha_t=0.5, tau=40, seed=3))
    net = FluidNetwork.from_tree(tree, np.full(tree.tau, 30.0))
    flows = uniform_tree_flows(tree, 30, seed=9)
    cur = flows
    rng = np.random.default_rng(2)
    for _ in range(200):
        tau, edge = next_congestion(net, cur)
        cur = apply_congestion(cur, edge, tau, SyncModel(pi=0.5), rng)
        loads = np.zeros(net.n_edges)
        for i, route in enumerate(cur.routes):
            loads[route] += cur.X[i]
        assert np.all(loads <= net.capacities * (1 + 1e-9))


def test_run_simulation_seed_determinism():
    tree = grow(TreeParams(alpha_t=0.5, tau=30, seed=21))
    net = FluidNetwork.from_tree(tree, np.full(tree.tau, 50.0))
    flows = uniform_tree_flows(tree, 25, seed=5)
    a = run_simulation(net, flows, SyncModel(pi=0.5), 100, seed=4)
    b = run_simulation(net, flows, SyncModel(pi=0.5), 100, seed=4)
    assert np.array_equal(a.per_flow_q, b.per_flow_q)
    assert a.duration == b.duration


def test_assign_capacities_mean_is_exact():
    tree = grow(TreeParams(alpha_t=0.5, tau=500, seed=17))
    stats = measure(tree)
    base = FluidNetwork.from_tree(tree, np.full(tree.tau, 1.0))
    for name in CAPACITY_STRATEGIES:
        net = assign_capacities(base, name, 7.5, tree_stats=stats)
        assert net.capacities.mean() == pytest.approx(7.5, rel=1e-12), name
        assert np.all(net.capacities > 0.0), name


def test_assign_capacities_mean_field_weights_are_betweenness():
    tau = 8
    tree = _path_tree(tau)
    stats = measure(tree)
    base = FluidNetwork.from_tree(tree, np.full(tau, 1.0))
    net = assign_capacities(base, "mean_field", 1.0, tree_stats=stats)
    want = stats.betweenness / stats.betweenness.mean()
    assert np.allclose(net.capacities, want, rtol=1e-12)


def test_assign_capacities_degree_rules_on_path():
    # interior chain edges have q_younger = q_older = 1; the tail edge has
    # q_younger = 0, so minimum and product floor it while maximum keeps 1
    tau = 6
    tree = _path_tree(tau)
    stats = measure(tree)
    base = FluidNetwork.from_tree(tree, np.full(tau, 1.0))
    c_min = assign_capacities(base, "minimum", 1.0, tree_stats=stats).capacities
    c_max = assign_capacities(base, "maximum", 1.0, tree_stats=stats).capacities
    tail = int(np.argmax(stats.child == tau))
    assert c_min[tail] < c_min[(tail + 1) % tau]
    assert np.allclose(c_max, c_max[0])


def test_assign_capacities_uniform_ignores_stats():
    tree = grow(TreeParams(alpha_t=0.5, tau=50, seed=1))
    base = FluidNetwork.from_tree(tree, np.full(tree.tau, 3.0))
    net = assign_capacities(base, "uniform", 3.0)
    assert np.allclose(net.capacities, 3.0)


def test_uniform_tree_flows_routes_are_tree_paths():
    tree = grow(TreeParams(alpha_t=0.5, tau=40, seed=6))
    flows = uniform_tree_flows(tree, 20, seed=2)
    assert len(flows.routes) == 20
    child, parent = tree.edge_endpoints()
    for route in flows.routes:
        assert route.size >= 1
        assert len(set(route.tolist())) == route.size
        # edge set of a simple path: connected (V = E + 1) and max degree 2
        touched = np.concatenate([child[route], parent[route]])
        verts, deg = np.unique(touched, return_counts=True)
        assert verts.size == route.size + 1
        assert deg.max() <= 2
        assert np.sum(deg == 1) == 2


@pytest.mark.parametrize(
    "route_ptr, route_links, match",
    [
        ([0, 1, 1, 2], [0, 1], "at least one link"),  # empty route
        ([0, 2, 1, 3], [0, 1, 2], "at least one link"),  # falling pointer
        ([0, 3], [2, 1, 2], "repeated link"),
        ([0, 1, 3], [4, 0, 0], "repeated link"),
        ([1, 2], [0, 1], "route_ptr"),  # does not start at 0
        ([0, 1], [0, 1], "route_ptr"),  # does not end at len(route_links)
        ([], [], "route_ptr"),
        ([0, 1, 2], [0, -1], "nonnegative"),
    ],
)
def test_flowset_rejects_malformed_routes(route_ptr, route_links, match):
    with pytest.raises(ValueError, match=match):
        FlowSet(route_ptr=route_ptr, route_links=route_links, alphas=1.0, betas=0.5,
                rtts=1.0, packet_sizes=1.0, X=0.0)


def _network(endpoints, capacities, n_vertices):
    return FluidNetwork(np.array(endpoints, np.int64), np.array(capacities, float), n_vertices)


def _path_capacities(strategy, mean_capacity=1.0, stats_tau=None):
    network = FluidNetwork.from_tree(_path_tree(3))
    stats = None
    if stats_tau is not None:
        stats = measure(grow(TreeParams(alpha_t=0.5, tau=stats_tau, seed=0)))
    return assign_capacities(network, strategy, mean_capacity, tree_stats=stats)


def _simulate(epochs=10, **flow_fields):
    flows = _flows_on_link(2, **flow_fields)
    return run_simulation(_single_link(10.0), flows, SyncModel(), epochs)


_NAN, _INF = math.nan, math.inf


# NaN fails every comparison, so each check is written to fail on it too
@pytest.mark.parametrize("build, error, match", [
    (lambda: _network([[0, 1]], [1.0, 2.0], 2), ValueError, "one capacity per edge"),
    *[(lambda c=c: _network([[0, 1]], [c], 2), ValueError,
       "capacities must be finite and positive") for c in (0.0, -1.0, _NAN, _INF)],
    (lambda: _network([[0, 2]], [1.0], 2), ValueError, "endpoints out of range"),
    (lambda: _network([[-1, 0]], [1.0], 2), ValueError, "endpoints out of range"),
    (lambda: _network([[0, 1]], [1.0], 3), ValueError, "must be connected"),
    *[(lambda v=v: _flows_on_link(1, alphas=v), ValueError, "alphas must be positive")
      for v in (0.0, _NAN)],
    *[(lambda v=v: _flows_on_link(1, betas=v), ValueError, r"betas must lie in \(0, 1\)")
      for v in (0.0, 1.0, _NAN)],
    *[(lambda v=v: _flows_on_link(1, rtts=v), ValueError, "rtts must be positive")
      for v in (0.0, _NAN)],
    *[(lambda v=v: _flows_on_link(1, packet_sizes=v), ValueError,
       "packet sizes must be positive") for v in (0.0, _NAN)],
    *[(lambda v=v: _flows_on_link(1, X=v), ValueError, "throughputs must be nonnegative")
      for v in (-1.0, _NAN)],
    *[(lambda v=v: SyncModel(pi=v).propensities(3), ValueError, r"pi must lie in \(0, 1\]")
      for v in (0.0, 1.5, _NAN)],
    *[(lambda v=v: _simulate(epochs=v), ValueError, "epochs must be positive")
      for v in (0, _NAN)],
    (lambda: _simulate(X=6.0), ValueError, "initial throughputs already exceed"),
    # infinite rtts: no flow grows, so no link ever congests
    (lambda: _simulate(rtts=_INF), StagnationError, "no link accumulates load"),
    (lambda: _path_capacities("fastest"), ValueError, "unknown strategy 'fastest'"),
    *[(lambda v=v: _path_capacities("uniform", v), ValueError,
       "mean_capacity must be finite and positive") for v in (0.0, -1.0, _NAN, _INF)],
    (lambda: _path_capacities("maximum"), ValueError, "strategy 'maximum' needs tree_stats"),
    (lambda: _path_capacities("mean_field", stats_tau=5), ValueError,
     "tree_stats edge count does not match"),
])
def test_aimd_inputs_raise_their_documented_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_flowset_routes_are_views_of_the_flat_links():
    # one link shared by two routes is fine; within one route it is not
    flows = FlowSet(route_ptr=[0, 2, 3, 6], route_links=[3, 0, 3, 1, 2, 0], alphas=1.0,
                    betas=0.5, rtts=1.0, packet_sizes=1.0, X=0.0)
    assert flows.n_flows == 3
    assert [r.tolist() for r in flows.routes] == [[3, 0], [3], [1, 2, 0]]
    assert all(r.base is flows.route_links for r in flows.routes)


def test_max_min_fair_hand_case():
    # link A (capacity 1) carries f0 and f1, link B (capacity 2) f1 and f2:
    # A saturates at 0.5 each, then f2 takes the 1.5 that B has left
    rate = aimd_reference.max_min_fair([1.0, 2.0], [0, 1, 3, 4], [0, 0, 1, 1])
    assert rate.tolist() == [0.5, 0.5, 1.5]


def test_max_min_fair_orders_strategies_at_criterion_12_inputs():
    # criterion 12's tree, flows and capacities, without its 10^6 events:
    # the allocation AIMD approaches already ranks the strategies
    tree = grow(TreeParams(alpha_t=0.5, tau=9999, seed=101))
    stats = measure(tree)
    base = FluidNetwork.from_tree(tree, np.full(9999, 1e5))
    flows = uniform_tree_flows(tree, 1000, beta=0.5, seed=202)
    owner = np.repeat(np.arange(flows.n_flows), np.diff(flows.route_ptr))
    mean, med = {}, {}
    for name in CAPACITY_STRATEGIES:
        cap = assign_capacities(base, name, 1e5, tree_stats=stats).capacities
        rate = aimd_reference.max_min_fair(cap, flows.route_ptr, flows.route_links)
        # max-min fair: feasible, and every flow has a saturated link on
        # its route where no other flow gets more
        load = np.bincount(flows.route_links, weights=rate[owner], minlength=cap.size)
        assert np.all(load <= cap * (1 + 1e-12)), name
        top = np.zeros(cap.size)
        np.maximum.at(top, flows.route_links, rate[owner])
        bottleneck = (load[flows.route_links] >= cap[flows.route_links] * (1 - 1e-12)) & (
            rate[owner] == top[flows.route_links])
        assert np.all(np.bincount(owner, weights=bottleneck) > 0), name
        mean[name], med[name] = rate.mean(), np.median(rate)
    order = ("mean_field", "minimum", "product", "maximum", "uniform")
    assert all(mean[a] > mean[b] for a, b in zip(order, order[1:])), mean
    assert all(med[a] > med[b] for a, b in zip(order, order[1:])), med
    assert med["mean_field"] / med["uniform"] > 10.0, med


def test_flowset_broadcasting_and_growth():
    flows = _flows_on_link(3, alphas=2.0, packet_sizes=3.0, rtts=4.0)
    assert np.allclose(flows.growth_rates, 1.5)
    with pytest.raises(ValueError):
        _flows_on_link(2, X=np.array([1.0, 2.0, 3.0]))


def test_overloaded_start_rejected():
    net = _single_link(5.0)
    flows = _flows_on_link(2, X=np.array([3.0, 3.0]))
    with pytest.raises(ValueError):
        run_simulation(net, flows, SyncModel(pi=1.0), 10, seed=0)


def test_route_link_outside_network_rejected():
    # numpy once failed here on operands that could not be broadcast
    net = FluidNetwork(endpoints=[[0, 1], [1, 2]], capacities=[10.0, 4.0], n_vertices=3)
    flows = FlowSet(route_ptr=[0, 1, 2], route_links=[0, 5], alphas=1.0, betas=0.5,
                    rtts=1.0, packet_sizes=1.0, X=0.0)
    with pytest.raises(ValueError, match="flow 1 routes over link 5"):
        run_simulation(net, flows, SyncModel(pi=1.0), 10, seed=0)
