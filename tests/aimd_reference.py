"""Reference AIMD event loop, kept as the oracle for `aimd_net.run_simulation`.

`next_congestion` and `apply_congestion` step the network one congestion
event at a time by brute force over every link and flow.  `run_simulation`
and `PerformanceReport` below are the event loop as it stood before the
compacted kernel, frozen: the kernel must reproduce their `taus`,
`per_flow_q`, `post_event_means` and `realized_r` bit for bit.
`connected` is the union-find connectivity check `FluidNetwork` ran
before root hooking, frozen as the oracle for `aimd_net._connected`.
`path_edges` is the per-pair tree climb `uniform_tree_flows` ran before
the batched `tree_gen.tree_paths`, frozen as its oracle.  `max_min_fair`
is the water-filling allocation that AIMD approaches on the same routes.
`vertex_pairs` is the per-pair draw loop `uniform_tree_flows` ran before
the batched `aimd_net._distinct_pairs`, frozen as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from tcpfluid.aimd_net import FlowSet, FluidNetwork, StagnationError, SyncModel
from tcpfluid.tree_gen import GrowingTree


def connected(n_vertices: int, endpoints: np.ndarray) -> bool:
    """Union-find with path halving over the (E, 2) edge array."""
    parent = np.arange(n_vertices)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in endpoints:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    root = find(0)
    return all(find(v) == root for v in range(n_vertices))


def path_edges(tree: GrowingTree, u: int, v: int) -> np.ndarray:
    """Edge ids on the unique path between vertices u and v."""
    if u == v:
        return np.empty(0, dtype=np.int64)
    parent = tree.parent
    on_u_branch = {u}
    w = u
    while w != 0:
        w = int(parent[w])
        on_u_branch.add(w)
    # climb from v until the u-root chain is hit, then from u to there
    edges = []
    w = v
    while w not in on_u_branch:
        edges.append(w - 1)
        w = int(parent[w])
    meet = w
    w = u
    while w != meet:
        edges.append(w - 1)
        w = int(parent[w])
    return np.asarray(edges, dtype=np.int64)


def vertex_pairs(rng: np.random.Generator, nv: int, n_flows: int) -> np.ndarray:
    """(n_flows, 2) distinct vertex pairs, drawn one pair at a time."""
    pairs = []
    while len(pairs) < n_flows:
        u, v = rng.integers(0, nv, size=2)
        if u != v:
            pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def max_min_fair(capacities, route_ptr, route_links) -> np.ndarray:
    """Max-min fair rate of each CSR-routed flow, by progressive filling.

    Bertsekas & Gallager, Data Networks, 2nd ed., 1992, section 6.5: each
    round raises every unfrozen flow by the smallest remaining capacity
    per unfrozen member over all links, then freezes the flows crossing
    the links that attain it.
    """
    capacities = np.asarray(capacities, dtype=float)
    route_links = np.asarray(route_links, dtype=np.int64)
    n = len(route_ptr) - 1
    owner = np.repeat(np.arange(n), np.diff(route_ptr))
    rate = np.zeros(n)
    remaining = capacities.copy()
    frozen = np.zeros(n, dtype=bool)
    while not frozen.all():
        count = np.bincount(route_links[~frozen[owner]], minlength=capacities.size)
        share = np.full(capacities.size, np.inf)
        np.divide(remaining, count, out=share, where=count > 0)
        step = share.min()
        rate[~frozen] += step
        remaining -= step * count
        saturated = share == step
        frozen |= np.bincount(owner, weights=saturated[route_links], minlength=n) > 0
    return rate


def _edge_loads(network: FluidNetwork, flows: FlowSet, values: np.ndarray):
    """Per-link sums of a per-flow quantity, by brute-force accumulation."""
    out = np.zeros(network.n_edges)
    for i, route in enumerate(flows.routes):
        out[route] += values[i]
    return out


def next_congestion(network: FluidNetwork, flows: FlowSet) -> tuple[float, int]:
    """Time to the next capacity hit and the link where it happens.

    Brute-force scan over links; the simulation loop keeps an
    incrementally updated copy of the same quantities.
    """
    loads = _edge_loads(network, flows, flows.X)
    growth = _edge_loads(network, flows, flows.growth_rates)
    slack = network.capacities - loads
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(growth > 0.0, slack / growth, np.inf)
    tau = np.maximum(tau, 0.0)
    edge = int(np.argmin(tau))  # argmin takes the lowest id on ties
    if not np.isfinite(tau[edge]):
        raise StagnationError("no link accumulates load; no congestion ever")
    return float(tau[edge]), edge


def apply_congestion(
    flows: FlowSet,
    edge: int,
    tau: float,
    sync: SyncModel,
    rng: np.random.Generator,
) -> FlowSet:
    """Advance all flows by tau, then cut the losers on the congested link."""
    x = flows.X + flows.growth_rates * tau
    on_edge = np.array([edge in set(r.tolist()) for r in flows.routes])
    idx = np.nonzero(on_edge)[0]
    if idx.size == 0:
        raise ValueError(f"no flow crosses link {edge}")
    xi = sync.draw(rng, sync.propensities(flows.n_flows)[idx])
    losers = idx[xi]
    x[losers] *= flows.betas[losers]
    return replace(flows, X=x)


@dataclass(frozen=True)
class PerformanceReport:
    """Time averages and event statistics of one simulation run."""

    per_flow_q: np.ndarray
    mean_q: float
    mean_tau: float
    realized_r: float
    mean_post_event_throughput: float
    n_events: int
    duration: float
    taus: np.ndarray
    post_event_means: np.ndarray


def run_simulation(
    network: FluidNetwork,
    flows: FlowSet,
    sync: SyncModel,
    epochs: int,
    seed: int = 0,
) -> PerformanceReport:
    """Run `epochs` congestion events and report per-flow time averages.

    Each throughput is linear between its own halvings, so X is stored as
    intercept-at-t0 plus rate, Q accumulates closed-form segment
    integrals, and link hitting times are recomputed from per-link load
    intercepts.  Matches the next_congestion/apply_congestion pair
    event for event under the same seed.
    """
    if epochs < 1:
        raise ValueError("epochs must be positive")
    rng = np.random.default_rng(seed)
    n_flows = flows.n_flows
    n_edges = network.n_edges
    g = flows.growth_rates
    betas = flows.betas
    pi = sync.propensities(n_flows)

    # flows per link, for the congestion-side draw
    edge_flows: list[list[int]] = [[] for _ in range(n_edges)]
    for i, route in enumerate(flows.routes):
        for e in route.tolist():
            edge_flows[e].append(i)
    edge_flows_arr = [np.array(lst, dtype=np.int64) for lst in edge_flows]
    # static flattened member routes per link, so one event updates every
    # touched link with a single weighted bincount instead of a concat
    flat_edges = [
        np.concatenate([flows.routes[i] for i in lst])
        if lst else np.empty(0, dtype=np.int64)
        for lst in edge_flows
    ]
    flat_owner = [
        np.repeat(
            np.arange(len(lst)), [flows.routes[i].size for i in lst]
        )
        for lst in edge_flows
    ]

    growth_per_edge = _edge_loads(network, flows, g)
    intercept_per_edge = _edge_loads(network, flows, flows.X)
    if np.any(intercept_per_edge > network.capacities):
        raise ValueError("initial throughputs already exceed a link capacity")
    live = growth_per_edge > 0.0
    if not np.any(live):
        raise StagnationError("no link accumulates load; no congestion ever")
    live_ids = np.nonzero(live)[0]
    cap_live = network.capacities[live_ids]
    inv_growth_live = 1.0 / growth_per_edge[live_ids]

    # per-flow linear segment: X(t) = x_base + g*(t - t_base) for t >= t_base
    x_base = flows.X.copy()
    t_base = np.zeros(n_flows)
    q_integral = np.zeros(n_flows)
    # per-link intercept of the aggregate load line at absolute t = 0;
    # stays exact between events because every growth rate is constant
    b_edge = intercept_per_edge.copy()

    taus = np.empty(epochs)
    post_means = np.empty(epochs)
    losses = 0
    draws = 0
    t_now = 0.0
    for k in range(epochs):
        t_hit_live = (cap_live - b_edge[live_ids]) * inv_growth_live
        hit = int(np.argmin(t_hit_live))
        edge = int(live_ids[hit])
        t_event = t_hit_live[hit]
        taus[k] = t_event - t_now
        t_now = t_event

        members = edge_flows_arr[edge]
        xi = sync.draw(rng, pi[members])
        losers = members[xi]
        draws += members.size
        losses += losers.size

        x_at_event = x_base[losers] + g[losers] * (t_now - t_base[losers])
        dt = t_now - t_base[losers]
        q_integral[losers] += x_base[losers] * dt + 0.5 * g[losers] * dt * dt
        x_new = betas[losers] * x_at_event
        x_base[losers] = x_new
        t_base[losers] = t_now

        # post-event mean throughput across the congested link's flows
        post_members = x_base[members] + g[members] * (t_now - t_base[members])
        post_means[k] = post_members.mean()

        # every link on a loser's route loses that flow's throughput cut
        # from its load intercept
        cut_by_member = np.zeros(members.size)
        cut_by_member[xi] = x_at_event - x_new
        b_edge -= np.bincount(
            flat_edges[edge],
            weights=cut_by_member[flat_owner[edge]],
            minlength=n_edges,
        )

    # flush the tail segments into Q
    dt = t_now - t_base
    q_integral += x_base * dt + 0.5 * g * dt * dt
    per_flow_q = q_integral / t_now if t_now > 0.0 else np.zeros(n_flows)
    return PerformanceReport(
        per_flow_q=per_flow_q,
        mean_q=float(per_flow_q.mean()),
        mean_tau=float(taus.mean()),
        realized_r=losses / draws if draws else math.nan,
        mean_post_event_throughput=float(post_means.mean()),
        n_events=epochs,
        duration=float(t_now),
        taus=taus,
        post_event_means=post_means,
    )
