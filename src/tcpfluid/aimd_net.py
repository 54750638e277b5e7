"""Multi-link AIMD fluid network simulator.

Flows grow their throughput linearly at alpha*P/R along fixed routes
until some link's aggregate load reaches its capacity.  At that instant
every flow crossing the congested link draws a loss indicator (at least
one flow must lose), losers cut their throughput by beta, and growth
resumes.  Buffers are taken as zero: the congestion event is
instantaneous and only the congested link's flows are disturbed.  The
draw is made only where a member can escape: when every flow has pi = 1,
every member loses and the simulator draws nothing.

Routes keep one CSR layout from `tree_gen.tree_paths` to the kernel:
flow i crosses the link ids route_links[route_ptr[i]:route_ptr[i+1]].

Between events every throughput is linear in t, so each link keeps an
absolute hitting time that stays fixed until one of its flows is cut.
`run_simulation` indexes its state by the links some flow grows on, and
Q integrates exactly over the linear segments.  Congested links with at
most seven members take a scalar Python path that recomputes only the
links on the losers' routes; larger ones take a numpy path that
recomputes every link in whole-array passes.  Both give the bits one
vectorized step over every link would: numpy sums fewer than eight
terms sequentially, as the scalar loop does, and pairwise from eight
on.  The scalar path runs on Python floats, read and written through
memoryviews of the state arrays: a Python float is the same IEEE
double, and each touched link takes the two operations numpy would
apply to its entry, b - cut and then (C - b) * (1/growth), so the bits
stay while the per-event numpy calls, all but the argmin, go.

Capacity allocation strategies weight links uniformly, by endpoint
in-degrees (max, min, product), or by edge betweenness (the mean-field
profile of offered load on the unique tree paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .tree_gen import EdgeMeasurements, GrowingTree, tree_paths

__all__ = [
    "FluidNetwork",
    "FlowSet",
    "SyncModel",
    "PerformanceReport",
    "StagnationError",
    "run_simulation",
    "assign_capacities",
    "uniform_tree_flows",
    "CAPACITY_STRATEGIES",
]

CAPACITY_STRATEGIES = ("uniform", "maximum", "minimum", "product", "mean_field")


class StagnationError(RuntimeError):
    """No link can ever congest: every aggregate growth rate is zero."""


def _connected(n_vertices: int, endpoints: np.ndarray) -> bool:
    """Whether the (E, 2) edge array joins all n_vertices into one component.

    Root hooking: each round hooks the larger root of every edge onto the
    smaller, shortcuts every label to its root and drops the edges whose
    ends share one, so a component's root is its smallest vertex.  A
    round is O(V + E) array work; rounds are few (11-12 on a permuted
    10^5-vertex path), where min-label propagation needs O(diameter).
    """
    label = np.arange(n_vertices)
    u, v = endpoints[:, 0], endpoints[:, 1]
    while u.size:
        lu, lv = label[u], label[v]
        live = lu != lv
        u, v, lu, lv = u[live], v[live], lu[live], lv[live]
        # among several hooks of one root, the last write wins
        label[np.maximum(lu, lv)] = np.minimum(lu, lv)
        while True:
            hop = label[label]
            if np.array_equal(hop, label):
                break
            label = hop
    return bool(np.all(label == 0))


@dataclass(frozen=True)
class FluidNetwork:
    """Edge list with capacities in bits/sec; must be connected."""

    endpoints: np.ndarray
    capacities: np.ndarray
    n_vertices: int

    def __post_init__(self):
        ep = np.asarray(self.endpoints, dtype=np.int64).reshape(-1, 2)
        cap = np.asarray(self.capacities, dtype=float)
        if cap.shape != (ep.shape[0],):
            raise ValueError("one capacity per edge required")
        if not np.all(cap > 0.0):
            raise ValueError("capacities must be positive")
        if ep.size and (ep.min() < 0 or ep.max() >= self.n_vertices):
            raise ValueError("edge endpoints out of range")
        if not _connected(self.n_vertices, ep):
            raise ValueError("network must be connected")
        object.__setattr__(self, "endpoints", ep)
        object.__setattr__(self, "capacities", cap)

    @property
    def n_edges(self) -> int:
        return self.endpoints.shape[0]

    def with_capacities(self, capacities) -> "FluidNetwork":
        return FluidNetwork(self.endpoints, np.asarray(capacities, float),
                            self.n_vertices)

    @classmethod
    def from_tree(cls, tree: GrowingTree, capacities=None) -> "FluidNetwork":
        child, parent = tree.edge_endpoints()
        ep = np.stack([child, parent], axis=1)
        if capacities is None:
            capacities = np.ones(tree.tau)
        return cls(ep, capacities, tree.n_vertices)


@dataclass(frozen=True)
class FlowSet:
    """Fixed-route AIMD flows and their current throughputs.

    Routes are CSR: flow i crosses the link ids
    route_links[route_ptr[i]:route_ptr[i+1]], and each route is nonempty
    and simple.  alpha/beta/rtt/packet_size are per flow, so a
    heterogeneous population is just different array entries.
    """

    route_ptr: np.ndarray
    route_links: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    rtts: np.ndarray
    packet_sizes: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        ptr = np.array(self.route_ptr, dtype=np.int64)
        links = np.array(self.route_links, dtype=np.int64)
        if (ptr.ndim != 1 or links.ndim != 1 or ptr[:1].tolist() != [0]
                or ptr[-1] != links.size):
            raise ValueError("route_ptr must run from 0 to len(route_links), both 1-D")
        sizes = np.diff(ptr)
        if not np.all(sizes > 0):
            raise ValueError("every route needs at least one link")
        if not np.all(links >= 0):
            raise ValueError("link ids must be nonnegative")
        n = sizes.size
        # owner is sorted, so sorting by (owner, link) keeps it in place
        owner = np.repeat(np.arange(n), sizes)
        ranked = links[np.lexsort((links, owner))]
        if np.any((ranked[1:] == ranked[:-1]) & (owner[1:] == owner[:-1])):
            raise ValueError("routes must be simple (no repeated link)")
        arrays = {"route_ptr": ptr, "route_links": links}
        for name in ("alphas", "betas", "rtts", "packet_sizes", "X"):
            a = np.broadcast_to(np.asarray(getattr(self, name), float), (n,)).copy()
            arrays[name] = a
        if not np.all(arrays["alphas"] > 0.0):
            raise ValueError("alphas must be positive")
        if not np.all((arrays["betas"] > 0.0) & (arrays["betas"] < 1.0)):
            raise ValueError("betas must lie in (0, 1)")
        if not np.all(arrays["rtts"] > 0.0):
            raise ValueError("rtts must be positive")
        if not np.all(arrays["packet_sizes"] > 0.0):
            raise ValueError("packet sizes must be positive")
        if not np.all(arrays["X"] >= 0.0):
            raise ValueError("throughputs must be nonnegative")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

    @property
    def n_flows(self) -> int:
        return self.route_ptr.size - 1

    @property
    def routes(self) -> tuple:
        """Per-flow views of route_links, one array of link ids each."""
        return tuple(np.split(self.route_links, self.route_ptr[1:-1]))

    @property
    def growth_rates(self) -> np.ndarray:
        """Linear throughput growth alpha*P/R of each flow, bits/sec^2."""
        return self.alphas * self.packet_sizes / self.rtts


def _distinct_pairs(rng: np.random.Generator, n_vertices: int, n_pairs: int) -> np.ndarray:
    """(n_pairs, 2) uniform vertex pairs with u != v, drawn a batch at a time.

    Each batch draws one row per pair still missing and keeps the rows
    with u != v.  numpy's bounded integers take the generator's words one
    element at a time, rejections included, so this yields the pairs that
    drawing `integers(0, n_vertices, size=2)` until a distinct one comes
    up yields, pair after pair.
    """
    pairs = np.empty((0, 2), dtype=np.int64)
    while len(pairs) < n_pairs:
        uv = rng.integers(0, n_vertices, size=(n_pairs - len(pairs), 2))
        pairs = np.concatenate((pairs, uv[uv[:, 0] != uv[:, 1]]))
    return pairs


def uniform_tree_flows(
    tree: GrowingTree,
    n_flows: int,
    *,
    beta: float = 0.5,
    seed: int = 0,
) -> FlowSet:
    """Flows between uniformly drawn distinct vertex pairs, tree-path routes.

    Every flow has unit alpha, RTT and packet size.  The pairs are those
    of drawing one pair at a time until n_flows distinct ones came up;
    `_distinct_pairs` draws them in batches.
    """
    u, v = _distinct_pairs(np.random.default_rng(seed), tree.n_vertices, n_flows).T
    return FlowSet(
        *tree_paths(tree, u, v),
        alphas=1.0,
        betas=beta,
        rtts=1.0,
        packet_sizes=1.0,
        X=np.zeros(n_flows),
    )


@dataclass(frozen=True)
class SyncModel:
    """Per-flow loss propensity pi; draws are conditioned on >= 1 loss.

    pi may be a scalar or a per-flow array.  The simulation reports the
    realized synchronization rate r = (losers summed over all events) /
    (members summed over all events), a member-weighted share; it equals
    the mean per-event fraction of members that lose only when every
    event has the same member count, as on a single link.  r is reported
    rather than inverted from a target.
    """

    pi: object = 1.0

    def propensities(self, n_flows: int) -> np.ndarray:
        p = np.broadcast_to(np.asarray(self.pi, float), (n_flows,))
        if not np.all((p > 0.0) & (p <= 1.0)):
            raise ValueError("pi must lie in (0, 1]")
        return p

    def draw(self, rng: np.random.Generator, pi_on_edge: np.ndarray) -> np.ndarray:
        """Loss indicators for the congested link's flows; at least one set."""
        return self.draw_counted(rng, pi_on_edge)[0]

    def draw_counted(self, rng: np.random.Generator,
                     pi_on_edge: np.ndarray) -> tuple[np.ndarray, int]:
        """`draw`'s indicators and the number of empty draws retried first."""
        redraws = 0
        while True:
            xi = rng.random(pi_on_edge.size) < pi_on_edge
            if np.count_nonzero(xi):
                return xi, redraws
            redraws += 1


@dataclass(frozen=True)
class PerformanceReport:
    """Time averages and event statistics of one simulation run.

    congested_edges holds the link id of each event; members per event
    and per-link congestion counts follow from it and the routes.
    realized_r is losers over members, each summed over all events (see
    SyncModel).  redraws counts the loss draws that came up empty and
    were retried; it is 0 at pi = 1, where no draw is made.
    """

    per_flow_q: np.ndarray
    mean_q: float
    mean_tau: float
    realized_r: float
    mean_post_event_throughput: float
    n_events: int
    duration: float
    taus: np.ndarray
    post_event_means: np.ndarray
    congested_edges: np.ndarray
    redraws: int


# Largest member count on the scalar path: numpy's add.reduce sums fewer
# than 8 terms sequentially from 0.0, and from 8 on pairwise
_SCALAR_MAX_MEMBERS = 7


def run_simulation(
    network: FluidNetwork,
    flows: FlowSet,
    sync: SyncModel,
    epochs: int,
    seed: int = 0,
) -> PerformanceReport:
    """Run `epochs` congestion events and report per-flow time averages.

    X is stored per flow as intercept-at-t0 plus rate, and Q accumulates
    closed-form segment integrals.  Each link some flow grows on keeps
    its load intercept b and hitting time (C - b) / growth.  The scalar
    path (at most seven members) recomputes both only on the links its
    members' routes touch; the numpy path recomputes every link in
    whole-array passes, where untouched links subtract +0.0 and
    recompute the time they hold, the same bits.  Each touched link's
    cuts are summed in member order from 0.0 and subtracted once, on
    both paths.  The post-event mean sums members sequentially on the
    scalar path (numpy's own order below eight terms) and with
    np.add.reduce on the numpy path.  The scalar path keeps its links'
    static terms in Python lists and the state behind memoryviews, and
    makes per entry the float operations the numpy path makes per
    element, so the two differ in call overhead, not in bits.

    When every propensity is 1 every member of every congested link
    loses, the random stream has no other reader, and no draw is made.
    Otherwise each event makes one SyncModel.draw, as the reference loop
    does, so the stream is unchanged; only a draw that lets some member
    escape takes the masked update.
    """
    if epochs < 1:
        raise ValueError("epochs must be positive")
    rng = np.random.default_rng(seed)
    n_flows = flows.n_flows
    g, betas = flows.growth_rates, flows.betas
    pi = sync.propensities(n_flows)
    certain = bool(np.all(pi == 1.0))

    # every (flow, link) pair in flow order; per-link sums by bincount add
    # in that order from 0.0, the same bits as adding route by route
    flat = flows.route_links
    owner = np.repeat(np.arange(n_flows), np.diff(flows.route_ptr))
    outside = np.flatnonzero(flat >= network.n_edges)
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"flow {owner[i]} routes over link {flat[i]}, but the network "
            f"has {network.n_edges} links"
        )
    growth = np.bincount(flat, weights=g[owner], minlength=network.n_edges)
    b = np.bincount(flat, weights=flows.X[owner], minlength=network.n_edges)
    if np.any(b > network.capacities):
        raise ValueError("initial throughputs already exceed a link capacity")
    # compact positions in ascending link id, so argmin ties still go to
    # the lowest link id; links no flow grows on (infinite rtts) drop out
    kept = growth[flat] > 0.0
    live_ids, compact = np.unique(flat[kept], return_inverse=True)
    if live_ids.size == 0:
        raise StagnationError("no link accumulates load; no congestion ever")
    cap = network.capacities[live_ids]
    inv_growth = 1.0 / growth[live_ids]
    # load intercepts at t = 0 stay exact between events: growth is constant
    b = b[live_ids]
    t_hit = (cap - b) * inv_growth
    ptr = np.concatenate(([0], np.cumsum(kept)))[flows.route_ptr].tolist()
    flat_list, owner = compact.tolist(), owner[kept]
    routes = [flat_list[start:stop] for start, stop in zip(ptr, ptr[1:])]
    # each link's members in flow order: one stable sort by link position
    by_link = np.argsort(compact, kind="stable")
    member_ptr = np.searchsorted(compact[by_link], np.arange(live_ids.size + 1)).tolist()
    members_by_link = owner[by_link].tolist()
    links = {}

    def link(h: int) -> tuple:
        """Link h's members and static terms.

        Scalar-path links keep Python lists: the links their members'
        routes touch, those links' capacities and inverse growths, and
        each member's route as positions among them; the last entry is
        None.  Numpy-path links hold their member arrays there instead,
        with each route as live positions, and leave the lists None.
        """
        member_list = members_by_link[member_ptr[h]:member_ptr[h + 1]]
        member_routes = [routes[i] for i in member_list]
        pi_m = None if certain else pi[member_list]
        if len(member_list) <= _SCALAR_MAX_MEMBERS:
            touched = sorted(set().union(*member_routes))
            where = {j: n for n, j in enumerate(touched)}
            out = (member_list, pi_m, touched, [cap_list[j] for j in touched],
                   [inv_growth_list[j] for j in touched],
                   [[where[j] for j in r] for r in member_routes], None)
        else:
            members = np.array(member_list)
            g_m = g[members]
            # 0.5 * g_m * dt * dt evaluates (0.5 * g_m) first
            arrays = (members, g_m, 0.5 * g_m, betas[members],
                      np.array([j for r in member_routes for j in r]),
                      np.array([len(r) for r in member_routes]))
            out = (member_list, pi_m, None, None, None, None, arrays)
        links[h] = out
        return out

    g_list, beta_list = g.tolist(), betas.tolist()
    cap_list, inv_growth_list = cap.tolist(), inv_growth.tolist()
    all_lose = repeat(True)
    # per-flow linear segment: X(t) = x_base + g*(t - t_base) for t >= t_base
    x_base = flows.X.copy()
    t_base = np.zeros(n_flows)
    q_integral = np.zeros(n_flows)
    taus = np.empty(epochs)
    post_means = np.empty(epochs)
    hits = np.empty(epochs, dtype=np.int64)
    # the scalar path reads and writes Python floats through these views
    x_view, t_view, q_view = memoryview(x_base), memoryview(t_base), memoryview(q_integral)
    b_view, t_hit_view = memoryview(b), memoryview(t_hit)
    taus_view, post_view, hits_view = memoryview(taus), memoryview(post_means), memoryview(hits)
    losses = draws = redraws = 0
    t_now = 0.0
    for k in range(epochs):
        h = int(t_hit.argmin())
        t_event = t_hit_view[h]
        taus_view[k] = t_event - t_now
        t_now = t_event
        hits_view[k] = h
        member_list, pi_m, touched, cap_t, inv_growth_t, at, arrays = (
            links.get(h) or link(h))
        n_m = len(member_list)
        draws += n_m
        # xi is None when every member loses
        xi = None
        if not certain:
            xi, tries = sync.draw_counted(rng, pi_m)
            redraws += tries
        if arrays is None:
            cuts = [0.0] * len(touched)
            post_sum = 0.0
            for i, lost, at_i in zip(member_list, all_lose if xi is None else xi.tolist(), at):
                dt = t_now - t_view[i]
                x_base_i, g_i = x_view[i], g_list[i]
                x_i = x_base_i + g_i * dt
                if lost:
                    losses += 1
                    q_view[i] += x_base_i * dt + 0.5 * g_i * dt * dt
                    x_new = beta_list[i] * x_i
                    x_view[i] = x_new
                    t_view[i] = t_now
                    cut = x_i - x_new
                    for j in at_i:
                        cuts[j] += cut
                    x_i = x_new
                post_sum += x_i
            post_view[k] = post_sum / n_m
            # per link, the two operations the numpy updates below make
            for j, cut, cap_j, inv_growth_j in zip(touched, cuts, cap_t, inv_growth_t):
                b_j = b_view[j] - cut
                b_view[j] = b_j
                t_hit_view[j] = (cap_j - b_j) * inv_growth_j
        else:
            members, g_m, half_g_m, beta_m, at_flat, at_sizes = arrays
            x_m = x_base[members]
            dt = t_now - t_base[members]
            x_now = x_m + g_m * dt
            n_lost = n_m if xi is None else np.count_nonzero(xi)
            losses += n_lost
            if n_lost == n_m:
                q_integral[members] += x_m * dt + half_g_m * dt * dt
                x_new = beta_m * x_now
                x_base[members] = x_new
                t_base[members] = t_now
                cut = x_now - x_new
                # the same bits as reducing x_now after x_now[:] = x_new
                post_means[k] = np.add.reduce(x_new) / n_m
            else:
                losers = members[xi]
                dt_l = dt[xi]
                q_integral[losers] += x_m[xi] * dt_l + half_g_m[xi] * dt_l * dt_l
                x_at_event = x_now[xi]
                x_new = beta_m[xi] * x_at_event
                x_base[losers] = x_new
                t_base[losers] = t_now
                cut = np.zeros(n_m)
                cut[xi] = x_at_event - x_new
                x_now[xi] = x_new
                post_means[k] = np.add.reduce(x_now) / n_m
            b -= np.bincount(at_flat, weights=np.repeat(cut, at_sizes),
                             minlength=b.size)
            np.subtract(cap, b, out=t_hit)
            t_hit *= inv_growth

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
        congested_edges=live_ids[hits],
        redraws=redraws,
    )


# share of the mean raw weight given to zero-weight links
_FLOOR_FRACTION = 0.1


def assign_capacities(
    network: FluidNetwork,
    strategy: str,
    mean_capacity: float,
    tree_stats: EdgeMeasurements | None = None,
) -> FluidNetwork:
    """Reallocate link capacities by strategy, keeping the mean fixed.

    Strategies weight each link by 1, max(q_A, q_B), min(q_A, q_B),
    q_A*q_B, or the edge betweenness L_e (mean_field).  Zero-weight
    links (leaf edges under minimum and product) are floored at
    _FLOOR_FRACTION (0.1) of the mean raw weight so every link keeps usable
    capacity, then everything is rescaled so that mean(C_e) =
    mean_capacity.  The default floor keeps access links serviceable
    without disturbing the relative weighting of the core.
    """
    if strategy not in CAPACITY_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {CAPACITY_STRATEGIES}")
    if mean_capacity <= 0.0:
        raise ValueError("mean_capacity must be positive")
    if strategy == "uniform":
        raw = np.ones(network.n_edges)
    else:
        if tree_stats is None:
            raise ValueError(f"strategy {strategy!r} needs tree_stats")
        if tree_stats.tau != network.n_edges:
            raise ValueError("tree_stats edge count does not match the network")
        qa = tree_stats.q_younger.astype(float)
        qb = tree_stats.q_older.astype(float)
        if strategy == "maximum":
            raw = np.maximum(qa, qb)
        elif strategy == "minimum":
            raw = np.minimum(qa, qb)
        elif strategy == "product":
            raw = qa * qb
        else:
            raw = tree_stats.betweenness.astype(float)
    mean_raw = raw.mean()
    if mean_raw <= 0.0:
        raw = np.ones_like(raw)
        mean_raw = 1.0
    raw = np.where(raw <= 0.0, _FLOOR_FRACTION * mean_raw, raw)
    capacities = raw * (mean_capacity / raw.mean())
    return network.with_capacities(capacities)
