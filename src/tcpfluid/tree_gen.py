"""Growing random trees with preferential attachment.

The tree starts from a single root and adds a vertex per step; the new
vertex attaches to an existing vertex v with probability proportional to
a + q_v, where q_v is the in-degree (child count) of v and a > 0 is the
initial attractiveness.  The tuning parameter alpha_t = 1/(1+a) spans
the classical case at alpha_t = 1/2 (a = 1), the star limit alpha_t = 1
(a = 0), and the uniform-attachment limit a -> inf, encoded here by the
sentinel alpha_t = 0.

Every edge is described by the pair (n, q): n is the number of
descendants strictly below the edge's younger endpoint and q is the
in-degree of that endpoint.  The edge betweenness follows from the
split sizes, L = (n+1)(tau-n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tree_analytic import DistTable

__all__ = [
    "TreeParams",
    "GrowingTree",
    "EdgeMeasurements",
    "grow",
    "measure",
    "tree_paths",
    "enumerate_exact",
]


@dataclass(frozen=True)
class TreeParams:
    """Growth parameters: tuning alpha_t = 1/(1+a), steps tau, RNG seed.

    alpha_t = 0 is the uniform-attachment sentinel (a -> inf); alpha_t = 1
    is the star limit (a = 0).
    """

    alpha_t: float
    tau: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_t <= 1.0:
            raise ValueError(f"alpha_t must lie in [0, 1], got {self.alpha_t}")
        if self.tau < 1 or self.tau != int(self.tau):
            raise ValueError(f"tau must be a positive integer, got {self.tau}")

    @property
    def a(self) -> float:
        """Initial attractiveness; +inf for the uniform sentinel."""
        if self.alpha_t == 0.0:
            return math.inf
        return 1.0 / self.alpha_t - 1.0


@dataclass(frozen=True)
class GrowingTree:
    """A grown tree: vertex t arrived at step t, its parent edge has id t-1."""

    alpha_t: float
    tau: int
    parent: np.ndarray
    in_degree: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.tau + 1

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(younger, older) endpoint arrays indexed by edge id."""
        child = np.arange(1, self.tau + 1)
        return child, self.parent[1:]


@dataclass(frozen=True)
class EdgeMeasurements:
    """Per-edge records of a grown tree, aligned with edge ids."""

    tau: int
    child: np.ndarray
    parent: np.ndarray
    n: np.ndarray
    q_younger: np.ndarray
    q_older: np.ndarray
    betweenness: np.ndarray


_BLOCK = 65536


def grow(params: TreeParams) -> GrowingTree:
    """Grow a tree of tau edges by sequential preferential attachment.

    The law (a + q_v) / ((1+a)t - 1) over the t existing vertices is
    realized exactly as a mixture: with weight a*t step t attaches to a
    uniform vertex, parent[t] = int(u_pick * t); with weight t-1 it copies
    the parent of a uniform earlier vertex s = int(u_pick * (t-1)) + 1
    (the redirection model of Krapivsky & Redner, PRE 63, 066123, 2001).

    The RNG stream is drawn per `_BLOCK` steps, u_branch then u_pick.  One
    array expression decides a block's branches with the scalar test's
    float ops, u_branch * (a*t + (t-1)) < a*t.  Copy chains s -> s' -> ...
    fall in index to a root, whose parent is known at once: a uniform step
    or a step of an earlier block.  Pointer jumping runs only over the
    open copy steps, those whose hop is not yet a root; the set shrinks
    every doubling round, and the loop ends when it is empty.  The
    parents are the sequential loop's over the same stream, bit for bit.
    """
    tau = params.tau
    parent = np.empty(tau + 1, dtype=np.int64)
    parent[0] = -1
    rng = np.random.default_rng(params.seed)

    if params.alpha_t == 1.0:
        parent[1:] = 0
    elif params.alpha_t == 0.0:
        # uniform over the t existing vertices; rng.random() < 1 keeps floor < t
        u = rng.random(tau)
        parent[1:] = (u * np.arange(1.0, tau + 1.0)).astype(np.int64)
    else:
        a = params.a
        for start in range(1, tau + 1, _BLOCK):
            stop = min(start + _BLOCK, tau + 1)
            u_branch = rng.random(stop - start)
            u_pick = rng.random(stop - start)
            t = np.arange(float(start), float(stop))
            w_uniform = a * t
            # t = 1 always takes the uniform branch: u_branch * a < a
            root = u_branch * (w_uniform + (t - 1.0)) < w_uniform
            # a root's parent is known at once: a uniform step keeps its
            # own draw, and a copy of an earlier block's step takes that
            # step's parent
            root_parent = (u_pick * t).astype(np.int64)
            copy = np.flatnonzero(~root)
            target = (u_pick[copy] * (t[copy] - 1.0)).astype(np.int64) + 1
            early = target < start
            root_parent[copy[early]] = parent[target[early]]
            root[copy[early]] = True
            # hop[i]: the block step, as an offset from start, whose parent
            # step start+i takes; the open steps are those whose hop is not
            # yet a root
            hop = np.arange(stop - start)
            open_ = copy[~early]
            hop[open_] = target[~early] - start
            open_ = open_[~root[hop[open_]]]
            while open_.size:
                nxt = hop[hop[open_]]
                hop[open_] = nxt
                open_ = open_[~root[nxt]]
            parent[start:stop] = root_parent[hop]

    in_degree = np.bincount(parent[1:], minlength=tau + 1)
    return GrowingTree(
        alpha_t=params.alpha_t, tau=tau, parent=parent, in_degree=in_degree
    )


def subtree_sizes(tree: GrowingTree) -> np.ndarray:
    """Vertex count of the subtree rooted at each vertex (including itself).

    Depths are taken over the arrival-order blocks [lo, 2 lo), lo = 1, 2,
    4, ...: every earlier vertex already has its depth when a block
    starts.  A vertex whose parent arrived before its block takes the
    parent's depth plus one at once.  The rest form chains inside the
    block, and pointer jumping with summed steps runs only over the open
    ones, those whose hop is not yet resolved, as `grow` resolves its
    copy chains.  A block of b vertices costs O(b) when few chains stay
    inside it and O(b log b) at worst (a path), so depths cost O(V log V)
    at worst.  Blocks write into the depth array and one half-length hop
    buffer, so no step allocates a full-length array.  Sizes are then
    added into parents one level at a time, deepest first: one narrow-key
    sort and one numpy call per level.
    """
    parent = tree.parent
    depth = np.zeros(tree.tau + 1, dtype=np.int64)
    hops = np.empty((tree.tau + 1) // 2, dtype=np.int64)
    lo = 1
    while lo <= tree.tau:
        hi = min(2 * lo, tree.tau + 1)
        up = parent[lo:hi]
        blk = depth[lo:hi]
        # the earlier blocks' depths, gathered into the block's own slots;
        # a parent inside the block reads a clipped stand-in, reset below
        np.take(depth[:lo], up, out=blk, mode="clip")
        blk += 1
        # hop[i]: the block vertex, as an offset from lo, that vertex lo+i
        # is blk[i] steps below; a negative hop is a vertex of an earlier
        # block, and blk already holds the depth it gives
        hop = np.subtract(up, lo, out=hops[: hi - lo])
        inside = np.flatnonzero(hop >= 0)
        blk[inside] = 1
        # the open vertices hop to a vertex whose own hop is inside the block
        open_ = inside[hop[hop[inside]] >= 0]
        while open_.size:
            nxt = hop[open_]
            blk[open_] += blk[nxt]
            nxt = hop[nxt]
            hop[open_] = nxt
            open_ = open_[hop[nxt] >= 0]
        # every inside vertex now hops to one whose depth blk holds
        blk[inside] += blk[hop[inside]]
        lo = hi
    # the narrowest key that holds every depth: numpy radix-sorts keys of
    # 16 bits or fewer, and a stable sort gives the same order at any width
    order = np.argsort(depth.astype(np.min_scalar_type(depth.max())), kind="stable")
    bounds = np.searchsorted(depth[order], np.arange(depth[order[-1]] + 2))
    sizes = np.ones(tree.tau + 1, dtype=np.int64)
    for level in range(len(bounds) - 2, 0, -1):
        vs = order[bounds[level]:bounds[level + 1]]
        np.add.at(sizes, parent[vs], sizes[vs])
    return sizes


def tree_paths(tree: GrowingTree, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids on the u[i]-v[i] tree paths, as (route_ptr, route_links).

    Route i, route_links[route_ptr[i]:route_ptr[i+1]], holds the edges from
    v[i] up to where the ends meet, then those from u[i] up to there, each
    side in climbing order (vertex w's parent edge is w-1); u[i] == v[i]
    gives an empty route.  Ancestors are older, so each round lifts the
    larger-id end of every pair still apart and records its edge under the
    key (pair, side); one stable sort by key lays the records out.
    """
    parent = tree.parent
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    a, b = u.copy(), v.copy()
    keys, edges = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    while (apart := np.flatnonzero(a != b)).size:
        for end, other, side in ((b, a, 0), (a, b, 1)):
            lift = apart[end[apart] > other[apart]]
            keys.append(2 * lift + side)
            edges.append(end[lift] - 1)
            end[lift] = parent[end[lift]]
    keys = np.concatenate(keys)
    route_links = np.concatenate(edges)[np.argsort(keys, kind="stable")]
    route_ptr = np.concatenate(([0], np.cumsum(np.bincount(keys // 2, minlength=u.size))))
    return route_ptr, route_links


def measure(tree: GrowingTree) -> EdgeMeasurements:
    """Per-edge (n, q_younger, q_older, L) records from a single reverse pass."""
    tau = tree.tau
    child, older = tree.edge_endpoints()
    # the younger endpoints are vertices 1..tau in order: slices, not gathers
    n = subtree_sizes(tree)[1:] - 1
    betweenness = (n + 1) * (tau - n)
    return EdgeMeasurements(
        tau=tau,
        child=child,
        parent=older,
        n=n,
        q_younger=tree.in_degree[1:].copy(),
        q_older=tree.in_degree[older],
        betweenness=betweenness,
    )


def enumerate_exact(params: TreeParams) -> DistTable:
    """Exact edge-state distribution P_tau(n, q) by exhausting all histories.

    Accumulates, over every attachment history, the empirical (n, q)
    frequency of its tau edges.  With alpha_t snapped to the nearest
    small-denominator rational and a = p/r, step t picks vertex v with
    probability (p + r q_v) / ((p+r) t - r), and the totals do not depend
    on the history.  So a history's weight is the integer product of its
    picks' numerators, and each (n, q) key becomes one `Fraction` over
    the common denominator at the end.  All prod_{t=2..tau} t histories
    are tallied at once as arrays, in the order of a depth-first walk
    over the picks, and `exact` lists the keys in the order that walk
    first meets them.  Sums are exact: int64 while total * tau fits, and
    Python ints beyond.  Serves as the ground-truth oracle for the
    closed-form joint distribution at small sizes.

    Raises:
        ValueError: if tau > 8; the history space grows like tau!.
    """
    tau = params.tau
    if tau > 8:
        raise ValueError(f"enumerate_exact is limited to tau <= 8, got {tau}")
    alpha = Fraction(params.alpha_t).limit_denominator(10**6)
    if alpha == 0:
        # uniform attachment: every vertex has weight 1 out of t
        p, r = 1, 0
    else:
        a = 1 / alpha - 1
        p, r = a.numerator, a.denominator
    total = math.prod((p + r) * t - r for t in range(2, tau + 1))

    # history h holds the picks of steps 2..tau as mixed-radix digits,
    # step 2 the slowest, which is the order of a depth-first walk;
    # parent[v-1, h] is vertex v's parent, and vertex 1's is the root
    n_hist = math.prod(range(2, tau + 1))
    parent = np.zeros((tau, n_hist), dtype=np.int64)
    parent[1:] = np.indices(range(2, tau + 1)).reshape(tau - 1, n_hist)
    # a history's weight is the product of its picks' p + r q_v, q_v the
    # in-degree just before the pick; every partial product is at most
    # total, so int64 holds them whenever it holds total * tau
    weight = np.ones(n_hist, dtype=np.int64 if total * tau < 2**63 else object)
    q = np.zeros((tau + 1, n_hist), dtype=np.int64)
    q[0] = 1  # step 1's edge
    hists, q_flat = np.arange(n_hist), q.reshape(-1)
    for t in range(2, tau + 1):
        pick = parent[t - 1] * n_hist + hists
        before = q_flat[pick]
        weight *= p + r * before
        q_flat[pick] = before + 1
    # the walk skips a pick of weight 0, a childless vertex at a = 0
    live = weight != 0
    if not live.all():
        parent, q, weight = parent[:, live], q[:, live], weight[live]
        n_hist = len(weight)
        hists = np.arange(n_hist)
    # subtree sizes by one reverse pass, a vertex at a time over all
    # histories; then the key n * tau + q of every (edge, history)
    sizes = np.ones((tau + 1, n_hist), dtype=np.int64)
    sizes_flat = sizes.reshape(-1)
    for v in range(tau, 0, -1):
        sizes_flat[parent[v - 1] * n_hist + hists] += sizes[v]
    keys = (sizes[1:] - 1) * tau + q[1:]
    # exact sums per key, and each key's first place in the walk's tally
    # order, history by history and edge by edge within one
    acc = np.zeros(tau * tau, dtype=weight.dtype)
    first = np.full(tau * tau, tau * n_hist)
    # one edge's row at a time: numpy 2.4.6's add.at gave wrong sums, and
    # could crash, with values broadcast along the indices' first axis
    for e, row in enumerate(keys):
        np.add.at(acc, row, weight)
        np.minimum.at(first, row, hists * tau + e)
    found = np.flatnonzero(first < tau * n_hist)
    exact = {
        divmod(key, tau): Fraction(int(acc[key]), total * tau)
        for key in found[np.argsort(first[found])].tolist()
    }
    grid = np.zeros((tau, tau))
    for (n, k), val in exact.items():
        grid[n, k] = float(val)
    return DistTable(tau=tau, alpha_t=params.alpha_t, grid=grid, exact=exact)
