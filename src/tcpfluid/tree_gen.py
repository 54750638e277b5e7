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

    @classmethod
    def from_attractiveness(cls, a: float, tau: int, seed: int = 0) -> "TreeParams":
        if a < 0:
            raise ValueError(f"initial attractiveness must be >= 0, got {a}")
        alpha_t = 0.0 if math.isinf(a) else 1.0 / (1.0 + a)
        return cls(alpha_t=alpha_t, tau=tau, seed=seed)

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

    @property
    def arrival_time(self) -> np.ndarray:
        return np.arange(self.tau + 1)

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(younger, older) endpoint arrays indexed by edge id."""
        child = np.arange(1, self.tau + 1)
        return child, self.parent[1:]

    def path_edges(self, u: int, v: int) -> np.ndarray:
        """Edge ids on the unique path between vertices u and v."""
        if u == v:
            return np.empty(0, dtype=np.int64)
        parent = self.parent
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

    Per-step sampling is O(1): the law (a + q_v) / ((1+a)t - 1) over the t
    existing vertices is realized exactly as a mixture of a uniform vertex
    draw (total weight a*t) and a uniform draw from the list of edge parent
    endpoints (each edge contributes 1 to its parent's q, total weight t-1).
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
        edge_parent = np.empty(tau, dtype=np.int64)
        for start in range(1, tau + 1, _BLOCK):
            stop = min(start + _BLOCK, tau + 1)
            u_branch = rng.random(stop - start)
            u_pick = rng.random(stop - start)
            for t in range(start, stop):
                i = t - start
                w_uniform = a * t
                if u_branch[i] * (w_uniform + (t - 1)) < w_uniform:
                    target = int(u_pick[i] * t)
                else:
                    target = int(edge_parent[int(u_pick[i] * (t - 1))])
                parent[t] = target
                edge_parent[t - 1] = target

    in_degree = np.bincount(parent[1:], minlength=tau + 1)
    return GrowingTree(
        alpha_t=params.alpha_t, tau=tau, parent=parent, in_degree=in_degree
    )


def subtree_sizes(tree: GrowingTree) -> np.ndarray:
    """Vertex count of the subtree rooted at each vertex (including itself)."""
    sizes = np.ones(tree.tau + 1, dtype=np.int64)
    parent = tree.parent
    # children always arrive after their parent, so one reverse pass suffices
    for v in range(tree.tau, 0, -1):
        sizes[parent[v]] += sizes[v]
    return sizes


def measure(tree: GrowingTree) -> EdgeMeasurements:
    """Per-edge (n, q_younger, q_older, L) records from a single reverse pass."""
    tau = tree.tau
    child, older = tree.edge_endpoints()
    sizes = subtree_sizes(tree)
    n = sizes[child] - 1
    betweenness = (n + 1) * (tau - n)
    return EdgeMeasurements(
        tau=tau,
        child=child,
        parent=older,
        n=n,
        q_younger=tree.in_degree[child],
        q_older=tree.in_degree[older],
        betweenness=betweenness,
    )


def enumerate_exact(params: TreeParams) -> DistTable:
    """Exact edge-state distribution P_tau(n, q) by exhausting all histories.

    Walks every attachment history with exact rational step probabilities
    (alpha_t is snapped to the nearest small-denominator rational) and
    accumulates, for each history, the empirical (n, q) frequency over its
    tau edges.  Serves as the ground-truth oracle for the closed-form joint
    distribution at small sizes.

    Raises:
        ValueError: if tau > 8; the history space grows like tau!.
    """
    tau = params.tau
    if tau > 8:
        raise ValueError(f"enumerate_exact is limited to tau <= 8, got {tau}")
    alpha = Fraction(params.alpha_t).limit_denominator(10**6)
    a = None if alpha == 0 else 1 / alpha - 1

    parent = [0] * (tau + 1)
    q = [0] * (tau + 1)
    acc: dict[tuple[int, int], Fraction] = {}
    edge_weight = Fraction(1, tau)

    def tally(prob: Fraction) -> None:
        sizes = [1] * (tau + 1)
        for v in range(tau, 0, -1):
            sizes[parent[v]] += sizes[v]
        for v in range(1, tau + 1):
            key = (sizes[v] - 1, q[v])
            acc[key] = acc.get(key, Fraction(0)) + prob * edge_weight

    def walk(t: int, prob: Fraction) -> None:
        if t > tau:
            tally(prob)
            return
        if t == 1:
            # only the root exists; its weight is the whole total
            parent[1] = 0
            q[0] += 1
            walk(2, prob)
            q[0] -= 1
            return
        if a is None:
            total = Fraction(t)
            weights = [Fraction(1)] * t
        else:
            total = (1 + a) * t - 1
            weights = [a + q[v] for v in range(t)]
        for v in range(t):
            if weights[v] == 0:
                continue
            parent[t] = v
            q[v] += 1
            walk(t + 1, prob * weights[v] / total)
            q[v] -= 1

    walk(1, Fraction(1))

    grid = np.zeros((tau, tau))
    for (n, k), val in acc.items():
        grid[n, k] = float(val)
    return DistTable(tau=tau, alpha_t=params.alpha_t, grid=grid, exact=acc)
