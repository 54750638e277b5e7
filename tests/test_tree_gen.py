"""Growing preferential-attachment trees: structure, measures, enumeration."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcpfluid.tree_gen import (
    GrowingTree,
    TreeParams,
    enumerate_exact,
    grow,
    measure,
    subtree_sizes,
    tree_paths,
)

import aimd_reference
import tree_reference


def _tree_of(parent, alpha_t: float = 0.5) -> GrowingTree:
    parent = np.asarray(parent, dtype=np.int64)
    tau = len(parent) - 1
    return GrowingTree(
        alpha_t=alpha_t,
        tau=tau,
        parent=parent,
        in_degree=np.bincount(parent[1:], minlength=tau + 1),
    )


def _path_tree(tau: int, alpha_t: float = 0.5) -> GrowingTree:
    return _tree_of(np.concatenate([[-1], np.arange(tau)]), alpha_t)


def _random_parents(n_vertices: int, shape: str, seed: int) -> np.ndarray:
    """parent[v] < v for v >= 1: uniform over the earlier vertices, a few
    steps back (chains that stay inside a depth block), or either at random."""
    rng = np.random.default_rng(seed)
    v = np.arange(1, n_vertices)
    uniform = (rng.random(v.size) * v).astype(np.int64)
    near = np.maximum(v - rng.geometric(0.5, v.size), 0)
    pick = {"uniform": np.ones(v.size, bool), "near": np.zeros(v.size, bool),
            "mixed": rng.random(v.size) < 0.5}[shape]
    return np.concatenate([[-1], np.where(pick, uniform, near)])


def test_grow_structure_is_valid():
    tree = grow(TreeParams(alpha_t=0.5, tau=200, seed=3))
    assert tree.parent[0] == -1
    # vertex t can only attach to an earlier vertex
    assert np.all(tree.parent[1:] < np.arange(1, 201))
    assert np.all(tree.parent[1:] >= 0)
    assert tree.in_degree.sum() == tree.tau
    want = np.bincount(tree.parent[1:], minlength=tree.tau + 1)
    assert np.array_equal(tree.in_degree, want)


def test_grow_seed_determinism():
    a = grow(TreeParams(alpha_t=0.5, tau=100, seed=8))
    b = grow(TreeParams(alpha_t=0.5, tau=100, seed=8))
    c = grow(TreeParams(alpha_t=0.5, tau=100, seed=9))
    assert np.array_equal(a.parent, b.parent)
    assert not np.array_equal(a.parent, c.parent)


def test_alpha_one_gives_star():
    tree = grow(TreeParams(alpha_t=1.0, tau=50, seed=0))
    assert np.all(tree.parent[1:] == 0)
    assert tree.in_degree[0] == 50


def test_alpha_zero_is_uniform_attachment():
    # root in-degree under uniform attachment: E = H_tau ~ ln(tau)
    taus = 2000
    reps = 60
    got = np.mean(
        [grow(TreeParams(alpha_t=0.0, tau=taus, seed=s)).in_degree[0] for s in range(reps)]
    )
    want = np.sum(1.0 / np.arange(1, taus + 1))
    assert got == pytest.approx(want, rel=0.25)


def test_subtree_sizes_on_path():
    tree = _path_tree(4)
    # chain 0-1-2-3-4: subtree below vertex v has 5-v vertices
    assert list(subtree_sizes(tree)) == [5, 4, 3, 2, 1]


def test_subtree_sizes_sum_identity():
    tree = grow(TreeParams(alpha_t=0.5, tau=300, seed=5))
    sizes = subtree_sizes(tree)
    # every vertex is counted once per ancestor chain: sum = total path length
    depth = np.zeros(tree.tau + 1, dtype=np.int64)
    for v in range(1, tree.tau + 1):
        depth[v] = depth[tree.parent[v]] + 1
    assert sizes.sum() == (depth + 1).sum()
    assert sizes[0] == tree.tau + 1


def test_measure_on_path():
    tau = 6
    tree = _path_tree(tau)
    mm = measure(tree)
    child, _ = tree.edge_endpoints()
    assert mm.tau == tau
    # edge (v, v-1): younger endpoint v has tau - v descendants
    assert np.array_equal(np.sort(mm.n), np.arange(tau))
    for v, n in zip(child, mm.n):
        assert n == tau - v
    # each internal younger endpoint feeds one edge
    assert np.all(mm.q_younger == np.where(child == tau, 0, 1))
    # chain betweenness is (n+1)(tau-n)
    assert np.array_equal(mm.betweenness, (mm.n + 1) * (tau - mm.n))


def test_measure_betweenness_identity_random_tree():
    tree = grow(TreeParams(alpha_t=0.5, tau=400, seed=12))
    mm = measure(tree)
    assert np.array_equal(mm.betweenness, (mm.n + 1) * (tree.tau - mm.n))
    # descendant counts: leaf edges have n = 0
    leaves = mm.q_younger == 0
    assert np.all(mm.n[leaves] == 0)
    assert mm.n.max() <= tree.tau - 1


def test_measure_degree_bookkeeping():
    tree = grow(TreeParams(alpha_t=0.5, tau=400, seed=13))
    mm = measure(tree)
    child, parent = tree.edge_endpoints()
    assert np.array_equal(mm.q_younger, tree.in_degree[child])
    assert np.array_equal(mm.q_older, tree.in_degree[parent])
    assert np.all(mm.q_older >= 1)


def test_path_edges_endpoints():
    tree = grow(TreeParams(alpha_t=0.5, tau=60, seed=2))
    child, parent = tree.edge_endpoints()
    assert child.shape == (60,)
    assert np.array_equal(parent, tree.parent[child])
    # the path between an edge's endpoints is that edge alone
    _, e = tree_paths(tree, [child[17]], [parent[17]])
    assert list(e) == [17]


def test_path_edges_through_root():
    tree = _path_tree(5)
    # path from 5 to 0 walks every edge
    assert sorted(tree_paths(tree, [5], [0])[1]) == [0, 1, 2, 3, 4]
    assert tree_paths(tree, [3], [3])[1].size == 0


@pytest.mark.parametrize("alpha_t", [0.0, 0.5, 1.0, "path"])
def test_tree_paths_match_frozen_per_pair_climb(alpha_t):
    tau = 300
    tree = _path_tree(tau) if alpha_t == "path" else grow(TreeParams(alpha_t, tau, seed=8))
    rng = np.random.default_rng(5)
    u, v = rng.integers(0, tau + 1, size=(2, 400))
    # add the root, an ancestor of the other end and u == v, then every
    # pair reversed
    ancestor = tree.parent[tree.parent[v[:50]].clip(0)].clip(0)
    u = np.concatenate((u, np.zeros(20, np.int64), ancestor, v[:20]))
    v = np.concatenate((v, v[:20], v[:50], v[:20]))
    u, v = np.concatenate((u, v)), np.concatenate((v, u))
    route_ptr, route_links = tree_paths(tree, u, v)
    assert route_ptr[0] == 0 and route_ptr[-1] == route_links.size
    for i in range(u.size):
        want = aimd_reference.path_edges(tree, int(u[i]), int(v[i]))
        got = route_links[route_ptr[i]:route_ptr[i + 1]]
        assert got.dtype == want.dtype and np.array_equal(got, want), i


@given(st.integers(2, 40), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_arrival_order_gives_acyclic_parents(tau, seed):
    tree = grow(TreeParams(alpha_t=0.5, tau=tau, seed=seed))
    assert np.all(tree.parent[1:] < np.arange(1, tau + 1))


def test_enumerate_exact_normalizes():
    for alpha in (1 / 3, 0.5, 2 / 3):
        table = enumerate_exact(TreeParams(alpha_t=alpha, tau=5, seed=0))
        total = table.total()
        assert total == pytest.approx(1.0, abs=1e-14)
        # the row-sum total within 1 ulp (at 1) of an fsum over every entry
        assert abs(total - math.fsum(table.grid.ravel().tolist())) <= 2.3e-16, alpha


def test_enumerate_exact_tiny_case_by_hand():
    # tau=2, alpha=1/2 (a=1).  Vertex 2 picks the root with weight a+q_0=2
    # against a+q_1=1, so star 2/3, chain 1/3.  Star edges are both leaves;
    # the chain adds one edge with a single descendant and in-degree 1.
    table = enumerate_exact(TreeParams(alpha_t=0.5, tau=2, seed=0))
    assert table.prob(1, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert table.prob(0, 0) == pytest.approx(5.0 / 6.0, abs=1e-15)


@given(
    alpha=st.floats(1e-9, 0.999),
    tau=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
@example(alpha=1e-9, tau=3000, seed=0)
@example(alpha=0.999, tau=3000, seed=0)
@example(alpha=0.5, tau=1, seed=3)
def test_grow_matches_frozen_loop(alpha, tau, seed):
    params = TreeParams(alpha_t=alpha, tau=tau, seed=seed)
    got = grow(params)
    want = tree_reference.grow(params)
    assert np.array_equal(got.parent, want.parent)
    assert np.array_equal(got.in_degree, want.in_degree)
    assert np.array_equal(subtree_sizes(got), tree_reference.subtree_sizes(want))


def test_grow_matches_frozen_loop_across_blocks():
    # 140000 steps span three RNG blocks; copies reach into earlier blocks.
    # At 0.99 a step copies with probability about 0.99, so its copy
    # chains are the longest and most cross a block edge
    for alpha in (0.5, 0.9, 0.99):
        params = TreeParams(alpha_t=alpha, tau=140_000, seed=7)
        got = grow(params)
        want = tree_reference.grow(params)
        assert np.array_equal(got.parent, want.parent), alpha


def test_subtree_sizes_match_frozen_loop():
    for alpha in (0.0, 0.3, 1.0):
        tree = grow(TreeParams(alpha_t=alpha, tau=20_000, seed=2))
        assert np.array_equal(subtree_sizes(tree), tree_reference.subtree_sizes(tree))
    # a path is as deep as a tree gets: one level per vertex.  The grown
    # trees sort uint8 depth keys, the 20 000-level path uint16 keys and
    # the 70 000-level path uint32 keys
    for tau in (20_000, 70_000):
        path = _path_tree(tau)
        want = tree_reference.subtree_sizes(path)
        assert np.array_equal(subtree_sizes(path), want), tau
        assert np.array_equal(want, np.arange(tau + 1, 0, -1)), tau


@given(
    n_vertices=st.integers(1, 3000),
    shape=st.sampled_from(["uniform", "near", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
@example(n_vertices=1, shape="uniform", seed=0)
@example(n_vertices=2048, shape="near", seed=1)
def test_subtree_sizes_match_frozen_loop_on_random_parents(n_vertices, shape, seed):
    tree = _tree_of(_random_parents(n_vertices, shape, seed))
    assert np.array_equal(subtree_sizes(tree), tree_reference.subtree_sizes(tree))


# depths are taken over the arrival-order blocks [lo, 2 lo): every vertex
# count at a block edge, 2^k - 1, 2^k and 2^k + 1
@pytest.mark.parametrize("shape", ["uniform", "near", "mixed"])
def test_subtree_sizes_at_every_block_edge(shape):
    for k in range(1, 13):
        for n_vertices in (2**k - 1, 2**k, 2**k + 1):
            tree = _tree_of(_random_parents(n_vertices, shape, seed=k))
            want = tree_reference.subtree_sizes(tree)
            assert np.array_equal(subtree_sizes(tree), want), (shape, n_vertices)


def test_subtree_sizes_of_a_star_a_caterpillar_and_a_long_path():
    n = 100_000
    star = _tree_of(np.concatenate([[-1], np.zeros(n - 1)]))
    assert np.array_equal(subtree_sizes(star), np.concatenate([[n], np.ones(n - 1)]))
    # the spine is the even vertices, each odd vertex a leaf on the spine
    v = np.arange(1, n)
    caterpillar = _tree_of(np.concatenate([[-1], np.where(v % 2, v - 1, v - 2)]))
    want = tree_reference.subtree_sizes(caterpillar)
    assert np.array_equal(subtree_sizes(caterpillar), want)
    # a path keeps every chain inside its block: the depth pass's worst case
    path = _path_tree(n - 1)
    assert np.array_equal(subtree_sizes(path), np.arange(n, 0, -1))


# a = p/r = 876543/123457 at alpha 0.123457: past tau = 3 the history
# weights outgrow int64 and are summed as Python ints.  tau = 8 at 0.5 is
# the README's `tree --tau 8 --enumerate`; the frozen walk takes about 1.4 s
@pytest.mark.parametrize("alpha", [0.0, 1 / 3, 0.5, 2 / 3, 1.0, 0.123457])
def test_enumerate_exact_matches_frozen_fraction_walk(alpha):
    for tau in range(1, 9 if alpha == 0.5 else 8):
        params = TreeParams(alpha_t=alpha, tau=tau, seed=0)
        got = enumerate_exact(params).exact
        want = tree_reference.enumerate_exact(params)
        assert got == want, tau


def test_validation():
    with pytest.raises(ValueError):
        grow(TreeParams(alpha_t=-0.1, tau=5, seed=0))
    with pytest.raises(ValueError):
        grow(TreeParams(alpha_t=0.5, tau=0, seed=0))


# the same checks as the tree laws': tau = inf raised OverflowError,
# None TypeError, and NaN "cannot convert float NaN to integer"
@pytest.mark.parametrize("alpha_t, tau, match", [
    (math.nan, 5, r"alpha_t must lie in \[0, 1\], got nan"),
    (1.5, 5, r"alpha_t must lie in \[0, 1\], got 1.5"),
    (0.5, math.nan, "tau must be a positive integer, got nan"),
    (0.5, -math.inf, "tau must be a positive integer, got -inf"),
    (0.5, 2.5, "tau must be a positive integer, got 2.5"),
    (0.5, math.inf, "requires a finite tau"),
    (0.5, None, "requires a finite tau"),
])
def test_params_reject_what_names_no_tree(alpha_t, tau, match):
    with pytest.raises(ValueError, match=match):
        TreeParams(alpha_t=alpha_t, tau=tau)


@pytest.mark.parametrize("scale", ["full", "tiny"])
def test_tree_benchmark_checks_and_golden_digests_hold(scale):
    # at seed 0 the run also compares the tree_gen.grow and
    # tree_gen.measure digests of perfbench/golden.json, which fix every
    # grown tree bit, and its closed-form and DistTable tables
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    out = subprocess.run(
        [sys.executable, str(run), "--workload", "tree", "--seed", "0",
         "--seconds", "0", "--scale", scale],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is True, out
