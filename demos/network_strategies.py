"""AIMD flows on a tree-shaped network: who gets the capacity.

Flows run between random vertex pairs of a grown tree, increase linearly
and halve when a link on their path saturates.  With a fixed capacity
budget, how that budget is spread over the links decides the average
per-flow throughput Q.  The candidate rules weight each link uniformly,
by endpoint in-degrees, or by edge betweenness (mean_field).
"""

import math

import numpy as np

from tcpfluid.aimd_net import (
    CAPACITY_STRATEGIES,
    FlowSet,
    FluidNetwork,
    SyncModel,
    assign_capacities,
    run_simulation,
    uniform_tree_flows,
)
from tcpfluid.tree_gen import TreeParams, grow, measure

# ---------------------------------------------------------------------
# 1. Sanity on one link: N identical flows, full synchronization.  The
#    stationary post-event throughput and epoch length are exact.
N, C = 8, 1e5
net1 = FluidNetwork(endpoints=np.array([[0, 1]], dtype=np.int64),
                    capacities=np.array([C]), n_vertices=2)
# routes in CSR form: flow i crosses route_links[route_ptr[i]:route_ptr[i+1]]
flows1 = FlowSet(route_ptr=np.arange(N + 1), route_links=np.zeros(N, np.int64),
                 growth_rates=1.0, betas=0.5, X=np.full(N, 0.5 * C / N))
rep1 = run_simulation(net1, flows1, SyncModel(pi=1.0), 2000, seed=0)
print(f"single link, N={N}, pi=1: post-event X = {rep1.mean_post_event_throughput:.1f}"
      f" (exact {0.5*C/N:.1f}), epoch = {rep1.mean_tau:.4f}")

# partial synchronization: only a random subset of the congested link's
# flows halve, so the time average rises
for pi in (0.2, 0.5, 1.0):
    rep = run_simulation(net1, flows1, SyncModel(pi=pi), 20000, seed=1)
    r = pi / (1.0 - (1.0 - pi) ** N)
    print(f"  pi={pi:3.1f}: mean Q = {rep.mean_q:9.1f}   realized r = "
          f"{rep.realized_r:.3f} (formula {r:.3f})")

# ---------------------------------------------------------------------
# 2. Strategy comparison on a modest tree.  Same flows, same capacity
#    budget, five ways to spread it.
tau, n_flows, epochs = 2000, 300, 30000
tree = grow(TreeParams(alpha_t=0.5, tau=tau, seed=101))
stats = measure(tree)
base = FluidNetwork.from_tree(tree, np.full(tau, 1e5))
flows = uniform_tree_flows(tree, n_flows, beta=0.5, seed=202)
print(f"\ntree tau={tau}, {n_flows} flows, {epochs} epochs:")
results, medians = {}, {}
for name in CAPACITY_STRATEGIES:
    net = assign_capacities(base, name, 1e5, tree_stats=stats)
    rep = run_simulation(net, flows, SyncModel(pi=1.0), epochs, seed=303)
    results[name] = rep.mean_q
    medians[name] = float(np.median(rep.per_flow_q))
    print(f"  {name:>10}: mean Q = {rep.mean_q:9.1f}   median Q = "
          f"{medians[name]:9.1f}")
best = max(results, key=results.get)
print(f"best strategy: {best}  "
      f"(x{results[best]/results['uniform']:.1f} mean, "
      f"x{medians[best]/medians['uniform']:.1f} median over uniform)")
