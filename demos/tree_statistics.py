"""Growing preferential-attachment trees: exact edge statistics.

Every edge of a grown tree is scored by the cluster size n hanging below
its younger endpoint and the in-degree q of that endpoint.  The joint
law P_tau(n, q) has a closed form; this script checks it against brute
enumeration of all attachment histories, grows a large tree to compare
empirically, and follows the betweenness L = (n+1)(tau-n) out to its
power-law tail.
"""

import numpy as np

from tcpfluid.tree_analytic import (
    DistTable,
    betweenness_ccdf_given_q,
    betweenness_mean_given_q,
    ccdf_n,
    cond_mean_n_given_q,
    cond_mean_q_given_n,
    marginal_n,
    marginal_q,
    unconditional_betweenness_ccdf,
)
from tcpfluid.tree_gen import TreeParams, enumerate_exact, grow, measure

ALPHA = 0.5  # linear preferential attachment

# ---------------------------------------------------------------------
# 1. Brute-force enumeration of every history at small tau agrees with
#    the closed form entry by entry.
tau = 6
exact = enumerate_exact(TreeParams(alpha_t=ALPHA, tau=tau, seed=0))
closed = DistTable.from_analytic(tau, ALPHA)
gap = np.abs(exact.grid - closed.grid).max()
print(f"tau={tau}: enumeration vs closed form, max gap = {gap:.2e}")

# ---------------------------------------------------------------------
# 2. One large grown tree against the analytic marginals.
tau = 30000
tree = grow(TreeParams(alpha_t=ALPHA, tau=tau, seed=42))
mm = measure(tree)
emp_n = np.bincount(mm.n, minlength=tau) / tau
emp_q = np.bincount(mm.q_younger, minlength=tau) / tau
print(f"\ntau={tau}: cluster-size and in-degree marginals")
print("   k    P(n=k) emp   P(n=k)      P(q=k) emp   P(q=k)")
for k in range(6):
    print(f"  {k:2d}   {emp_n[k]:.5f}      {marginal_n(tau, ALPHA, k):.5f}"
          f"     {emp_q[k]:.5f}      {marginal_q(tau, ALPHA, k):.5f}")

# ---------------------------------------------------------------------
# 3. Conditional structure: a leaf edge has q = 0 by construction, an
#    edge with exactly one descendant has E[q | n=1] = 1 for every
#    attachment strength, and E[n | q] grows fast with q.
print(f"\nE[q | n=1] = {cond_mean_q_given_n(ALPHA, 1):.1f} (any alpha)")
for q in range(5):
    print(f"  E[n | q={q}] at tau=500: {cond_mean_n_given_q(500, ALPHA, q):10.2f}")

# ---------------------------------------------------------------------
# 4. Betweenness.  In the infinite-tree limit the rescaled load
#    Lambda = L/(tau+1) given q has mean 2^(q+1)-1 at the uniform-
#    attachment point and a universal Lambda^-2 tail everywhere.
print("\nE[Lambda | q], uniform attachment:", [
    f"{betweenness_mean_given_q(q, 0.0):.0f}" for q in range(5)
])
lam = np.array([100, 300, 1000])
F = np.array([betweenness_ccdf_given_q(int(L), 1, ALPHA) for L in lam])
slope = np.polyfit(np.log(lam), np.log(F), 1)[0]
print(f"tail of F(Lambda | q=1): slope {slope:.3f} on [1e2, 1e3] (target -2)")

# the unconditional finite-tree ccdf interpolates the window identity
# P(L >= (k+1)(tau-k)) = P(n >= k) - P(n >= tau-k)
tau, k = 1000, 5
L = (k + 1) * (tau - k)
lhs = unconditional_betweenness_ccdf(tau, ALPHA, L)
rhs = ccdf_n(tau, ALPHA, k) - ccdf_n(tau, ALPHA, tau - k)
print(f"P(L >= {L}) at tau={tau}: {lhs:.6e} vs window identity {rhs:.6e}")
