"""Monte Carlo window simulator as an oracle for the analytic laws.

The simulator integrates the sawtooth in continuous time: exponential
link losses in the w^m time scale, deterministic overflow at the buffer
edge, optional FR/FR plateaus and WAN idle gaps.  Time-weighted
occupancy histograms are then tested against the closed-form densities
with chi-square and KS statistics, and the buffer share of losses is
checked against A(x).
"""

import math

from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    buffer_loss_ratio_A,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import AnalyticWindowDistribution, TcpParams, window_moment
from tcpfluid.window_sim import SimConfig, compare_histogram, merge_results, simulate

EVENTS = 20000

# ---------------------------------------------------------------------
# 1. Plain infinite-buffer law at p = 1e-2.
p = 1e-2
tcp = TcpParams(alpha=1.0, loss_rate=p)
res = simulate(SimConfig(params=FiniteBufferParams(tcp, buffer_size=math.inf),
                         horizon=EVENTS, seed=11))
dist = AnalyticWindowDistribution.build(tcp, "plain")
fit = compare_histogram(res, dist.pdf)
print(f"plain  p={p}: mean window {res.mean_window:7.3f} "
      f"(analytic {window_moment(tcp, 0.5):7.3f})  "
      f"chi2 p={fit.chi2_pvalue:.3f}  KS={fit.ks_distance:.4f}")

# the same comparison against a wrong law fails loudly
wrong = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=2 * p), "plain")
bad = compare_histogram(res, wrong.pdf)
print(f"  vs wrong p: chi2 p={bad.chi2_pvalue:.2e}  KS={bad.ks_distance:.4f}")

# ---------------------------------------------------------------------
# 2. FR/FR and WAN variants change the density; the simulator follows.
#    WAN idling comes on top of the FR/FR plateaus, in the law and the run.
for variant, kw in (("frfr", {}), ("wan", {"link_delay": 85.335})):
    tcp_v = TcpParams(alpha=1.0, loss_rate=p, **kw)
    cfg = SimConfig.for_variant(FiniteBufferParams(tcp_v, buffer_size=math.inf),
                                variant, horizon=EVENTS, seed=11)
    res_v = simulate(cfg)
    fit_v = compare_histogram(res_v, AnalyticWindowDistribution.build(tcp_v, variant).pdf)
    print(f"{variant:5s}  p={p}: chi2 p={fit_v.chi2_pvalue:.3f}  KS={fit_v.ks_distance:.4f}")

# ---------------------------------------------------------------------
# 3. Finite buffer: independent chunks merge exactly, and the split of
#    losses between link and buffer lands on A(x).  B=20 puts the
#    control parameter x near 2.5, where the split is genuinely mixed.
fb = FiniteBufferParams(tcp, buffer_size=20.0)
chunks = [simulate(SimConfig(params=fb, horizon=EVENTS // 4, seed=100 + k))
          for k in range(4)]
combined = merge_results(*chunks)
sol = solve_finite_distribution(fb)
fit_f = compare_histogram(combined, sol.pdf)
share = combined.n_buffer_losses / combined.n_events
print(f"finite B=20: chi2 p={fit_f.chi2_pvalue:.3f}  KS={fit_f.ks_distance:.4f}")
print(f"  buffer loss share {share:.4f} vs A(x) = {buffer_loss_ratio_A(fb.x, 0.25):.4f}")
