"""Monte Carlo window simulator as an oracle for the analytic laws.

The simulator integrates the sawtooth in continuous time: exponential
link losses in the w^m time scale, deterministic overflow at the buffer
edge, optional FR/FR plateaus and WAN idle gaps.  Every comparison below
runs the one validation path, `window_sim.validate`, as `tcpfluid
validate` does: the events are simulated in chunks of at most 5000 with
child seeds, merged, and the time-weighted occupancy histogram is tested
against the closed-form density with chi-square and KS statistics; the
buffer share of losses is checked against A(x).
"""

import math

from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    buffer_loss_ratio_A,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import AnalyticWindowDistribution, TcpParams, window_moment
from tcpfluid.window_sim import validate

EVENTS = 20000
BINS = 100

# ---------------------------------------------------------------------
# 1. Plain infinite-buffer law at p = 1e-2.
p = 1e-2
tcp = TcpParams(alpha=1.0, loss_rate=p)
fb_inf = FiniteBufferParams(tcp, buffer_size=math.inf)
res, fit = validate(fb_inf, AnalyticWindowDistribution.build(tcp, "plain"), EVENTS,
                    n_bins=BINS, seed=11)
print(f"plain  p={p}: mean window {res.mean_window:7.3f} "
      f"(analytic {window_moment(tcp, 0.5):7.3f})  "
      f"chi2 p={fit.chi2_pvalue:.3f}  KS={fit.ks_distance:.4f}")

# the same run against a wrong law fails loudly
wrong = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=2 * p), "plain")
_, bad = validate(fb_inf, wrong, EVENTS, n_bins=BINS, seed=11)
print(f"  vs wrong p: chi2 p={bad.chi2_pvalue:.2e}  KS={bad.ks_distance:.4f}")

# ---------------------------------------------------------------------
# 2. FR/FR and WAN variants change the density; the simulator follows.
#    WAN idling comes on top of the FR/FR plateaus, in the law and the run.
for variant, kw in (("frfr", {}), ("wan", {"link_delay": 85.335})):
    tcp_v = TcpParams(alpha=1.0, loss_rate=p, **kw)
    _, fit_v = validate(FiniteBufferParams(tcp_v, buffer_size=math.inf),
                        AnalyticWindowDistribution.build(tcp_v, variant), EVENTS,
                        n_bins=BINS, seed=11)
    print(f"{variant:5s}  p={p}: chi2 p={fit_v.chi2_pvalue:.3f}  KS={fit_v.ks_distance:.4f}")

# ---------------------------------------------------------------------
# 3. Finite buffer: the split of losses between link and buffer lands on
#    A(x).  B=20 puts the control parameter x near 2.5, where the split is
#    genuinely mixed.
fb = FiniteBufferParams(tcp, buffer_size=20.0)
combined, fit_f = validate(fb, solve_finite_distribution(fb), EVENTS, n_bins=BINS, seed=100)
share = combined.n_buffer_losses / combined.n_events
print(f"finite B=20: chi2 p={fit_f.chi2_pvalue:.3f}  KS={fit_f.ks_distance:.4f}")
print(f"  buffer loss share {share:.4f} vs A(x) = {buffer_loss_ratio_A(fb.x, 0.25):.4f}")
