"""Stationary congestion-window laws on a lossy link with unlimited buffering.

Walks through the analytic machinery: the residue table behind the
mixture-of-exponentials density, the scale-free moments, the FR/FR
plateau correction, the WAN idle-time variant, and the mean-field fixed
point for N flows sharing one link.
"""

import math

import numpy as np

from tcpfluid.tcp_infinite import (
    AnalyticWindowDistribution,
    TcpParams,
    compute_residues,
    frfr_mean_correction,
    mean_field_fixed_point,
    sqrt_law_throughput,
    window_moment,
)

# ---------------------------------------------------------------------
# 1. The density is sum_k h_k * exp(-x c^-k) in x = p w^2 / 2; the h_k
#    collapse super-exponentially, so nine terms carry the whole law.
table = compute_residues(0.25, 9)
print("residue coefficients h_k at c = 1/4:")
for k, h in enumerate(table.h[:9]):
    print(f"  h_{k} = {h: .7e}")

# ---------------------------------------------------------------------
# 2. Moments scale as powers of 1/sqrt(p); the constants are universal.
p = 1e-4
params = TcpParams(alpha=1.0, loss_rate=p)
mean = window_moment(params, 0.5)
second = window_moment(params, 1.0)
stdev = math.sqrt(second - mean**2)
print(f"\np = {p}:")
print(f"  E[W]            = {mean:10.3f}   (E[W] sqrt(p) = {mean*math.sqrt(p):.4f})")
print(f"  sd[W]           = {stdev:10.3f}   (sd[W] sqrt(p)= {stdev*math.sqrt(p):.4f})")
print(f"  E[W^2]          = {second:10.1f}   (exactly 8/(3p) = {8/(3*p):.1f})")
wan_link = TcpParams.from_link(1.2e6, 12000.0, loss_ratio=p, delay=0.05)
print(f"  sawtooth bound  = {sqrt_law_throughput(wan_link):.1f} bits/s")

# ---------------------------------------------------------------------
# 3. Fast retransmit / fast recovery freezes the window for one RTT per
#    loss; in the small-p limit that shifts the mean by a constant.
for pp in (1e-3, 1e-5, 1e-8):
    shift = frfr_mean_correction(TcpParams(alpha=1.0, loss_rate=pp))
    print(f"  FR/FR mean shift at p={pp:.0e}: {shift:+.5f}")

# ---------------------------------------------------------------------
# 4. Full densities on one grid.  The WAN variant inserts an idle
#    fraction below the bandwidth-delay product, bending mass downward.
bdp = 40.0
plain = AnalyticWindowDistribution.build(params, "plain")
wan = AnalyticWindowDistribution.build(
    TcpParams(alpha=1.0, loss_rate=p, link_delay=bdp / 2.0), "wan"
)
w = np.linspace(1.0, plain.support_cutoff(), 7)
print("\n   w        plain pdf     wan pdf")
for wi, a, b in zip(w, plain.pdf(w), wan.pdf(w)):
    print(f"  {wi:7.1f}  {a:.5e}  {b:.5e}")

# ---------------------------------------------------------------------
# 5. N flows on one link: each sees the others as background, and the
#    self-consistent total window solves a one-dimensional fixed point.
link = TcpParams.from_link(256000.0, 12000.0, loss_ratio=1e-3)
for n in (2, 5, 20):
    print(f"  mean-field total window, N={n:2d}: {mean_field_fixed_point(link, n):8.2f} packets")
