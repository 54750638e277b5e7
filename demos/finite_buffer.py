"""Finite drop-tail buffers: where the losses happen and what they do.

With a buffer of B packets the window turns around at an effective limit
B_eff, random link losses and deterministic overflow losses mix, and the
stationary law develops structure the infinite-buffer law lacks: a hard
upper edge, piecewise levels below it, and (under FR/FR) a point mass.
"""

import math

import numpy as np

from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    buffer_loss_ratio_A,
    effective_loss,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import AnalyticWindowDistribution, TcpParams

# ---------------------------------------------------------------------
# 1. A(x) = share of losses taken by the buffer, as a function of the
#    control parameter x = p B_eff^2 / 2; the link takes the other 1 - A.
print("buffer share of losses A(x), c = 1/4:")
for x in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
    A = buffer_loss_ratio_A(x, 0.25)
    print(f"  x={x:5.1f}: A={A:.6g}  1-A={1.0 - A:.6g}")

# ---------------------------------------------------------------------
# 2. The stationary law at a moderate buffer.  Density is piecewise
#    between halving levels of B_eff and vanishes above it.
p = 5e-3
fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=p), buffer_size=40.0)
sol = solve_finite_distribution(fb)
top = fb.effective_limit
print(f"\np={p}, B=40 -> B_eff={top:.2f}, x={fb.x:.3f}")
print(f"  A = {sol.A:.4f}, effective loss rate = {effective_loss(fb):.3e}")
print(f"  E[W] = {sol.mean():.3f}")
print("  halving levels:", " ".join(f"{v:.2f}" for v in sol.level_edges()[:4]))

w = np.linspace(0.0, top * 1.05, 8)
print("   w       pdf")
for wi, di in zip(w, sol.pdf(w)):
    print(f"  {wi:6.2f}  {di:.5e}")

# under FR/FR the cycle through the top is a plateau: a point mass at
# beta * B_eff replaces the density sliver that used to sit near it
atom_at, atom_weight = solve_finite_distribution(fb, "frfr").point_mass
print(f"  FR/FR point mass: {atom_weight:.4f} at w = {atom_at:.2f}")

# ---------------------------------------------------------------------
# 3. lambda = 0: no link losses at all, every loss is an overflow.  The
#    dynamics are a deterministic sawtooth and the loss rate has a clean
#    second-order limit in 1/B_eff.
fb0 = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=0.0), buffer_size=50.0)
print(f"\nlambda=0, B_eff={fb0.effective_limit:.2f}:")
print(f"  effective loss = {effective_loss(fb0):.6e}")
print(f"  8/(3 B_eff^2)  = {8/(3*fb0.effective_limit**2):.6e}  (leading term)")

# ---------------------------------------------------------------------
# 4. A very large buffer collapses onto the infinite-buffer law.
big = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=1e-3), buffer_size=400.0)
sol_big = solve_finite_distribution(big)
plain = AnalyticWindowDistribution.build(big.tcp, "plain")
grid = np.linspace(1.0, 120.0, 5)
gap = np.max(np.abs(sol_big.pdf(grid) - plain.pdf(grid)))
print(f"\nB=400 vs infinite buffer: max pdf gap on [1,120] = {gap:.2e}")
