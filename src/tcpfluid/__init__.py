"""Fluid-model TCP window laws, AIMD network simulation, tree statistics.

Subpackages by topic:

- specfun: shared special functions, from numpy and the standard library
- tcp_infinite: analytic stationary window laws, infinite buffer
- tcp_finite: finite-buffer loss split and piecewise window laws
- window_sim: continuous-time Monte Carlo oracle for the window process
- aimd_net: multi-link AIMD fluid network with capacity strategies
- tree_gen: growing preferential-attachment trees and measurements
- tree_analytic: exact (cluster size, in-degree, betweenness) edge laws
"""

__version__ = "0.1.0"
