"""Shared special functions.

The log Pochhammer symbol ln[(x)_n] as a log-Gamma difference, for the
infinite-tree laws, and the Euler-type product L(c) = prod_{l>=1}
(1 - c^l), which normalizes the window laws' mixture coefficients.
Both evaluate in 64-bit floats.

This module is the package's one gateway to scipy.special: every other
module calls it through the `_sp` handle below, which imports it on the
first attribute access.  So `import tcpfluid`, the AIMD simulator, tree
growth and the finite-tau tree laws never load scipy.
"""

from __future__ import annotations

import math
import numpy as np


class _LazySpecial:
    """scipy.special, imported on the first attribute access.

    Each fetched function is stored on the instance, so later lookups are
    plain attribute reads and never reach __getattr__ again.
    """

    def __getattr__(self, name: str):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


_sp = _LazySpecial()


def pochhammer_log(x: float, n: float) -> float:
    """Return ln[(x)_n] = ln Γ(x+n) - ln Γ(x) for positive-argument ratios.

    Args:
        x: positive real.
        n: nonnegative real shift (need not be an integer).

    Raises:
        ValueError: if either Gamma argument is nonpositive.
    """
    if x <= 0 or x + n <= 0:
        raise ValueError(
            f"pochhammer_log requires positive Gamma arguments, got x={x}, n={n}"
        )
    return float(_sp.gammaln(x + n) - _sp.gammaln(x))


# euler_product_L drops the factors 1 - c^l once c^l falls below this
_PRODUCT_TAIL = 1e-18


def euler_product_L(c: float) -> float:
    """Return the Euler-type product L(c) = ∏_{l>=1} (1 - c^l).

    Factors are dropped once c^l falls below 1e-18.  L(0) = 1 and
    the product decreases monotonically toward 0 as c approaches 1.

    Raises:
        ValueError: if c is outside [0, 1).
    """
    if not 0 <= c < 1:
        raise ValueError(f"euler_product_L requires 0 <= c < 1, got {c}")
    if c == 0:
        return 1.0
    n_terms = int(math.ceil(math.log(_PRODUCT_TAIL) / math.log(c)))
    powers = c ** np.arange(1, max(n_terms, 1) + 1)
    return float(math.exp(np.sum(np.log1p(-powers))))
