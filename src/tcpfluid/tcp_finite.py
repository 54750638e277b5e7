"""Stationary window laws for a finite drop-tail buffer.

The buffer caps the window at an effective limit B_eff = B + b_L + bdp;
on top of the Poisson link losses, a deterministic loss fires whenever the
window reaches B_eff.  Everything depends on the random component only
through the control parameter x = p·B_eff^(m+1)/(m+1) and on the halving
geometry through c = beta^(m+1):

- A(x): fraction of losses occurring at the buffer, and 1 - A, both
  from one sum over halving levels whose terms are all nonnegative.
- A level recursion generates coefficient rows h_{n,k} for the piecewise
  stationary density, one row per halving level below B_eff.  Rows are
  added until a new one moves the phi mass below its upper edge by at most
  2^-53·(1-A); the last row then holds down to w = 0.

`solve_finite_distribution(params, variant)` returns the law as a
`FiniteBufferSolution`.  Its density phi is the infinite-buffer mixture
with one coefficient row per level, so when it is built it sets only its
rows, level edges, mass 1-A and buffer atom, once:
`tcp_infinite._VariantLaw` evaluates it as it evaluates the infinite-buffer
law, and its frfr variant is the plain law phi/(1-A) plus one sum,
`_extra`, of the fast-recovery plateau and the atom at beta·B_eff that
buffer losses leave (`point_mass`), over their total mass.  It has
`pdf(w)`, `ccdf(w)`, `mean()` and `support_cutoff()` (= B_eff); no
finite-buffer wan law exists.

Every exponential is arranged to have a nonpositive argument, so the
evaluation never overflows regardless of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import euler_product_L, float_pow
from .tcp_infinite import _WEIGHT_FLOOR, TcpParams, _guard_cancellation, _VariantLaw

# the loss-split sum stops once c^k·x is small and a term falls below
# this share of the sum
_SERIES_RTOL = 1e-16


@dataclass(frozen=True)
class FiniteBufferParams:
    """Finite-buffer extension of the fluid window parameters.

    Attributes:
        tcp: underlying window dynamics (growth, halving, link loss).
        buffer_size: drop-tail buffer size B in packets.
        window_headroom: additive overshoot allowance b_L; the window
            actually turns around at B_eff = B + b_L + bdp.
    """

    tcp: TcpParams
    buffer_size: float
    window_headroom: float = 2.5354

    def __post_init__(self) -> None:
        # NaN fails both bounds; an infinite buffer stands for no buffer
        if not self.buffer_size > 0:
            raise ValueError(f"buffer_size must be positive, got {self.buffer_size}")
        if not 0 <= self.window_headroom < math.inf:
            raise ValueError(
                f"window_headroom must be nonnegative and finite, got {self.window_headroom}"
            )

    @property
    def effective_limit(self) -> float:
        """Largest reachable window B_eff = B + b_L + 2*alpha*D."""
        return self.buffer_size + self.window_headroom + self.tcp.bdp

    @property
    def x(self) -> float:
        """Control parameter p·B_eff^(m+1)/(m+1); inf where B_eff^(m+1) overflows."""
        m = self.tcp.m
        return self.tcp.p * float_pow(self.effective_limit, m + 1) / (m + 1)


def _loss_split(x: float, c: float) -> tuple[float, float, float]:
    """(A, 1 - A, A·e^x) from one sum of nonnegative terms.

    A = e^(-x)/denom with denom = e^(-x) - L(c)·G(x)·e^(-x), where
        -G(x)·e^(-x) = sum_k pi_k·e^((c^k-1)x)·(-expm1((c-1)c^k·x)),
    pi_k = prod_{l<=k} 1/(1-c^l).  Every term is >= 0 and every exponent
    <= 0, so denom and 1 - A = -L·G·e^(-x)/denom take no subtraction and
    nothing overflows at any x.

    Raises:
        ValueError: x negative or not finite.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"the loss split needs a finite x >= 0, got {x}")
    total = 0.0
    pi_k = 1.0
    ck = 1.0  # c^k
    while True:
        term = pi_k * math.exp((ck - 1.0) * x) * -math.expm1((c - 1.0) * ck * x)
        total += term
        if ck * x < 1e-3 and term <= _SERIES_RTOL * total:
            break
        ck *= c
        pi_k /= 1.0 - ck
    link = euler_product_L(c) * total
    denom = math.exp(-x) + link
    return math.exp(-x) / denom, link / denom, 1.0 / denom


def buffer_loss_ratio_A(x: float, c: float) -> float:
    """Fraction A of losses that happen at the buffer, A = 1/(1 - L(c)G(x)).

    Raises:
        ValueError: c outside (0,1), or x negative or not finite.
    """
    if not 0 < c < 1:
        raise ValueError(f"buffer_loss_ratio_A requires 0 < c < 1, got {c}")
    return _loss_split(x, c)[0]


def effective_loss(params: FiniteBufferParams) -> float:
    """Total loss event rate lambda' = lambda/(1 - A), buffer included.

    lambda = 0 degenerates to the deterministic sawtooth rate
    (m+1)·alpha/((1-c)·B_eff^(m+1)); small lambda adds (1-c)·lambda/2 to
    that, which 1 - A, a sum of nonnegative terms, keeps without
    cancellation.

    Raises:
        ValueError: an infinite buffer (x = inf); there lambda' = lambda.
    """
    tcp = params.tcp
    c = tcp.c
    if tcp.loss_rate == 0:
        m = tcp.m
        return (m + 1) * tcp.alpha / ((1.0 - c) * float_pow(params.effective_limit, m + 1))
    return tcp.loss_rate / _loss_split(params.x, c)[1]


@dataclass(frozen=True)
class FiniteBufferSolution(_VariantLaw):
    """The finite-buffer window law of one variant, from its density rows.

    Row n holds h_{n,0..n} for the window interval
    (beta^(n+1)·B_eff, beta^n·B_eff]; the last row, n = N_levels, holds
    down to w = 0.  one_minus_A is the buffer-free share 1 - A, summed
    on its own so that it keeps its digits where 1.0 - A would cancel.

    variant "plain" is the bare law phi(w)/(1-A).  "frfr" adds the
    fast-recovery plateau density and, because buffer losses always halve
    from exactly B_eff, an atom at beta·B_eff (`point_mass`); `pdf` gives
    the continuous part, `ccdf` and `mean` count the atom too.
    """

    params: FiniteBufferParams
    A: float
    one_minus_A: float
    h_rows: tuple[np.ndarray, ...]
    variant: str = "plain"

    def __post_init__(self) -> None:
        tcp, B = self.params.tcp, self.effective_limit
        # the last row holds down to w = 0, and every buffer loss halves from B_eff
        self._set_mixture(
            tcp, self.one_minus_A, self.h_rows, np.append(self.level_edges()[:-1], 0.0),
            (tcp.beta * B, self.A * B ** tcp.m),
        )

    @property
    def N_levels(self) -> int:
        """Index of the last row, the one that holds down to w = 0."""
        return len(self.h_rows) - 1

    @property
    def x(self) -> float:
        return self.params.x

    @property
    def c(self) -> float:
        return self.params.tcp.c

    @property
    def effective_limit(self) -> float:
        return self.params.effective_limit

    def level_edges(self) -> np.ndarray:
        """Interval boundaries B_eff·beta^n, n = 0..N_levels+1, descending."""
        beta = self.params.tcp.beta
        return self.effective_limit * beta ** np.arange(self.N_levels + 2)

    def support_cutoff(self) -> float:
        """B_eff: the window never exceeds it."""
        return self.effective_limit


def solve_finite_distribution(
    params: FiniteBufferParams, variant: str = "plain"
) -> FiniteBufferSolution:
    """The finite-buffer law of `variant` ("plain" or "frfr").

    Runs the level recursion for the piecewise density coefficients.

    Seeds with h_{0,0} = A·e^x (from `_loss_split`, without forming e^x,
    so it stays bounded for any x) and I_0 = A(e^x - e^{cx}), then builds row
    n+1 from row n.  Row n+1 changes phi only below b = beta^(n+1)·B_eff,
    by a closed-form mass: with a_k = p·c^-k/(m+1),
    ∫_0^b p·w^m·e^(-a_k·w^(m+1)) dw = c^k·(1 - e^(-x·c^(n+1-k))).
    Rows are added until that change is at most 2^-53·(1-A).

    Raises:
        ValueError: a variant other than plain or frfr (no finite-buffer
            wan law exists), loss_rate = 0 (pure sawtooth; use the
            simulator), a buffer whose x overflows, c too close to 1
            (`_guard_cancellation`), or a recursion that overflows.
    """
    if variant not in ("plain", "frfr"):
        raise ValueError(
            f"no finite-buffer law exists for variant {variant!r}; use plain or frfr"
        )
    tcp = params.tcp
    if tcp.loss_rate <= 0:
        raise ValueError("solve_finite_distribution requires loss_rate > 0")
    x, c = params.x, tcp.c
    if x == math.inf:
        raise ValueError(
            f"buffer_size {params.buffer_size} is too large: "
            f"x = p·B_eff^(m+1)/(m+1) overflows at m = {tcp.m}"
        )
    _guard_cancellation(c)
    A, one_minus_A, h00 = _loss_split(x, c)
    rows = [np.array([h00])]
    I = h00 * (1.0 - math.exp((c - 1.0) * x))
    while True:
        n = len(rows) - 1
        hn = rows[n]
        k = np.arange(n + 1, dtype=float)
        gap = c ** -k - c  # c^{-k} - c > 0
        decay_hi = np.exp(-(c ** (n + 1)) * gap * x)
        decay_lo = np.exp(-(c ** n) * gap * x)
        I -= float(np.sum((decay_hi - decay_lo) * hn / gap))
        row = np.concatenate(([I + float(np.sum(hn / gap * decay_hi))], hn / (c - c ** -k)))
        rows.append(row)
        k = np.arange(n + 2, dtype=float)
        change = float(np.sum(
            (row - np.append(hn, 0.0)) * c ** k * -np.expm1(-x * c ** (n + 1 - k))
        ))
        if not math.isfinite(change):
            raise ValueError(f"finite-buffer recursion overflowed at x = {x}")
        if abs(change) <= _WEIGHT_FLOOR * one_minus_A:
            break
    for row in rows:
        row.setflags(write=False)
    return FiniteBufferSolution(
        params=params,
        A=A,
        one_minus_A=one_minus_A,
        h_rows=tuple(rows),
        variant=variant,
    )


def phi_moment(sol: FiniteBufferSolution, s: float = 0.0, lo=0.0, hi: float = math.inf):
    """∫ w^s·phi(w) dw over (lo, hi], lo scalar or array; `sol._integral` as a function."""
    return sol._integral(s, lo, hi)


def finite_window_pdf(sol: FiniteBufferSolution, w):
    """Window density of sol's law at w; the function form of `sol.pdf`."""
    return sol.pdf(w)
