"""Stationary congestion-window laws for the infinite-buffer fluid model.

Between losses the window obeys dW/dt = alpha/W^m, so W^(m+1) grows
linearly in time; losses arrive as a Poisson stream of rate lambda and
multiply W by beta.  The plain stationary density is a finite mixture of
stretched exponentials p·w^m·sum_k h_k·e^(-a_k·w^(m+1)), a_k =
p·c^-k/(m+1), whose coefficients h_k come from a partial-fraction
expansion (Dumas, Guillemin & Robert, Adv. Appl. Probab. 34 (2002) 85).
The finite-buffer law of `tcp_finite` is the same mixture with one
coefficient row per halving level, and `_VariantLaw` evaluates both from
their rows: every density, tail and mean is a row-wise sum of exponentials
or incomplete Gamma functions, so nothing here integrates numerically.
Every variant is the plain law plus one sum, `_VariantLaw._extra`:
fast-recovery plateau + buffer atom (none here) + idle time below the
bandwidth-delay product; the normalizer, the CCDF and the mean each add
its integral to the plain law's.  All laws depend on lambda and alpha only
through the loss ratio p = lambda/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .specfun import euler_product_L, float_pow, gammainc

VARIANTS = ("plain", "frfr", "wan")

# residue tables stop at the first weight |c^k·h_k| <= _WEIGHT_FLOOR, and no
# alternating sum may carry a weight above _MAX_WEIGHT (10 digits survive)
_WEIGHT_FLOOR = 2.0 ** -53
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal float
_MAX_WEIGHT = 1e6


@dataclass(frozen=True)
class TcpParams:
    """Parameter bundle for the AIMD fluid window process.

    Attributes:
        alpha: rate scale in packets/sec; R(W) = W^m / alpha.
        loss_rate: Poisson rate of external loss events (lambda).
        m: RTT exponent; m=0 is a fixed round-trip time, m=1 the
            congestion-avoidance ACK-clocked case.
        beta: multiplicative decrease factor in (0, 1).
        link_capacity: optional link speed in bits/sec (C).
        packet_size: optional packet size in bits (P).
        link_delay: one-way propagation delay in seconds (D).
    """

    alpha: float
    loss_rate: float
    m: float = 1.0
    beta: float = 0.5
    link_capacity: float | None = None
    packet_size: float | None = None
    link_delay: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN fails every bound
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.loss_rate < math.inf:
            raise ValueError(f"loss_rate must be nonnegative and finite, got {self.loss_rate}")
        if not 0 <= self.m < math.inf:
            raise ValueError(f"m must be nonnegative and finite, got {self.m}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if not 0 <= self.link_delay < math.inf:
            raise ValueError(f"link_delay must be nonnegative and finite, got {self.link_delay}")
        if self.link_capacity is not None and not 0 < self.link_capacity < math.inf:
            raise ValueError("link_capacity must be positive and finite when given")
        if self.packet_size is not None and not 0 < self.packet_size < math.inf:
            raise ValueError("packet_size must be positive and finite when given")
        if self.link_capacity is not None and self.packet_size is not None:
            derived = self.link_capacity / self.packet_size
            if not math.isclose(derived, self.alpha, rel_tol=1e-9):
                raise ValueError(
                    f"alpha={self.alpha} inconsistent with C/P={derived}"
                )

    @classmethod
    def from_link(
        cls,
        capacity: float,
        packet_size: float,
        loss_ratio: float,
        delay: float = 0.0,
        m: float = 1.0,
        beta: float = 0.5,
    ) -> "TcpParams":
        """Build params from link speed C (bits/s) and packet size P (bits).

        alpha = C/P packets per second; loss_rate = loss_ratio * alpha.
        """
        alpha = capacity / packet_size
        return cls(
            alpha=alpha,
            loss_rate=loss_ratio * alpha,
            m=m,
            beta=beta,
            link_capacity=capacity,
            packet_size=packet_size,
            link_delay=delay,
        )

    @property
    def c(self) -> float:
        """Window-volume decrease factor beta^(m+1)."""
        return self.beta ** (self.m + 1)

    @property
    def p(self) -> float:
        """Loss ratio lambda/alpha (loss events per packet sent)."""
        return self.loss_rate / self.alpha

    @property
    def bdp(self) -> float:
        """Bandwidth-delay product 2*alpha*D in packets."""
        return 2.0 * self.alpha * self.link_delay


@dataclass(frozen=True)
class ResidueTable:
    """Partial-fraction coefficients h_0..h_K for a given c = beta^(m+1).

    h_k = (1/(c^k L(c))) * prod_{l=1..k} 1/(1 - c^-l); signs alternate and
    the weights c^k·h_k fall off like c^(k(k+1)/2) once c^k < 1/2.  The
    default table stops at the first weight of at most 2^-53: k = 7 at
    c = 0.25, k = 21 at c = 0.8.
    """

    c: float
    h: tuple[float, ...]

    @property
    def weights(self) -> np.ndarray:
        """Mixture weights c^k h_k (sum to 1 up to truncation)."""
        k = np.arange(len(self.h))
        return self.c ** k * np.asarray(self.h)


def _guard_cancellation(c: float) -> None:
    """Raise ValueError if W = max_k |c^k·h_k| exceeds 1e6.

    W is the largest term of the window laws' alternating sums, which lose
    log10(W) of their 16 digits.  The weights start at 1/L(c) and grow by
    c^k/(1 - c^k) while c^k >= 1/2, then shrink.
    """
    weight = 1.0 / euler_product_L(c)
    ck = c
    while ck >= 0.5:
        weight *= ck / (1.0 - ck)
        ck *= c
    if weight > _MAX_WEIGHT:
        raise ValueError(
            f"c = beta^(m+1) = {c} is too close to 1: the alternating sums carry "
            f"terms of {weight:.3g} and keep fewer than 10 significant digits"
        )


def compute_residues(c: float, K: int | None = None) -> ResidueTable:
    """Tabulate the mixture coefficients h_0..h_K.

    h_0 = 1/L(c) and h_k = h_{k-1} / (c - c^(1-k)); the recurrence is exact
    in floating point up to rounding, no series involved.  K = None runs to
    the first k with |c^k·h_k| <= 2^-53.

    Raises:
        ValueError: if c is outside (0, 1), K < 0, or the weights exceed
            1e6 (see `_guard_cancellation`).
    """
    if not 0 < c < 1:
        raise ValueError(f"compute_residues requires 0 < c < 1, got {c}")
    if K is not None and K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    _guard_cancellation(c)
    h = [1.0 / euler_product_L(c)]
    k = 0
    while (k < K) if K is not None else (abs(c ** k * h[-1]) > _WEIGHT_FLOOR):
        k += 1
        h.append(h[-1] / (c - c ** (1 - k)))
    return ResidueTable(c=c, h=tuple(h))


def _points(w) -> np.ndarray:
    """w as a 1-d float array, checked to be >= 0 and not NaN."""
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all(w_arr >= 0):
        raise ValueError("window laws are evaluated at w >= 0, not at NaN or w < 0")
    return w_arr


class _VariantLaw:
    """pdf, ccdf and mean of every variant of one plain stationary law.

    The plain density f is the mixture p·w^m·sum_k h_{n,k}·e^(-a_k·w^(m+1))
    on row n's window interval, up to the mass `_mass`.  Each law sets its
    mixture once, at construction, through `_set_mixture`: `_tcp`, `_mass`,
    `_rows`, the coefficient arrays h_n, `_edges`, the descending row edges
    (row n holds (edges[n+1], edges[n]], the last edge is 0), `_buffer`,
    (beta·B_eff, A·B_eff^m) or None when no buffer bounds the window, and
    `_rates`, the a_k = p·c^-k/(m+1) whose first len(h_n) entries serve
    row n.  A variant is f plus all that `_extra` integrates: the
    fast-recovery plateau p·beta^-(m+1)·w^m·f(w/beta), the atom p·A·B_eff^m
    at beta·B_eff that buffer losses leave, and, for wan, the idle time
    ((T-w)/w)·f(w) below T = bdp; all over their total mass.
    """

    _clamp = False

    def _set_mixture(self, tcp: TcpParams, mass: float, rows, edges, buffer=None) -> None:
        """Fix the plain mixture, its rates and the idle limit T (0 unless wan)."""
        k = np.arange(max(len(h) for h in rows))
        fixed = {
            "_tcp": tcp, "_mass": mass, "_rows": rows, "_edges": edges, "_buffer": buffer,
            "_rates": tcp.p * tcp.c ** -k / (tcp.m + 1),
            "_idle_limit": tcp.bdp if self.variant == "wan" else 0.0,
        }
        for name, value in fixed.items():
            object.__setattr__(self, name, value)

    @cached_property
    def _total(self) -> float:
        """Total mass of the variant, once per law."""
        return self._mass + self._extra(0.0)

    @property
    def point_mass(self) -> tuple[float, float] | None:
        """(beta·B_eff, weight) of the atom buffer losses leave; None without one."""
        if self.variant == "plain" or self._buffer is None:
            return None
        at, loss = self._buffer
        return at, self._tcp.p * loss / self._total

    def _extra(self, s: float, lo=0.0):
        """∫ w^s over w > lo of all the variant adds to the plain law.

        That is the plateau p·beta^s·∫ v^(s+m)·f(v) over v > lo/beta, plus
        the atom p·A·B_eff^m·(beta·B_eff)^s where beta·B_eff > lo, plus the
        idle time T·∫ w^(s-1)·f(w) - ∫ w^s·f(w) over (lo, T], where an
        empty overlap adds exactly 0; 0.0 for the plain variant.
        """
        if self.variant == "plain":
            return 0.0
        tcp, T = self._tcp, self._idle_limit
        p, beta = tcp.p, tcp.beta
        out = p * beta ** s * self._integral(s + tcp.m, lo / beta)
        if self._buffer is not None:
            at, loss = self._buffer
            out = out + p * loss * at ** s * (lo < at)
        if T > 0:
            out = out + (T * self._integral(s - 1.0, lo, T) - self._integral(s, lo, T))
        return out

    def _density(self, w: np.ndarray) -> np.ndarray:
        """Plain density f(w) up to `_mass`; zero outside the rows (and at
        a volume w^(m+1) past the float range, under `pdf`'s errstate)."""
        tcp, edges = self._tcp, self._edges
        volume = w ** (tcp.m + 1)
        out = np.zeros_like(w)
        for h, top, bottom in zip(self._rows, edges, edges[1:]):
            inside = (w > bottom) & (w <= top)
            if inside.any():
                rates = self._rates[: len(h)]
                out[inside] = h @ np.exp(-np.multiply.outer(rates, volume[inside]))
        return tcp.p * w ** tcp.m * out

    def _integral(self, s: float, lo=0.0, hi: float = math.inf):
        """∫ w^s·f(w) dw over (lo, hi], one value per entry of lo.

        Row n adds, over its overlap (a, b] with (lo, hi] and with
        nu = 1 + s/(m+1) and x = a_k·w^(m+1),
            ((m+1)/p)^(s/(m+1))·Γ(nu)·sum_k h_{n,k}·c^(k·nu)·[P(nu, x_b) - P(nu, x_a)];
        every bound of a nonempty overlap goes to one `gammainc` call, and the
        bracket is Q(nu, x_a) - Q(nu, x_b) wherever P(nu, x_a) > 1/2, so upper
        tails keep their relative digits.  At s = 0 it is e^(-x_a)·(-expm1(x_a - x_b)),
        exact in the tail.  An entry whose overlap is empty adds exactly 0.
        """
        tcp, edges = self._tcp, self._edges
        p, m, c = tcp.p, tcp.m, tcp.c
        nu = 1.0 + s / (m + 1)
        if nu <= 0:
            raise ValueError(f"integral diverges at the origin for s={s}")
        lo = np.asarray(lo, dtype=float)
        rows = []
        # a volume beyond the float range reads inf, as `float_pow`'s does
        with np.errstate(over="ignore"):
            for h, top, bottom in zip(self._rows, edges, edges[1:]):
                b = min(hi, top)
                # entries with a >= b integrate over nothing
                a = np.minimum(np.maximum(lo, bottom), b)
                if (a >= b).all():
                    continue
                # one rate per term, along the first axis of every bound
                rates = self._rates[: len(h)].reshape((-1,) + (1,) * lo.ndim)
                weights = h * c ** (np.arange(len(h)) * nu)
                x_b, x_a = rates * float_pow(b, m + 1), rates * a ** (m + 1)
                rows.append((weights, x_b, x_a, a >= b, h, a, b))
        total = np.zeros(lo.shape)
        if s == 0:
            for weights, x_b, x_a, empty, *_ in rows:
                tail = np.exp(-x_a)
                if x_b.flat[0] < math.inf:
                    tail *= -np.expm1(x_a - x_b)
                total += np.where(empty, 0.0, weights @ tail)
        elif rows:
            # an entry whose overlap is empty stands in x_a = 0, where (P, Q)
            # is (0, 1) without a call, and the mask drops it
            x = np.concatenate([
                bound.ravel() for _, x_b, x_a, empty, *_ in rows
                for bound in (x_b, np.where(empty, 0.0, x_a))
            ])
            P, Q = np.zeros(x.shape), np.ones(x.shape)
            sent = x > 0.0
            P[sent], Q[sent] = gammainc(nu, x[sent])
            end, poly = 0, None
            for weights, x_b, x_a, empty, h, a, b in rows:
                start, mid, end = end, end + x_b.size, end + x_b.size + x_a.size
                p_b, q_b = P[start:mid].reshape(x_b.shape), Q[start:mid].reshape(x_b.shape)
                p_a, q_a = P[mid:end].reshape(x_a.shape), Q[mid:end].reshape(x_a.shape)
                bracket = np.where(p_a > 0.5, q_a - q_b, p_b - p_a)
                # where P(nu, x_b) falls below the normal range, e^(-x) is 1
                # to the last bit on the whole overlap, and the term is
                # p·h_k·∫ w^(s+m) dw, added after the scale factor that
                # would multiply its underflow back; the row's first term
                # has its smallest x_b, so its P says whether any does
                if p_b.flat[0] < _NORMAL_MIN:
                    tiny = p_b < _NORMAL_MIN
                    bracket = np.where(tiny, 0.0, bracket)
                    e = s + m + 1
                    term = p * (h * tiny.T).sum(axis=-1) * (float_pow(b, e) - a ** e) / e
                    term = np.where(empty, 0.0, term)
                    poly = term if poly is None else poly + term
                # numpy's pairwise sum, not @: it keeps window_moment bit for bit
                total += np.where(empty, 0.0, (weights * bracket.T).sum(axis=-1))
            total *= ((m + 1) / p) ** (s / (m + 1)) * math.gamma(nu)
            if poly is not None:
                total += poly
        return total if lo.ndim else float(total)

    def pdf(self, w):
        """Density of the continuous part at w (scalar or array)."""
        w_arr = _points(w)
        tcp, T = self._tcp, self._idle_limit
        # a volume beyond the float range reads inf, and w^m·f(w) inf·0 at w = inf
        with np.errstate(over="ignore", invalid="ignore"):
            base = out = self._density(w_arr)
            if self.variant != "plain":
                p, m, beta = tcp.p, tcp.m, tcp.beta
                out = base + p * beta ** -(m + 1) * w_arr ** m * self._density(w_arr / beta)
        out = np.where(w_arr < math.inf, out, 0.0)
        if T > 0:
            below = (w_arr < T) & (w_arr > 0)
            out[below] += (T - w_arr[below]) / w_arr[below] * base[below]
        out = out / self._total
        if self._clamp:
            out = np.maximum(out, 0.0)
        return out if np.ndim(w) else float(out[0])

    def ccdf(self, w):
        """P(W > w) in closed form, the atom included."""
        w_arr = _points(w)
        out = (self._integral(0.0, w_arr) + self._extra(0.0, w_arr)) / self._total
        if self._clamp:
            out = np.clip(out, 0.0, 1.0)
        return out if np.ndim(w) else float(out[0])

    def mean(self) -> float:
        """E[W], the atom included."""
        return (self._integral(1.0) + self._extra(1.0)) / self._total


@dataclass(frozen=True)
class AnalyticWindowDistribution(_VariantLaw):
    """Evaluable stationary window law.

    variant "plain" is the bare halving process; "frfr" adds the
    fast-recovery plateau of one RTT spent at the post-halving window;
    "wan" additionally stretches growth below the bandwidth-delay product
    bdp = 2*alpha*D, where the window is too small to fill the pipe.  The
    law computes its own complete residue table, `compute_residues(params.c)`.
    """

    params: TcpParams
    variant: str = "plain"
    # the mixture cancels to all orders as w -> 0, so rounding can leave
    # its pdf just below 0 and its CCDF just above 1
    _clamp = True

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.params.loss_rate <= 0:
            raise ValueError("no stationary law exists for loss_rate = 0")
        if self.variant == "wan" and self.params.m == 0:
            raise ValueError("wan variant needs m > 0 (inverse moment diverges)")
        # one row of residues on (0, inf) and no buffer, so no variant has an atom
        h = np.asarray(compute_residues(self.params.c).h)
        self._set_mixture(self.params, 1.0, (h,), (math.inf, 0.0))

    @classmethod
    def build(cls, params: TcpParams, variant: str = "plain") -> "AnalyticWindowDistribution":
        return cls(params, variant)

    def _integral(self, s: float, lo=0.0, hi: float = math.inf):
        # the whole mean at m = 0 is the product closed form of `window_moment`
        if s == 1 and self.params.m == 0 and hi == math.inf and np.ndim(lo) == 0 and lo == 0:
            return window_moment(self.params, 1.0)
        return super()._integral(s, lo, hi)

    def support_cutoff(self) -> float:
        """w beyond which the plain-law CCDF, h_0·e^(-p·w^(m+1)/(m+1)) far
        out, is below 1e-13: the exponent is max(32, ln(1e13·h_0))."""
        p, m = self.params.p, self.params.m
        exponent = max(32.0, math.log(1e13 * self._rows[0][0]))
        w_tail = ((m + 1) / p * exponent) ** (1.0 / (m + 1))
        if self.variant == "wan":
            return max(w_tail, 1.01 * self.params.bdp)
        return w_tail


def window_moment(params: TcpParams, r: float) -> float:
    """E[W^(r(m+1))] of the plain law.

    Integer r uses the product closed form
        n! ((m+1)·alpha/lambda)^n · prod_{k=1..n} 1/(1-c^k),
    non-integer r the incomplete-Gamma sum of the plain law's `_integral`.

    Raises:
        ValueError: loss_rate = 0, r not finite, r <= -1/(m+1) (the moment
            diverges), or the moment lies beyond the float range (p too small).
    """
    if params.loss_rate <= 0:
        raise ValueError("window_moment requires loss_rate > 0")
    m = params.m
    if not math.isfinite(r):
        raise ValueError(f"moment order r must be finite, got {r}")
    if r <= -1.0 / (m + 1):
        raise ValueError(f"moment of order r={r} diverges (need r > {-1/(m+1)})")
    try:
        if abs(r - round(r)) < 1e-12 and round(r) >= 1:
            n = int(round(r))
            c = params.c
            value = math.factorial(n) * ((m + 1) / params.p) ** n
            for k in range(1, n + 1):
                value /= 1.0 - c ** k
        else:
            value = AnalyticWindowDistribution.build(params)._integral(r * (m + 1))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"E[W^{r * (m + 1):g}] at loss_rate={params.loss_rate!r} lies beyond the float range"
        )
    return value


def frfr_mean_correction(params: TcpParams) -> float:
    """Mean shift E[W_frfr] - E[W] induced by fast-recovery plateaus.

    Equals -p(E[W]E[W^m] - beta·E[W^(m+1)]) / (1 + p·E[W^m]); for m=1 it
    approaches the constant -0.998 as p -> 0.
    """
    if params.loss_rate <= 0:
        raise ValueError("frfr_mean_correction requires loss_rate > 0")
    p, m, plain = params.p, params.m, AnalyticWindowDistribution.build(params)
    ew, ewm, ewm1 = (plain._integral(s) for s in (1.0, m, m + 1.0))
    return -p * (ew * ewm - params.beta * ewm1) / (1.0 + p * ewm)


# fixed-point steps before mean_field_fixed_point gives up
_MAX_ITER = 10_000


def mean_field_fixed_point(params: TcpParams, N: int) -> float:
    """Self-consistent total window N·E[W*] for N identical parallel flows.

    The wan-style law for one flow sees the other flows through the free
    capacity threshold T; self-consistency demands T = N·E[W*](T).  Fixed
    point iteration starts from the ideal long-delay limit N/E[1/W] and
    stops when successive iterates agree to 1e-10 relative.

    Raises:
        RuntimeError: no convergence within _MAX_ITER iterations.
    """
    if not (math.isfinite(N) and N >= 1):
        raise ValueError(f"N must be >= 1 and finite, got {N}")
    if params.loss_rate <= 0:
        raise ValueError("mean_field_fixed_point requires loss_rate > 0")
    if params.m <= 0:
        raise ValueError("mean_field_fixed_point requires m > 0")
    T = N / AnalyticWindowDistribution(params)._integral(-1.0)
    for _ in range(_MAX_ITER):
        idle = replace(params, link_delay=T / (2.0 * params.alpha))  # bdp = T
        T_new = N * AnalyticWindowDistribution(idle, "wan").mean()
        if abs(T_new - T) <= 1e-10 * max(1.0, abs(T_new)):
            return T_new
        T = T_new
    raise RuntimeError(f"mean-field iteration did not converge in {_MAX_ITER} steps")


def sqrt_law_throughput(params: TcpParams) -> float:
    """Deterministic-sawtooth throughput (P/R)·sqrt(3/2)/sqrt(p), R = 2D.

    The classic inverse square-root law at the loss ratio p = params.p:
    every 1/p-th packet is lost, the window oscillates between W_max/2 and
    W_max.  Units follow packet_size (bits/s if P is in bits).

    Raises:
        ValueError: p outside (0,1), or packet_size/link_delay unset.
    """
    p = params.p
    if not 0 < p < 1:
        raise ValueError(f"loss probability must lie in (0,1), got {p}")
    if params.packet_size is None:
        raise ValueError("sqrt_law_throughput needs packet_size")
    if params.link_delay <= 0:
        raise ValueError("sqrt_law_throughput needs link_delay > 0 (R = 2D)")
    rtt = 2.0 * params.link_delay
    return params.packet_size / rtt * math.sqrt(1.5 / p)
