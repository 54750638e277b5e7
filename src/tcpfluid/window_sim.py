"""Continuous-time Monte Carlo simulator of the fluid window process.

This is the oracle for the analytic modules.  The window volume
V = W^(m+1) grows linearly at rate g = (m+1)·alpha between losses; link
losses fire after Exp(lambda) of growth time, buffer losses whenever V
reaches B_eff^(m+1).  Each loss multiplies V by c = beta^(m+1).

Time bookkeeping is exact, not sampled.  Each clock has one segment
integral, integral(lo, hi, j): the time integral of W^j over a growth
segment (lo, hi].  A histogram cell is j = 0 over a segment's overlap with
one bin, and time and the two moments are j = 0, 1, 2 over whole segments.
plain and frfr run on the volume clock, V growing at rate g, where the
integral is hi^e - lo^e with e = (m+1+j)/(m+1) and each chunk sum is
divided by g and then by e.  wan runs on the window clock split at
T = bdp, growth below T stretched by T/w as in the analytic reweighting;
its integral carries its own divisors (m+j)·alpha and (m+1+j)·alpha.
Exponents are written m + (1 + j), so j = 1, 2 give the doubles m + 2 and
m + 3; (m + 1) + j rounds differently for some m < 1/2 and moves bits.
Fast-recovery plateaus enter as atoms (duration R(W_before) at the
post-halving value) and add value^j times their duration to the same sums.

`validate` is the one path that checks a law against the simulator, for
`tcpfluid validate`, acceptance criterion 7 and the demo alike: it runs
the law's variant in chunks of at most 5000 events, each seeded
`child_seed(seed, i)`, merges them in order (`merge_results`) and fits
the law, its atom included (`compare_histogram`).

The output is fixed to the bit (tests/window_reference.py holds the
oracle), and the code is arranged for speed within that:

- The path recursion V_end,i = min(cap, c·V_end,i-1 + E_i) runs as
  whole-array passes, not one event at a time.  The exponential clocks E
  are drawn in blocks of 65536 (the last one only as long as the run
  needs).  A guess, the uncapped recursion by doubling and clipped at
  cap, is repaired by sweeps of the per-event step itself, each over the
  entries whose predecessor changed in the sweep before.  Where no entry
  changes, each is the step of the one before, so by induction from the
  first event the bytes are the sequential loop's (Jacobi sweeps of a
  feedforward recursion: Song et al., ICML 2021).  A wrong last bit
  outlives about 1/(1 - c) steps, so the sweeps number about 10 at
  c = 0.25 and 200 at c ≈ 0.85, and more as c nears 1 without a buffer
  to reset the path.  V_start is c·V_end shifted by one, the same
  multiply, and the buffer hits are the entries whose clock reaches
  cap - V_start.
- The histogram visits only the bins each segment touches.  The bins
  strictly between a segment's two end bins are whole, and a whole bin's
  cell is the same number for every segment: the cell formula evaluated
  once on the bin's own edges (for wan, a below-T bin's above-T term is
  exactly +0.0).  Only the two end cells are evaluated per segment, and
  `bincount` over the cells in segment order adds each bin's column as
  the dense sum over rows did; the cells it skips are ±0.0, which change
  no sum.  Cost and memory follow the bins touched, not n_bins.
- The end bins come from the bins' uniform spacing in the window, not
  from a binary search (`_searchsorted`): floor(w·n_bins/top) + 1 or
  ceil(w·n_bins/top) is checked against its two edges, padded with ±inf.
  A miss (a key within rounding of an edge) steps once and is checked
  again; only NaN or inf reaches np.searchsorted, so every bin is its
  own.  w is the window itself under wan and V^(1/(m+1)) on the volume
  clock, taken per chunk, and the fast-recovery atoms reuse the roots of
  the segment ends.  A cell's bin is its segment's first bin plus its
  place in the segment: a `repeat` of first - start, plus an `arange`.
- _CHUNK stays 8192: the chunk boundaries decide where the partial sums
  of the histogram and the moments round, so another size moves bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .specfun import float_pow, gammainc
from .tcp_finite import FiniteBufferParams
from .tcp_infinite import VARIANTS, _VariantLaw

_CHUNK = 8192


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    horizon counts recorded loss events; a further 1% warm-up is run and
    discarded first.
    """

    params: FiniteBufferParams
    horizon: int = 10_000
    seed: int = 0
    enable_frfr: bool = False
    enable_wan_idle: bool = False
    n_bins: int = 100

    def __post_init__(self) -> None:
        tcp = self.params.tcp
        for name in ("horizon", "n_bins"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1 loss event")
        if self.n_bins < 2:
            raise ValueError("need at least 2 histogram bins")
        if tcp.loss_rate == 0 and math.isinf(self.params.effective_limit):
            raise ValueError("loss_rate=0 with an infinite buffer never loses")
        if self.enable_wan_idle and tcp.m <= 0:
            raise ValueError("wan idle stretching needs m > 0")

    @classmethod
    def for_variant(cls, params: FiniteBufferParams, variant: str, **fields) -> "SimConfig":
        """The run that simulates the window law `variant` names.

        frfr and wan both carry fast-recovery plateaus; wan also idles
        below the bandwidth-delay product.
        """
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        return cls(
            params=params,
            enable_frfr=variant != "plain",
            enable_wan_idle=variant == "wan",
            **fields,
        )

    def bin_edges(self) -> np.ndarray:
        """n_bins equal bins from 0 to the buffer limit or, with no buffer,
        to p·w^(m+1)/(m+1) = 37, where the plain CCDF h_0·e^(-37) is
        1.24e-16 at m = 1, beta = 0.5, p = 1e-2 but 2.53e-14 at m = 0,
        beta = 0.8; `SimResult.mass_above_wmax` reports the rest."""
        top = self.params.effective_limit
        if not math.isfinite(top):
            tcp = self.params.tcp
            top = ((tcp.m + 1) / tcp.p * 37.0) ** (1.0 / (tcp.m + 1))
        return np.linspace(0.0, top, self.n_bins + 1)


@dataclass(frozen=True)
class SimResult:
    """Time-weighted outcome of one run (merge-able across seeds)."""

    bin_edges: np.ndarray
    occupancy: np.ndarray  # fraction of total time per bin
    n_buffer_losses: int
    n_link_losses: int
    mean_window: float
    window_variance: float
    total_time: float

    @property
    def n_events(self) -> int:
        return self.n_buffer_losses + self.n_link_losses

    @property
    def loss_rate(self) -> float:
        return self.n_events / self.total_time

    @property
    def mass_above_wmax(self) -> float:
        """Share of time that no bin holds: the window at or above the top bin edge.

        1 - sum(occupancy), not clamped, so rounding may leave it
        slightly below zero.  Both growth and fast-recovery plateaus above
        the top edge count here.
        """
        return 1.0 - float(np.sum(self.occupancy))


def merge_results(*results: SimResult) -> SimResult:
    """Combine runs with identical binning; associative, time-weighted."""
    if not results:
        raise ValueError("nothing to merge")
    edges = results[0].bin_edges
    for r in results[1:]:
        if not np.array_equal(r.bin_edges, edges):
            raise ValueError("cannot merge results with different bins")
    total = sum(r.total_time for r in results)
    occ = sum(r.occupancy * r.total_time for r in results) / total
    mean = sum(r.mean_window * r.total_time for r in results) / total
    second = sum(
        (r.window_variance + r.mean_window ** 2) * r.total_time for r in results
    ) / total
    return SimResult(
        bin_edges=edges,
        occupancy=occ,
        n_buffer_losses=sum(r.n_buffer_losses for r in results),
        n_link_losses=sum(r.n_link_losses for r in results),
        mean_window=mean,
        window_variance=second - mean ** 2,
        total_time=total,
    )


def _window_path(cfg: SimConfig, total: int, rng: np.random.Generator):
    """Drive the volume recursion; returns (V_start, V_end, buffer-hit indices)."""
    tcp = cfg.params.tcp
    g = (tcp.m + 1) * tcp.alpha
    cap = float_pow(cfg.params.effective_limit, tcp.m + 1)
    c = tcp.c

    # a fresh exponential clock per cycle; a buffer loss discards the rest.
    # One infinite budget past the end steps to cap from any predecessor,
    # so that entry never changes and the sweeps below need no bounds check.
    if tcp.loss_rate == 0:
        budgets = np.full(total + 1, math.inf)
    else:
        # blocks of 65536 keep the stream; the last draws only what it
        # uses, and a shorter draw returns the same leading values
        scale = g / tcp.loss_rate
        budgets = np.concatenate([
            *(rng.exponential(scale, size=min(65536, total - start))
              for start in range(0, total, 65536)),
            [math.inf],
        ])

    # guess: the uncapped recursion u_i = c·u_(i-1) + E_i from V = 1, by
    # doubling until the lags it leaves out weigh below 2^-60, clipped at cap
    v_end = budgets.copy()
    v_end[0] += 1.0
    lag, weight = 1, c
    while weight >= 2.0**-60 and lag < total:
        v_end[lag:] += weight * v_end[:-lag]
        lag, weight = 2 * lag, weight * weight
    np.minimum(v_end, cap, out=v_end)

    # repair: the loop's own step, first on every entry, then only on those
    # whose predecessor changed in the sweep before; where none changes,
    # each entry is the step of the one before, which is the loop's result
    def step(v, budget):
        return np.where(budget >= cap - v, cap, v + budget)

    v_start = np.empty(total + 1)
    v_start[0] = 1.0
    np.multiply(c, v_end[:-1], out=v_start[1:])
    repaired = step(v_start, budgets)
    idx = np.flatnonzero(repaired != v_end)
    values = repaired[idx]
    v_end = repaired
    while idx.size:
        idx += 1
        repaired = step(c * values, budgets[idx])
        moved = repaired != v_end[idx]
        idx, values = idx[moved], repaired[moved]
        v_end[idx] = values

    v_start, v_end = v_start[:total], v_end[:total]
    np.multiply(c, v_end[:-1], out=v_start[1:])
    return v_start, v_end, np.flatnonzero(budgets[:total] >= cap - v_start)


def _padded(grid: np.ndarray) -> np.ndarray:
    """grid between -inf and +inf, the edges `_searchsorted` checks against."""
    return np.concatenate(([-math.inf], grid, [math.inf]))


def _searchsorted(pad, x, w, scale: float, side: str) -> np.ndarray:
    """np.searchsorted(pad[1:-1], x, side), found from the bins' uniform spacing.

    pad is a grid of n_bins + 1 edges between -inf and +inf (`_padded`)
    whose bins are uniform in w, the window of key x, and t = w·scale, with
    scale = n_bins/top, places x among them.  The guess floor(t) + 1 for
    side="right", ceil(t) for "left", clipped to [0, n_bins + 1], stands
    where its edges bracket x: pad[i] <= x < pad[i + 1] for "right",
    pad[i] < x <= pad[i + 1] for "left".  An entry that fails steps once
    toward x and is checked again, and only what still fails (NaN, inf)
    goes to np.searchsorted, so every count is np.searchsorted's own.
    """
    n_bins = len(pad) - 3
    right = side == "right"
    under, over = (np.less_equal, np.less) if right else (np.less, np.less_equal)
    upper = pad[1:]

    def bracket(i, x):
        return under(pad[i], x), over(x, upper[i])

    # a guess that overflows to inf clips to n_bins + 1, and fmax and fmin
    # send a NaN guess to 0, where its check fails
    with np.errstate(over="ignore"):
        guess = np.multiply(w, scale)
    if right:
        np.floor(guess, out=guess)
        guess += 1.0
    else:
        np.ceil(guess, out=guess)
    np.fmin(np.fmax(guess, 0.0, out=guess), n_bins + 1.0, out=guess)
    i = guess.astype(np.intp)
    lo_ok, hi_ok = bracket(i, x)
    miss = np.flatnonzero(~(lo_ok & hi_ok))
    if miss.size:
        j, xm = i[miss], x[miss]
        # up one where x lies past the upper edge, down one where below the lower
        j += lo_ok[miss]
        j -= hi_ok[miss]
        np.clip(j, 0, n_bins + 1, out=j)
        lo_ok, hi_ok = bracket(j, xm)
        still = np.flatnonzero(~(lo_ok & hi_ok))
        j[still] = np.searchsorted(pad[1:-1], xm[still], side=side)
        i[miss] = j
    return i


def _chunk_histogram(pad, cell, whole, x0, x1, w0, w1, scale) -> np.ndarray:
    """Per-bin sum of the cells of segments (x0, x1] over the bins of grid pad[1:-1].

    A segment's cells run from the bin holding x0 to the bin whose upper
    edge first reaches x1, capped at the top bin; those strictly between
    are whole and take their value from `whole`.  Both end bins come from
    `_searchsorted`, guessed from the ends' windows w0, w1.  Segments
    wholly above the top edge touch no bin.
    """
    grid = pad[1:-1]
    n_bins = len(grid) - 1
    first = _searchsorted(pad, x0, w0, scale, "right") - 1
    last = np.minimum(_searchsorted(pad, x1, w1, scale, "left") - 1, n_bins - 1)
    touched = last >= first
    if not touched.all():
        first, last, x0, x1 = first[touched], last[touched], x0[touched], x1[touched]
        if not first.size:
            return np.zeros(n_bins)
    counts = last - first + 1
    ends = np.cumsum(counts)
    starts = ends - counts
    # bin of each cell: a run first..last per segment
    col = np.repeat(first - starts, counts)
    col += np.arange(ends[-1])
    vals = whole[col]
    vals[starts] = cell(np.maximum(grid[first], x0), np.minimum(grid[first + 1], x1))
    vals[ends - 1] = cell(np.maximum(grid[last], x0), np.minimum(grid[last + 1], x1))
    return np.bincount(col, vals, minlength=n_bins)


def simulate(cfg: SimConfig) -> SimResult:
    """Run the fluid window process for cfg.horizon recorded loss events."""
    tcp = cfg.params.tcp
    m, alpha, beta = tcp.m, tcp.alpha, tcp.beta
    warmup = max(1, cfg.horizon // 100)
    total = cfg.horizon + warmup
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    v_start, v_end, hits = _window_path(cfg, total, rng)
    v_start, v_end = v_start[warmup:], v_end[warmup:]
    edges = cfg.bin_edges()
    # a key's place in bins is its window times this; see _searchsorted
    scale = cfg.n_bins / edges[-1]

    # integral(lo, hi, j) is the time integral of W^j over a clock segment
    # (lo, hi], divided afterwards by rate and then by exps[j]
    if cfg.enable_wan_idle:
        T = tcp.bdp
        grid, x0, x1 = edges, v_start ** (1.0 / (m + 1)), v_end ** (1.0 / (m + 1))
        rate, exps = 1.0, (1.0, 1.0, 1.0)

        def window(w):
            return w

        def integral(lo, hi, j):
            # below T the clock runs T/w slower; split the segment at T
            below = np.minimum(hi, T) ** (m + j) - np.minimum(lo, T) ** (m + j)
            # +0.0 below T, as T^e - T^e is; where no segment reaches past T
            # its powers, which may overflow, are not taken
            above = 0.0
            past = hi > T
            if past.any():
                above = np.maximum(hi, T) ** (m + (1 + j)) - np.maximum(lo, T) ** (m + (1 + j))
                above = np.where(past, above, 0.0)
            return T * below / ((m + j) * alpha) + above / ((m + (1 + j)) * alpha)
    else:
        grid, x0, x1 = edges ** (m + 1), v_start, v_end
        rate, exps = (m + 1) * alpha, tuple((m + (1 + j)) / (m + 1) for j in range(3))

        def window(v):
            return v ** (1.0 / (m + 1))

        def integral(lo, hi, j):
            return hi ** exps[j] - lo ** exps[j]

    def cell(lo, hi):
        # a segment's time in one bin, from the overlap (lo, hi]; empty
        # overlaps collapse to hi
        return integral(np.minimum(lo, hi), hi, 0)

    pad = _padded(grid)
    whole = cell(grid[:-1], grid[1:])
    hist = np.zeros(cfg.n_bins)
    acc = [0.0, 0.0, 0.0]  # time, and the time integrals of W and W^2
    if cfg.enable_frfr:
        w_before = np.empty(len(x1))  # the window at each loss, for the atoms
    for lo_idx in range(0, len(x0), _CHUNK):
        span = slice(lo_idx, lo_idx + _CHUNK)
        c0, c1 = x0[span], x1[span]
        w1 = window(c1)
        if cfg.enable_frfr:
            w_before[span] = w1
        hist += _chunk_histogram(pad, cell, whole, c0, c1, window(c0), w1, scale) / rate
        for j in range(3):
            acc[j] += float(np.sum(integral(c0, c1, j))) / rate / exps[j]

    if cfg.enable_frfr:
        # a buffer hit ends at B_eff itself, which the root above can miss
        # by an ulp and so shift the atom into the bin below the law's
        w_before[hits[hits >= warmup] - warmup] = cfg.params.effective_limit
        dur = w_before ** m / alpha
        value = beta * w_before
        idx = _searchsorted(_padded(edges), value, value, scale, "right") - 1
        kept = idx < cfg.n_bins  # atoms at or above the top edge count in mass_above_wmax
        np.add.at(hist, idx[kept], dur[kept])
        for j in range(3):
            acc[j] += float(np.sum(value ** j * dur))

    time_total, mean_acc, second_acc = acc
    mean = mean_acc / time_total
    n_buffer = int(np.count_nonzero(hits >= warmup))
    return SimResult(
        bin_edges=edges,
        occupancy=hist / time_total,
        n_buffer_losses=n_buffer,
        n_link_losses=len(v_start) - n_buffer,
        mean_window=mean,
        window_variance=second_acc / time_total - mean ** 2,
        total_time=time_total,
    )


class HistogramFit(NamedTuple):
    chi2_stat: float
    ks_distance: float
    chi2_pvalue: float
    dof: int
    n_events: int


# Simpson panel pairs per histogram bin, and the fewest expected events a
# merged chi-square bin may hold
_SUBDIV = 32
_MIN_EXPECTED = 30.0


def _bin_probabilities(
    edges: np.ndarray, pdf: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Composite-Simpson integral of pdf over each bin."""
    n = len(edges) - 1
    grid = np.linspace(edges[:-1], edges[1:], 2 * _SUBDIV + 1, axis=1)
    vals = pdf(grid.ravel()).reshape(n, 2 * _SUBDIV + 1)
    h = (edges[1:] - edges[:-1]) / (2 * _SUBDIV)
    weights = np.ones(2 * _SUBDIV + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (vals @ weights) * h / 3.0


def compare_histogram(
    result: SimResult,
    pdf: Callable[[np.ndarray], np.ndarray],
    point_mass: tuple[float, float] | None = None,
) -> HistogramFit:
    """Goodness of fit of a time-weighted histogram against a density.

    Expected bin masses come from Simpson integration of pdf plus the
    optional atom (location, weight) added to its containing bin; an atom
    at or above the top edge is left out, as `simulate` leaves it out.  Bins
    are merged left to right until each carries >= _MIN_EXPECTED (30) events;
    the chi-square statistic uses the event count as sample size.  The KS
    distance compares cumulative occupancy and cumulative expected mass
    at the original bin edges.

    Raises:
        ValueError: fewer than 1000 loss events (too little data).
    """
    events = result.n_events
    if events < 1000:
        raise ValueError(f"need at least 1000 loss events, got {events}")
    edges = result.bin_edges
    probs = _bin_probabilities(edges, pdf)
    if point_mass is not None:
        loc, weight = point_mass
        idx = int(np.searchsorted(edges, loc, side="right") - 1)
        if idx < len(probs):  # as in simulate, an atom at or above the top edge is in no bin
            probs[idx] += weight

    ks = float(np.max(np.abs(np.cumsum(result.occupancy) - np.cumsum(probs))))

    # merge sparse bins so the chi-square approximation is valid
    merged_obs = []
    merged_exp = []
    acc_o = acc_e = 0.0
    for o, e in zip(result.occupancy * events, probs * events):
        acc_o += o
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if merged_obs:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    else:
        merged_obs, merged_exp = [acc_o], [acc_e]
    obs = np.array(merged_obs)
    exp = np.array(merged_exp)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = max(len(obs) - 1, 1)
    # P(chi^2_dof > chi2) = Q(dof/2, chi2/2)
    pvalue = float(gammainc(dof / 2, chi2 / 2)[1])
    return HistogramFit(chi2, ks, pvalue, dof, events)


# `validate` simulates its events in chunks of at most this many, one seed each
_VALIDATE_CHUNK_EVENTS = 5000


def child_seed(seed: int, index: int) -> int:
    """Derived stream for realization `index`; stable across job counts."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def validate(
    params: FiniteBufferParams,
    law: _VariantLaw,
    events: int,
    *,
    n_bins: int,
    seed: int,
    map=map,
) -> tuple[SimResult, HistogramFit]:
    """Simulate `law`'s variant at `params` for `events` loss events and fit `law`.

    The run is split into ceil(events/5000) chunks, chunk i of
    (events + i) // n_chunks events seeded `child_seed(seed, i)`; `map`
    runs `simulate` over their configs (a process pool's map may stand in
    for the builtin), the chunks merge in order, and `law`'s atom enters
    the fit.  The chunks depend on `events` alone, so any `map` that keeps
    their order gives the same bytes.  params may differ from the law's (a
    mismatch probe).

    Raises:
        ValueError: fewer than 1000 events (`compare_histogram`).
    """
    n_chunks = -(-events // _VALIDATE_CHUNK_EVENTS)
    configs = [
        SimConfig.for_variant(params, law.variant, horizon=(events + i) // n_chunks,
                              seed=child_seed(seed, i), n_bins=n_bins)
        for i in range(n_chunks)
    ]
    result = merge_results(*map(simulate, configs))
    return result, compare_histogram(result, law.pdf, point_mass=law.point_mass)
