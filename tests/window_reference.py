"""The window simulator as it was before its path loop ran on Python floats
and its chunks reused buffers, frozen as the oracle for `window_sim.simulate`.

`_window_path` and `simulate` are verbatim copies; the speed-ups promise
the same bytes, so tests compare the two outputs byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from tcpfluid.window_sim import SimConfig, SimResult

_CHUNK = 8192


def _window_path(cfg: SimConfig, total: int, rng: np.random.Generator):
    """Drive the volume recursion; returns (V_start, V_end, buffer_flag)."""
    tcp = cfg.params.tcp
    g = (tcp.m + 1) * tcp.alpha
    cap = cfg.params.effective_limit ** (tcp.m + 1)
    c = tcp.c
    v_start = np.empty(total)
    v_end = np.empty(total)
    at_buffer = np.zeros(total, dtype=bool)

    scale = g / tcp.loss_rate if tcp.loss_rate > 0 else math.inf
    block: np.ndarray = np.empty(0)
    ptr = 0
    v = 1.0
    for i in range(total):
        # a fresh exponential clock per cycle; a buffer loss discards the rest
        if tcp.loss_rate == 0:
            budget = math.inf
        else:
            if ptr >= len(block):
                block = rng.exponential(scale, size=65536)
                ptr = 0
            budget = block[ptr]
            ptr += 1
        if budget >= cap - v:
            u = cap
            at_buffer[i] = True
        else:
            u = v + budget
        v_start[i] = v
        v_end[i] = u
        v = c * u
    return v_start, v_end, at_buffer


def simulate(cfg: SimConfig) -> SimResult:
    """Run the fluid window process for cfg.horizon recorded loss events."""
    tcp = cfg.params.tcp
    m, alpha, beta = tcp.m, tcp.alpha, tcp.beta
    g = (m + 1) * alpha
    warmup = max(1, cfg.horizon // 100)
    total = cfg.horizon + warmup
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    v_start, v_end, at_buffer = _window_path(cfg, total, rng)
    v_start, v_end, at_buffer = (
        v_start[warmup:],
        v_end[warmup:],
        at_buffer[warmup:],
    )

    edges = cfg.bin_edges()
    hist = np.zeros(cfg.n_bins)
    time_total = 0.0
    mean_acc = 0.0
    second_acc = 0.0
    T = tcp.bdp if cfg.enable_wan_idle else 0.0
    exp1 = (m + 2) / (m + 1)
    exp2 = (m + 3) / (m + 1)
    vol_edges = edges ** (m + 1)

    for lo_idx in range(0, len(v_start), _CHUNK):
        v0 = v_start[lo_idx : lo_idx + _CHUNK, None]
        v1 = v_end[lo_idx : lo_idx + _CHUNK, None]
        if not cfg.enable_wan_idle:
            seg = np.clip(np.minimum(vol_edges[1:], v1) - np.maximum(vol_edges[:-1], v0), 0.0, None)
            hist += seg.sum(axis=0) / g
            time_total += float(np.sum(v1 - v0)) / g
            mean_acc += float(np.sum(v1 ** exp1 - v0 ** exp1)) / g / exp1
            second_acc += float(np.sum(v1 ** exp2 - v0 ** exp2)) / g / exp2
        else:
            # below T the clock runs T/w slower; split each overlap at T
            w0 = v0 ** (1.0 / (m + 1))
            w1 = v1 ** (1.0 / (m + 1))
            lo = np.maximum(edges[:-1], w0)
            hi = np.minimum(edges[1:], w1)
            lo = np.minimum(lo, hi)  # empty overlaps collapse to hi
            lo_c = np.minimum(lo, T)
            hi_c = np.minimum(hi, T)
            lo_a = np.maximum(lo, T)
            hi_a = np.maximum(hi, T)
            seg = T * (hi_c ** m - lo_c ** m) / (m * alpha) + (
                hi_a ** (m + 1) - lo_a ** (m + 1)
            ) / g
            hist += seg.sum(axis=0)
            w0f, w1f = w0[:, 0], w1[:, 0]
            w0c, w1c = np.minimum(w0f, T), np.minimum(w1f, T)
            w0a, w1a = np.maximum(w0f, T), np.maximum(w1f, T)
            time_total += float(
                np.sum(T * (w1c ** m - w0c ** m) / (m * alpha) + (w1a ** (m + 1) - w0a ** (m + 1)) / g)
            )
            mean_acc += float(
                np.sum(
                    T * (w1c ** (m + 1) - w0c ** (m + 1)) / ((m + 1) * alpha)
                    + (w1a ** (m + 2) - w0a ** (m + 2)) / ((m + 2) * alpha)
                )
            )
            second_acc += float(
                np.sum(
                    T * (w1c ** (m + 2) - w0c ** (m + 2)) / ((m + 2) * alpha)
                    + (w1a ** (m + 3) - w0a ** (m + 3)) / ((m + 3) * alpha)
                )
            )

    if cfg.enable_frfr:
        w_before = v_end ** (1.0 / (m + 1))
        dur = w_before ** m / alpha
        value = beta * w_before
        idx = np.searchsorted(edges, value, side="right") - 1
        kept = idx < cfg.n_bins  # atoms at or above the top edge count in mass_above_wmax
        np.add.at(hist, idx[kept], dur[kept])
        time_total += float(np.sum(dur))
        mean_acc += float(np.sum(value * dur))
        second_acc += float(np.sum(value ** 2 * dur))

    occupancy = hist / time_total
    mean = mean_acc / time_total
    var = second_acc / time_total - mean ** 2
    n_buffer = int(np.count_nonzero(at_buffer))
    return SimResult(
        bin_edges=edges,
        occupancy=occupancy,
        n_buffer_losses=n_buffer,
        n_link_losses=len(v_start) - n_buffer,
        mean_window=mean,
        window_variance=var,
        total_time=time_total,
    )
