"""Monte Carlo window process against the analytic laws."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    buffer_loss_ratio_A,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import AnalyticWindowDistribution, TcpParams, window_moment
from tcpfluid.window_sim import (
    _CHUNK,
    SimConfig,
    _padded,
    _searchsorted,
    _window_path,
    child_seed,
    compare_histogram,
    merge_results,
    simulate,
    validate,
)

import window_reference


def _cfg(p: float, B: float = math.inf, horizon: int = 4000, **kw) -> SimConfig:
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=p), buffer_size=B)
    return SimConfig(params=fb, horizon=horizon, seed=kw.pop("seed", 1), **kw)


@pytest.mark.parametrize(
    "variant, frfr, wan", [("plain", False, False), ("frfr", True, False), ("wan", True, True)]
)
def test_for_variant_simulates_what_the_law_has(variant, frfr, wan):
    # the wan law carries the fast-recovery plateaus as well as the idling
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=1e-2), buffer_size=math.inf)
    cfg = SimConfig.for_variant(fb, variant, horizon=50, n_bins=7)
    assert (cfg.enable_frfr, cfg.enable_wan_idle) == (frfr, wan)
    assert (cfg.horizon, cfg.n_bins) == (50, 7)
    with pytest.raises(ValueError, match="variant"):
        SimConfig.for_variant(fb, "reno")


def test_seed_reproducibility():
    a = simulate(_cfg(1e-2))
    b = simulate(_cfg(1e-2))
    assert a.mean_window == b.mean_window
    assert np.array_equal(a.occupancy, b.occupancy)
    assert a.total_time == b.total_time


def test_different_seeds_differ():
    a = simulate(_cfg(1e-2))
    b = simulate(SimConfig(params=_cfg(1e-2).params, horizon=4000, seed=2))
    assert a.mean_window != b.mean_window


def test_mean_window_tracks_analytic():
    res = simulate(_cfg(1e-2, horizon=20000))
    want = window_moment(TcpParams(alpha=1.0, loss_rate=1e-2), 0.5)
    # 2e4 loss events pin the mean to a fraction of a percent
    assert res.mean_window == pytest.approx(want, rel=5e-3)


def test_zero_link_loss_cycle_is_deterministic():
    # pure buffer cycling: rate (m+1) alpha / ((1-c) B~^(m+1)) exactly
    fb = FiniteBufferParams(
        TcpParams(alpha=1.0, loss_rate=0.0), buffer_size=50.0 - 2.5354
    )
    res = simulate(SimConfig(params=fb, horizon=3000, seed=9))
    assert res.n_link_losses == 0
    assert res.n_buffer_losses == res.n_events
    want = 8.0 / (3.0 * 50.0**2)
    assert res.loss_rate == pytest.approx(want, rel=1e-9)


def test_zero_loss_infinite_buffer_rejected():
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=0.0), buffer_size=math.inf)
    with pytest.raises(ValueError):
        simulate(SimConfig(params=fb, horizon=100, seed=0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("w_max", -1.0),
        ("w_max", 0.0),
        ("w_max", math.nan),
        ("w_max", math.inf),
        ("horizon", 1000.5),
        ("n_bins", 10.5),
    ],
)
def test_config_rejects_what_it_cannot_simulate(field, value):
    # a non-positive top edge made an all-zero histogram, a non-finite one
    # failed inside bincount, and fractional counts failed inside numpy
    fields = {"horizon": 100, "n_bins": 10, "w_max": 30.0, field: value}
    with pytest.raises(ValueError, match=field):
        SimConfig(params=_cfg(1e-2).params, **fields)


def test_config_takes_numpy_integers():
    cfg = _cfg(1e-2, horizon=np.int64(1000), n_bins=np.int32(10), w_max=np.float64(30.0))
    assert simulate(cfg).n_events == 1000


def test_loss_split_matches_A():
    # x = p B~^2/2 = 2 puts both loss kinds in play
    fb0 = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=1.0), buffer_size=40.0)
    p = 2.0 * 2.0 / fb0.effective_limit**2
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=p), buffer_size=40.0)
    res = simulate(SimConfig(params=fb, horizon=30000, seed=4))
    share = res.n_buffer_losses / res.n_events
    assert share == pytest.approx(buffer_loss_ratio_A(2.0, 0.25), abs=0.01)


def test_merge_results_is_associative_and_consistent():
    parts = [
        simulate(SimConfig(params=_cfg(1e-2).params, horizon=2000, seed=s))
        for s in (1, 2, 3)
    ]
    ab_c = merge_results(merge_results(parts[0], parts[1]), parts[2])
    a_bc = merge_results(parts[0], merge_results(parts[1], parts[2]))
    assert ab_c.total_time == pytest.approx(a_bc.total_time, rel=1e-14)
    assert ab_c.mean_window == pytest.approx(a_bc.mean_window, rel=1e-12)
    assert np.allclose(ab_c.occupancy, a_bc.occupancy, rtol=1e-13)
    # totals add up
    assert ab_c.n_events == sum(p.n_events for p in parts)
    assert ab_c.total_time == pytest.approx(sum(p.total_time for p in parts), rel=1e-12)


def test_merged_mean_is_time_weighted():
    a = simulate(SimConfig(params=_cfg(1e-2).params, horizon=2000, seed=1))
    b = simulate(SimConfig(params=_cfg(1e-2).params, horizon=2000, seed=2))
    merged = merge_results(a, b)
    want = (a.mean_window * a.total_time + b.mean_window * b.total_time) / (
        a.total_time + b.total_time
    )
    assert merged.mean_window == pytest.approx(want, rel=1e-12)


def test_mass_above_wmax_reports_the_cut_tail():
    # a top edge at 10 cuts off most of the p = 1e-2 law (mean ~ 15)
    parts = [simulate(_cfg(1e-2, horizon=2000, seed=s, w_max=10.0)) for s in (1, 2)]
    tail = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=1e-2), "plain")
    for part in parts:
        assert part.mass_above_wmax == pytest.approx(float(tail.ccdf(10.0)), abs=0.02)
    merged = merge_results(*parts)
    want = sum(p.mass_above_wmax * p.total_time for p in parts) / merged.total_time
    assert merged.mass_above_wmax == pytest.approx(want, rel=1e-12)
    # fast-recovery plateaus above the top edge count there too, not in the top bin
    frfr = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=1e-2), "frfr")
    for s in (1, 2):
        part = simulate(_cfg(1e-2, horizon=2000, seed=s, w_max=10.0, enable_frfr=True))
        assert part.mass_above_wmax == pytest.approx(float(frfr.ccdf(10.0)), abs=0.02)
    # the default top edge sits where the tail is below 1e-16
    assert abs(simulate(_cfg(1e-2)).mass_above_wmax) < 1e-12


def test_histogram_fit_accepts_true_law():
    res = simulate(_cfg(1e-2, horizon=20000))
    dist = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=1e-2), "plain")
    fit = compare_histogram(res, dist.pdf)
    assert fit.chi2_pvalue > 0.01
    assert fit.ks_distance < 0.02
    assert fit.n_events == 20000


def test_histogram_fit_rejects_wrong_law():
    res = simulate(_cfg(1e-2, horizon=20000))
    wrong = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=3e-2), "plain")
    fit = compare_histogram(res, wrong.pdf)
    assert fit.chi2_pvalue < 1e-6
    assert fit.ks_distance > 0.1


def test_histogram_needs_enough_events():
    res = simulate(_cfg(1e-2, horizon=500))
    dist = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=1e-2), "plain")
    with pytest.raises(ValueError):
        compare_histogram(res, dist.pdf)


def test_finite_law_fit_with_point_mass():
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=2e-3), buffer_size=35.0)
    sol = solve_finite_distribution(fb, "frfr")
    res = simulate(SimConfig(params=fb, horizon=20000, seed=6, enable_frfr=True))
    fit = compare_histogram(res, sol.pdf, point_mass=sol.point_mass)
    assert fit.chi2_pvalue > 0.01
    # an atom at or above the top edge (here at 21.27) is in no simulated bin,
    # so it adds to no expected bin either
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=5e-3), buffer_size=40.0)
    sol = solve_finite_distribution(fb, "frfr")
    for w_max in (15.0, sol.point_mass[0]):
        cfg = SimConfig.for_variant(fb, "frfr", horizon=5000, seed=3, n_bins=30, w_max=w_max)
        res = simulate(cfg)
        with_atom = compare_histogram(res, sol.pdf, point_mass=sol.point_mass)
        assert with_atom == compare_histogram(res, sol.pdf), w_max


def test_finite_plain_fit():
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=2e-3), buffer_size=35.0)
    sol = solve_finite_distribution(fb)
    res = simulate(SimConfig(params=fb, horizon=20000, seed=7))
    fit = compare_histogram(res, sol.pdf)
    assert fit.chi2_pvalue > 0.01


@pytest.mark.parametrize("variant, m, buffer, bdp", [
    ("frfr", 0.5, 30.0, 0.0),  # a finite law with its atom at beta·B_eff
    ("wan", 1.0, math.inf, 20.0),
])
def test_validate_is_chunked_simulate_then_merge_then_fit(variant, m, buffer, bdp):
    # 12001 events make three chunks of (12001 + i) // 3 events
    fb = FiniteBufferParams(
        TcpParams(alpha=1.0, loss_rate=1e-2, m=m, link_delay=bdp / 2.0), buffer_size=buffer
    )
    if math.isinf(buffer):
        law = AnalyticWindowDistribution.build(fb.tcp, variant)
    else:
        law = solve_finite_distribution(fb, variant)
        assert law.point_mass is not None
    configs = [
        SimConfig.for_variant(fb, variant, horizon=size, seed=child_seed(5, i), n_bins=40)
        for i, size in enumerate((4000, 4000, 4001))
    ]
    want = merge_results(*(simulate(cfg) for cfg in configs))
    mapped = []

    def recording_map(fn, items):
        mapped.extend(items)
        return [fn(item) for item in items]

    got, fit = validate(fb, law, 12001, n_bins=40, seed=5, map=recording_map)
    assert mapped == configs
    for field in ("occupancy", "bin_edges"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    for field in ("n_buffer_losses", "n_link_losses", "mean_window", "window_variance",
                  "total_time"):
        assert getattr(got, field) == getattr(want, field), field
    assert fit == compare_histogram(want, law.pdf, point_mass=law.point_mass)
    # the builtin map, the default, runs the same chunks
    assert validate(fb, law, 12001, n_bins=40, seed=5)[1] == fit


def test_volumes_beyond_the_float_range_run_as_inf():
    # a buffer whose B_eff^(m+1) overflows caps nothing: the path is the
    # infinite buffer's, bit for bit
    paths = [
        _window_path(_cfg(1e-2, B=B), 3030, np.random.Generator(np.random.PCG64(1)))
        for B in (math.inf, 1e200)
    ]
    for a, b in zip(*paths):
        assert a.tobytes() == b.tobytes()
    # below a bdp whose T^(m+1) overflows, no segment has time above T,
    # and the powers above T, which overflow, are not taken: they once
    # warned "overflow in power" and "invalid value in subtract"
    tcp = TcpParams(alpha=1.0, loss_rate=1e-2, m=4.0, link_delay=0.5e70)
    fb = FiniteBufferParams(tcp, buffer_size=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = simulate(SimConfig.for_variant(fb, "wan", horizon=2000, seed=1, n_bins=30))
    assert np.all(np.isfinite(res.occupancy))
    assert abs(res.mass_above_wmax) < 1e-12
    assert res.mean_window == pytest.approx(
        AnalyticWindowDistribution.build(tcp, "wan").mean(), rel=0.05
    )


def test_windows_never_exceed_buffer_limit():
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=1e-3), buffer_size=30.0)
    res = simulate(SimConfig(params=fb, horizon=5000, seed=11))
    top = fb.effective_limit
    # occupancy beyond the hard cap must be identically zero
    edges = SimConfig(params=fb, horizon=5000, seed=11).bin_edges()
    beyond = edges[:-1] >= top
    assert res.occupancy[beyond].sum() == 0.0


# (p, m, bdp, buffer, frfr, wan_idle): wan at bdp 170.67 stays below T in
# every chunk, at bdp 20 it straddles T; B = 3 hits the buffer almost every
# cycle, and p = 0 hits it every cycle; m = 0 and 0.5 put every exponent of
# the segment integrals off the integers m = 1, 2 take
_ORACLE_RUNS = {
    "plain": (1e-2, 1.0, 0.0, math.inf, False, False),
    "plain_m0": (1e-2, 0.0, 0.0, math.inf, False, False),
    "plain_m05": (1e-2, 0.5, 0.0, math.inf, False, False),
    "frfr": (1e-2, 1.0, 0.0, math.inf, True, False),
    "frfr_m0": (1e-2, 0.0, 0.0, math.inf, True, False),
    "wan_bdp170": (1e-2, 1.0, 170.67, math.inf, True, True),
    "wan_bdp20": (1e-2, 1.0, 20.0, math.inf, True, True),
    "wan_m2": (1e-2, 2.0, 20.0, math.inf, True, True),
    "wan_m05": (1e-2, 0.5, 20.0, math.inf, True, True),
    "finite_B60": (1e-2, 1.0, 0.0, 60.0, False, False),
    "finite_B3": (1e-2, 1.0, 0.0, 3.0, True, False),
    "finite_p0": (0.0, 1.0, 0.0, 10.0, False, False),
    # beta·B_eff = 3.7677 is edge 30 of the 60 default bins, so c·cap is
    # exactly grid[30]: every segment after a buffer hit starts on an edge,
    # and so does every atom of a hit
    "finite_B5_frfr": (1e-2, 1.0, 0.0, 5.0, True, False),
}


def _oracle_cfg(name: str, horizon: int, n_bins: int = 60, w_max: float | None = None) -> SimConfig:
    p, m, bdp, buffer, frfr, wan = _ORACLE_RUNS[name]
    tcp = TcpParams(alpha=1.0, loss_rate=p, m=m, link_delay=bdp / 2.0)
    return SimConfig(
        params=FiniteBufferParams(tcp, buffer_size=buffer),
        horizon=horizon,
        seed=5,
        enable_frfr=frfr,
        enable_wan_idle=wan,
        n_bins=n_bins,
        w_max=w_max,
    )


# grid geometries: 2 bins, which every segment spans; 1000 narrow bins;
# and top edges of 1 and 5, which segments lie wholly above or straddle
_ORACLE_GRIDS = {
    "bins2": {"n_bins": 2},
    "bins1000": {"n_bins": 1000},
    "wmax1": {"w_max": 1.0},
    "wmax5": {"w_max": 5.0},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_RUNS))
# below one chunk, exactly two chunks, and past the first 65536-draw block,
# at the default 60 bins; the other grids below one chunk and at two
@pytest.mark.parametrize(
    "horizon, grid",
    [pytest.param(h, None, id=str(h)) for h in (1000, 2 * _CHUNK, 70_000)]
    + [
        pytest.param(h, grid, id=f"{h}-{grid}")
        for h in (1000, 2 * _CHUNK)
        for grid in _ORACLE_GRIDS
    ],
)
def test_simulate_matches_frozen_reference_byte_for_byte(name, horizon, grid):
    cfg = _oracle_cfg(name, horizon, **_ORACLE_GRIDS.get(grid, {}))
    got, want = simulate(cfg), window_reference.simulate(cfg)
    assert got.occupancy.tobytes() == want.occupancy.tobytes()
    for field in ("mean_window", "window_variance", "total_time"):
        assert repr(getattr(got, field)) == repr(getattr(want, field)), field
    assert (got.n_buffer_losses, got.n_link_losses) == (
        want.n_buffer_losses, want.n_link_losses
    )


@pytest.mark.parametrize("name", sorted(_ORACLE_RUNS))
def test_bin_lookup_never_searches_a_finite_key(name, monkeypatch):
    # every guessed bin of these runs holds up against its edges, at most
    # one step off, so no finite key reaches the binary search
    search, finite = np.searchsorted, []

    def counting(a, v, side="left", sorter=None):
        v = np.asarray(v)
        finite.extend(v[np.isfinite(v)])
        return search(a, v, side=side, sorter=sorter)

    monkeypatch.setattr(np, "searchsorted", counting)
    for grid in [{}, *_ORACLE_GRIDS.values()]:
        simulate(_oracle_cfg(name, 2 * _CHUNK, **grid))
    assert finite == []


def _lookup_grid(m: float, n_bins: int, top: float) -> np.ndarray:
    return np.linspace(0.0, top, n_bins + 1) ** (m + 1)


def _check_lookup(m: float, n_bins: int, top: float, x: np.ndarray) -> None:
    grid = _lookup_grid(m, n_bins, top)
    with np.errstate(invalid="ignore"):
        w = x ** (1.0 / (m + 1))
    for side in ("left", "right"):
        got = _searchsorted(_padded(grid), x, w, n_bins / top, side)
        assert np.array_equal(got, np.searchsorted(grid, x, side=side)), side


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("n_bins", [2, 60, 1000])
@pytest.mark.parametrize("top", [1e-3, 1.0, 170.67, 1e6])
def test_bin_lookup_is_searchsorted_on_edges_and_beside_them(m, n_bins, top):
    grid = _lookup_grid(m, n_bins, top)
    x = np.concatenate([
        grid,  # on every edge
        np.nextafter(grid, -np.inf),  # one ulp either side
        np.nextafter(grid, np.inf),
        *(c * grid for c in (0.25, 0.5, 1.0 - 1e-12, 1.0 + 1e-12, 2.0)),
        [0.0, 1.5 * grid[-1], 1e300, np.inf, np.nan],
    ])
    _check_lookup(m, n_bins, top, x)


@given(
    m=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    n_bins=st.sampled_from([2, 60, 1000]),
    top=st.floats(1e-3, 1e6),
    keys=st.lists(
        st.one_of(
            # an edge times c, moved by a few ulps
            st.tuples(st.integers(0, 1000), st.floats(0.0, 2.0), st.integers(-2, 2)),
            st.floats(min_value=0.0),
            st.just(math.nan),
        ),
        min_size=1,
        max_size=64,
    ),
)
@settings(max_examples=200, deadline=None)
def test_bin_lookup_is_searchsorted(m, n_bins, top, keys):
    grid = _lookup_grid(m, n_bins, top)
    x = []
    for key in keys:
        if isinstance(key, tuple):
            k, c, ulps = key
            value = c * grid[k % (n_bins + 1)]
            for _ in range(abs(ulps)):
                value = np.nextafter(value, math.copysign(math.inf, ulps))
            key = value
        x.append(key)
    _check_lookup(m, n_bins, top, np.array(x, dtype=float))


# past the first 65536-draw block; p = 0, where every event hits the
# buffer; and the longest repair seen on the (m, beta, p, B) timing grid
@example(m=1.0, beta=0.5, p=1e-2, buffer=math.inf, seed=7, horizon=70_000)
@example(m=1.0, beta=0.5, p=0.0, buffer=40.0, seed=0, horizon=3000)
@example(m=0.5, beta=0.9, p=0.05, buffer=40.0, seed=0, horizon=20_200)
@given(
    m=st.floats(0.0, 2.0),
    beta=st.floats(0.3, 0.9),
    p=st.floats(1e-4, 5e-2),
    buffer=st.one_of(st.just(math.inf), st.floats(3.0, 1000.0)),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 3000),
)
@settings(max_examples=100, deadline=None)
def test_path_repairs_to_the_loops_exact_bytes(m, beta, p, buffer, seed, horizon):
    # the vectorized guess and its repair reach the per-event loop's fixed
    # point, so every V_start, V_end and buffer hit is the loop's own
    tcp = TcpParams(alpha=1.0, loss_rate=p, m=m, beta=beta)
    cfg = SimConfig(params=FiniteBufferParams(tcp, buffer_size=buffer), horizon=horizon)
    v_start, v_end, hits = _window_path(cfg, horizon, np.random.Generator(np.random.PCG64(seed)))
    want_start, want_end, at_buffer = window_reference._window_path(
        cfg, horizon, np.random.Generator(np.random.PCG64(seed))
    )
    assert v_start.tobytes() == want_start.tobytes()
    assert v_end.tobytes() == want_end.tobytes()
    assert np.array_equal(hits, np.flatnonzero(at_buffer))


def _peak_bytes(cfg: SimConfig) -> int:
    tracemalloc.start()
    try:
        simulate(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["plain", "frfr", "wan_bdp170", "wan_bdp20", "finite_B60"])
def test_simulate_memory_is_a_few_chunk_buffers(name):
    cfg = _oracle_cfg(name, 20_000)
    peak = _peak_bytes(cfg)
    assert peak <= 4 * _CHUNK * cfg.n_bins * 8 + 2**20, peak


@pytest.mark.parametrize("name", ["plain", "wan_bdp20"])
def test_simulate_memory_does_not_grow_with_bins(name):
    # a dense (_CHUNK, 1000) chunk alone would take 62.5 MiB; the cells
    # the segments touch take a fraction of that
    peak = _peak_bytes(_oracle_cfg(name, 20_000, n_bins=1000))
    assert peak <= 16 * 2**20, peak


@pytest.mark.parametrize("scale", ["full", "tiny"])
def test_window_benchmark_checks_and_golden_digests_hold(scale):
    # at seed 0 the run also compares the window_sim.simulate.* digests
    # of perfbench/golden.json, which fix every simulated bit
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    out = subprocess.run(
        [sys.executable, str(run), "--workload", "window", "--seed", "0",
         "--seconds", "0", "--scale", scale],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is True, out


def test_traced_window_benchmark_reports_every_layer_metric():
    # --trace 1 reports the per-layer metrics BENCHMARK.json lists, among
    # them each module's import time under `import tcpfluid.cli`
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "window",
         "--scale", "tiny", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is True, out
    listed = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in listed if name not in last["metrics"]] == []
