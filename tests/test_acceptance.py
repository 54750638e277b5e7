"""Acceptance gate: the twelve shipped guarantees, one printed line each.

Each test prints "criterion NN: PASS/FAIL - detail" before asserting, so
a full run (pytest -s) reads as a checklist.  Stochastic checks run at
fixed seeds; tolerances are the contract values, not tuned to the seed.
"""

import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from tcpfluid.aimd_net import (
    CAPACITY_STRATEGIES,
    FlowSet,
    FluidNetwork,
    SyncModel,
    assign_capacities,
    run_simulation,
    uniform_tree_flows,
)
from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    buffer_loss_ratio_A,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import (
    AnalyticWindowDistribution,
    TcpParams,
    compute_residues,
    frfr_mean_correction,
    mean_field_fixed_point,
    window_moment,
)
from tcpfluid.tree_analytic import (
    DistTable,
    betweenness_ccdf_given_q,
    betweenness_mean_given_q,
    cond_mean_n_given_q,
    cond_mean_q_given_n,
)
from tcpfluid.tree_gen import TreeParams, enumerate_exact, grow, measure
from tcpfluid.window_sim import SimConfig, simulate, validate

from finite_reference import A_series
from tree_reference import finite_size_correction_check

H_TABLE = (
    1.4523536,
    -1.9364715,
    5.1639241e-1,
    -3.2786819e-2,
    5.1430305e-4,
    -2.0109601e-6,
    1.9643078e-9,
    -4.7959661e-13,
    2.9272701e-17,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c01_residue_table_and_runtime():
    table = compute_residues(0.25, 9)
    rel = max(
        abs(table.h[k] - want) / abs(want) for k, want in enumerate(H_TABLE)
    )
    runtime = min(
        _timed(lambda: compute_residues(0.25, 9)) for _ in range(5)
    )
    ok = rel < 5e-7 and runtime < 1e-3
    _line(1, ok, f"max rel err {rel:.2e}, runtime {runtime*1e3:.3f} ms")
    assert rel < 5e-7
    assert runtime < 1e-3


def test_c02_stationary_moments():
    p = 1e-5
    params = TcpParams(alpha=1.0, loss_rate=p)
    mean = window_moment(params, 0.5)
    second = window_moment(params, 1.0)
    stdev = math.sqrt(second - mean**2)
    rel2 = abs(second - 8.0 / (3.0 * p)) / (8.0 / (3.0 * p))
    ok = (
        abs(mean * math.sqrt(p) - 1.5269) < 5e-4
        and abs(stdev * math.sqrt(p) - 0.5790) < 5e-4
        and rel2 < 1e-12
    )
    _line(
        2,
        ok,
        f"E[W]sqrt(p)={mean*math.sqrt(p):.5f} "
        f"sd[W]sqrt(p)={stdev*math.sqrt(p):.5f} E[W^2] rel {rel2:.1e}",
    )
    assert mean * math.sqrt(p) == pytest.approx(1.5269, abs=5e-4)
    assert stdev * math.sqrt(p) == pytest.approx(0.5790, abs=5e-4)
    assert rel2 < 1e-12


def test_c03_frfr_mean_shift_limit():
    shift = frfr_mean_correction(TcpParams(alpha=1.0, loss_rate=1e-10))
    ok = abs(shift - (-0.9981)) < 5e-4
    _line(3, ok, f"small-p mean shift {shift:.5f}")
    assert shift == pytest.approx(-0.9981, abs=5e-4)


def test_c04_mean_field_fixed_points():
    total20 = mean_field_fixed_point(
        TcpParams.from_link(256000.0, 12000.0, loss_ratio=1e-3), 20
    )
    total2 = mean_field_fixed_point(
        TcpParams.from_link(256000.0, 12000.0, loss_ratio=5e-3), 2
    )
    ok = abs(total20 - 827.75) < 1.0 and abs(total2 - 36.55) < 0.2
    _line(4, ok, f"N=20: {total20:.2f}  N=2: {total2:.2f}")
    assert total20 == pytest.approx(827.75, abs=1.0)
    assert total2 == pytest.approx(36.55, abs=0.2)


def test_c05_buffer_loss_ratio_and_split():
    worst_rel = 0.0
    for x in np.geomspace(1e-3, 50.0, 40):
        a = buffer_loss_ratio_A(float(x), 0.25)
        b = A_series(float(x), 0.25)
        worst_rel = max(worst_rel, abs(a - b) / abs(a))
    exact_one = buffer_loss_ratio_A(0.0, 0.25) == 1.0

    worst_abs = 0.0
    for i, x in enumerate((1.0, 2.0, 3.5, 5.0)):
        for j, B in enumerate((30.0, 50.0, 70.0)):
            probe = FiniteBufferParams(
                TcpParams(alpha=1.0, loss_rate=1.0), buffer_size=B
            )
            p = 2.0 * x / probe.effective_limit**2
            fb = FiniteBufferParams(
                TcpParams(alpha=1.0, loss_rate=p), buffer_size=B
            )
            res = simulate(
                SimConfig(params=fb, horizon=100_000, seed=5000 + 10 * i + j)
            )
            share = res.n_buffer_losses / res.n_events
            worst_abs = max(worst_abs, abs(share - buffer_loss_ratio_A(x, 0.25)))
    ok = worst_rel < 1e-10 and exact_one and worst_abs < 0.02
    _line(
        5,
        ok,
        f"series rel {worst_rel:.1e}, A(0)==1 {exact_one}, "
        f"MC split abs {worst_abs:.4f}",
    )
    assert worst_rel < 1e-10
    assert exact_one
    assert worst_abs < 0.02


def test_c06_effective_loss_limit():
    fb = FiniteBufferParams(
        TcpParams(alpha=1.0, loss_rate=0.0), buffer_size=50.0 - 2.5354
    )
    assert fb.effective_limit == pytest.approx(50.0)
    res = simulate(SimConfig(params=fb, horizon=5000, seed=3))
    target = 8.0 / (3.0 * 50.0**2)
    rel = abs(res.loss_rate - target) / target
    ok = rel < 1e-3
    _line(6, ok, f"loss rate {res.loss_rate:.6e} vs {target:.6e}, rel {rel:.1e}")
    assert rel < 1e-3


def _fit(variant: str, p: float, buffer=math.inf, bdp=0.0, seed=0):
    tcp = TcpParams(alpha=1.0, loss_rate=p, link_delay=bdp / 2.0)
    fb = FiniteBufferParams(tcp, buffer_size=buffer)
    if math.isinf(buffer):
        law = AnalyticWindowDistribution.build(tcp, variant)
    else:
        law = solve_finite_distribution(fb, variant)
    # the CLI's path: 20000 events in four chunks, 100 bins as SimConfig's default
    return validate(fb, law, 20000, n_bins=100, seed=seed)[1]


def test_c07_distribution_validation():
    cases = {
        "plain": _fit("plain", 1e-2, seed=11),
        "frfr": _fit("frfr", 1e-2, seed=11),
        "wan": _fit("wan", 1e-2, bdp=170.67, seed=11),
        "finite": _fit("plain", 1e-2, buffer=60.0, seed=11),
    }
    pvals = {name: fit.chi2_pvalue for name, fit in cases.items()}
    ks_hi = {
        "plain": _fit("plain", 5e-2, seed=12).ks_distance,
        "frfr": _fit("frfr", 5e-2, seed=12).ks_distance,
    }
    ok = all(p >= 0.01 for p in pvals.values()) and all(
        d < 0.08 for d in ks_hi.values()
    )
    _line(
        7,
        ok,
        "chi2 p-values "
        + " ".join(f"{k}={v:.3f}" for k, v in pvals.items())
        + "; p=5e-2 KS "
        + " ".join(f"{k}={v:.4f}" for k, v in ks_hi.items()),
    )
    for name, p in pvals.items():
        assert p >= 0.01, name
    for name, d in ks_hi.items():
        assert d < 0.08, name


def test_c08_enumeration_and_normalization():
    worst = 0.0
    for alpha in (1 / 3, 1 / 2, 2 / 3):
        for tau in range(2, 9):
            exact = enumerate_exact(TreeParams(alpha_t=alpha, tau=tau, seed=0))
            table = DistTable.from_analytic(tau, alpha)
            keys = set(exact.values) | set(table.values)
            worst = max(
                worst,
                max(abs(exact.prob(n, q) - table.prob(n, q)) for n, q in keys),
            )
    norm_gap = max(
        abs(DistTable.from_analytic(1000, alpha).total() - 1.0)
        for alpha in (1 / 3, 1 / 2, 2 / 3)
    )
    ok = worst < 1e-12 and norm_gap < 1e-10
    _line(8, ok, f"enum vs closed form {worst:.1e}, norm gap {norm_gap:.1e}")
    assert worst < 1e-12
    assert norm_gap < 1e-10


def test_c09_conditional_laws():
    unit = all(
        cond_mean_q_given_n(alpha, 1) == 1.0
        for alpha in (0.1, 1 / 3, 0.5, 2 / 3, 0.9)
    )
    er = all(
        betweenness_mean_given_q(q, 0.0) == float(2 ** (q + 1) - 1)
        for q in range(8)
    )
    worst = 0.0
    for alpha in (1 / 3, 1 / 2, 2 / 3):
        table = DistTable.from_analytic(500, alpha)
        for q in range(9):
            num = sum(n * table.prob(n, q) for n in range(500))
            den = sum(table.prob(n, q) for n in range(500))
            worst = max(worst, abs(cond_mean_n_given_q(500, alpha, q) - num / den))
    ok = unit and er and worst < 1e-8
    _line(
        9,
        ok,
        f"E[q|n=1]==1 {unit}, ER E[load|q] exact {er}, E[n|q] gap {worst:.1e}",
    )
    assert unit
    assert er
    assert worst < 1e-8


def test_c10_betweenness_scaling():
    lam = np.unique(np.geomspace(100, 1000, 9).astype(int))
    slopes = {}
    for q in (1, 2, 3):
        F = np.array([betweenness_ccdf_given_q(int(L), q, 0.5) for L in lam])
        slopes[q] = float(np.polyfit(np.log(lam), np.log(F), 1)[0])
    ratios = {}
    for q in (1, 2):
        d500 = finite_size_correction_check(500, 0.5, 20, q)
        d1000 = finite_size_correction_check(1000, 0.5, 20, q)
        ratios[q] = d500 / d1000
    slope_ok = all(abs(s + 2.0) <= 0.1 for s in slopes.values())
    # tau^-2 decay means the 500 vs 1000 deviation ratio sits at 4
    ratio_ok = all(abs(r / 4.0 - 1.0) <= 0.25 for r in ratios.values())
    _line(
        10,
        slope_ok and ratio_ok,
        "slopes "
        + " ".join(f"q={q}:{s:.3f}" for q, s in slopes.items())
        + "; deviation ratios "
        + " ".join(f"q={q}:{r:.2f}" for q, r in ratios.items()),
    )
    assert slope_ok, slopes
    assert ratio_ok, ratios


def test_c11_homogeneous_closed_forms():
    C = 100.0
    worst = ""
    all_ok = True
    for N in (2, 10, 50):
        for pi in (0.2, 0.5, 1.0):
            r = pi / (1.0 - (1.0 - pi) ** N)
            want_x = (1.0 - 0.5 * r) * C / N
            want_tau = 0.5 * C * r / N
            net = FluidNetwork(
                endpoints=np.array([[0, 1]], dtype=np.int64),
                capacities=np.array([C]),
                n_vertices=2,
            )
            flows = FlowSet(
                route_ptr=np.arange(N + 1),
                route_links=np.zeros(N, np.int64),
                alphas=1.0,
                betas=0.5,
                rtts=1.0,
                packet_sizes=1.0,
                X=np.full(N, want_x),
            )
            rep = run_simulation(net, flows, SyncModel(pi=pi), 30000, seed=100 + N)
            for vals, want in (
                (rep.post_event_means, want_x),
                (rep.taus, want_tau),
            ):
                tail = vals[2000:]
                batches = tail.reshape(40, -1).mean(axis=1)
                se = batches.std(ddof=1) / math.sqrt(batches.size)
                dev = abs(tail.mean() - want)
                if not (dev <= 3 * se or dev < 1e-12):
                    all_ok = False
                    worst = f"N={N} pi={pi} dev={dev:.2e} > 3se={3*se:.2e}"
    _line(11, all_ok, worst or "all N in {2,10,50}, pi in {0.2,0.5,1} within 3se")
    assert all_ok, worst


# SHA-256 of each strategy's raw taus and per_flow_q bytes in criterion
# 12's run, recorded from the per-link event loop before the compacted
# kernel replaced it: the kernel must reproduce those runs bit for bit.
C12_DIGESTS = {
    "uniform": (
        "4105b059ec039ea547a01ab331615996621da1cbf7b1d80e829362504f38c9e7",
        "3a8fd5f4f24a40774a0ead40a7403a37eb38a0f0ca36f8a1a69044eee018db91",
    ),
    "maximum": (
        "3fbaa588c0fce79a2262618705ff07f9710c5a3135b059573be98da3ab8987bb",
        "42fb34f851dae83ab653a4efbef1a1adcb67cc2e666249688a24a1dbba9026ca",
    ),
    "minimum": (
        "16212887c7bfda4780d24900afe54ab0dbf9636ee06a7eb6a464d6c49568446b",
        "3c6cd8b4afe8f96591050a7e918e3b1a1f951d4ea45182ed05f2e42cd664c8c5",
    ),
    "product": (
        "83a904a690338ef74ce932305262e1c2e5587678d3c5a409a8e910e0099d268c",
        "430c140a8d8efcf3f81f366daa759ac4ded73807e8364c5100ce9dde9cb533b4",
    ),
    "mean_field": (
        "42f3853d444342520c8b469757e687f9e1fff933608fa3b4db8eaa10e2464899",
        "e59c66fbd09667edfbd42c64f820d0506e63a8a72d1e658ebd9a224007026638",
    ),
}


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _c12_run(payload):
    """(mean Q, median per-flow Q, digests) of one strategy's run."""
    net, flows = payload
    rep = run_simulation(net, flows, SyncModel(pi=1.0), 1_000_000, seed=303)
    digests = (_sha256(rep.taus), _sha256(rep.per_flow_q))
    return rep.mean_q, float(np.median(rep.per_flow_q)), digests


def test_c12_strategy_ordering_at_scale():
    tree = grow(TreeParams(alpha_t=0.5, tau=9999, seed=101))
    stats = measure(tree)
    base = FluidNetwork.from_tree(tree, np.full(9999, 1e5))
    flows = uniform_tree_flows(tree, 1000, beta=0.5, seed=202)
    payloads = [
        (assign_capacities(base, name, 1e5, tree_stats=stats), flows)
        for name in CAPACITY_STRATEGIES
    ]
    # the five runs are independent and each is pinned by its digests, so
    # two worker processes cut the wall time and move no bit; uniform, the
    # slowest, is submitted first
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        runs = dict(zip(CAPACITY_STRATEGIES, pool.map(_c12_run, payloads)))
    q = {name: run[0] for name, run in runs.items()}
    med = {name: run[1] for name, run in runs.items()}
    digests = {name: run[2] for name, run in runs.items()}
    order = ("mean_field", "minimum", "product", "maximum", "uniform")
    ordered = all(q[a] > q[b] for a, b in zip(order, order[1:]))
    med_ordered = all(med[a] > med[b] for a, b in zip(order, order[1:]))
    ratio = q["mean_field"] / q["uniform"]
    med_ratio = med["mean_field"] / med["uniform"]
    ok = ordered and med_ordered and med_ratio > 10.0
    _line(
        12,
        ok,
        "mean/median Q "
        + " ".join(f"{k}={q[k]:.0f}/{med[k]:.0f}" for k in order)
        + f"; ordering mean {ordered} median {med_ordered}"
        + f"; mean_field/uniform mean {ratio:.2f} median {med_ratio:.2f}",
    )
    assert ordered, f"mean-Q ordering broken: {q}"
    assert med_ordered, f"median-Q ordering broken: {med}"
    # The order-of-magnitude gain is gated on per-flow medians.  The mean
    # ratio stays near 6 on these inputs for reasons outside the
    # simulator: the max-min fair (water-filling) allocation of the same
    # capacities over the same routes, which AIMD approximates up to its
    # sawtooth factor, gives a mean ratio of only 6.4.  Under mean_field
    # over a fifth of the budget sits on edges no flow crosses; under
    # uniform a handful of uncongested flows lift the mean far above the
    # median.
    assert med_ratio > 10.0, (
        f"mean_field/uniform median-Q ratio {med_ratio:.2f} <= 10 "
        f"(mean ratio {ratio:.2f}, medians {med})"
    )
    changed = [name for name in CAPACITY_STRATEGIES if digests[name] != C12_DIGESTS[name]]
    assert not changed, f"taus/per_flow_q digests changed for {changed}"
