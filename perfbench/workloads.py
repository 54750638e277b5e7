"""The benchmark workloads and the checks on their outputs.

Each workload mirrors the call order of one or two `tcpfluid` CLI
subcommands and reaches the package only through public functions, each
call wrapped in `Tracer.call` so a traced run can attribute time to the
layer called.  A workload is split so that only the solve is timed:

    inputs(seed, size)          -> seeds derived from --seed
    solve(size, inputs, tracer) -> results             (timed)
    check(size, results)        -> list[Check]         (untimed)
    golden(results)             -> digests and tables  (untimed)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from tcpfluid.aimd_net import (
    FluidNetwork,
    SyncModel,
    assign_capacities,
    run_simulation,
    uniform_tree_flows,
)
from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    effective_loss,
    finite_window_pdf,
    phi_moment,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import (
    AnalyticWindowDistribution,
    TcpParams,
    frfr_mean_correction,
    window_moment,
)
from tcpfluid.tree_analytic import DistTable, ccdf_n, ccdf_q, marginal_n, marginal_q
from tcpfluid.tree_gen import TreeParams, enumerate_exact, grow, measure
from tcpfluid.window_sim import SimConfig, compare_histogram, simulate


@dataclass(frozen=True)
class Check:
    layer: str
    name: str
    ok: bool
    detail: str


def child_seed(seed: int, *path: int) -> int:
    """Derived stream, the way the CLI derives per-realization seeds."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1)[0])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ golden
# At the default seed, outputs are compared with values recorded by
# `run.py --record-golden`: Monte Carlo outputs bit for bit through their
# SHA-256, analytic tables to TABLE_RTOL of the table's largest entry.

TABLE_RTOL = 1e-8
GOLDEN_POINTS = 64


def _pick(values) -> list[float]:
    a = np.asarray(values, dtype=float).ravel()
    idx = np.unique(np.linspace(0, a.size - 1, min(a.size, GOLDEN_POINTS)).round())
    return a[idx.astype(int)].tolist()


def golden_entry(view: dict) -> dict:
    """What the golden file keeps: digests, and each table thinned out."""
    return {
        "digests": view["digests"],
        "tables": {k: {"size": len(v), "values": _pick(v)}
                   for k, v in view["tables"].items()},
    }


def golden_checks(view: dict, want: dict | None) -> list[Check]:
    if want is None:
        return [Check("bench", "golden.recorded", False, "no golden values recorded")]
    checks = []
    for name, expected in want["digests"].items():
        got = view["digests"].get(name)
        checks.append(Check(
            name.split(".")[0], f"golden.{name}", got == expected,
            f"sha256 {got} vs golden {expected}",
        ))
    for name, expected in want["tables"].items():
        got = view["tables"].get(name)
        if got is None or len(got) != expected["size"]:
            ok, detail = False, f"table missing or resized (golden size {expected['size']})"
        else:
            ref = np.asarray(expected["values"])
            err = float(np.max(np.abs(np.asarray(_pick(got)) - ref)) / np.max(np.abs(ref)))
            ok, detail = err <= TABLE_RTOL, f"max error / max |golden| = {err!r}"
        checks.append(Check(name.split(".")[0], f"golden.{name}", ok, detail))
    return checks


# ------------------------------------------------------------------ netsim
# `tcpfluid netsim --nodes 10000 --flows 1000 --strategy S` at pi = 1,
# with fewer events per run than the CLI's 100 * flows.

NETSIM_ALPHA = 0.5
MEAN_CAPACITY = 1e5
NETSIM_SIZES = {
    # the per-event cost depends on the grown tree, so each iteration
    # solves three trees to keep that dependence from reading as noise
    "full": {"nodes": 10_000, "flows": 1000, "epochs": 10_000, "instances": 3},
    "tiny": {"nodes": 300, "flows": 30, "epochs": 300, "instances": 1},
}


def netsim_inputs(seed: int, size: dict) -> list[tuple[int, int, int]]:
    """(tree, flows, simulation) seeds per instance."""
    return [
        (child_seed(seed, i, 0), child_seed(seed, i, 1), child_seed(seed, i, 2))
        for i in range(size["instances"])
    ]


def netsim_solve(strategy: str, size: dict, inputs, tr) -> list[dict]:
    tau = size["nodes"] - 1
    out = []
    for tree_seed, flow_seed, sim_seed in inputs:
        tree = tr.call(
            "tree_gen.grow", tau, grow,
            TreeParams(alpha_t=NETSIM_ALPHA, tau=tau, seed=tree_seed),
        )
        stats = tr.call("tree_gen.measure", tau, measure, tree)
        base = tr.call(
            "aimd_net.FluidNetwork.from_tree", 0,
            FluidNetwork.from_tree, tree, np.full(tau, MEAN_CAPACITY),
        )
        network = tr.call(
            "aimd_net.assign_capacities", 0,
            assign_capacities, base, strategy, MEAN_CAPACITY, tree_stats=stats,
        )
        flows = tr.call(
            "aimd_net.uniform_tree_flows", size["flows"],
            uniform_tree_flows, tree, size["flows"], beta=0.5, seed=flow_seed,
        )
        report = tr.call(
            "aimd_net.run_simulation", size["epochs"],
            run_simulation, network, flows, SyncModel(pi=1.0), size["epochs"],
            seed=sim_seed,
        )
        out.append(
            {"tree": tree, "network": network, "flows": flows,
             "report": report, "sim_seed": sim_seed}
        )
    return out


def netsim_probe(results: list[dict], tr) -> None:
    """One-event calls, whose time is run_simulation's per-call preparation."""
    for r in results:
        tr.call(
            "aimd_net.run_simulation", 1,
            run_simulation, r["network"], r["flows"], SyncModel(pi=1.0), 1,
            seed=r["sim_seed"],
        )


def netsim_check(size: dict, results: list[dict]) -> list[Check]:
    checks = []
    for i, r in enumerate(results):
        caps = r["network"].capacities
        route_cap = np.array([caps[route].min() for route in r["flows"].routes])
        worst = float(np.max(r["report"].per_flow_q / route_cap))
        # Q averages throughputs that never exceed the route's tightest
        # link; the slack covers rounding in the segment integrals
        checks.append(Check(
            "aimd_net", f"q_within_route_capacity[{i}]", worst <= 1.0 + 1e-9,
            f"max Q / route capacity = {worst!r}",
        ))
        rr = r["report"].realized_r
        checks.append(Check(
            "aimd_net", f"realized_r_at_pi_1[{i}]", rr == 1.0, f"realized_r = {rr!r}"
        ))
    return checks


def netsim_golden(results: list[dict]) -> dict:
    return {
        "digests": {
            "tree_gen.grow.parent": digest(*(r["tree"].parent for r in results)),
            "aimd_net.run_simulation.taus":
                digest(*(r["report"].taus for r in results)),
            "aimd_net.run_simulation.per_flow_q":
                digest(*(r["report"].per_flow_q for r in results)),
        },
        "tables": {},
    }


# ------------------------------------------------------------------ window
# `tcpfluid tcp-dist` and `tcpfluid validate` per law.

# (name, p, variant, bdp, buffer, validated): the four laws of the
# distribution-validation criterion at p = 1e-2, then the README's two
# tcp-dist lines.  At B = 60, p = 1e-2 the buffer takes a share A ~ 5e-9 of
# the losses, so the README's B = 40, p = 5e-3 law is validated as well:
# it is the one that tests the simulated loss split against A(x).
WINDOW_LAWS = (
    ("plain", 1e-2, "plain", 0.0, None, True),
    ("frfr", 1e-2, "frfr", 0.0, None, True),
    ("wan", 1e-2, "wan", 170.67, None, True),
    ("finite", 1e-2, "plain", 0.0, 60.0, True),
    ("frfr_p1e-3", 1e-3, "frfr", 0.0, None, False),
    ("finite_b40", 5e-3, "plain", 0.0, 40.0, True),
)
# tiny keeps the full grid: below 64 points the CLI's finite-buffer CCDF
# (one minus a cumulative trapezoid) leaves [0, 1], and the check says so
WINDOW_SIZES = {
    "full": {"grid_points": 128, "events": 20_000, "bins": 60},
    "tiny": {"grid_points": 128, "events": 1000, "bins": 20},
}
# The histogram fit is time-weighted with the event count as sample size,
# which makes the chi-square statistic small: at these sizes a correct
# simulator gives p-values near 1 and KS distances near 0.003, far inside
# both thresholds.  The loss-share tolerance is the CLI default, about 20
# binomial standard deviations at 20000 events.
CHI2_SIGNIFICANCE = 1e-4
KS_THRESHOLD = 0.08
LOSS_SHARE_TOLERANCE = 0.02
# window_ccdf integrates with scipy's quad, whose default absolute
# tolerance bounds how far two neighbouring CCDF values can disagree
QUAD_EPSABS = 1.49e-8


def window_inputs(seed: int, size: dict) -> dict[str, int]:
    return {law[0]: child_seed(seed, i) for i, law in enumerate(WINDOW_LAWS)}


def _tcp_dist_infinite(tr, params: TcpParams, variant: str, points: int) -> dict:
    dist = tr.call(
        "tcp_infinite.AnalyticWindowDistribution.build", 0,
        AnalyticWindowDistribution.build, params, variant,
    )
    w = np.linspace(0.0, dist.support_cutoff(), points)
    pdf = tr.call("tcp_infinite.window_pdf", points, dist.pdf, w)
    ccdf = tr.call(f"tcp_infinite.window_ccdf.{variant}", points, dist.ccdf, w)
    mean_plain = tr.call(
        "tcp_infinite.window_moment", 0, window_moment, params, 1.0 / (params.m + 1.0)
    )
    second = tr.call(
        "tcp_infinite.window_moment", 0, window_moment, params, 2.0 / (params.m + 1.0)
    )
    mean = mean_plain
    if variant == "frfr":
        mean += tr.call(
            "tcp_infinite.frfr_mean_correction", 0, frfr_mean_correction, params
        )
    elif variant == "wan":
        mean = float(np.trapezoid(w * pdf, w))
    return {"dist": dist, "pdf": pdf, "ccdf": ccdf,
            "summary": np.array([mean, mean_plain, second])}


def _tcp_dist_finite(tr, params: TcpParams, buffer: float, points: int) -> dict:
    fb = FiniteBufferParams(params, buffer_size=buffer)
    sol = tr.call(
        "tcp_finite.solve_finite_distribution", 0, solve_finite_distribution, fb
    )
    w = np.linspace(0.0, fb.effective_limit, points)
    pdf = tr.call("tcp_finite.finite_window_pdf", points, finite_window_pdf, sol, w)
    # the CLI's CCDF of the finite law: one minus the cumulative trapezoid
    below = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(w))])
    mean = tr.call("tcp_finite.phi_moment", 0, phi_moment, sol, 1.0) / (1.0 - sol.A)
    lam = tr.call("tcp_finite.effective_loss", 0, effective_loss, fb)
    return {"sol": sol, "pdf": pdf, "ccdf": 1.0 - below,
            "summary": np.array([sol.A, lam, mean])}


def _validate(tr, params, variant, buffer, size, seed, law) -> dict:
    fb = FiniteBufferParams(params, buffer_size=math.inf if buffer is None else buffer)
    cfg = SimConfig(
        params=fb,
        horizon=size["events"],
        seed=seed,
        enable_frfr=variant == "frfr",
        enable_wan_idle=variant == "wan",
        n_bins=size["bins"],
    )
    kind = variant if buffer is None else "finite"
    sim = tr.call(f"window_sim.simulate.{kind}", size["events"], simulate, cfg)
    if buffer is None:
        dist = law["dist"]

        def pdf(w):
            return tr.call("tcp_infinite.window_pdf", np.size(w), dist.pdf, w)
    else:
        sol = law["sol"]

        def pdf(w):
            return tr.call(
                "tcp_finite.finite_window_pdf", np.size(w), finite_window_pdf, sol, w
            )
    fit = tr.call("window_sim.compare_histogram", 0, compare_histogram, sim, pdf)
    return {"sim": sim, "fit": fit}


def window_solve(size: dict, inputs: dict[str, int], tr) -> dict[str, dict]:
    out = {}
    for name, p, variant, bdp, buffer, validated in WINDOW_LAWS:
        params = TcpParams(
            alpha=1.0, loss_rate=p, m=1.0, beta=0.5, link_delay=bdp / 2.0
        )
        if buffer is None:
            law = _tcp_dist_infinite(tr, params, variant, size["grid_points"])
        else:
            law = _tcp_dist_finite(tr, params, buffer, size["grid_points"])
        if validated:
            law.update(_validate(tr, params, variant, buffer, size, inputs[name], law))
        out[name] = law
    return out


def _law_layer(law: dict) -> str:
    return "tcp_finite" if "sol" in law else "tcp_infinite"


def window_check(size: dict, results: dict[str, dict]) -> list[Check]:
    checks = []
    for name, law in results.items():
        c = law["ccdf"]
        rise = float(np.max(np.diff(c)))
        checks.append(Check(
            _law_layer(law), f"ccdf_in_unit_interval_nonincreasing[{name}]",
            bool(c.min() >= 0.0 and c.max() <= 1.0 and rise <= QUAD_EPSABS),
            f"range [{c.min()!r}, {c.max()!r}], largest rise {rise!r}",
        ))
        if "fit" not in law:
            continue
        fit, sim = law["fit"], law["sim"]
        checks.append(Check(
            "window_sim", f"chi2[{name}]", fit.chi2_pvalue >= CHI2_SIGNIFICANCE,
            f"p-value {fit.chi2_pvalue!r}",
        ))
        checks.append(Check(
            "window_sim", f"ks[{name}]", fit.ks_distance <= KS_THRESHOLD,
            f"KS distance {fit.ks_distance!r}",
        ))
        if "sol" in law:
            share = sim.n_buffer_losses / sim.n_events
            gap = abs(share - law["sol"].A)
            checks.append(Check(
                "window_sim", f"buffer_loss_share[{name}]",
                gap <= LOSS_SHARE_TOLERANCE,
                f"share {share!r} vs A {law['sol'].A!r}",
            ))
    return checks


def window_golden(results: dict[str, dict]) -> dict:
    digests, tables = {}, {}
    for name, law in results.items():
        layer = _law_layer(law)
        tables[f"{layer}.pdf.{name}"] = law["pdf"]
        tables[f"{layer}.ccdf.{name}"] = law["ccdf"]
        tables[f"{layer}.summary.{name}"] = law["summary"]
        if "sim" in law:
            sim = law["sim"]
            digests[f"window_sim.simulate.{name}"] = digest(
                sim.occupancy,
                np.array([sim.mean_window, sim.window_variance, sim.total_time]),
                np.array([sim.n_buffer_losses, sim.n_link_losses]),
            )
    return {"digests": digests, "tables": tables}


# -------------------------------------------------------------------- tree
# `tcpfluid tree --tau 100000 --realizations N --check ccdf`, the joint
# table DistTable(1000) with its marginals, and `tcpfluid tree --enumerate`
# for every tau up to a limit.

TREE_ALPHA = 0.5
TREE_SIZES = {
    # one tree's sup CCDF error is about 1.4e-3 (at most 2.8e-3 over 24
    # seeds); six trees bring it near 5e-4, far inside the CLI's 5e-3
    "full": {"tau": 100_000, "realizations": 6, "n_rows": 1000, "q_rows": 64,
             "table_tau": 1000, "enumerate_max_tau": 7, "ccdf_tolerance": 5e-3},
    # two small trees fluctuate more, so the tolerance grows with
    # 1/sqrt(edges) from the CLI's 5e-3
    "tiny": {"tau": 5000, "realizations": 2, "n_rows": 200, "q_rows": 16,
             "table_tau": 60, "enumerate_max_tau": 5, "ccdf_tolerance": 3e-2},
}


def tree_inputs(seed: int, size: dict) -> list[int]:
    return [child_seed(seed, i) for i in range(size["realizations"])]


def _column(fn, tau: int, ks) -> np.ndarray:
    return np.array([fn(tau, TREE_ALPHA, k) for k in ks])


def tree_solve(size: dict, inputs: list[int], tr) -> dict:
    tau = size["tau"]
    counts_n = np.zeros(tau, dtype=np.int64)
    counts_q = np.zeros(tau, dtype=np.int64)
    parents = []
    for seed in inputs:
        tree = tr.call(
            "tree_gen.grow", tau, grow, TreeParams(alpha_t=TREE_ALPHA, tau=tau, seed=seed)
        )
        mm = tr.call("tree_gen.measure", tau, measure, tree)
        counts_n += np.bincount(mm.n, minlength=tau)
        counts_q += np.bincount(mm.q_younger, minlength=tau)
        parents.append(tree.parent)
    # one span per column: a span per scalar call would cost as much as
    # the call itself
    kn, kq = range(size["n_rows"]), range(size["q_rows"])
    pn = tr.call("tree_analytic.marginal_n", len(kn), _column, marginal_n, tau, kn)
    cn = tr.call("tree_analytic.ccdf_n", len(kn), _column, ccdf_n, tau, kn)
    pq = tr.call("tree_analytic.marginal_q", len(kq), _column, marginal_q, tau, kq)
    cq = tr.call("tree_analytic.ccdf_q", len(kq), _column, ccdf_q, tau, kq)
    total = float(len(inputs) * tau)
    # survival with the bin itself included, matching the analytic law
    emp_cn = (counts_n / total)[::-1].cumsum()[::-1][: len(kn)]
    emp_cq = (counts_q / total)[::-1].cumsum()[::-1][: len(kq)]

    table = tr.call(
        "tree_analytic.DistTable.from_analytic", 0,
        DistTable.from_analytic, size["table_tau"], TREE_ALPHA,
    )
    by_n = tr.call("tree_analytic.DistTable.marginal_over_q", 0, table.marginal_over_q)
    by_q = tr.call("tree_analytic.DistTable.marginal_over_n", 0, table.marginal_over_n)
    table_total = tr.call("tree_analytic.DistTable.total", 0, table.total)

    enum_gap = {}
    for t in range(2, size["enumerate_max_tau"] + 1):
        exact = tr.call(
            "tree_gen.enumerate_exact", 0,
            enumerate_exact, TreeParams(alpha_t=TREE_ALPHA, tau=t, seed=0),
        )
        small = tr.call(
            "tree_analytic.DistTable.from_analytic.small", 0,
            DistTable.from_analytic, t, TREE_ALPHA,
        )
        keys = set(exact.values) | set(small.values)
        enum_gap[t] = max(abs(exact.prob(n, q) - small.prob(n, q)) for n, q in keys)
    return {
        "parents": parents, "counts_n": counts_n, "counts_q": counts_q,
        "pn": pn, "cn": cn, "pq": pq, "cq": cq, "emp_cn": emp_cn, "emp_cq": emp_cq,
        "by_n": by_n, "by_q": by_q, "table_total": table_total, "enum_gap": enum_gap,
    }


def tree_check(size: dict, r: dict) -> list[Check]:
    checks = []
    for axis in ("n", "q"):
        c = r[f"c{axis}"]
        rise = float(np.max(np.diff(c)))
        checks.append(Check(
            "tree_analytic", f"ccdf_in_unit_interval_nonincreasing[{axis}]",
            bool(c.min() >= 0.0 and c.max() <= 1.0 and rise <= 0.0),
            f"range [{c.min()!r}, {c.max()!r}], largest rise {rise!r}",
        ))
        gap = float(np.max(np.abs(r[f"emp_c{axis}"] - c)))
        checks.append(Check(
            "tree_gen", f"empirical_ccdf[{axis}]", gap <= size["ccdf_tolerance"],
            f"sup |F_emp - F| = {gap!r}",
        ))
    norm = abs(r["table_total"] - 1.0)
    checks.append(Check(
        "tree_analytic", "dist_table_total", norm <= 1e-10, f"|total - 1| = {norm!r}"
    ))
    for t, gap in r["enum_gap"].items():
        checks.append(Check(
            "tree_analytic", f"enumerate_exact_matches_dist_table[tau={t}]",
            gap <= 1e-12, f"max |exact - table| = {gap!r}",
        ))
    return checks


def tree_golden(r: dict) -> dict:
    return {
        "digests": {
            "tree_gen.grow.parent": digest(*r["parents"]),
            "tree_gen.measure.counts": digest(r["counts_n"], r["counts_q"]),
        },
        "tables": {
            "tree_analytic.marginal_n": r["pn"],
            "tree_analytic.ccdf_n": r["cn"],
            "tree_analytic.marginal_q": r["pq"],
            "tree_analytic.ccdf_q": r["cq"],
            "tree_analytic.DistTable.marginal_over_q": r["by_n"],
            "tree_analytic.DistTable.marginal_over_n": r["by_q"],
        },
    }


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    sizes: dict
    inputs: Callable
    solve: Callable
    check: Callable
    golden: Callable
    events: Callable[[dict], int]  # Monte Carlo events per solve
    probe: Callable | None = None


def _netsim(strategy: str) -> Workload:
    return Workload(
        NETSIM_SIZES, netsim_inputs, partial(netsim_solve, strategy),
        netsim_check, netsim_golden,
        lambda s: s["instances"] * s["epochs"], netsim_probe,
    )


WORKLOADS = {
    "netsim-dense": _netsim("uniform"),
    "netsim-sparse": _netsim("mean_field"),
    "window": Workload(
        WINDOW_SIZES, window_inputs, window_solve, window_check, window_golden,
        # loss events of the window simulator
        lambda s: s["events"] * sum(law[5] for law in WINDOW_LAWS),
    ),
    "tree": Workload(
        TREE_SIZES, tree_inputs, tree_solve, tree_check, tree_golden,
        # edges of the grown trees
        lambda s: s["realizations"] * s["tau"],
    ),
}
