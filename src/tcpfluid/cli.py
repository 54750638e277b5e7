"""Command line front end for the analytic laws and simulators.

Subcommands
    tcp-dist          stationary window pdf/ccdf grid plus moment summary
    validate          Monte Carlo window process against the analytic law
    tree              growing-tree joint/marginal tables, checks, overlays
    netsim            multi-link AIMD capacity-strategy comparison

Every output file carries a header (CSV comment lines, or a "meta"
object in JSON) echoing the subcommand, the package version, the seed,
and every parameter that shapes the results; re-running the same
command, with any --jobs, reproduces each file byte for byte.  Exit
codes: 0 success, 2 invalid configuration, 3 a requested check failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .aimd_net import (
    CAPACITY_STRATEGIES,
    FluidNetwork,
    SyncModel,
    assign_capacities,
    run_simulation,
    uniform_tree_flows,
)
from .tcp_finite import FiniteBufferParams, effective_loss, solve_finite_distribution
from .tcp_infinite import VARIANTS, AnalyticWindowDistribution, TcpParams, window_moment
from .tree_analytic import DistTable, ccdf_n, ccdf_q, marginal_n, marginal_q
from .tree_gen import TreeParams, enumerate_exact, grow, measure
from .window_sim import child_seed, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3

# parsed attributes no header echoes: they name the command or say where and
# how its results are written, not what they are
_NOT_ECHOED = ("subcommand", "func", "outdir", "seed", "format", "jobs")


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: what ran, with what, into which files."""

    subcommand: str
    params: dict
    outdir: str
    seed: int
    format: str

    def meta(self) -> dict:
        out = {
            "subcommand": self.subcommand,
            "version": __version__,
            "seed": self.seed,
            "format": self.format,
        }
        out.update(self.params)
        return out


def _prepare_outdir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output directory not writable: {exc}") from exc


def _check_tolerance(flag: str, value: float) -> None:
    # NaN fails every comparison, so a NaN tolerance would fail its check
    # only after the whole job ran
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{flag} must be finite and at least 0, got {value!r}")


def _fmt(value) -> str:
    if isinstance(value, np.generic):
        # numpy 2 scalars repr as "np.float64(...)", which no CSV reader parses
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, meta: dict, columns: dict[str, list]) -> None:
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={_fmt(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(columns.keys())
        for row in zip(*columns.values()):
            writer.writerow([_fmt(v) for v in row])


def _json_scalar(value):
    # numpy ints are no Python ints, so json rejects them; unwrap as _fmt does
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_scalar)
        fh.write("\n")


def _emit_table(cfg: RunConfig, name: str, columns: dict[str, list]) -> str:
    """Write one table in the configured format; returns the path."""
    if cfg.format == "json":
        path = os.path.join(cfg.outdir, f"{name}.json")
        _write_json(path, {"meta": cfg.meta(), "columns": columns})
    else:
        path = os.path.join(cfg.outdir, f"{name}.csv")
        _write_csv(path, cfg.meta(), columns)
    return path


def _run_parallel(worker, payloads, jobs: int) -> list:
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    # imported on first use, so commands that never fork do not load it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads))


def _echoed_flags(args) -> dict:
    """Every flag of the invocation that shapes its results, in parser order."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}


def _tcp_params(args, beta: float | None = None) -> TcpParams:
    # the distribution depends on lambda and alpha only through p, so
    # alpha is pinned to 1 and the CLI exposes p directly
    return TcpParams(
        alpha=1.0,
        loss_rate=args.p,
        m=args.m,
        beta=args.beta if beta is None else beta,
        link_delay=args.bdp / 2.0,
    )


def _window_law(args, params: TcpParams):
    """The analytic law of --variant, for --buffer if one is given.

    Raises:
        ValueError: --variant wan with --buffer, which has no law.
    """
    if args.buffer is None:
        return AnalyticWindowDistribution.build(params, args.variant)
    return solve_finite_distribution(
        FiniteBufferParams(params, buffer_size=args.buffer), args.variant
    )


# ---------------------------------------------------------------- tcp-dist


def cmd_tcp_dist(args) -> int:
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be at least 2, got {args.grid_points}")
    cfg = RunConfig("tcp-dist", _echoed_flags(args), args.outdir, args.seed, args.format)
    params = _tcp_params(args)
    law = _window_law(args, params)
    moments = {"mean": law.mean()}
    if args.buffer is None:
        try:
            mean_plain = window_moment(params, 1.0 / (params.m + 1.0))
            second_plain = window_moment(params, 2.0 / (params.m + 1.0))
        except ValueError as exc:
            raise ValueError(f"--p {args.p!r} is too small: {exc}") from exc
        moments["mean_plain"] = mean_plain
        moments["second_moment_plain"] = second_plain
        moments["stdev_plain"] = math.sqrt(second_plain - mean_plain**2)
        summary = {"A": None, "lambda_eff": params.loss_rate, "moments": moments}
    else:
        moments["effective_limit"] = law.effective_limit
        summary = {"A": law.A, "lambda_eff": effective_loss(law.params), "moments": moments}
    if law.point_mass is not None:
        at, weight = law.point_mass
        summary["point_mass"] = {"at": at, "weight": weight}
    _prepare_outdir(args.outdir)

    w = np.linspace(0.0, law.support_cutoff(), args.grid_points)
    pdf = law.pdf(w)
    ccdf = law.ccdf(w)
    _emit_table(cfg, "tcp_dist_pdf", {"w": list(w), "pdf": list(pdf), "ccdf": list(ccdf)})
    _write_json(
        os.path.join(args.outdir, "tcp_dist_summary.json"),
        {"meta": cfg.meta(), **summary},
    )
    return EXIT_OK


# ---------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    if args.events < 1000:
        raise ValueError("--events must be at least 1000")
    if args.bins < 2:
        raise ValueError(f"--bins must be at least 2, got {args.bins}")
    if not 0 <= args.chi2_significance <= 1:
        raise ValueError(
            f"--chi2-significance must lie in [0, 1], got {args.chi2_significance!r}"
        )
    _check_tolerance("--ks-threshold", args.ks_threshold)
    _check_tolerance("--loss-ratio-tolerance", args.loss_ratio_tolerance)
    analytic_beta = args.beta if args.analytic_beta is None else args.analytic_beta
    cfg = RunConfig(
        "validate",
        _echoed_flags(args) | {"analytic_beta": analytic_beta},
        args.outdir,
        args.seed,
        args.format,
    )
    law = _window_law(args, _tcp_params(args, beta=analytic_beta))
    _prepare_outdir(args.outdir)

    sim_params = FiniteBufferParams(
        _tcp_params(args), buffer_size=math.inf if args.buffer is None else args.buffer
    )
    result, fit = validate(
        sim_params,
        law,
        args.events,
        n_bins=args.bins,
        seed=args.seed,
        map=partial(_run_parallel, jobs=args.jobs),
    )
    checks: dict[str, bool] = {}
    report: dict = {}
    if args.buffer is not None:
        share = result.n_buffer_losses / result.n_events
        report["buffer_loss_share"] = share
        report["A_analytic"] = law.A
        checks["loss_ratio"] = abs(share - law.A) <= args.loss_ratio_tolerance

    checks["chi2"] = fit.chi2_pvalue >= args.chi2_significance
    checks["ks"] = fit.ks_distance <= args.ks_threshold
    passed = all(checks.values())
    report.update(
        {
            "meta": cfg.meta(),
            "chi2_stat": fit.chi2_stat,
            "chi2_pvalue": fit.chi2_pvalue,
            "dof": fit.dof,
            "ks_distance": fit.ks_distance,
            "n_events": fit.n_events,
            "mean_window": result.mean_window,
            "checks": checks,
            "pass": passed,
            "diagnostics": {"mass_above_wmax": result.mass_above_wmax},
        }
    )
    _write_json(os.path.join(args.outdir, "validate_report.json"), report)
    print("validate:", "PASS" if passed else "FAIL", json.dumps(checks, sort_keys=True))
    return EXIT_OK if passed else EXIT_CHECK


# ---------------------------------------------------------------- tree


def _tree_counts(payload) -> tuple[np.ndarray, np.ndarray]:
    tau, alpha, seed = payload
    mm = measure(grow(TreeParams(alpha_t=alpha, tau=tau, seed=seed)))
    return (
        np.bincount(mm.n, minlength=tau),
        np.bincount(mm.q_younger, minlength=tau),
    )


def cmd_tree(args) -> int:
    # TreeParams checks tau and alpha before any file is written
    params = TreeParams(alpha_t=args.alpha, tau=args.tau)
    if args.max_rows < 1 or args.max_q_rows < 1:
        raise ValueError("--max-rows and --max-q-rows must be at least 1")
    if args.realizations < 0:
        raise ValueError(f"--realizations must be nonnegative, got {args.realizations}")
    _check_tolerance("--check-tolerance", args.check_tolerance)
    realizations = args.realizations
    if args.check == "ccdf" and realizations == 0:
        realizations = 20
    cfg = RunConfig(
        "tree",
        _echoed_flags(args) | {"realizations": realizations},
        args.outdir,
        args.seed,
        args.format,
    )
    _prepare_outdir(args.outdir)
    tau, alpha = args.tau, args.alpha

    summary: dict = {"meta": cfg.meta()}
    failed = False

    if args.enumerate:
        exact = enumerate_exact(params)
        analytic = DistTable.from_analytic(tau, alpha)
        gap = float(np.abs(exact.grid - analytic.grid).max())
        summary["enumerate_max_abs_error"] = gap
        if gap > 1e-12:
            failed = True
            print(f"tree enumerate: FAIL max|exact-analytic| = {gap:.3e}")
        else:
            print(f"tree enumerate: PASS max|exact-analytic| = {gap:.3e}")

    # descendant counts n span the whole tree; in-degrees q die off within
    # a few dozen values, and each q-law pass costs O(tau * q), so the two
    # tables get separate row caps
    n_max = min(tau - 1, args.max_rows - 1)
    q_max = min(tau - 1, args.max_q_rows - 1)
    kn = np.arange(n_max + 1)
    kq = np.arange(q_max + 1)
    pn = [marginal_n(tau, alpha, int(k)) for k in kn]
    cn = [ccdf_n(tau, alpha, int(k)) for k in kn]
    pq = [marginal_q(tau, alpha, int(k)) for k in kq]
    cq = [ccdf_q(tau, alpha, int(k)) for k in kq]
    cols_n: dict[str, list] = {"k": list(kn), "P_n": pn, "ccdf_n": cn}
    cols_q: dict[str, list] = {"k": list(kq), "P_q": pq, "ccdf_q": cq}

    if realizations > 0:
        payloads = [
            (tau, alpha, child_seed(args.seed, i)) for i in range(realizations)
        ]
        parts = _run_parallel(_tree_counts, payloads, args.jobs)
        counts_n = sum(p[0] for p in parts)
        counts_q = sum(p[1] for p in parts)
        total = float(realizations * tau)
        emp_pn = counts_n / total
        emp_pq = counts_q / total
        # survival with the bin itself included, matching the analytic law
        emp_cn = emp_pn[::-1].cumsum()[::-1]
        emp_cq = emp_pq[::-1].cumsum()[::-1]
        cols_n["empirical_P_n"] = list(emp_pn[: n_max + 1])
        cols_n["empirical_ccdf_n"] = list(emp_cn[: n_max + 1])
        cols_q["empirical_P_q"] = list(emp_pq[: q_max + 1])
        cols_q["empirical_ccdf_q"] = list(emp_cq[: q_max + 1])
        if args.check == "ccdf":
            gap_n = max(abs(emp_cn[k] - cn[k]) for k in range(n_max + 1))
            gap_q = max(abs(emp_cq[k] - cq[k]) for k in range(q_max + 1))
            summary["ccdf_check"] = {"sup_error_n": gap_n, "sup_error_q": gap_q}
            ok = max(gap_n, gap_q) <= args.check_tolerance
            print(
                f"tree ccdf check: {'PASS' if ok else 'FAIL'} "
                f"sup|F_emp-F| n={gap_n:.2e} q={gap_q:.2e} "
                f"tolerance={args.check_tolerance:g}"
            )
            failed = failed or not ok

    _emit_table(cfg, "tree_marginal_n", cols_n)
    _emit_table(cfg, "tree_marginal_q", cols_q)
    summary["mean_n_tabulated"] = float(np.dot(kn, pn))
    summary["mean_q_tabulated"] = float(np.dot(kq, pq))
    _write_json(os.path.join(args.outdir, "tree_summary.json"), summary)
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------- netsim


def _netsim_one(payload) -> dict:
    network, flows, sync, epochs, sim_seed = payload
    report = run_simulation(network, flows, sync, epochs, seed=sim_seed)
    return {
        "per_flow_q": report.per_flow_q.tolist(),
        "capacities_sorted_desc": np.sort(network.capacities)[::-1].tolist(),
        "mean_q": report.mean_q,
        "median_q": float(np.median(report.per_flow_q)),
        "mean_tau": report.mean_tau,
        "realized_r": report.realized_r,
        "duration": report.duration,
    }


NETSIM_DEFAULTS = {
    "nodes": 10000,
    "alpha": 0.5,
    "strategy": "all",
    "mean_capacity": 1e5,
    "flows": 1000,
    "epochs": None,
    "pi": 1.0,
    "beta": 0.5,
    "seed": 0,
}


def _check_netsim_config(file_conf) -> None:
    """Raise ValueError unless each config value has its flag's JSON type.

    nodes, flows, epochs and seed take integers, the other numeric keys
    numbers (a bool is neither), strategy one of its choices, and only
    epochs null (100*flows).
    """
    if not isinstance(file_conf, dict):
        raise ValueError("a netsim config must be a JSON object")
    unknown = set(file_conf) - set(NETSIM_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    strategies = CAPACITY_STRATEGIES + ("all",)
    for key, value in file_conf.items():
        integer = key in ("nodes", "flows", "epochs", "seed")
        if key == "strategy":
            ok = value in strategies
        elif value is None:
            ok = key == "epochs"
        else:
            ok = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
        if not ok:
            want = f"one of {strategies}" if key == "strategy" else "an integer" if integer else "a number"
            raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def cmd_netsim(args) -> int:
    file_conf = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_conf = json.load(fh)
        _check_netsim_config(file_conf)
    # explicit flags beat the config file, the file beats built-ins
    conf = {
        key: getattr(args, key)
        if getattr(args, key) is not None
        else file_conf.get(key, default)
        for key, default in NETSIM_DEFAULTS.items()
    }
    if conf["epochs"] is None:
        conf["epochs"] = 100 * conf["flows"]
    # every value is checked before the output directory is made
    for key, ok, want in (
        ("nodes", conf["nodes"] >= 3, "at least 3"),
        ("flows", conf["flows"] >= 1, "at least 1"),
        ("epochs", conf["epochs"] >= 1, "at least 1"),
        ("mean_capacity", 0 < conf["mean_capacity"] < math.inf, "finite and positive"),
        ("pi", 0 < conf["pi"] <= 1, "in (0, 1]"),
        ("beta", 0 < conf["beta"] < 1, "in (0, 1)"),
        ("alpha", 0 <= conf["alpha"] <= 1, "in [0, 1]"),
    ):
        if not ok:
            raise ValueError(f"--{key.replace('_', '-')} must be {want}, got {conf[key]!r}")
    if args.check == "ordering" and conf["strategy"] != "all":
        raise ValueError("--check ordering needs --strategy all")
    cfg = RunConfig(
        "netsim",
        {k: v for k, v in conf.items() if k != "seed"} | {"check": args.check},
        args.outdir,
        conf["seed"],
        args.format,
    )
    _prepare_outdir(args.outdir)

    strategies = (
        list(CAPACITY_STRATEGIES) if conf["strategy"] == "all" else [conf["strategy"]]
    )
    # one tree and one flow set, shared by every strategy
    tree = grow(
        TreeParams(
            alpha_t=conf["alpha"],
            tau=conf["nodes"] - 1,
            seed=child_seed(conf["seed"], 0),
        )
    )
    stats = measure(tree)
    base = FluidNetwork.from_tree(tree, np.full(tree.tau, conf["mean_capacity"]))
    flows = uniform_tree_flows(
        tree, conf["flows"], beta=conf["beta"], seed=child_seed(conf["seed"], 1)
    )
    sync = SyncModel(pi=conf["pi"])
    payloads = [
        (
            assign_capacities(base, s, conf["mean_capacity"], tree_stats=stats),
            flows,
            sync,
            conf["epochs"],
            child_seed(conf["seed"], 2),
        )
        for s in strategies
    ]
    results = dict(zip(strategies, _run_parallel(_netsim_one, payloads, args.jobs)))

    summary: dict = {"meta": cfg.meta(), "strategies": {}}
    cdf_cols: dict[str, list] = {"strategy": [], "q": [], "cdf": []}
    cap_cols: dict[str, list] = {"strategy": [], "capacity": [], "ccdf": []}
    for name, res in results.items():
        summary["strategies"][name] = {
            k: res[k]
            for k in ("mean_q", "median_q", "mean_tau", "realized_r", "duration")
        }
        per_q = np.sort(np.asarray(res["per_flow_q"]))
        n = per_q.size
        _emit_table(
            cfg,
            f"netsim_flows_{name}",
            {"flow": list(range(n)), "q": list(per_q)},
        )
        cdf_cols["strategy"].extend([name] * n)
        cdf_cols["q"].extend(per_q.tolist())
        cdf_cols["cdf"].extend(((np.arange(n) + 1.0) / n).tolist())
        caps = np.asarray(res["capacities_sorted_desc"])
        cap_cols["strategy"].extend([name] * caps.size)
        cap_cols["capacity"].extend(caps.tolist())
        cap_cols["ccdf"].extend(((np.arange(caps.size) + 1.0) / caps.size).tolist())
    _emit_table(cfg, "netsim_q_cdf", cdf_cols)
    _emit_table(cfg, "netsim_capacity_ccdf", cap_cols)

    failed = False
    if len(strategies) == len(CAPACITY_STRATEGIES):
        # the ordering and the ratio of both the mean and the median per-flow Q
        orderings = []
        for stat, key in (("mean", "ordering"), ("median", "ordering_median")):
            q = {name: res[f"{stat}_q"] for name, res in results.items()}
            ordered = (
                q["mean_field"] > q["minimum"] > q["product"] > q["maximum"] > q["uniform"]
            )
            summary[f"{key}_mean_field_minimum_product_maximum_uniform"] = ordered
            summary[f"{stat}_q_ratio_mean_field_over_uniform"] = (
                q["mean_field"] / q["uniform"]
            )
            print(
                f"netsim {stat} ordering:",
                "PASS" if ordered else "FAIL",
                json.dumps({k: round(v, 2) for k, v in q.items()}, sort_keys=True),
            )
            orderings.append(ordered)
        if args.check == "ordering":
            failed = not all(orderings)

    _write_json(os.path.join(args.outdir, "netsim_summary.json"), summary)
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------- parser


def _add_common(sub, *, seed_default: int | None = 0) -> None:
    sub.add_argument("--outdir", default=".", help="output directory")
    sub.add_argument("--seed", type=int, default=seed_default)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--jobs", type=int, default=1, help="parallel workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpfluid",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tcp-dist", help="analytic window distribution tables")
    p.add_argument("--p", type=float, required=True, help="loss probability per unit growth")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--buffer", type=float, default=None, help="buffer size B (finite law)")
    p.add_argument("--bdp", type=float, default=0.0, help="bandwidth-delay product 2*alpha*D")
    p.add_argument("--variant", choices=VARIANTS, default="plain")
    p.add_argument("--grid-points", type=int, default=512)
    _add_common(p)
    p.set_defaults(func=cmd_tcp_dist)

    p = sub.add_parser("validate", help="simulator vs analytic law")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument(
        "--analytic-beta",
        type=float,
        default=None,
        help="compare against a law with a different beta (mismatch probe)",
    )
    p.add_argument("--buffer", type=float, default=None)
    p.add_argument("--bdp", type=float, default=0.0)
    p.add_argument("--variant", choices=VARIANTS, default="plain")
    p.add_argument("--events", type=int, default=20000)
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--chi2-significance", type=float, default=0.01)
    p.add_argument("--ks-threshold", type=float, default=0.08)
    p.add_argument("--loss-ratio-tolerance", type=float, default=0.02)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("tree", help="growing-tree statistics")
    p.add_argument("--tau", type=int, required=True, help="number of edges")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--realizations", type=int, default=0)
    p.add_argument("--enumerate", action="store_true", help="exact history enumeration check")
    p.add_argument("--check", choices=("none", "ccdf"), default="none")
    p.add_argument("--check-tolerance", type=float, default=5e-3)
    p.add_argument("--max-rows", type=int, default=1000)
    p.add_argument("--max-q-rows", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("netsim", help="AIMD network strategy comparison")
    p.add_argument("--config", default=None, help="JSON file with the fields below")
    # None defaults so a config file can fill anything not given on the line
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None, help="tree scaling parameter")
    p.add_argument("--strategy", choices=CAPACITY_STRATEGIES + ("all",), default=None)
    p.add_argument("--mean-capacity", type=float, default=None)
    p.add_argument("--flows", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="default 100*flows")
    p.add_argument("--pi", type=float, default=None, help="per-flow loss propensity")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--check", choices=("none", "ordering"), default="none")
    _add_common(p, seed_default=None)
    p.set_defaults(func=cmd_netsim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every subcommand takes --jobs; checked before any of them makes its outdir
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
