"""Benchmark of tcpfluid: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload netsim-dense --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  The workload's inputs derive from --seed.  After imports and a
small warm-up solve, the workload is solved again and again for about
--seconds seconds (at least three solves), and every solve's outputs are
checked.  Between solves, fresh interpreters time `import tcpfluid.cli`.
A fixed reference computation (reference.py) runs after every sample,
and every time the run reports is scaled to the reference machine speed.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from spans recorded around the benchmark's calls into each layer; a traced
run alternates untraced and traced solves so it can report the tracing
overhead.  Each metric is printed with its unit and sample count, and the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --record-golden rewrites the golden values
that the default seed is checked against.
"""

import os

# one thread per BLAS and OpenMP pool, set before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from reference import Reference  # noqa: E402
from spantrace import Totals, Tracer, totals_by_run  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("netsim-dense", "netsim-sparse", "window", "tree")
DEFAULT_SEED = 0
MIN_SOLVES = 3
SETUP_SAMPLES = {"full": 5, "tiny": 1}  # at least this many
GOLDEN = BENCH_DIR / "golden.json"
TRACED_LAYERS = (
    "aimd_net", "tcp_infinite", "tcp_finite", "window_sim", "tree_gen", "tree_analytic",
)
MODULES = (
    "specfun", "tcp_infinite", "tcp_finite", "window_sim",
    "aimd_net", "tree_gen", "tree_analytic", "cli",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs every code path at toy sizes")
    p.add_argument("--record-golden", action="store_true")
    return p.parse_args(argv)


# ------------------------------------------------------------------ set-up


def setup_sample(importtime: bool) -> tuple[float, dict[str, float]]:
    """Time one fresh interpreter importing tcpfluid.cli.

    Returns the wall time and, with importtime, each tcpfluid module's
    cumulative import time in ms, parsed from the interpreter's -X
    importtime report.
    """
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import tcpfluid.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=SRC.parent,
        capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import tcpfluid.cli failed:\n{proc.stderr[-2000:]}")
    module_ms = {}
    for line in proc.stderr.splitlines():
        # "import time:  self [us] | cumulative | imported package"
        parts = line.split("|")
        name = parts[-1].strip()
        if len(parts) == 3 and name.startswith("tcpfluid."):
            module_ms[name.split(".")[1]] = int(parts[1]) / 1000.0
    return wall, module_ms


# ----------------------------------------------------------------- metrics


def span_metrics(s: dict, probe: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced solve.

    s maps span names to the solve's Totals, probe the one-event
    run_simulation calls made after it; both return zeros for names a
    workload never calls.
    """

    def t(*names):
        return sum(s[n].time for n in names)

    def w(*names):
        return sum(s[n].work for n in names)

    def per(value, count):
        return value / count if count else 0.0

    sim = "aimd_net.run_simulation"
    fixed = per(probe[sim].time, probe[sim].calls)
    network = ("aimd_net.FluidNetwork.from_tree", "aimd_net.assign_capacities")
    closed = tuple(f"tree_analytic.{f}" for f in ("marginal_n", "ccdf_n", "marginal_q", "ccdf_q"))
    marginals = tuple(f"tree_analytic.DistTable.{f}"
                      for f in ("marginal_over_q", "marginal_over_n", "total"))
    ccdfs = {v: f"tcp_infinite.window_ccdf.{v}" for v in ("plain", "frfr", "wan")}
    sims = {k: f"window_sim.simulate.{k}" for k in ("plain", "frfr", "wan", "finite")}
    m = {
        f"{sim}.us_per_event": (1e6 * per(t(sim) - fixed * s[sim].calls, w(sim)), "us/event"),
        f"{sim}.fixed_s": (fixed, "s"),
        "aimd_net.network_s": (per(t(*network), s[network[0]].calls), "s"),
        "aimd_net.flows_s": (per(t("aimd_net.uniform_tree_flows"),
                                 s["aimd_net.uniform_tree_flows"].calls), "s"),
        "aimd_net.events": (w(sim), "count"),
        "tcp_infinite.pdf_us_per_point": (
            1e6 * per(t("tcp_infinite.window_pdf"), w("tcp_infinite.window_pdf")), "us/point"),
        "tcp_infinite.moments_s": (
            t("tcp_infinite.window_moment", "tcp_infinite.frfr_mean_correction"), "s"),
        "tcp_infinite.ccdf_points": (w(*ccdfs.values()), "count"),
        "tcp_finite.solve_s": (per(t("tcp_finite.solve_finite_distribution"),
                                   s["tcp_finite.solve_finite_distribution"].calls), "s"),
        "tcp_finite.pdf_us_per_point": (
            1e6 * per(t("tcp_finite.finite_window_pdf"), w("tcp_finite.finite_window_pdf")),
            "us/point"),
        "window_sim.compare_histogram_s": (
            per(t("window_sim.compare_histogram"), s["window_sim.compare_histogram"].calls), "s"),
        "window_sim.events": (w(*sims.values()), "count"),
        "tree_gen.grow.edges_per_s": (per(w("tree_gen.grow"), t("tree_gen.grow")), "edges/s"),
        "tree_gen.measure_s": (per(t("tree_gen.measure"), s["tree_gen.measure"].calls), "s"),
        "tree_gen.enumerate_exact_s": (t("tree_gen.enumerate_exact"), "s"),
        "tree_gen.edges": (w("tree_gen.grow"), "count"),
        "tree_analytic.dist_table_s": (t("tree_analytic.DistTable.from_analytic"), "s"),
        "tree_analytic.marginals_s": (t(*marginals), "s"),
        "tree_analytic.closed_form_us_per_point": (1e6 * per(t(*closed), w(*closed)), "us/point"),
        "bench.self_s": (s["bench.solve"].self_time, "s"),
    }
    for v, name in ccdfs.items():
        m[f"tcp_infinite.ccdf_us_per_point.{v}"] = (1e6 * per(t(name), w(name)), "us/point")
    for k, name in sims.items():
        m[f"window_sim.simulate_us_per_event.{k}"] = (1e6 * per(t(name), w(name)), "us/event")
    for layer in TRACED_LAYERS:
        self_time = sum(v.self_time for n, v in s.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (self_time, "s")
    return m


def scaled(totals: dict[str, Totals], factor: float) -> defaultdict:
    """Span totals with their times scaled to the reference machine speed."""
    return defaultdict(Totals, {
        name: Totals(t.time * factor, t.self_time * factor, t.calls, t.work)
        for name, t in totals.items()
    })


def per_layer_metrics(tracer, probe, factor, module_ms) -> dict:
    """Median over traced solves of each span metric, plus import times."""
    solves = totals_by_run(tracer.spans)
    probes = totals_by_run(probe.spans)
    per_solve = [
        span_metrics(scaled(solves[i], factor), scaled(probes.get(i, {}), factor))
        for i in sorted(solves)
    ]
    out = {
        name: (median(m[name][0] for m in per_solve), unit, len(per_solve))
        for name, (_, unit) in per_solve[0].items()
    }
    for mod in MODULES:
        ms = module_ms[mod]
        out[f"{mod}.import_ms"] = (factor * median(ms), "ms", len(ms))
    return out


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tcpfluid" / "__init__.py").is_file():
        print(f"error: no tcpfluid sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only once the package sources are known to be there
    from workloads import WORKLOADS, golden_checks, golden_entry

    wl = WORKLOADS[args.workload]
    size = wl.sizes[args.scale]
    inputs = wl.inputs(args.seed, size)
    book = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

    if args.record_golden:
        if args.seed != DEFAULT_SEED:
            print(f"error: golden values belong to seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
        view = wl.golden(wl.solve(size, inputs, Tracer(False)))
        book.setdefault(args.scale, {})[args.workload] = golden_entry(view)
        GOLDEN.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
        print(f"recorded golden values of {args.workload} ({args.scale}) in {GOLDEN}")
        return 0
    golden = book.get(args.scale, {}).get(args.workload)

    # warm-up: a toy solve runs the same code paths, so lazy imports and
    # first-call set-up are paid before any solve is timed
    tiny = wl.sizes["tiny"]
    wl.solve(tiny, wl.inputs(args.seed, tiny), Tracer(False))

    ref = Reference()
    plain, tracer, probe = Tracer(False), Tracer(True), Tracer(True)
    walls, traced_walls, checks = [], [], []
    setup, module_ms = [], defaultdict(list)

    def solve(tr):
        gc.collect()
        t0 = time.perf_counter()
        results = tr.call("bench.solve", 0, wl.solve, size, inputs, tr)
        elapsed = time.perf_counter() - t0
        checks.extend(wl.check(size, results))
        if args.seed == DEFAULT_SEED:
            checks.extend(golden_checks(wl.golden(results), golden))
        ref.follow(elapsed)
        return results, elapsed

    def take_setup_sample():
        wall, ms = setup_sample(bool(args.trace))
        setup.append(wall)
        for mod, value in ms.items():
            module_ms[mod].append(value)
        ref.follow(wall)

    # each round is an untraced solve, with --trace 1 a traced solve, and
    # a set-up sample, each followed by the reference computation; rounds
    # repeat while a further one fits in --seconds
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        walls.append(solve(plain)[1])
        if args.trace:
            tracer.run_id = probe.run_id = len(traced_walls)
            results, elapsed = solve(tracer)
            traced_walls.append(elapsed)
            if wl.probe is not None:
                wl.probe(results, probe)
        take_setup_sample()
        now = time.perf_counter()
        solves = len(walls) + len(traced_walls)
        if solves >= MIN_SOLVES and (now - start) + (now - round_start) > args.seconds:
            break
    while len(setup) < SETUP_SAMPLES[args.scale]:
        take_setup_sample()

    factor = ref.factor()
    if args.trace:
        metrics = per_layer_metrics(tracer, probe, factor, module_ms)
        metrics["trace.overhead_ratio"] = (
            median(traced_walls) / median(walls), "ratio", len(traced_walls))
    else:
        events = wl.events(size)
        metrics = {
            "wall_s": (factor * median(walls), "s", len(walls)),
            "setup_s": (factor * median(setup), "s", len(setup)),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
            "events_per_s": (events / (factor * median(walls)), "events/s", len(walls)),
        }

    failed = [c for c in checks if not c.ok]
    for c in failed:
        print(f"FAILED check {c.layer}:{c.name}: {c.detail}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit:<9} n={n}")
    print(f"{'reference_s (machine speed, not scaled)':<44} "
          f"{median(ref.times):>16.6g} {'s':<9} n={len(ref.times)}")
    print(f"{'failed_frac':<44} {len(failed) / len(checks):>16.6g} {'1':<9} "
          f"{len(failed)} of {len(checks)} checks failed")
    for layer in sorted({c.layer for c in checks}):
        mine = [c for c in checks if c.layer == layer]
        print(f"{layer + '.checks_failed':<44} {sum(not c.ok for c in mine):>16d} "
              f"of {len(mine)} checks")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
