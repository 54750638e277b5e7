"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads window tree] [--trace 0]
                               [--out results.json]

Runs the command of BENCHMARK.json once per workload and seed, one run at
a time, and prints per metric the median over seeds, the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4), and, for
end-to-end metrics, whether that spread stays within a third of the
metric's bound.  --out saves every run's result and the summary as JSON.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}

    runs, summary, steady = {}, {}, True
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  f"in {time.perf_counter() - t0:.1f} s", flush=True)
        summary[workload] = {}
        for name, first in runs[workload][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            mid = median(values)
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            spread = (q3 - q1) / mid if mid else 0.0
            row = {"median": mid, "q1": q1, "q3": q3, "spread": spread, "unit": first["unit"]}
            verdict = ""
            if name in bounds:
                row["bound"] = bounds[name]
                ok = spread < bounds[name] / 3
                steady = steady and ok
                verdict = "ok" if ok else "TOO WIDE"
            summary[workload][name] = row
            print(f"  {name:<44} median {mid:>14.6g} {first['unit']:<9} "
                  f"spread {spread:7.2%} {verdict}")
        all_correct = all(r["correct"] for r in runs[workload])
        print(f"  all runs correct: {all_correct}", flush=True)
        steady = steady and all_correct
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
