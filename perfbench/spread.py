"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads forward series ...] [--seeds 10]
                                [--first-seed 1] [--seconds N] [--out FILE]

Runs each workload once per seed (untraced), then prints for every metric
the median, the quartiles and their distance as a share of the median
(statistics.quantiles, n=4), next to the metric's bound from
BENCHMARK.json.  With --out, writes the same numbers and every run's
result as JSON.  The seconds default to BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from metrics import spread  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            runs.append(res)
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": spread(values), "bound": bounds[name],
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {workload:12s} {name:14s} median {summary[name]['median']:12.5g} "
                  f"spread {summary[name]['spread']:.4f} (bound {bounds[name]}, "
                  f"third {bounds[name] / 3:.4f})", flush=True)
        report["workloads"][workload] = {"metrics": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
