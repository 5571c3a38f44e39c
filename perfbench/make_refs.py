"""Record the reference box masses the benchmark checks its estimates
against, from one long forward-simulation run per case.

    python3 perfbench/make_refs.py [--samples 400000] [--workers 2]

Writes perfbench/references.json.  Run once; the numbers are data of the
benchmark, not of any commit of the program.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from hardsphere.dynamics import Limit  # noqa: E402
from hardsphere.hierarchy import empirical_rho  # noqa: E402
from hardsphere.measures import get_measure  # noqa: E402

from cases import ALL_CASES, REFERENCES  # noqa: E402

REF_SEED = 20261017
CHUNK = 50_000


def _chunk(args):
    name, idx, count = args
    case = ALL_CASES[name]
    ms = get_measure(case.spec, case.domain)
    rng = np.random.default_rng(np.random.SeedSequence((REF_SEED, list(ALL_CASES).index(name), idx)))
    res = empirical_rho(ms, 1, case.t, case.box, Limit.FROM_FUTURE, count, rng)
    est = res.estimate
    return name, est.count, est.value * est.count, (est.stderr ** 2 * est.count + est.value ** 2) * est.count, \
        res.counter.degenerate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=400_000)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    jobs = [(name, idx, CHUNK) for name in ALL_CASES
            for idx in range(args.samples // CHUNK)]
    start = time.perf_counter()
    sums = {name: [0, 0.0, 0.0, 0] for name in ALL_CASES}
    with ProcessPoolExecutor(max_workers=args.workers) as ex:
        for name, count, s1, s2, degenerate in ex.map(_chunk, jobs):
            acc = sums[name]
            acc[0] += count
            acc[1] += s1
            acc[2] += s2
            acc[3] += degenerate
    out = {}
    for name, (count, s1, s2, degenerate) in sums.items():
        mean = s1 / count
        var = max(s2 / count - mean * mean, 0.0)
        out[name] = {"value": mean, "stderr": (var / count) ** 0.5,
                     "samples": count, "degenerate": degenerate}
    doc = {"about": "time-t box masses from forward simulation (empirical_rho), "
                    "pooled over chunks of independent trajectories",
           "seed": REF_SEED, "wall_s": round(time.perf_counter() - start, 1),
           "cases": out}
    REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
