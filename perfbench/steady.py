"""Run-to-run spread of the benchmark, the way its acceptance is judged.

    python3 perfbench/steady.py --workloads audit_small,nsmd_ladder --seeds 1-10

Runs ``run.py`` once per seed and workload, one process at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to the metric's bound. With ``--trace 1`` it prints
the median per-layer metrics and the self-time shares of the layers each
workload was chosen to stress. Raw results go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (layers whose self time is summed, the share of traced decide_s it must reach)
STRESSED = {
    "regression_knockout": (("stochorder", "maxflow"), 0.8),
    "association_orthant": (("checks", "uppersets"), 0.8),
    "nsmd_ladder": (("simplex",), 0.9),
}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            result, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
            results.append(result)
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: wall={wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds or k.startswith("trace.")), flush=True)
        path = os.path.join(ROOT, ".perfbench-out", f"steady-{workload}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(results, fh, indent=1)
        medians = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            medians[name] = median
            if len(values) < 2 or name not in bounds:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {name:14s} median {median:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {spread:.3f}  bound {bounds[name]}  {mark}")
        if args.trace:
            for name, value in medians.items():
                print(f"  {name:28s} {value:.6g}")
            layers, floor = STRESSED.get(workload, ((), 0))
            if layers:
                share = sum(medians[f"{l}.self_s"] for l in layers) / medians["trace.decide_s"]
                print(f"  self-time share of {'+'.join(layers)}: {share:.3f} "
                      f"(chosen for >= {floor})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
