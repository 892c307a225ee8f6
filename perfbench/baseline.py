"""Run the benchmark over several seeds and record a baseline point.

    python3 perfbench/baseline.py [--out perfbench/BENCH_baseline.json]

For every workload in ``BENCHMARK.json`` this runs ``run.py`` ``RUNS``
times with trace off, seeds 1, 2, ..., and once with trace on (seed 1),
one process at a time.  It prints, per end-to-end metric, the median and
the spread: the distance between the first and third quartile as a share of
the median, next to the metric's bound; for times, also the median and
spread of the same runs in seconds of this machine, not scaled by the
calibration load.  With ``--out`` it writes all of these, every run's values
and environment, and the traced run's per-layer metrics as one JSON file.
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
RUNS = 10
MACHINE = "this machine: "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    machine = {}
    for line in lines:
        if line.startswith(MACHINE):
            name, value, unit = line[len(MACHINE):].split()
            machine[name] = float(value)
    return {"env": env, **result, "this_machine": machine}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    point = {"command": " ".join(["python3", "perfbench/baseline.py",
                                  *sys.argv[1:]]),
             "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, bench["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        entry = {"runs": runs, "end_to_end": {}}
        print(f"{name}: correct {all(r['correct'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = {"unit": metric["unit"], **summarize(values)}
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {metric['name']:<16} median {stats['median']:.4g} "
                  f"{metric['unit']:<7} spread {stats['spread']:.3f} "
                  f"(bound {metric['bound']}, a third {metric['bound'] / 3:.3f})")
            if metric["unit"] in ("s", "Mpix/s"):
                machine = summarize([r["this_machine"][metric["name"]]
                                     for r in runs])
                stats["this_machine"] = machine
                print(f"  {'':<16} median {machine['median']:.4g} "
                      f"{metric['unit']:<7} spread {machine['spread']:.3f} "
                      "on this machine, unscaled")
        traced = run_once(name, 1, bench["run_seconds"], 1)
        entry["traced"] = traced
        print(f"  traced: correct {traced['correct']}, " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in traced["metrics"].items()))
        point["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
