"""Run the benchmark over several seeds and summarize each metric's spread.

Run from the repository root, for example

    python3 perfbench/series.py --seeds 1-10 --out perfbench/results/new.json

Each (workload, seed) is one ``run.py`` invocation of ``run_seconds`` from
``BENCHMARK.json``.  For every metric the summary gives the median over the
seeds and the quartile spread ``(q3 - q1) / median`` of
``statistics.quantiles(values, n=4)``, next to the metric's bound.  The
output file also records the environment and every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = BENCHMARK["run_seconds"]
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    doc = {"environment": environment(), "run_seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for name in names:
        runs = []
        for seed in doc["seeds"]:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = time.monotonic() - t0
            runs.append(result)
            print(f"{name} seed {seed}: {result['elapsed_s']:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                              if k in bounds), flush=True)
        summary = {}
        for key, meta in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            summary[key] = {
                "unit": meta["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(key),
            }
            if key in bounds:
                print(f"  {key}: median {med:.6g} {meta['unit']}, spread {summary[key]['spread']:.3f} "
                      f"(bound {bounds[key]})")
        doc["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
            "runs": runs,
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
