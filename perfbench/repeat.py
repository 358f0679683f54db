"""Run one workload of the benchmark once per seed and summarize the spread.

Run from the root of a tempocorr checkout:

    python3 perfbench/repeat.py --workload polytope --seeds 101-110 [--trace 0] [--out FILE]

For every metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, their distance as a
share of the median, which is how run-to-run steadiness is judged against
the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [
            *bench["command"], "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        provenance = next(
            json.loads(line[len("provenance "):]) for line in proc.stdout.splitlines() if line.startswith("provenance ")
        )
        runs.append({"seed": seed, "provenance": provenance, **result})
        line = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}; {line}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "run_seconds": bench["run_seconds"],
        "seeds": [r["seed"] for r in runs],
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names},
        "runs": runs,
    }
    if args.trace == 0:
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for n, s in summary["metrics"].items():
            s["bound"] = bounds[n]
    for n, s in summary["metrics"].items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        bound = f" (bound {s['bound']})" if "bound" in s else ""
        print(f"{n}: median {s['median']:.6g}, spread {spread}{bound}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
