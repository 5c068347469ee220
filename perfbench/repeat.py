"""Run the benchmark repeatedly and summarize the spread of each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --runs 10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this makes ``--runs`` untraced runs
with seeds 1..runs and one traced run (seed 1), each a separate process
started exactly as the benchmark command is, one after another.  It writes
every result line plus, per end-to-end metric, the median of the runs and
the distance between their first and third quartiles as a share of the
median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        untraced = [_one(spec, name, seed, 0) for seed in range(1, args.runs + 1)]
        traced = [_one(spec, name, 1, 1)]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in untraced]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[m["name"]] = {"median": med, "iqr_share": (q3 - q1) / med,
                                  "bound": m["bound"]}
        report["workloads"][name] = {
            "summary": summary, "untraced": untraced, "traced": traced,
        }
        print(name, json.dumps(summary), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
