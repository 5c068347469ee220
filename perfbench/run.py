"""Benchmark of braidfrac order queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one closed loop with one client: the next query starts
when the previous one returns.  Inputs come from ``gen.py`` seeded by
``--seed``; the library is imported from ``src/`` of the checkout.

Set-up builds the corpus in `SETUP_PARTS` equal parts, each with its own
generator stream, systems and join pools; each part is generated, parsed
and multiplied out, and ``setup_s`` is the median part time times the
number of parts.  So set-up is timed several times without building the
corpus twice, and the corpus holds as many distinct queries as a run
reaches.  Queries then cycle through the corpus for ``--seconds`` seconds,
and for at least `MIN_OPS` queries so the 99th percentile has ten samples
beyond it.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` blocks of queries run untraced and then again traced, for
``--seconds`` in all; the last line carries the per-layer metrics of the
traced pass and the tracing overhead (traced over untraced time of the same
queries).  Both passes must give the same answer digest.

The line before the last carries a ``record``: the digest of the first
`MIN_OPS` answers, failures by kind, oracle cross-checks, latency
percentiles per kind and the traffic histograms.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PARTS = 3
MIN_OPS = 1000
ORACLE_STRIDE = 16  # every 16th corpus item is cross-checked by the oracles
TRACE_BLOCK = 250  # queries per untraced/traced block of a traced run
OUT_DIR = os.path.join(HERE, "out")


def load_library() -> None:
    """Import braidfrac from the checkout's own sources, never from an
    installed copy."""
    init = os.path.join(SRC, "braidfrac", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no library sources at {init}")
    sys.path[:0] = [SRC, HERE]
    import braidfrac

    if os.path.abspath(braidfrac.__file__) != init:
        raise SystemExit(f"perfbench: imported braidfrac from {braidfrac.__file__}")


def _quantile_ms(lat: list[float], q: int) -> float:
    return statistics.quantiles(lat, n=100)[q - 1] * 1000


class Pass:
    """Answers, latencies and failures of one sequence of queries.  Every
    query is checked and every failure counted by kind; no exception stops
    the loop."""

    def __init__(self, workload, min_ops: int) -> None:
        from braidfrac.braids import StepBudgetExceeded
        from braidfrac.magnus import DegreeCapExceeded
        from workloads import EQUAL, CheckFailed, run_op

        self._limits = (StepBudgetExceeded, DegreeCapExceeded)
        self._equal_answer = EQUAL
        self._check_failed = CheckFailed
        self._run_op = run_op
        self.workload = workload
        self.min_ops = min_ops
        self.lat: list[float] = []
        self.kinds: dict[str, list[float]] = {}
        self.failures: dict[str, int] = {}
        self._digest = hashlib.sha256()
        self._compares = self._equal = 0

    def query(self, item, tracer=None) -> float:
        """Run one query; returns the clock reading when it ended."""
        clock = time.perf_counter
        t0 = clock()
        try:
            if tracer is None:
                answers = self._run_op(self.workload, item)
            else:
                answers = tracer.run_op(self._run_op, self.workload, item)
        except self._check_failed as exc:
            answers, key = None, f"wrong:{exc}"
        except self._limits as exc:
            answers, key = None, type(exc).__name__
        except Exception as exc:  # any other exception is a counted failure
            answers, key = None, f"error:{type(exc).__name__}"
        t1 = clock()
        if answers is None:
            self.failures[key] = self.failures.get(key, 0) + 1
        i = len(self.lat)
        self.lat.append(t1 - t0)
        self.kinds.setdefault(item.kind, []).append(t1 - t0)
        if i < self.min_ops:
            self._digest.update(f"{i}:{answers}\n".encode())
        if answers is not None and item.kind.endswith("invariance"):
            self._compares += 1
            self._equal += answers[0] == self._equal_answer
        return t1

    @property
    def attempted(self) -> int:
        return len(self.lat)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    @property
    def equal_share(self) -> float:
        return self._equal / self._compares if self._compares else 0.0


def measure(workload, items, seconds: float, min_ops: int) -> tuple[Pass, float]:
    """Closed loop over the corpus for `seconds` (and `min_ops` queries);
    returns the pass and its elapsed time."""
    p = Pass(workload, min_ops)
    start = time.perf_counter()
    while True:
        end = p.query(items[p.attempted % len(items)])
        if end - start >= seconds and p.attempted >= min_ops:
            return p, end - start


def measure_traced(workload, items, seconds: float, min_ops: int, tracer) -> tuple[Pass, Pass]:
    """Blocks of queries run untraced and then again traced, alternating
    for `seconds` in all, so both passes run the same queries and drifts in
    machine speed fall on both alike."""
    untraced, traced = Pass(workload, min_ops), Pass(workload, min_ops)
    start = time.perf_counter()
    while True:
        block = [items[(untraced.attempted + k) % len(items)] for k in range(TRACE_BLOCK)]
        for item in block:
            untraced.query(item)
        tracer.install()
        try:
            for item in block:
                end = traced.query(item, tracer)
        finally:
            tracer.uninstall()
        if end - start >= seconds and traced.attempted >= min_ops:
            return untraced, traced


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    corpus_size: int | None = None,
    min_ops: int = MIN_OPS,
) -> tuple[dict, dict]:
    """One benchmark run; returns (record, result line).  The keyword
    arguments shrink the run for the smoke test."""
    from workloads import WORKLOADS, build, oracle_check, traffic

    if workload_name not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload_name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    part_size = (corpus_size or workload.corpus_size) // SETUP_PARTS
    items = []
    setup_times = []
    for part in range(SETUP_PARTS):
        t0 = time.perf_counter()
        items += build(workload, seed, part, part_size)
        setup_times.append(time.perf_counter() - t0)

    # The corpus is benchmark scaffolding: keep it out of the collector's
    # scans so collection pauses in the loop come from the library's own
    # allocations.
    gc.collect()
    gc.freeze()
    if not trace:
        main, elapsed = measure(workload, items, seconds, min_ops)
        passes = {"untraced": main}
    else:
        from spans import Tracer

        tracer = Tracer()
        main, traced = measure_traced(workload, items, seconds, min_ops, tracer)
        passes = {"untraced": main, "traced": traced}

    sampled = items[::ORACLE_STRIDE]
    oracle_problems = [p for item in sampled for p in oracle_check(item)]
    digests = {name: p.digest for name, p in passes.items()}
    wrong = sum(
        n for p in passes.values() for k, n in p.failures.items()
        if k.startswith(("wrong:", "error:"))
    )
    correct = wrong == 0 and not oracle_problems and len(set(digests.values())) == 1

    record = {
        "workload": workload_name,
        "seed": seed,
        "digest": digests,
        "failures": {name: p.failures for name, p in passes.items()},
        "fail_ratio": main.failed / main.attempted,
        "oracle": {"sampled": len(sampled), "problems": oracle_problems[:5]},
        "setup_s": setup_times,
        "latency_ms": {
            f"p{q}": _quantile_ms(main.lat, q) for q in (50, 90, 95, 99)
        } | {"max": max(main.lat) * 1000},
        "kinds": {
            k: {"ops": len(v), "p50_ms": statistics.median(v) * 1000}
            for k, v in sorted(main.kinds.items())
        },
        "traffic": traffic(workload, items) | {"equal_share": main.equal_share},
    }
    if trace:
        from spans import layer_metrics

        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer).items()}
        metrics["trace.overhead_ratio"] = {
            "value": sum(traced.lat) / sum(main.lat),
            "unit": "ratio",
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload_name}-{seed}.bin"))
        attempted, failed = traced.attempted, traced.failed
    else:
        lat = main.lat
        metrics = {
            "ops_per_s": {
                "value": (main.attempted - main.failed) / elapsed,
                "unit": "1/s",
            },
            "op_ms.p50": {"value": statistics.median(lat) * 1000, "unit": "ms"},
            "op_ms.p99": {"value": _quantile_ms(lat, 99), "unit": "ms"},
            "setup_s": {
                "value": SETUP_PARTS * statistics.median(setup_times),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        attempted, failed = main.attempted, main.failed
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    load_library()
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
