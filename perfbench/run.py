#!/usr/bin/env python3
"""Closed-loop benchmark of the cliquelab engines.

Run from the repository root:

    python3 perfbench/run.py --workload trifree-detect --seed 1 \
        --seconds 28 --trace 0

One client, one process, no threads.  Set-up generates, writes and
parses the workload's instances from ``--seed`` and fixes each expected
answer; then ops run back to back for ``--seconds`` seconds, rotating over
the instances, and every answer is checked.  Times are reported in
reference seconds, scaled by the host speed measured between ops
(``reference.py``).  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` each instance visit runs one untraced and one traced op and
the JSON holds the per-layer metrics, while the spans are written to
``perfbench/out/``.  See README.md next to this file.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Share of the timed loop spent setting instances up again, so that the
# set-up samples are spread over the whole run like the op samples.
RESETUP_SHARE = 0.2

# Ops run (and checked) before timing starts, so that imports, numpy's
# first calls and CPU caches are warm for the first timed op.
WARMUP_OPS = 2

END_TO_END_UNITS = {"op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s",
                    "setup_s": "s", "ok_frac": "frac", "peak_rss_mb": "MB"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def set_up(workload, seed: int, workdir: str):
    """Generate, write and parse one instance, as the CLI would read it.

    Returns the parsed graphs and the set-up timings of this instance.
    """
    from cliquelab import io as graphio
    t0 = time.perf_counter()
    made = workload.make(seed)
    t1 = time.perf_counter()
    paths = [os.path.join(workdir, f"{seed}-{i}.txt")
             for i in range(len(made))]
    for obj, path in zip(made, paths):
        with open(path, "w") as fh:
            graphio.write(obj, fh)
    t2 = time.perf_counter()
    graphs = []
    for path in paths:
        with open(path) as fh:
            graphs.append(graphio.parse(fh))
    t3 = time.perf_counter()
    timing = {"generate.s": t1 - t0, "io.write_s": t2 - t1,
              "io.parse_s": t3 - t2,
              "io.bytes": sum(os.path.getsize(p) for p in paths)}
    return graphs, timing


class Instance:
    """One parsed instance with its expected answer."""

    def __init__(self, workload, seed: int, set_up_timed):
        self.seed = seed
        self.graphs = set_up_timed(seed)
        t = time.perf_counter()
        self.expected = workload.expect(self.graphs)
        self.oracle_s = time.perf_counter() - t


class Loop:
    """Runs ops and keeps every timed op's time and every op's verdict."""

    def __init__(self, workload, speed):
        self.workload = workload
        self.speed = speed       # HostSpeed: keeps the timed ops' seconds
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0

    def run_op(self, inst, probe, timed: bool = True) -> float:
        """Run and check one op.  A warm-up op (not ``timed``) counts as
        attempted, and may fail, but gives no timing sample."""
        start = time.perf_counter()
        try:
            result = probe.call("op", self.workload.op, inst.graphs, probe)
        except Exception as exc:  # a raising op is a failed op, kept timed
            elapsed = time.perf_counter() - start
            ok = False
            print(f"op raised {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
            t = time.perf_counter()
            ok = self.workload.check(result, inst.expected, inst.graphs)
            self.check_s += time.perf_counter() - t
        if timed:
            self.speed.add("op", elapsed)
        self.attempted += 1
        self.failed += not ok
        return elapsed


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_cost"):
        return "1/cost"
    return "count"


def _percentile(xs, q):
    """Nearest-rank percentile: the ceil(q * n)-th smallest of xs."""
    return sorted(xs)[max(0, math.ceil(q * len(xs)) - 1)]


def run(args) -> dict:
    from reference import REF_NOMINAL_S, HostSpeed
    from tracing import Tracer, Untraced, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    speed = HostSpeed()
    loop = Loop(workload, speed)
    untraced, tracer = Untraced(), Tracer()
    paired = [0.0, 0.0]          # untraced, traced seconds over op pairs
    setups = []

    def set_up_timed(seed):
        graphs, timing = set_up(workload, seed, workdir)
        setups.append(timing)
        speed.add("setup", timing["generate.s"] + timing["io.write_s"]
                  + timing["io.parse_s"])
        return graphs

    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        instances = []
        for i in range(workload.instances):
            speed.mark()
            instances.append(
                Instance(workload, args.seed * 1000 + i, set_up_timed))
        resetup_s = 0.0
        # Keep the instances out of every later collection: a CLI user
        # holds one graph, so an op's garbage collection must not walk
        # all the instances the benchmark keeps.
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + args.seconds
        for visit in range(WARMUP_OPS):
            loop.run_op(instances[visit % len(instances)], untraced,
                        timed=False)
        visit = 0
        while visit == 0 or time.perf_counter() < deadline:
            inst = instances[visit % len(instances)]
            visit += 1
            speed.mark()
            if args.trace:
                paired[0] += loop.run_op(inst, untraced)
                tracer.op_id = visit
                with tracer.patched():
                    paired[1] += loop.run_op(inst, tracer)
            else:
                loop.run_op(inst, untraced)
            if resetup_s < RESETUP_SHARE * sum(speed.wall("op")):
                t = time.perf_counter()
                set_up_timed(inst.seed)
                resetup_s += time.perf_counter() - t
        speed.mark()
        gc.unfreeze()

    if args.trace:
        metrics = layer_metrics(tracer)
        metrics["trace.slowdown_frac"] = paired[1] / paired[0] - 1.0
        oracle_s = sum(i.oracle_s for i in instances) + loop.check_s
        metrics["oracles.check_s"] = oracle_s / loop.attempted
        for key in setups[0]:
            metrics[key] = statistics.median(s[key] for s in setups)
        metrics["host.ref_s"] = statistics.fmean(speed.refs)
        tracer.write(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.tsv"))
        units = {}
    else:
        op_s = speed.scaled("op")
        metrics = {
            "op_s.p50": statistics.median(op_s),
            "op_s.p90": _percentile(op_s, 0.9),
            "ops_per_s": len(op_s) / sum(op_s),
            "setup_s": statistics.median(speed.scaled("setup")),
            "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        beyond = sum(1 for x in op_s if x > metrics["op_s.p90"])
        print(f"{args.workload}: {loop.attempted} ops ({len(op_s)} timed, "
              f"{beyond} beyond p90), {len(setups)} set-ups, "
              f"{loop.failed} failed; mean host reference "
              f"{statistics.fmean(speed.refs):.6f} s (nominal "
              f"{REF_NOMINAL_S}); wall op_s.p50 "
              f"{statistics.median(speed.wall('op')):.6f} s",
              file=sys.stderr)
    return {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": units.get(k, _unit(k))}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cliquelab", "__init__.py")):
        print(f"perfbench: no cliquelab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
