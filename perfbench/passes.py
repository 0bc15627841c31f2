"""One workload pass in a fresh interpreter; prints a JSON summary last.

Started by run.py with PYTHONPATH pointing at the checkout's src/:

    python3 perfbench/passes.py --workload chain-sweep --seed 1 \
        --trace 0 --pass-id 0 --workdir perfbench/out/tmp

With --trace 1 the layer modules are wrapped for the pass, the spans are
written to the work directory when the pass ends, and the per-layer
metrics are part of the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads


def run(workload: str, seed: int, trace: bool, pass_id: int,
        workdir: str, root: str) -> dict:
    ops = workloads.make_ops(workload, seed, root, workdir)
    recorder = spans.Recorder(pass_id) if trace else None
    if recorder:
        recorder.install()
    results, latencies, errors = [], [], []
    try:
        clock = time.perf_counter
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                results.append(op.call())
                errors.append(None)
            except Exception:
                results.append(None)
                errors.append(traceback.format_exc(limit=3))
            latencies.append(clock() - t0)
        wall = clock() - start
    finally:
        if recorder:
            recorder.uninstall()
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for op, result, error in zip(ops, results, errors):
        try:
            reason = error or op.check(result)
        except Exception as exc:   # output too malformed to check
            reason = f"check raised {exc!r}"
        if reason:
            failures.append(f"{op.label}: {reason}")
    summary = {
        "run_s": wall,
        "call_s": latencies,
        "maxrss_mb": maxrss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
    }
    if recorder:
        layers = spans.layer_metrics(recorder.spans, wall)
        accounted = (sum(layers[f"{l}.self_s"] for l in spans.LAYERS)
                     + layers["harness.self_s"])
        if abs(accounted - wall) > 1e-6 * wall:
            raise RuntimeError(f"layer self times and harness time add up "
                               f"to {accounted} s, pass wall time {wall} s")
        summary["layers"] = layers
        path = os.path.join(workdir, f"spans-{pass_id}.jsonl")
        with open(path, "w") as fh:
            for rec in recorder.records():
                fh.write(json.dumps(rec) + "\n")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    summary = run(args.workload, args.seed, bool(args.trace), args.pass_id,
                  args.workdir, root)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
