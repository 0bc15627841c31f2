"""Benchmark of the ionchain pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The workloads are listed in BENCHMARK.json and perfbench/workloads.py.
Each pass of a workload runs in a fresh interpreter (perfbench/passes.py)
that calls `ionchain.cli.main(argv)` and the module-level functions
in-process; run.py starts one pass after another until --seconds
are used up and reports medians over the passes.

--trace 0 prints the end-to-end metrics. `setup_s` is the median time from
starting a fresh interpreter until `import ionchain` returns, over at
least SETUP_PROBES interpreters started between the passes.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (medians) and `trace.overhead_frac`, the
traced over the untraced median `run_s`, minus one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it give every
metric with its unit, the environment and the seed; the same record goes
to perfbench/out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("chain-sweep", "quantum-resonance", "classical-transfer")
SETUP_PROBES = 9
PASS_TIMEOUT_S = 170.0
# One BLAS thread per pass. On a shared 2-core x86-64 host a second thread
# made quantum-resonance about 1.5x faster but its per-pass times spread
# about twice as wide.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


ENV_PROBE = """
import ctypes, glob, json, os, sys
import numpy, scipy, ionchain
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        if hasattr(lib, name):
            threads = getattr(lib, name)()
            break
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
    "codata_version": ionchain.CODATA_VERSION,
}))
"""


def environment(env: dict, threads: int) -> dict:
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    record.update(nproc=len(os.sched_getaffinity(0)),
                  blas_threads_requested=threads,
                  machine=platform.machine(), git_commit=git_commit())
    return record


def setup_time(env: dict) -> float:
    """Seconds from starting an interpreter until `import ionchain` returns."""
    code = "import time, ionchain; print(time.monotonic())"
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout) - t0


def run_pass(workload: str, seed: int, trace: bool, pass_id: int,
             env: dict, workdir: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "passes.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--pass-id", str(pass_id),
           "--workdir", workdir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass {pass_id} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            env: dict, started: float) -> dict:
    """Passes until `seconds` are used up; at least one of each kind.

    Untraced runs also start one set-up probe before each pass, so that the
    probes spread over the run, and top them up to SETUP_PROBES at the end.
    """
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plain, traced, setup = [], [], []
    if not trace:
        setup_time(env)   # also writes the byte-code caches; not counted
    t0 = time.monotonic()
    pass_id = 0
    while True:
        if not trace:
            setup.append(setup_time(env))
        use_trace = trace and pass_id % 2 == 1
        budget = PASS_TIMEOUT_S - (time.monotonic() - started)
        result = run_pass(workload, seed, use_trace, pass_id, env, workdir,
                          budget)
        (traced if use_trace else plain).append(result)
        pass_id += 1
        elapsed = time.monotonic() - t0
        if trace and not traced:
            continue
        # stop when one more pass of the mean length would overrun
        if elapsed * (pass_id + 1) / pass_id > seconds:
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(setup_time(env))
    for name in os.listdir(workdir):
        if name.endswith(".cfg"):
            os.remove(os.path.join(workdir, name))
    return {"plain": plain, "traced": traced, "setup": setup}


def summarize(passes: dict, trace: bool) -> tuple[dict, int, int, list[str]]:
    plain, traced, setup = passes["plain"], passes["traced"], passes["setup"]
    counted = plain + traced
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    failures = [f for p in counted for f in p["failures"]]
    metrics: dict = {}
    if not trace:
        calls_ms = [c * 1e3 for p in plain for c in p["call_s"]]
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(p["run_s"] for p in plain),
            "call_p50_ms": percentile(calls_ms, 0.5),
            "call_p90_ms": percentile(calls_ms, 0.9),
            "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in plain),
        }
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    else:
        for name in traced[0]["layers"]:
            value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": spans.unit_of(name)}
        plain_run = statistics.median(p["run_s"] for p in plain)
        traced_run = statistics.median(p["run_s"] for p in traced)
        metrics["trace.overhead_frac"] = {
            "value": traced_run / plain_run - 1.0, "unit": "fraction"}
    return metrics, attempted, failed, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict, record: dict) -> tuple[dict, int, int]:
    started = time.monotonic()
    passes = measure(workload, seed, seconds, trace, env, started)
    metrics, attempted, failed, failures = summarize(passes, trace)
    n_calls = sum(len(p["call_s"]) for p in passes["plain"])
    print(f"# {workload}: seed {seed}, {len(passes['plain'])} untraced and "
          f"{len(passes['traced'])} traced passes, {n_calls} timed calls, "
          f"{len(passes['setup'])} set-up probes")
    for name, m in metrics.items():
        print(f"{workload:20s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:20s} {'op_fail_ratio':34s} "
          f"{failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} calls)")
    for failure in failures[:5]:
        print(f"# failed: {failure}")
    record["workloads"][workload] = {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": failures, "passes": passes, "seed": seed}
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ionchain benchmark (see module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "ionchain", "__init__.py"),
                   os.path.join("tests", "golden.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from an ionchain checkout",
                  file=sys.stderr)
            return 2

    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = child_env(threads)
    os.makedirs(OUT, exist_ok=True)
    record = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(env, threads),
              "workloads": {}}
    print("# environment " + json.dumps(record["environment"]))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics, attempted, failed = {}, 0, 0
    for workload in names:
        try:
            metrics, n_att, n_fail = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), env,
                record)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        attempted += n_att
        failed += n_fail
        if len(names) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{workload}.{k}": v
                                for k, v in metrics.items()})

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": all_metrics}
    record["result"] = result
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
