"""powemb benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Every measurement happens in a fresh child process (``child.py``), single
threaded, with BLAS/OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics.  The measuring child runs the
workload as a closed loop with one caller: whole passes over the seeded ops,
back to back, until --seconds have passed and at least 100 ops ran.  Every
pass starts with the program's caches emptied, so it costs what one fresh
process costs.  Every op thus runs several times, and the timing metrics use
each op's fastest run, since a busy host only ever adds time:
``op_p50_ms``/``op_p90_ms`` are percentiles over the distinct ops of a pass
and ``ops_per_s`` is the number of distinct ops over the sum of their times.
``setup_s`` is, by the same argument, the fastest of SETUP_SAMPLES set-up-only
children and the measuring child.  ``peak_rss_mb`` is the child's ru_maxrss.

--trace 1 prints the per-layer metrics: one untraced pass and one traced
pass of the same seeded inputs, each in its own child; counts come from the
traced pass and the tracing overhead from comparing the two.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it restate every metric with its unit,
plus the failure ratio, the sample count and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_mix", "norm_batch_1d", "witness_sweep_1d", "grid_2d")
SETUP_SAMPLES = 10  # plus the measuring child's own set-up
DEADLINE_S = 170.0  # whole run, children included
HEAP_RETAIN_BYTES = 4_000_000_000
SPAN_DIR = ROOT / ".perfbench_out"


class ChildFailed(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # glibc keeps freed memory in the heap instead of handing it back to the
    # kernel.  Otherwise every large temporary (grid_2d's cell weights reach
    # 1 GB) is mapped and zeroed afresh on each use; that page-fault work was
    # a third of grid_2d's time and swung with the host's memory pressure.
    env["MALLOC_MMAP_THRESHOLD_"] = str(HEAP_RETAIN_BYTES)
    env["MALLOC_TRIM_THRESHOLD_"] = str(HEAP_RETAIN_BYTES)
    env.pop("PYTHONPATH", None)
    return env


def _run_child(args, mode, deadline, spans=None):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {mode} child")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{mode} child overran the run deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} child printed no result")
    return json.loads(lines[-1])


def _environment():
    import numpy  # only for its version; the children import their own

    version = "unknown"
    init = ROOT / "src" / "powemb" / "__init__.py"
    for line in init.read_text(encoding="utf-8").splitlines():
        if line.startswith("__version__"):
            version = line.split("=", 1)[1].strip().strip("\"'")
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "powemb": version}


def end_to_end(args, deadline):
    # Set-up samples straddle the measuring child, so one slow spell of the
    # host does not cover them all.
    setups = [_run_child(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES // 2)]
    res = _run_child(args, "measure", deadline)
    setups.append(res["setup_s"])
    setups += [_run_child(args, "setup", deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    metrics = {
        "setup_s": (min(setups), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "samples": res["attempted"],
        "distinct_ops": res["pass_ops"],
        "passes": res["attempted"] / res["pass_ops"],
        "fail_ratio": res["failed"] / res["attempted"],
        "known_misses": res["known_misses"],
        "wall_ops_per_s": res["attempted"] / res["wall_s"],
        "first_pass_s": res["pass_s"],
        "setup_samples_s": setups,
        "digest": res["digest"],
    }
    return res, metrics, notes


def per_layer(args, deadline):
    plain = _run_child(args, "pass", deadline)
    spans = SPAN_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    res = _run_child(args, "trace", deadline, spans=spans)
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    metrics["trace.pass_s"] = (plain["pass_s"], "s")
    metrics["trace.traced_pass_s"] = (res["pass_s"], "s")
    metrics["trace.overhead"] = (res["pass_s"] / plain["pass_s"] - 1.0, "ratio")
    notes = {"fail_ratio": res["failed"] / res["attempted"],
             "known_misses": res["known_misses"], "spans_file": str(spans),
             "untraced_correct": plain["correct"]}
    return res, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "powemb" / "__init__.py").is_file():
        print(f"run.py: {ROOT / 'src' / 'powemb'} not found; run from the root "
              "of a powemb checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            res, metrics, notes = per_layer(args, deadline)
        else:
            res, metrics, notes = end_to_end(args, deadline)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"environment {json.dumps(_environment())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    correct = res["correct"] and notes.get("untraced_correct", True)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
