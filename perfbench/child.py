"""One benchmark process: set up one workload, run it, check its outputs.

Started by ``run.py`` with a fresh interpreter per run, so program caches
start cold as in a ``powemb verify`` process.  Modes:

* ``setup``: import and generate the inputs, report the set-up time, exit;
* ``measure``: closed loop, one caller, whole cold passes back to back
  until --seconds have passed and at least MIN_OPS ops ran; reports each
  op's fastest run;
* ``pass``: exactly one pass (the untraced side of the tracing overhead);
* ``trace``: exactly one pass with the layer wrappers installed, so every
  count repeats exactly for a seed.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_PROBLEMS = 10
# A measuring run makes at least this many ops: a slow host fits only 4 cold
# passes of grid_2d (24 ops) into 20 s, and 5 give each op's fastest run one
# more try.
MIN_OPS = 100


def run_loop(wl, seconds, one_pass, tracer=None):
    """Run ops until the time is up (or one pass is done); return the tally.

    Every pass starts cold: the program's module caches and the workload's
    scratch are emptied between passes, outside the op timer, so each pass
    pays the cache builds that a fresh ``powemb verify`` process pays.
    """
    from workloads import cold_start, same

    ops = wl.ops
    n = len(ops)
    first = [None] * n  # summary of each op's first run
    count = [0] * n
    bad = [0] * n
    problems = []
    best = [math.inf] * n  # fastest repetition of each op
    attempted = 0
    scratch = {}
    pass_s = None
    perf = time.perf_counter
    start = perf()
    i = 0
    while True:
        # Stop only between passes: a cut pass would leave a seed-dependent
        # slice of the shuffled ops in the tally.
        if i % n == 0:
            if i:
                if pass_s is None:
                    pass_s = perf() - start
                if one_pass or (perf() - start >= seconds and i >= MIN_OPS):
                    break
            cold_start(scratch)
        k = i % n
        op = ops[k]
        if tracer is not None:
            tracer.op_id = i
        t0 = perf()
        try:
            res = op.run(scratch)
        except Exception as exc:  # a raising op is a failed op; keep going
            res = exc
        elapsed = perf() - t0
        best[k] = min(best[k], elapsed)
        attempted += 1
        count[k] += 1
        i += 1
        if isinstance(res, Exception):
            bad[k] += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"{op.key}: raised {type(res).__name__}: {res}")
            continue
        summary = op.summarize(res)
        if first[k] is None:
            first[k] = summary
        elif not same(summary, first[k]):
            bad[k] += 1
    wall = perf() - start
    return {"first": first, "count": count, "bad": bad, "problems": problems,
            "best": best, "attempted": attempted, "wall_s": wall, "pass_s": pass_s}


def check(wl, tally):
    """Compare with the reference and the pass rules; count failed ops."""
    from workloads import same, summary_hash

    failed = 0
    known_misses = 0
    problems = list(tally["problems"])
    hashes = []
    correct = not problems

    def note(text):
        nonlocal correct
        correct = False
        if len(problems) < MAX_PROBLEMS:
            problems.append(text)

    for op, summary, count, bad in zip(wl.ops, tally["first"], tally["count"],
                                       tally["bad"]):
        if count == 0:
            continue
        if summary is None:  # every run of this op raised
            failed += count
            continue
        ref = wl.reference.get(op.key)
        if op.inputs is not None:  # oracle ops are pinned by hash
            h = summary_hash(op, summary)
            hashes.append(h)
            mismatch = ref is not None and h != ref
        else:
            mismatch = ref is not None and not same(summary, ref)
        invariant = op.check(summary) if op.check is not None else None
        if mismatch:
            failed += count
            note(f"{op.key}: output differs from the reference")
        elif invariant:
            failed += count
            note(f"{op.key}: {invariant}")
        elif not summary["passed"]:
            failed += count
            if ref is not None and ref["passed"] is False:
                known_misses += count
            else:
                note(f"{op.key}: pass rule failed")
        else:
            failed += bad
            if bad:
                note(f"{op.key}: {bad} runs differ from its first run")
    digest = None
    if wl.name == "oracle_mix" and all(tally["count"]):
        digest = hashlib.sha256("".join(hashes).encode("ascii")).hexdigest()
        if wl.digest is not None and digest != wl.digest:
            note(f"oracle digest {digest} != pinned {wl.digest}")
    return {"correct": correct, "failed": failed, "known_misses": known_misses,
            "problems": problems, "digest": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "pass", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--spans", default=None, help="trace mode: span file to write")
    args = ap.parse_args(argv)

    if not (SRC / "powemb" / "__init__.py").is_file():
        print(f"child: no powemb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import powemb
    from workloads import build

    if Path(powemb.__file__).resolve().parent != (SRC / "powemb").resolve():
        print(f"child: imported powemb from {powemb.__file__}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    wl = build(args.workload, args.seed, reference)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    tally = run_loop(wl, args.seconds, args.mode != "measure", tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(check(wl, tally))
    best_ms = [b * 1e3 for b in tally["best"] if b != math.inf]
    out.update(attempted=tally["attempted"], wall_s=tally["wall_s"],
               pass_s=tally["pass_s"], pass_ops=len(wl.ops),
               ops_per_s=len(best_ms) / (sum(best_ms) / 1e3),
               op_p50_ms=statistics.median(best_ms),
               op_p90_ms=statistics.quantiles(best_ms, n=10)[8])
    if tracer is not None:
        out["layers"] = tracer.metrics(SRC / "powemb")
        if args.spans:
            tracer.write_spans(Path(args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
