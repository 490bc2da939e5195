"""Regenerate ``reference.json``, the pinned outputs the benchmark checks.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are the accepted ones.  It
runs every op of the spectral universes once, and the seed-0 pass of
oracle_mix, and records each summary (for the oracle, a short hash of it
and the digest over the whole pass).  A change that is meant to keep the
outputs must leave this file as it is.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, summary_hash  # noqa: E402


def main() -> int:
    spectral = {}
    for name in ("norm_batch_1d", "witness_sweep_1d", "grid_2d"):
        scratch = {}
        for op in WORKLOADS[name](0, universe=True):
            spectral[op.key] = op.summarize(op.run(scratch))
            print(op.key, spectral[op.key]["passed"], flush=True)
    hashes = [summary_hash(op, op.summarize(op.run({})))
              for op in WORKLOADS["oracle_mix"](0)]
    digest = hashlib.sha256("".join(hashes).encode("ascii")).hexdigest()
    # One op per line, so a changed output shows as a one-line diff.
    rows = [f"{json.dumps(key)}: {json.dumps(val, sort_keys=True)}"
            for key, val in sorted(spectral.items())]
    oracle = json.dumps({"0": {"digest": digest, "ops": hashes}})
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write('{"oracle_mix": ' + oracle + ',\n"spectral": {\n')
        fh.write(",\n".join(rows) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
