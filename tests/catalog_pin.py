"""The pinned numbers of the default catalog.

    PYTHONPATH=src python3 tests/catalog_pin.py    # rewrite what moved

Runs every default catalog experiment (``peaks``, ``translation``,
``nikolskij``, ``coherence``, ``dichotomy``, ``lacunary``, ``gagliardo``,
``sharp``, ``equivalences`` and ``oracle``), and ``peaks`` on a 2-D grid
(``peaks_2d``, which builds 2-D cell weights), at seed 0 and writes, for
each report in order, its id, its pass flag and every number in its JSON
form (rows, fits, details, manifests) to ``catalog_reference.json``.
``test_catalog_pin.py`` checks a run against that file: ids and flags
exactly, numbers within REL_TOL relative (ABS_TOL absolute, for values at
rounding level).  Running this script rewrites only the runs that are
missing from the file or no longer match it; every other line stays byte
for byte.  Run it only on a tree whose numbers are the accepted ones; a
change that moves a number states the largest drift when it rewrites a run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from powemb.suite import run_experiments

# Each pinned run's key in the reference: its experiment and overrides.
RUNS = {
    "peaks": ("peaks", {}),
    "translation": ("translation", {}),
    "nikolskij": ("nikolskij", {}),
    "coherence": ("coherence", {}),
    "peaks_2d": ("peaks", {"grid": {"d": 2, "L": 8, "N": 256}, "n_min": 2,
                           "n_max": 5, "j_values": [-1, 0]}),
    "dichotomy": ("dichotomy", {}),
    "lacunary": ("lacunary", {}),
    "gagliardo": ("gagliardo", {}),
    "sharp": ("sharp", {}),
    "equivalences": ("equivalences", {}),
    "oracle": ("oracle", {}),
}
REFERENCE = Path(__file__).with_name("catalog_reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12


def numbers(obj, path=""):
    """(path, value) of every int or float in a report's JSON form, in a
    fixed order; bools, strings and None are not numbers here."""
    if isinstance(obj, dict):
        return [item for key in sorted(obj, key=str)
                for item in numbers(obj[key], f"{path}/{key}")]
    if isinstance(obj, (list, tuple)):
        return [item for i, v in enumerate(obj) for item in numbers(v, f"{path}/{i}")]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [(path, obj)]
    return []


def snapshot():
    """{key: [[id, passed, [(path, number), ...]], ...]} of one run of RUNS."""
    return {key: [[r.experiment_id, r.passed, numbers(r.to_dict())]
                  for r in run_experiments([name], {name: kw}, seed=0)[name]]
            for key, (name, kw) in RUNS.items()}


def close(a, b) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def matches(reports, pinned) -> bool:
    """Whether one run's reports have the pinned ids and flags, and every
    number close to its pinned value."""
    return ([r[:2] for r in reports] == [r[:2] for r in pinned]
            and all(len(nums) == len(ref)
                    and all(close(v, w) for (_, v), w in zip(nums, ref))
                    for (_, _, nums), (_, _, ref) in zip(reports, pinned)))


def main() -> None:
    pinned = (json.loads(REFERENCE.read_text(encoding="utf-8"))
              if REFERENCE.exists() else {})
    runs = {name: pinned[name] if name in pinned and matches(reports, pinned[name])
            else [[rid, passed, [v for _, v in nums]] for rid, passed, nums in reports]
            for name, reports in snapshot().items()}
    # One report per line, so a moved number shows as a one-line diff; a
    # pinned line read back and dumped again is the same bytes.
    lines = [f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, reports))
             + "\n]" for name, reports in runs.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
