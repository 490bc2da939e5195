"""The necessity rule NEC_STRICT_45 on each decision path, and a pinned
digest over the verdict traces of a seeded sample of all family pairs.

At p1 < p0 the dim index (d+gamma)/p must drop strictly.  Each pair below
sits on that boundary (equal dim indices, p1 < p0, the other necessary
conditions holding) and reaches the rule through a different route of the
oracle, so the whole trace, rule id and note, is pinned per route.
"""

import hashlib
import json
import random

import pytest

from powemb.oracle import decide, lp_target
from powemb.params import ap_gate
from powemb.suite import S, random_spec

_NOTE = "violated strict necessity at p1 < p0: (d+g1)/p1 = {0} = {0} = (d+g0)/p0"


def _strict_no(dim):
    return {"outcome": "no",
            "trace": [{"rule": "NEC_STRICT_45", "note": _NOTE.format(dim)}]}


def _ap(spec):
    return ap_gate(spec.p, spec.gamma, spec.d)


@pytest.mark.parametrize("src, tgt, route, dim", [
    (S("H", "11/3", 6, gamma=4), S("H", "2/3", 3, gamma="3/2"),
     "inside A_p", "5/6"),
    (S("H", "17/5", 3, gamma="7/2"), S("H", -3, "4/3", gamma=1),
     "outside A_p", "3/2"),
    (S("B", 3, 3, 2, gamma=1), S("W", 2, "9/4", gamma="1/2"),
     "cross-family", "2/3"),
    (S("B", 1, 5, "29/4", gamma=1), S("Lp", 0, "5/2", gamma=0),
     "Lebesgue target", "2/5"),
], ids=["inside_ap", "outside_ap", "cross_family", "lebesgue_target"])
def test_strict_dim_necessity_trace(src, tgt, route, dim):
    same_family = route in ("inside A_p", "outside A_p")
    assert (src.family == tgt.family) == same_family
    if same_family:
        assert (_ap(src) and _ap(tgt)) == (route == "inside A_p")
    assert decide(src, tgt).to_dict() == _strict_no(dim)
    if route == "Lebesgue target":
        assert lp_target(src, tgt.p, tgt.gamma).to_dict() == _strict_no(dim)


# sha256 over the JSON verdicts of 3200 decisions: 100 random_spec pairs
# per ordered family pair (B, F, H, W) in d = 1 and d = 2, rng seed 7.
TRACE_DIGEST = "f50a0d4497a8045b34f54b8edfb6129043ec90e2411eefc64dbc2368f3687ada"


def test_random_trace_digest_pinned():
    rng = random.Random(7)
    digest = hashlib.sha256()
    for d in (1, 2):
        for fam0 in "BFHW":
            for fam1 in "BFHW":
                for _ in range(100):
                    a, b = random_spec(rng, fam0, d), random_spec(rng, fam1, d)
                    line = json.dumps(decide(a, b).to_dict(), sort_keys=True)
                    digest.update((line + "\n").encode("utf-8"))
    assert digest.hexdigest() == TRACE_DIGEST
