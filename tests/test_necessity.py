"""The necessity rule NEC_STRICT_45 on each decision path, and pinned
digests over the verdict traces of seeded samples of all family pairs, of
Lebesgue and Holder targets and of one embedding matrix.

At p1 < p0 the dim index (d+gamma)/p must drop strictly.  Each pair below
sits on that boundary (equal dim indices, p1 < p0, the other necessary
conditions holding) and reaches the rule through a different route of the
oracle, so the whole trace, rule id and note, is pinned per route.
"""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from powemb.oracle import decide, embedding_matrix, lp_target
from powemb.params import SpaceSpec, in_ap_range, is_inf, validate
from powemb.suite import S, frac, random_spec

_NOTE = "violated strict necessity at p1 < p0: (d+g1)/p1 = {0} = {0} = (d+g0)/p0"


def _strict_no(dim):
    return {"outcome": "no",
            "trace": [{"rule": "NEC_STRICT_45", "note": _NOTE.format(dim)}]}


def _ap(spec):
    return not is_inf(spec.p) and in_ap_range(spec.p, spec.gamma, spec.d)


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


def _holder_source(rng, fam, d):
    """A random_spec source moved inside the Holder rule's range: gamma0 >= 0,
    and gamma0 < d(p0-1) for H/W sources."""
    spec = random_spec(rng, fam, d)
    hi = 4 * d if fam in "BF" else d * (spec.p - 1) - Fraction(1, 24)
    return validate(replace(spec, gamma=frac(rng, 0, hi)))


def _line(verdict):
    return json.dumps(verdict.to_dict(), sort_keys=True) + "\n"


# sha256 over the JSON verdicts of 1600 Lebesgue-target decisions (800
# through decide, 800 through lp_target), 400 Holder-target decisions and
# one 24 x 24 embedding_matrix (with its transitivity audit), rng seed 11.
TARGET_DIGEST = "8fa2dfbec1cbd6907f0fde23893098658ac66aa1d53ab40625d062ed20da255e"


def test_target_and_matrix_digest_pinned():
    rng = random.Random(11)
    digest = hashlib.sha256()
    for d in (1, 2):
        for fam in "BFHW":
            for _ in range(100):
                src = random_spec(rng, fam, d)
                p1 = frac(rng, Fraction(9, 8), 8)
                g1 = frac(rng, Fraction(1, 8) - d, 4 * d)
                tgt = validate(SpaceSpec(family="Lp", d=d, p=p1, gamma=g1))
                digest.update(_line(decide(src, tgt)).encode("utf-8"))
                digest.update(_line(lp_target(src, p1, g1)).encode("utf-8"))
            for _ in range(50):
                src = _holder_source(rng, fam, d)
                tgt = validate(SpaceSpec(family="Holder", d=d,
                                         s=frac(rng, Fraction(1, 8), 4)))
                digest.update(_line(decide(src, tgt)).encode("utf-8"))
    specs = [random_spec(rng, fam, 1) for fam in "BFHW" for _ in range(5)]
    specs += [validate(SpaceSpec(family="Lp", d=1, p=Fraction(2), gamma=Fraction(0))),
              validate(SpaceSpec(family="Lp", d=1, p=Fraction(4), gamma=Fraction(1))),
              S("W", 1, 2, gamma=0), S("H", 0, 3, gamma="-1/2")]
    report = embedding_matrix(specs)
    digest.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == TARGET_DIGEST
