"""Acceptance suite: the exit criteria, one test per criterion.

Each test pins the stated tolerances and prints one pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to see them inline).
"""

import math
import time

from powemb.lpengine import Grid, radial_weighted_lp
from powemb.suite import (
    check_norm_equivalences,
    coherence_suite,
    curated_pairs,
    oracle_random_suite,
    random_field_batch,
    sharp_case_fidelity,
)
from powemb.verify import (
    check_gagliardo,
    check_lacunary_qnecessity,
    check_nikolskij,
    check_peak_scaling,
    check_translation_scaling,
)
from powemb.witnesses import log_singularity, random_band_limited


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


CRITERION3_SETS = [(2, 0.0), (2, 0.5), (4, 1.0), (1.5, -1 / 3)]


def test_criterion_1_oracle_completeness_soundness():
    """10,000 random rational tuples per family pair; no Besov Unknown,
    reflexivity, transitivity on 2,000 triples, redundancy implications,
    monotonicity.  Runtime under 10 s."""
    t0 = time.perf_counter()
    rep = oracle_random_suite(seed=0, count=40000, triples=2000)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    if not rep.passed:
        print(rep.details["failures"][:10])
    report(1, f"oracle completeness/soundness ({elapsed:.1f}s)", ok)


def test_criterion_2_sharp_case_fidelity():
    """On the sharp line with p0 < p1: Besov flips exactly with q0 <= q1,
    the F-scale embeds for all 9 combinations of q0, q1 in {1, 2, inf};
    200-point exact-rational parameter sample."""
    rep = sharp_case_fidelity(seed=0, count=200)
    if not rep.passed:
        print(rep.details["failures"][:10])
    report(2, "sharp-case fidelity", rep.passed and rep.details["checked"] == 1800)


def test_criterion_3_peak_scaling_exponent():
    """Block-pair norms: slope within 0.02 of d - (d+gamma)/p for
    (p, gamma) in the stated set, j in {-1, 0, 1}, n = 3..7 on the default
    2^14-point grid.  Runtime under 30 s."""
    t0 = time.perf_counter()
    ok = True
    for p, gamma in CRITERION3_SETS:
        for j in (-1, 0, 1):
            rep = check_peak_scaling(p, gamma, j, n_range=range(3, 8),
                                     tolerance=0.02)
            if not rep.passed:
                print(f"peaks p={p} gamma={gamma} j={j}: slope "
                      f"{rep.fit.slope} vs {rep.predicted_exponent}")
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(3, f"peak scaling exponents ({elapsed:.1f}s)", ok)


def test_criterion_4_translation_exponent():
    """Translate-by-lambda norms: slope within 0.05 of gamma/p for
    gamma in {-1/2, 0, 1, 2}, p in {2, 4}, lambda = 4..64."""
    ok = True
    for gamma in (-0.5, 0.0, 1.0, 2.0):
        for p in (2, 4):
            rep = check_translation_scaling(p, gamma,
                                            lambda_values=(4, 8, 16, 32, 64),
                                            tolerance=0.05)
            if not rep.passed:
                print(f"translation p={p} gamma={gamma}: slope "
                      f"{rep.fit.slope} vs {rep.predicted_exponent}")
                ok = False
    report(4, "translation exponents", ok)


def test_criterion_5_nikolskij_boundedness():
    """For 5 random band-limited bases and the ordered (p, gamma) pairs of
    criterion 3 that satisfy the two-weight condition, the normalized ratio
    R(t)/t^{|alpha|+delta} varies by at most a factor 10 over t in [1, 16],
    alpha in {0, (1)}."""
    # derive the valid ordered pairs independently of the implementation
    valid = []
    for p0, g0 in CRITERION3_SETS:
        for p1, g1 in CRITERION3_SETS:
            if (p0, g0) == (p1, g1):
                continue
            if g1 / p1 <= g0 / p0 and (1 + g1) / p1 < (1 + g0) / p0:
                valid.append((p0, g0, p1, g1))
    assert len(valid) == 5
    grid = Grid(1, 16.0, 2 ** 14)
    ok = True
    for seed in range(5):
        base = random_band_limited(grid, 500 + seed, band=1.0)
        for p0, g0, p1, g1 in valid:
            for alpha in ((0,), (1,)):
                rep = check_nikolskij(base, p0, g0, p1, g1, alpha=alpha,
                                      t_values=(1, 2, 4, 8, 16))
                if not rep.passed:
                    print(f"nikolskij {p0},{g0}->{p1},{g1} alpha={alpha}: "
                          f"spread {rep.details['normalized_spread']}")
                    ok = False
    report(5, "Nikolskij-type boundedness", ok)


def test_criterion_6_log_singularity_dichotomy():
    """Sharp-case profile at d=1, p0=2, gamma0=0, p1=3/2, gamma1=-1/4:
    source quadrature converges (< 1% norm change over the last two
    eps-refinements), target classified Diverged.  Runtime under 5 s."""
    t0 = time.perf_counter()
    prof = log_singularity(2, 0, 1.5, 1)
    src = radial_weighted_lp(prof, 2.0, 0.0)
    tgt = radial_weighted_lp(prof, 1.5, -0.25)
    tail = [x ** 0.5 for x in src.history[-3:]]
    rel = [abs(b - a) / b for a, b in zip(tail, tail[1:])]
    elapsed = time.perf_counter() - t0
    ok = ((not src.diverged) and max(rel) < 0.01 and tgt.diverged
          and elapsed < 5.0)
    report(6, f"log-singularity dichotomy ({elapsed:.2f}s)", ok)


def test_criterion_7_lacunary_q_necessity():
    """Sharp line with q0 = inf, q1 = 1, unit coefficients, N = 4..32:
    target/source norm ratio slope in log N within 0.1 of 1/q1 - 1/q0 = 1."""
    rep = check_lacunary_qnecessity(
        2, 0, math.inf, 4, 0, 1, 1, 0.75,
        n_values=(4, 6, 8, 12, 16, 24, 32), tolerance=0.1,
    )
    if not rep.passed:
        print(f"lacunary slope {rep.fit.slope} vs {rep.predicted_exponent}")
    report(7, "lacunary q-necessity", rep.passed)


def test_criterion_8_norm_machinery_equivalences():
    """Batches of 100 random band-limited fields, gamma in {0, 1/2}:
    lifting, differentiation, both sandwich orderings and W=H at s=m=1,
    p=2, each within the ratio window [1/10, 10]; interpolation-inequality
    batch cap 10."""
    ok = True
    for rep in check_norm_equivalences(8, gammas=(0.0, 0.5), count=100):
        if not rep.passed:
            print(f"equivalence failed: {rep.experiment_id} {rep.details}")
            ok = False
    fields = random_field_batch(Grid(1, 16.0, 2 ** 12), 100, seed=9)
    for rep in check_gagliardo(fields, 0, 2, 0.5, 2, 2, (0.0, 0.5), cap=10.0):
        if not rep.passed:
            print(f"gagliardo failed: {rep.details}")
            ok = False
    report(8, "norm-machinery equivalences", ok)


def test_criterion_9_verdict_experiment_coherence():
    """Twenty curated pairs spanning every rule id: failure demonstrations
    succeed on each DoesNotEmbed, bounded-ratio checks succeed on each
    Embeds, and every Unknown is listed explicitly."""
    pairs = curated_pairs()
    assert len(pairs) == 20
    reports = coherence_suite()
    ok = all(r.passed for r in reports)
    summary = reports[-1]
    assert summary.kind == "coherence"
    ok = ok and not summary.details["rules_missing"]
    # the Unknown pairs are listed by name, never silently decided
    ok = ok and summary.details["unknown_pairs"] == ["triebel_pswap_open"]
    if not ok:
        for r in reports:
            if not r.passed:
                print(f"coherence failure: {r.experiment_id} {r.details}")
    report(9, "verdict-experiment coherence", ok)
