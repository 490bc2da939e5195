"""Randomized oracle suites, batch norm checks, and the experiment catalog.

Everything here is deterministic given a seed.  The catalog drives the CLI
``verify`` subcommand; the same functions back the acceptance tests.
"""

from __future__ import annotations

import inspect
import math
import random as _random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import norms, verify
from .lpengine import Grid
from .oracle import (
    EMBEDS,
    NO,
    UNKNOWN,
    ALL_RULE_IDS,
    decide,
    decide_besov,
    decide_triebel,
)
from .params import (INF, RangeError, SpaceSpec, indices, is_inf, spec_from_dict,
                     spec_to_dict, validate)
from .verify import (
    ExperimentReport,
    check_embedding_bounded,
    check_gagliardo,
    check_lacunary_qnecessity,
    check_nikolskij,
    check_peak_scaling,
    check_translation_scaling,
    default_grid,
    demonstrate_failure,
)
from .witnesses import log_singularity, random_band_limited
from .lpengine import radial_weighted_lp


def S(family, s=0, p=None, q=None, gamma=None, d=1) -> SpaceSpec:
    """Shorthand spec builder accepting ints, floats, strings and 'inf'."""
    given = {"p": p, "q": q, "gamma": gamma}
    return spec_from_dict({"family": family, "dim": d, "s": s,
                           **{k: v for k, v in given.items() if v is not None}})


# ---------------------------------------------------------------------------
# Random rational samplers
# ---------------------------------------------------------------------------

_DENS = (1, 2, 3, 4, 5, 6, 8, 12)


def frac(rng, lo, hi) -> Fraction:
    # exact integer ceil/floor of lo*den and hi*den (int or Fraction bounds),
    # so sampled values never leak past exact-range floors
    den = _DENS[rng.randrange(len(_DENS))]
    lo_n = -(-lo.numerator * den // lo.denominator)
    hi_n = hi.numerator * den // hi.denominator
    if hi_n < lo_n:
        hi_n = lo_n
    return Fraction(rng.randint(lo_n, hi_n), den)


@lru_cache(maxsize=8)
def _spec_rows(d: int):
    """random_spec's ranges of p, q, s and gamma: for each of ``_DENS``, the
    tuple of every Fraction ``frac`` can draw with that denominator."""
    def rows(lo, hi):
        return tuple(tuple(Fraction(n, den) for n in range(
            -(-lo.numerator * den // lo.denominator),
            hi.numerator * den // hi.denominator + 1)) for den in _DENS)

    return (rows(Fraction(9, 8), 8), rows(1, 8), rows(-4, 4),
            rows(Fraction(1 - 8 * d, 8), 4 * d))


def _draw(rng, rows) -> Fraction:
    # the draws of frac(rng, lo, hi): randrange(len(row)) and randint(lo_n,
    # hi_n) both make one _randbelow(hi_n - lo_n + 1)
    row = rows[rng.randrange(len(rows))]
    return row[rng.randrange(len(row))]


def random_spec(rng, family: str, d: int = 1) -> SpaceSpec:
    p_rows, q_rows, s_rows, gamma_rows = _spec_rows(d)
    if family == "B" and rng.random() < 0.08:
        p = INF
    else:
        p = _draw(rng, p_rows)
    q = INF if rng.random() < 0.12 else _draw(rng, q_rows)
    gamma = _draw(rng, gamma_rows)
    if family == "W":
        s = Fraction(rng.randrange(5))
    else:
        s = _draw(rng, s_rows)
    return validate(SpaceSpec(
        family=family, d=d, s=s, p=p,
        q=q if family in ("B", "F") else None,
        gamma=gamma,
    ))


def sharp_besov_pair(rng, d: int = 1):
    """A random pair exactly on the sharp line with p0 < p1 and conditions
    gamma1/p1 <= gamma0/p0 (hence a strict dim-index drop).

    The weight index carries over to the larger p1, so gamma0 is sampled
    above -d*p0/p1 to keep gamma1 = (gamma0/p0 - drop) * p1 above -d.
    """
    p0 = frac(rng, Fraction(9, 8), 4)
    p1 = p0 + frac(rng, Fraction(1, 4), 4)
    gamma0 = frac(rng, -Fraction(d) * p0 / p1 + Fraction(1, 8), 3 * d)
    w0 = gamma0 / p0
    drop_max = w0 + Fraction(d) / p1 - Fraction(1, 16)
    drop = frac(rng, 0, max(Fraction(0), drop_max))
    gamma1 = (w0 - drop) * p1
    s1 = frac(rng, -3, 3)
    dim0 = (d + gamma0) / p0
    dim1 = (d + gamma1) / p1
    s0 = s1 + dim0 - dim1
    return (p0, gamma0, s0), (p1, gamma1, s1)


# ---------------------------------------------------------------------------
# Criterion-style oracle suites
# ---------------------------------------------------------------------------


def oracle_random_suite(seed: int = 0, count: int = 10000,
                        triples: int = 2000) -> ExperimentReport:
    """Randomized completeness/soundness suite over all four family scales.

    Checks: (a) the Besov oracle never answers Unknown, (b) reflexivity,
    (c) transitivity soundness on random same-family triples, (d) the two
    redundancy implications, (e) monotonicity of Embeds in s0, s1, q0, q1.
    """
    rng = _random.Random(seed)
    failures: List[str] = []
    counts = {"pairs": 0, "unknown_besov": 0, "embeds": 0}

    for fam in ("B", "F", "H", "W"):
        for _ in range(count // 4):
            a, b = random_spec(rng, fam), random_spec(rng, fam)
            v = decide(a, b)
            counts["pairs"] += 1
            if v.outcome == EMBEDS:
                counts["embeds"] += 1
            if fam == "B" and v.outcome == UNKNOWN:
                counts["unknown_besov"] += 1
                failures.append(f"besov Unknown: {a} -> {b}")
            # (b) reflexivity on the sampled specs
            if not decide(a, a).embeds:
                failures.append(f"reflexivity failed: {a}")
            # (e) monotonicity from an Embeds verdict: raise s0, lower q0,
            # lower s1, raise q1.  Sobolev smoothness stays a nonnegative
            # integer so the perturbed specs remain in the same family.
            if v.outcome == EMBEDS:
                if fam == "W":
                    ds0 = Fraction(rng.randrange(3))
                    ds1 = Fraction(rng.randint(0, int(b.s)))
                else:
                    ds0, ds1 = frac(rng, 0, 2), frac(rng, 0, 2)
                a2 = SpaceSpec(a.family, a.d, a.s + ds0,
                               a.p, a.q if a.q is None or is_inf(a.q)
                               else max(Fraction(1), a.q - frac(rng, 0, 2)),
                               a.gamma)
                b2 = SpaceSpec(b.family, b.d, b.s - ds1,
                               b.p, INF if b.q is not None and rng.random() < 0.3
                               else b.q, b.gamma)
                if not decide(validate(a2), validate(b2)).embeds:
                    failures.append(f"monotonicity failed: {a2} -> {b2}")

    # (c) transitivity soundness
    for fam in ("B", "F", "H", "W"):
        for _ in range(triples // 4):
            a, b, c = (random_spec(rng, fam) for _ in range(3))
            vab, vbc = decide(a, b), decide(b, c)
            if vab.embeds and vbc.embeds and decide(a, c).outcome == NO:
                failures.append(f"transitivity violated: {a} -> {b} -> {c}")

    # (d) redundancy implications in exact arithmetic
    for _ in range(count // 4):
        a, b = random_spec(rng, "B"), random_spec(rng, "B")
        i0, i1 = indices(a), indices(b)
        if a.p < b.p and i1.weight_index <= i0.weight_index:
            if not i1.dim_index < i0.dim_index:
                failures.append(f"dim-redundancy failed: {a} {b}")
        if b.p < a.p and i1.dim_index < i0.dim_index:
            if not i1.weight_index < i0.weight_index:
                failures.append(f"weight-redundancy failed: {a} {b}")

    return ExperimentReport(
        experiment_id=f"oracle_random_suite[seed={seed},count={count}]",
        kind="oracle_suite",
        passed=not failures,
        predicted_formula="no Unknown on the B-scale; reflexive; transitive; "
                          "redundancies and monotonicity hold",
        details={"counts": counts, "failures": failures[:20],
                 "n_failures": len(failures)},
        seed=seed,
    )


def sharp_case_fidelity(seed: int = 0, count: int = 200) -> ExperimentReport:
    """Sharp-line behavior: Besov flips exactly with the q-comparison while
    the F-scale embeds for every (q0, q1) combination."""
    rng = _random.Random(seed)
    failures = []
    qs = (Fraction(1), Fraction(2), INF)
    checked = 0
    for _ in range(count):
        (p0, g0, s0), (p1, g1, s1) = sharp_besov_pair(rng)
        for q0 in qs:
            for q1 in qs:
                vb = decide_besov(
                    S("B", s0, p0, q0, g0), S("B", s1, p1, q1, g1)
                )
                want = q0 <= q1
                if vb.embeds != want:
                    failures.append(
                        f"besov sharp q flip wrong: q0={q0} q1={q1} "
                        f"p0={p0} p1={p1} g0={g0} g1={g1}"
                    )
                vf = decide_triebel(
                    S("F", s0, p0, q0, g0), S("F", s1, p1, q1, g1)
                )
                if not vf.embeds:
                    failures.append(
                        f"triebel sharp should embed for all q: q0={q0} q1={q1}"
                    )
                checked += 1
    return ExperimentReport(
        experiment_id=f"sharp_case_fidelity[seed={seed},count={count}]",
        kind="oracle_suite",
        passed=not failures,
        predicted_formula="Embeds iff q0 <= q1 on the Besov scale; always on F",
        details={"checked": checked, "failures": failures[:20],
                 "n_failures": len(failures)},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Batch norm-equivalence checks
# ---------------------------------------------------------------------------


BATCH_GRID = Grid(1, 16.0, 2 ** 12)  # of norm equivalences and Gagliardo


def random_field_batch(grid: Grid, count: int, seed: int):
    return [random_band_limited(grid, seed * 100003 + i, band=96.0)
            for i in range(count)]


def _window_report(experiment_id, ratios):
    lo, hi = 0.1, 10.0
    # The extremes of the measured ratios wherever a NaN sits.
    measured = [r for r in ratios if not math.isnan(r)]
    worst_lo = min(measured, default=math.nan)
    worst_hi = max(measured, default=math.nan)
    return verify.measured_report(
        experiment_id,
        "norm_equivalence",
        verify.measured_rows(range(len(ratios)), ratios=ratios),
        lambda fit: worst_lo >= lo and worst_hi <= hi,
        predicted_formula=f"batch ratios within [{lo}, {hi}]",
        details={"min_ratio": worst_lo, "max_ratio": worst_hi,
                 "window": [lo, hi]},
    )


def check_norm_equivalences(seed, grid=None, gammas=(0, 0.5),
                            count=100) -> List[ExperimentReport]:
    """Lifting, differentiation, sandwich and W=H ratio windows on a batch:
    five reports per gamma, in the order of ``gammas``."""
    grid = grid or BATCH_GRID
    if grid.d != 1:
        raise RangeError(f"equivalences needs a 1-D grid, got d = {grid.d}: "
                         "its differentiation window measures f' alone, an "
                         "equivalence in 1-D only")
    from .lpengine import bessel_apply, derivative

    gammas = [float(gamma) for gamma in gammas]
    rows = [[] for _ in gammas]  # per gamma, the seven ratios of each field
    s, sigma, p, q = 0.5, 1.0, 2.0, 4.0
    for f in random_field_batch(grid, count, seed):
        # Every gamma's norms of f come before those of J_sigma f, and those
        # before f''s: block magnitudes do not depend on gamma, so the
        # norms' one-field memo serves every gamma and each of the three
        # fields' blocks is transformed once.
        of_f = [[norms.besov_norm(f, s, p, q, gamma).value,
                 norms.besov_norm(f, s - 1, p, q, gamma).value,
                 norms.triebel_norm(f, s, p, q, gamma).value,
                 norms.besov_norm(f, s, p, min(p, q), gamma).value,
                 norms.besov_norm(f, s, p, max(p, q), gamma).value,
                 norms.triebel_norm(f, s, p, 1, gamma).value,
                 norms.triebel_norm(f, s, p, math.inf, gamma).value,
                 norms.bessel_norm(f, s, p, gamma).value,
                 norms.sobolev_norm(f, 1, p, gamma).value,
                 norms.bessel_norm(f, 1, p, gamma).value] for gamma in gammas]
        for g, t in ((bessel_apply(f, sigma), s - sigma),
                     (derivative(f, (1,)), s - 1)):
            for gamma, nums in zip(gammas, of_f):
                nums.append(norms.besov_norm(g, t, p, q, gamma).value)
        for out, (b_s, b_lo, f_n, b_min, b_max, f1, finf, h_n, w_n, h1,
                  lifted, b_df) in zip(rows, of_f):
            out.append((lifted / b_s, (b_lo + b_df) / b_s, f_n / b_min,
                        b_max / f_n, h_n / f1, finf / h_n, w_n / h1))

    reports = []
    for gamma, ratios in zip(gammas, rows):
        lifting, diffn, f_lo, f_hi, h_lo, h_hi, wh = zip(*ratios)
        tag = f"gamma={gamma},seed={seed},n={count}"
        reports += [_window_report(f"lifting[{tag}]", lifting),
                    _window_report(f"differentiation[{tag}]", diffn),
                    _window_report(f"sandwich_B_F[{tag}]", f_lo + f_hi),
                    _window_report(f"sandwich_H_F[{tag}]", h_lo + h_hi),
                    _window_report(f"sobolev_bessel[{tag}]", wh)]
    return reports


# ---------------------------------------------------------------------------
# Curated verdict-experiment coherence set
# ---------------------------------------------------------------------------


@dataclass
class CuratedPair:
    name: str
    src: SpaceSpec
    tgt: SpaceSpec
    expected: str
    rule: str  # a rule id expected somewhere in the trace


def curated_pairs() -> List[CuratedPair]:
    """Twenty pairs spanning every rule id the oracle can cite."""
    P = CuratedPair
    return [
        P("besov_subcritical", S("B", 1, 2, 1, 0), S("B", 0, 4, 1, 0),
          EMBEDS, "SUBCRITICAL_14"),
        P("besov_identity", S("B", 1, 2, 2, "1/2"), S("B", 1, 2, 2, "1/2"),
          EMBEDS, "TRIVIAL_13"),
        P("besov_sharp_q_ok", S("B", 1, 2, 1, 0), S("B", "3/4", 4, 2, 0),
          EMBEDS, "SHARP_15"),
        P("besov_sharp_q_bad", S("B", 1, 2, 2, 0), S("B", "3/4", 4, 1, 0),
          NO, "Q_NECESSITY"),
        P("besov_weight_bad", S("B", 1, 2, 2, "-1/2"), S("B", 0, 4, 2, "-1/2"),
          NO, "NEC_42"),
        P("besov_dim_bad", S("B", 0, 4, 2, 0), S("B", 0, 2, 2, 0),
          NO, "NEC_42"),
        P("besov_dim_equality", S("B", 1, 2, 1, 0), S("B", 1, "3/2", 1, "-1/4"),
          NO, "NEC_STRICT_45"),
        P("triebel_sufficient", S("F", 1, 2, 2, 0), S("F", "1/2", 4, 1, 0),
          EMBEDS, "F_SUFFICIENT_17"),
        P("triebel_pswap_strict", S("F", 1, 4, "inf", 2), S("F", "3/5", 2, 1, "1/5"),
          EMBEDS, "SANDWICH_BF"),
        P("triebel_pswap_sharp", S("F", "3/4", 4, 2, 2), S("F", "3/5", 2, 2, "1/5"),
          NO, "F_SHARP_NEC_55"),
        P("triebel_pswap_open", S("F", "3/4", 4, 1, 2), S("F", "3/5", 2, 2, "1/5"),
          UNKNOWN, "OPEN_REGIME"),
        P("bessel_char", S("H", 1, 2, gamma="1/2"), S("H", "4/5", 3, gamma="3/4"),
          EMBEDS, "H_CHAR_110"),
        P("bessel_pswap_sharp", S("H", "3/4", 4, gamma=2), S("H", "3/5", 2, gamma="1/5"),
          NO, "PQ_SWAP_114"),
        P("cross_jf_b_to_f", S("B", 1, 2, 2, 0), S("F", "3/4", 4, 1, 0),
          EMBEDS, "JAWERTH_FRANKE_62"),
        P("cross_jf_f_to_b", S("F", 1, 2, "inf", 0), S("B", "3/4", 4, 2, 0),
          EMBEDS, "JAWERTH_FRANKE_63"),
        P("cross_b_into_h", S("B", 2, 2, 1, 0), S("H", 1, 2, gamma=0),
          EMBEDS, "SANDWICH_HW"),
        P("cross_h_into_b", S("H", 0, 2, gamma=0), S("B", 1, 2, 1, 0),
          NO, "NEC_42"),
        P("lp_target_besov", S("B", 1, 2, 1, 0), S("Lp", 0, 4, gamma=0),
          EMBEDS, "LP_TARGET_71"),
        P("lp_target_triebel", S("F", 1, 2, 2, 0), S("Lp", 0, 4, gamma=0),
          EMBEDS, "LP_TARGET_72"),
        P("holder_target", S("B", 2, 2, 2, 0), S("Holder", "3/2", d=1),
          EMBEDS, "HOLDER_73"),
    ]


def coherence_suite(grid: Optional[Grid] = None) -> List[ExperimentReport]:
    """Criterion-style coherence run over the curated pairs.

    Every DoesNotEmbed gets a successful failure demonstration, every
    Embeds passes the bounded-ratio checks, and every Unknown is listed
    explicitly (never silently decided).
    """
    reports: List[ExperimentReport] = []
    unknowns = []
    rules_seen = set()
    for pair in curated_pairs():
        v = decide(pair.src, pair.tgt)
        rules_seen.update(v.rule_ids())
        ok_verdict = v.outcome == pair.expected and pair.rule in v.rule_ids()
        head = ExperimentReport(
            experiment_id=f"verdict[{pair.name}]",
            kind="verdict",
            passed=ok_verdict,
            predicted_formula=f"expected {pair.expected} via {pair.rule}",
            src=spec_to_dict(pair.src),
            tgt=spec_to_dict(pair.tgt),
            details={"outcome": v.outcome, "trace": [c.to_dict() for c in v.trace]},
        )
        reports.append(head)
        if v.outcome == NO:
            reports.append(demonstrate_failure(pair.src, pair.tgt, verdict=v,
                                               grid=grid))
        elif v.outcome == EMBEDS:
            reports.extend(check_embedding_bounded(pair.src, pair.tgt,
                                                   verdict=v, grid=grid))
        else:
            unknowns.append(pair.name)
    missing = sorted(set(ALL_RULE_IDS) - rules_seen)
    reports.append(ExperimentReport(
        experiment_id="coherence_summary",
        kind="coherence",
        passed=not missing,
        predicted_formula="every rule id exercised; unknowns listed",
        details={"rules_seen": sorted(rules_seen), "rules_missing": missing,
                 "unknown_pairs": unknowns},
    ))
    return reports


# ---------------------------------------------------------------------------
# Experiment catalog (drives the CLI verify subcommand)
# ---------------------------------------------------------------------------


def _exp_peaks(seed, grid=None,
               combos=({"p": 2, "gamma": 0}, {"p": 2, "gamma": 0.5},
                       {"p": 4, "gamma": 1}, {"p": 1.5, "gamma": -1 / 3}),
               j_values=(-1, 0, 1), n_min=3, n_max=7,
               tolerance=0.02) -> List[ExperimentReport]:
    return [check_peak_scaling(combo["p"], combo["gamma"], j,
                               n_range=range(n_min, n_max + 1), grid=grid,
                               tolerance=tolerance)
            for combo in combos for j in j_values]


def _exp_translation(seed, grid=None, gammas=(-0.5, 0, 1, 2), ps=(2, 4),
                     lambdas=(4, 8, 16, 32, 64),
                     tolerance=0.05) -> List[ExperimentReport]:
    return [check_translation_scaling(p, gamma, lambdas, grid=grid,
                                      tolerance=tolerance)
            for gamma in gammas for p in ps]


def _exp_nikolskij(seed, grid=None, bases=5,
                   parameter_sets=(
                       {"p0": 2, "g0": 0, "p1": 1.5, "g1": -1 / 3},
                       {"p0": 2, "g0": 0.5, "p1": 2, "g1": 0},
                       {"p0": 2, "g0": 0.5, "p1": 1.5, "g1": -1 / 3},
                       {"p0": 2, "g0": 0.5, "p1": 4, "g1": 1},
                       {"p0": 4, "g0": 1, "p1": 1.5, "g1": -1 / 3},
                   ),
                   t_values=(1, 2, 4, 8, 16)) -> List[ExperimentReport]:
    grid = grid or default_grid(1)
    out = []
    for i in range(bases):
        base = random_band_limited(grid, seed + i, band=1.0)
        for ps in parameter_sets:
            for alpha in (0, 1):  # D^0 and d/dx_1, padded to the grid's d
                out.append(check_nikolskij(
                    base, ps["p0"], ps["g0"], ps["p1"], ps["g1"], alpha=alpha,
                    t_values=t_values,
                ))
    return out


def _exp_dichotomy(seed, p0=2, gamma0=0, p1=1.5, gamma1=-0.25,
                   d=1) -> List[ExperimentReport]:
    prof = log_singularity(p0, gamma0, p1, d)
    src = radial_weighted_lp(prof, float(p0), float(gamma0))
    tgt = radial_weighted_lp(prof, float(p1), float(gamma1))
    # source convergence: < 1% relative norm change over the last two
    # eps-refinements of the cumulative quadrature
    norms_tail = [x ** (1.0 / float(p0)) for x in src.history[-3:]]
    rel = [abs(b - a) / b for a, b in zip(norms_tail, norms_tail[1:])]
    src_ok = not src.diverged and all(r < 0.01 for r in rel)
    return [verify.profile_report(
        f"log_singularity_dichotomy[p0={p0},g0={gamma0},p1={p1},g1={gamma1}]",
        "dichotomy", None, None, src, tgt,
        details={"src_tail_rel_changes": rel, "src_converged": src_ok},
        converged=src_ok, more_values={"rel_changes": rel},
    )]


def _exp_lacunary(seed, grid=None, p0=2, gamma0=0, q0=math.inf, p1=4,
                  gamma1=0, q1=1, s0=1, s1=0.75,
                  n_values=(4, 6, 8, 12, 16, 24, 32),
                  tolerance=0.1) -> List[ExperimentReport]:
    # Sharp line with q0 = inf, q1 = 1: p0=2, p1=4, gamma=0, s0=1, s1=3/4.
    return [check_lacunary_qnecessity(
        p0, gamma0, q0, p1, gamma1, q1, s0, s1, n_values=n_values,
        tolerance=tolerance, grid=grid, d=grid.d if grid else 1,
    )]


def _exp_gagliardo(seed, grid=None, gammas=(0, 0.5), count=20, s0=0, s1=2,
                   theta=0.5, p=2, q=2, cap=10.0) -> List[ExperimentReport]:
    fields = random_field_batch(grid or BATCH_GRID, count, seed)
    return [check_gagliardo(fields, s0, s1, theta, p, q, gamma, cap=cap)
            for gamma in gammas]


def _exp_oracle(seed, count=10000, triples=2000) -> List[ExperimentReport]:
    return [oracle_random_suite(seed=seed, count=count, triples=triples)]


def _exp_sharp(seed, count=200) -> List[ExperimentReport]:
    return [sharp_case_fidelity(seed=seed, count=count)]


def _exp_coherence(seed, grid=None) -> List[ExperimentReport]:
    return coherence_suite(grid=grid)


# Each runner declares the parameters its experiment accepts, with their
# defaults, after ``seed``; a runner that takes a ``grid`` samples a lattice.
CATALOG: Dict[str, Tuple[str, Callable]] = {
    "peaks": ("block-pair norm scaling along n (exponent d-(d+gamma)/p)", _exp_peaks),
    "translation": ("translate-by-lambda norm scaling (exponent gamma/p)", _exp_translation),
    "nikolskij": ("band-limited two-weight boundedness along dilations", _exp_nikolskij),
    "dichotomy": ("sharp-case profile: source finite, target diverges", _exp_dichotomy),
    "lacunary": ("sharp-line q-comparison via the block-sum ladder", _exp_lacunary),
    "equivalences": ("lifting/differentiation/sandwich/W=H ratio windows",
                     check_norm_equivalences),
    "gagliardo": ("interpolation-inequality batch cap", _exp_gagliardo),
    "oracle": ("randomized oracle completeness and soundness", _exp_oracle),
    "sharp": ("sharp-line q-flip fidelity (Besov vs F scales)", _exp_sharp),
    "coherence": ("verdict vs experiment coherence on curated pairs", _exp_coherence),
}


def parameters(name: str) -> Dict[str, object]:
    """The parameters experiment ``name`` accepts, with their defaults."""
    params = inspect.signature(CATALOG[name][1]).parameters
    return {key: p.default for key, p in params.items() if key != "seed"}


def config_problems(names, overrides) -> List[str]:
    """One message per unknown experiment, per experiment listed more than
    once, per override no runner reads and per value its row rejects."""
    counts = Counter(names)
    problems = [f"unknown experiment {n!r}" for n in counts if n not in CATALOG]
    problems += [f"experiment {n!r} is listed more than once"
                 for n, k in counts.items() if k > 1]
    for name in (n for n in counts if n in CATALOG):
        accepted = parameters(name)
        given = overrides.get(name, {})
        unknown = sorted(set(given) - set(accepted))
        if unknown:
            problems.append(f"experiment {name!r} has no parameter "
                            f"{', '.join(unknown)}; it accepts "
                            f"{', '.join(accepted)}")
            continue
        for key, v in given.items():
            try:
                OVERRIDES[key](v)
            except RangeError as exc:
                problems.append(f"experiment {name!r}: {exc}")
    return problems


_NUM = (int, float)  # a bool is neither


def _row(key, want, kinds, ok=lambda v: True) -> Callable:
    """The row that passes on, as given, a value whose type is one of
    ``kinds`` and for which ``ok`` holds."""
    def parse(v):
        if type(v) not in kinds or not ok(v):
            raise RangeError(f"{key} must be {want}, got {v!r}")
        return v
    return parse


def _finite(v) -> bool:
    """Whether number ``v`` is one a float holds: no NaN, no infinity."""
    return abs(v) <= sys.float_info.max


def _list(key, kinds, want, item=lambda x: x) -> Callable:
    """The row of a non-empty list of ``kinds`` values, each of which the
    row ``item`` accepts."""
    whole = _row(key, f"a non-empty list of {want}", (list, tuple),
                 lambda v: v and all(type(x) in kinds for x in v))

    def parse(v):
        for x in whole(v):
            item(x)
        return v
    return parse


def _fields(key, names) -> Callable:
    """The row of a ``key`` item: an object of exactly the finite number
    fields ``names``."""
    def parse(v):
        odd = sorted(set(v) ^ set(names))
        if odd:
            what = "is missing" if odd[0] in names else "has no field"
            raise RangeError(f"{key} item {v!r} {what} {odd[0]!r}; an item "
                             f"takes {', '.join(names)}")
        for f in names:
            _row(f"{key} item {f}", "a finite number", _NUM, _finite)(v[f])
        return v
    return parse


def _grid(g) -> Grid:
    """The row of ``grid``: the Grid a {d, L, N} object names."""
    if not isinstance(g, dict):
        raise RangeError(f"grid wants a {{d, L, N}} object, got {g!r}")
    unknown = sorted(set(g) - {"d", "L", "N"})
    if unknown:
        raise RangeError(f"grid has no key {', '.join(unknown)}; it takes d, L, N")
    for key, *row in (("d", "an integer", (int,)),
                      ("L", "a finite number", _NUM, _finite),
                      ("N", "an integer", (int,))):
        if key not in g:
            raise RangeError(f"grid is missing {key!r}; it takes d, L, N")
        _row(f"grid {key}", *row)(g[key])
    return Grid(g["d"], float(g["L"]), g["N"])


# The row of an integrability exponent: p, p0, p1 and each item of ps.
_P = ("a finite number of at least 1", _NUM, lambda v: _finite(v) and v >= 1)

# One row per parameter a runner declares, whichever runners declare it: it
# returns what a runner receives for a JSON value or names the key at fault.
# What involves two keys or the grid (p1 < p0, gamma > -d, the Nyquist
# bound, enough points for a fit) is left to the runner.
OVERRIDES: Dict[str, Callable] = {
    "grid": _grid,
    **{key: _row(key, *row) for keys, *row in (
        ("count triples bases d", "an integer of at least 1", (int,),
         lambda v: v >= 1),
        ("n_min n_max", "an integer of at least 2", (int,), lambda v: v >= 2),
        ("tolerance cap", "a finite number above 0", _NUM,
         lambda v: _finite(v) and v > 0),
        ("p p0 p1", *_P),
        ("q q0 q1", "a number of at least 1, or infinity", _NUM,
         lambda v: v >= 1),
        ("theta", "a number in [0, 1]", _NUM, lambda v: 0 <= v <= 1),
        ("gamma0 gamma1 s0 s1", "a finite number", _NUM, _finite),
    ) for key in keys.split()},
    **{key: _list(key, _NUM, "numbers",
                  _row(f"{key} item", "a finite number", _NUM, _finite))
       for key in ("gammas", "lambdas", "t_values")},
    "ps": _list("ps", _NUM, "numbers", _row("ps item", *_P)),
    "j_values": _list("j_values", _NUM, "numbers", _row(
        "j_values item", "-1, 0 or 1", _NUM, lambda v: v in (-1, 0, 1))),
    "n_values": _list("n_values", _NUM, "numbers", _row(
        "n_values item", "an integer of at least 1", (int,),
        lambda v: v >= 1)),
    "combos": _list("combos", (dict,), "objects",
                    _fields("combos", ("p", "gamma"))),
    "parameter_sets": _list("parameter_sets", (dict,), "objects",
                            _fields("parameter_sets", ("p0", "g0", "p1", "g1"))),
}


def _run_one(name, kw, seed) -> List[ExperimentReport]:
    """Experiment ``name``'s reports, its overrides passed through their
    rows; an exception becomes its one ``{name}[error]`` report."""
    try:
        return CATALOG[name][1](seed, **{key: OVERRIDES[key](v)
                                         for key, v in kw.items()})
    except Exception as exc:
        return [ExperimentReport(
            experiment_id=f"{name}[error]",
            kind="error",
            passed=False,
            details={"error": f"{type(exc).__name__}: {exc}"},
        )]


def run_experiments(names=None, overrides=None, seed: int = 0,
                    jobs: int = 1) -> Dict[str, List[ExperimentReport]]:
    """Run catalog experiments; returns {name: [reports]}.  With ``jobs`` > 1
    each experiment runs in a worker process, at most ``jobs`` at a time."""
    names = list(names) if names else list(CATALOG.keys())
    overrides = overrides or {}
    problems = config_problems(names, overrides)
    if problems:
        raise RangeError("; ".join(problems))

    args = (names, [overrides.get(n, {}) for n in names], [seed] * len(names))
    workers = min(jobs, len(names))
    if workers > 1:
        # Imported on use: multiprocessing adds about 1 MB to every process
        # that imports suite.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return dict(zip(names, pool.map(_run_one, *args)))
    return dict(zip(names, map(_run_one, *args)))
