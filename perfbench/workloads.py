"""The four benchmark workloads: seeded inputs and the ops that consume them.

An op is one call into a public ``powemb`` function (for the oracle, the two
``spec_from_dict`` parses that feed it belong to the op).  A workload builds
one *pass*, an ordered list of ops; the measured loop runs passes back to
back.  Objects the program may cache on (fields, witness families, specs)
are rebuilt by the ops of every pass, and ``cold_start`` empties the
program's module caches before each pass, so every pass does the work of one
fresh ``powemb verify`` process and reuses nothing from the previous one.

The spectral workloads draw their inputs from fixed universes (field seeds,
parameter sets) whose outputs are pinned in ``reference.json``; the seed
chooses which members run and in what order.  The oracle workload samples
fresh rational parameters; its outputs are pinned for seed 0 only, and every
seed is held to the invariants below.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from powemb import lpengine, norms, oracle, params, suite, verify, witnesses

# Norm values and exponents may move only within floating-point noise.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass
class Op:
    key: str
    run: Callable[[dict], Any]
    summarize: Callable[[Any], dict]  # -> {"v": JSON-able, "passed": bool}
    check: Optional[Callable[[dict], Optional[str]]] = None
    inputs: Any = None  # oracle descriptors, part of the pinned digest


@dataclass
class Workload:
    name: str
    ops: List[Op]
    reference: Dict[str, Any] = field(default_factory=dict)
    # Oracle only: sha256 over every op's summary, pinned for seed 0.
    digest: Optional[str] = None


def cold_start(scratch: dict) -> None:
    """Empty the program's module caches and the ops' shared scratch.

    A cache that is gone (renamed or removed) raises AttributeError, so the
    run fails instead of quietly measuring warm passes.
    """
    scratch.clear()
    lpengine._weight_cache.clear()
    verify._sys_cache.clear()


def same(a, b) -> bool:
    """Structural equality with a floating-point-noise tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isinf(a) or math.isinf(b):
            return a == b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def summary_hash(op: Op, summary: dict) -> str:
    """Short sha256 of an op's inputs and output, as pinned for oracle_mix."""
    text = json.dumps([op.inputs, summary["v"]], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# oracle_mix
# ---------------------------------------------------------------------------

ORACLE_PAIRS = 4000
LATTICE_EVERY = 1000
LATTICE_SIZE = 20


def _num(x):
    if x == "inf":
        return x
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _desc(rng, fam: str, d: int) -> dict:
    """An unvalidated JSON descriptor, spelled the ways a user may spell it."""
    out = {"family": fam.lower() if rng.random() < 0.2 else fam, "dim": d}
    if fam == "Holder":
        out["s"] = _num(suite.frac(rng, Fraction(1, 8), 4))
        return out
    p = "inf" if fam == "B" and rng.random() < 0.08 else suite.frac(rng, Fraction(9, 8), 8)
    out["p"] = _num(p)
    out["gamma"] = _num(suite.frac(rng, Fraction(1, 8) - d, 4 * d))
    if fam in ("B", "F"):
        out["q"] = "inf" if rng.random() < 0.12 else _num(suite.frac(rng, 1, 8))
    if fam == "W":
        out["s"] = rng.randrange(5)
    elif fam != "Lp":
        out["s"] = _num(suite.frac(rng, -4, 4))
    return out


def _sharp_pair(rng, d: int):
    """``suite.sharp_besov_pair`` as B or F descriptors with random q."""
    pair = suite.sharp_besov_pair(rng, d)
    fam = rng.choice("BF")
    qs = (Fraction(1), Fraction(2), "inf")
    return tuple(
        {"family": fam, "dim": d, "s": _num(s), "p": _num(p), "gamma": _num(g),
         "q": _num(rng.choice(qs))}
        for p, g, s in pair
    )


def _oracle_pair(rng):
    d = 1 if rng.random() < 0.75 else 2
    r = rng.random()
    if r < 0.5:  # same family
        fam = rng.choice("BFHW")
        return _desc(rng, fam, d), _desc(rng, fam, d)
    if r < 0.75:  # cross family
        a, b = rng.sample("BFHW", 2)
        return _desc(rng, a, d), _desc(rng, b, d)
    if r < 0.85:  # weighted Lebesgue target
        return _desc(rng, rng.choice("BFHW"), d), _desc(rng, "Lp", d)
    if r < 0.9:  # Holder target
        return _holder_source(rng, d), _desc(rng, "Holder", d)
    return _sharp_pair(rng, d)


def _holder_source(rng, d: int) -> dict:
    """A source inside the Holder rule's stated range: gamma0 >= 0, and
    gamma0 < d(p0-1) for H/W sources."""
    fam = rng.choice("BFHW")
    out = _desc(rng, fam, d)
    hi = Fraction(4 * d)
    if fam in "HW":
        hi = d * (Fraction(out["p"]) - 1) - Fraction(1, 24)
    out["gamma"] = _num(suite.frac(rng, 0, hi))
    return out


def _verdict_v(v):
    return [v.outcome, [[c.rule_id, c.note] for c in v.trace]]


def _decide_summary(res):
    a, b, v = res
    return {"v": [a.family, b.family] + _verdict_v(v), "passed": True}


def _decide_check(summary):
    fa, fb, outcome = summary["v"][:3]
    if fa == fb == "B" and outcome == oracle.UNKNOWN:
        return "B-scale pair answered unknown"
    return None


def _lattice_summary(rep):
    cells = [[_verdict_v(c.verdict) if c.verdict is not None else ["error", c.error]
              for c in row] for row in rep.cells]
    return {"v": [cells, [list(t) for t in rep.transitivity_violations]],
            "passed": True}


def _lattice_check(summary):
    cells, violations = summary["v"]
    if violations:
        return f"{len(violations)} transitivity violations"
    errors = [c[1] for row in cells for c in row if c[0] == "error"]
    if errors:
        return f"{len(errors)} cell errors, first: {errors[0]}"
    return None


def _decide_op(i, da, db):
    def run(_):
        a, b = params.spec_from_dict(da), params.spec_from_dict(db)
        return a, b, oracle.decide(a, b)

    return Op(f"oracle_mix/{i}", run, _decide_summary, check=_decide_check,
              inputs=[da, db])


def _lattice_op(i, descs):
    def run(_):
        return oracle.embedding_matrix([params.spec_from_dict(d) for d in descs])

    return Op(f"oracle_mix/{i}", run, _lattice_summary, check=_lattice_check,
              inputs=descs)


def oracle_inputs(seed: int):
    """The pass of oracle_mix as (kind, descriptors) items, in order."""
    rng = random.Random(f"oracle_mix:{seed}")
    items = []
    for n in range(ORACLE_PAIRS):
        if n % LATTICE_EVERY == LATTICE_EVERY // 2:
            d = 1 if rng.random() < 0.75 else 2
            items.append(("lattice", [_desc(rng, rng.choice(("B", "F", "H", "W", "Lp")), d)
                                      for _ in range(LATTICE_SIZE)]))
        items.append(("decide", _oracle_pair(rng)))
    return items


def build_oracle_mix(seed: int) -> List[Op]:
    ops = []
    for i, (kind, descs) in enumerate(oracle_inputs(seed)):
        ops.append(_lattice_op(i, descs) if kind == "lattice" else _decide_op(i, *descs))
    return ops


# ---------------------------------------------------------------------------
# Shared spectral ops
# ---------------------------------------------------------------------------


def _field_summary(f):
    return {"v": [float(np.sum(np.abs(f.values)))], "passed": True}


def _norm_summary(res):
    return {"v": [res.value], "passed": True}


def _report_summary(res):
    reps = res if isinstance(res, list) else [res]
    v = [[r.passed, r.fit.slope if r.fit is not None else None,
          [[row.get("src_norm"), row.get("tgt_norm")] for row in r.rows]]
         for r in reps]
    return {"v": v, "passed": all(r.passed for r in reps)}


def _field_op(key, slot, grid, seed, band):
    def run(scratch):
        f = witnesses.random_band_limited(grid, seed, band=band)
        scratch[slot] = f
        return f

    return Op(key, run, _field_summary)


def _dyadic(scratch, grid):
    # One shared DyadicSystem per grid, built by the first op that needs it.
    key = ("dyadic", grid)
    if key not in scratch:
        scratch[key] = lpengine.make_dyadic(grid)
    return scratch[key]


def _norm_op(key, slot, grid, kind, *args):
    fn = {"B": "besov_norm", "F": "triebel_norm", "H": "bessel_norm",
          "W": "sobolev_norm"}[kind]

    def run(scratch):
        f = scratch[slot]
        if kind in ("B", "F"):
            return getattr(norms, fn)(f, *args, sys=_dyadic(scratch, grid))
        return getattr(norms, fn)(f, *args)

    return Op(key, run, _norm_summary)


# ---------------------------------------------------------------------------
# norm_batch_1d
# ---------------------------------------------------------------------------

NORM_GRID = (1, 16.0, 2 ** 12)  # the criterion-8 grid
NORM_BAND = 96.0
NORM_PS = (1.5, 2.0, 3.0, 4.0)
NORM_GAMMAS = (-0.5, 0.0, 0.5, 1.0)
NORM_FIELDS_PER_SET = 4  # universe members per (p, gamma); one runs
B_SQ = ((0.5, 4.0), (-0.5, 4.0), (0.5, 2.0), (0.5, math.inf))
F_SQ = ((0.5, 4.0), (0.5, 1.0), (0.5, math.inf))


def _norm_batch_field_ops(grid, pi, gi, r) -> List[Op]:
    p, g = NORM_PS[pi], NORM_GAMMAS[gi]
    seed = 10_000 + 100 * pi + 10 * gi + r
    pre = f"norm_batch_1d/f{seed}"
    ops = [_field_op(f"{pre}/field", seed, grid, seed, NORM_BAND)]
    for s, q in B_SQ:
        ops.append(_norm_op(f"{pre}/B(s={s},p={p},q={q},g={g})", seed, grid,
                            "B", s, p, q, g))
    for s, q in F_SQ:
        ops.append(_norm_op(f"{pre}/F(s={s},p={p},q={q},g={g})", seed, grid,
                            "F", s, p, q, g))
    ops.append(_norm_op(f"{pre}/H(s=0.5,p={p},g={g})", seed, grid, "H", 0.5, p, g))
    ops.append(_norm_op(f"{pre}/W(m=1,p={p},g={g})", seed, grid, "W", 1, p, g))
    return ops


def build_norm_batch_1d(seed: int, universe: bool = False) -> List[Op]:
    """One field per (p, gamma) set, so every pass costs the same."""
    rng = random.Random(f"norm_batch_1d:{seed}")
    grid = lpengine.Grid(*NORM_GRID)
    sets = [(pi, gi) for pi in range(len(NORM_PS)) for gi in range(len(NORM_GAMMAS))]
    if universe:
        return [op for pi, gi in sets for r in range(NORM_FIELDS_PER_SET)
                for op in _norm_batch_field_ops(grid, pi, gi, r)]
    rng.shuffle(sets)
    return [op for pi, gi in sets
            for op in _norm_batch_field_ops(grid, pi, gi,
                                            rng.randrange(NORM_FIELDS_PER_SET))]


# ---------------------------------------------------------------------------
# witness_sweep_1d
# ---------------------------------------------------------------------------


def _d(family, s=0, p=None, q=None, gamma=None, d=1):
    out = {"family": family, "s": s, "dim": d}
    for k, v in (("p", p), ("q", q), ("gamma", gamma)):
        if v is not None:
            out[k] = v
    return out


# The catalog's twenty curated pairs: (name, src, tgt, outcome, expected rule).
CURATED = [
    ("besov_subcritical", _d("B", 1, 2, 1, 0), _d("B", 0, 4, 1, 0), "embeds", "SUBCRITICAL_14"),
    ("besov_identity", _d("B", 1, 2, 2, "1/2"), _d("B", 1, 2, 2, "1/2"), "embeds", "TRIVIAL_13"),
    ("besov_sharp_q_ok", _d("B", 1, 2, 1, 0), _d("B", "3/4", 4, 2, 0), "embeds", "SHARP_15"),
    ("besov_sharp_q_bad", _d("B", 1, 2, 2, 0), _d("B", "3/4", 4, 1, 0), "no", "Q_NECESSITY"),
    ("besov_weight_bad", _d("B", 1, 2, 2, "-1/2"), _d("B", 0, 4, 2, "-1/2"), "no", "NEC_42"),
    ("besov_dim_bad", _d("B", 0, 4, 2, 0), _d("B", 0, 2, 2, 0), "no", "NEC_42"),
    ("besov_dim_equality", _d("B", 1, 2, 1, 0), _d("B", 1, "3/2", 1, "-1/4"), "no", "NEC_STRICT_45"),
    ("triebel_sufficient", _d("F", 1, 2, 2, 0), _d("F", "1/2", 4, 1, 0), "embeds", "F_SUFFICIENT_17"),
    ("triebel_pswap_strict", _d("F", 1, 4, "inf", 2), _d("F", "3/5", 2, 1, "1/5"), "embeds", "SANDWICH_BF"),
    ("triebel_pswap_sharp", _d("F", "3/4", 4, 2, 2), _d("F", "3/5", 2, 2, "1/5"), "no", "F_SHARP_NEC_55"),
    ("triebel_pswap_open", _d("F", "3/4", 4, 1, 2), _d("F", "3/5", 2, 2, "1/5"), "unknown", "OPEN_REGIME"),
    ("bessel_char", _d("H", 1, 2, gamma="1/2"), _d("H", "4/5", 3, gamma="3/4"), "embeds", "H_CHAR_110"),
    ("bessel_pswap_sharp", _d("H", "3/4", 4, gamma=2), _d("H", "3/5", 2, gamma="1/5"), "no", "PQ_SWAP_114"),
    ("cross_jf_b_to_f", _d("B", 1, 2, 2, 0), _d("F", "3/4", 4, 1, 0), "embeds", "JAWERTH_FRANKE_62"),
    ("cross_jf_f_to_b", _d("F", 1, 2, "inf", 0), _d("B", "3/4", 4, 2, 0), "embeds", "JAWERTH_FRANKE_63"),
    ("cross_b_into_h", _d("B", 2, 2, 1, 0), _d("H", 1, 2, gamma=0), "embeds", "SANDWICH_HW"),
    ("cross_h_into_b", _d("H", 0, 2, gamma=0), _d("B", 1, 2, 1, 0), "no", "NEC_42"),
    ("lp_target_besov", _d("B", 1, 2, 1, 0), _d("Lp", 0, 4, gamma=0), "embeds", "LP_TARGET_71"),
    ("lp_target_triebel", _d("F", 1, 2, 2, 0), _d("Lp", 0, 4, gamma=0), "embeds", "LP_TARGET_72"),
    ("holder_target", _d("B", 2, 2, 2, 0), _d("Holder", "3/2", d=1), "embeds", "HOLDER_73"),
]
PEAK_SETS_1D = ((2, 0.0), (2, 0.5), (4, 1.0), (1.5, -1 / 3))
TRANSLATION_SETS = [(p, g) for g in (-0.5, 0.0, 1.0, 2.0) for p in (2, 4)]
NIKOLSKIJ_SETS = ((2, 0, 1.5, -1 / 3), (2, 0.5, 2, 0), (2, 0.5, 1.5, -1 / 3),
                  (2, 0.5, 4, 1), (4, 1, 1.5, -1 / 3))
NIKOLSKIJ_BASES = tuple(range(500, 516))  # universe of random base seeds
NIKOLSKIJ_BASES_PER_RUN = 4


def _curated_ops(name, da, db, outcome, rule) -> List[Op]:
    def decide(_):
        return oracle.decide(params.spec_from_dict(da), params.spec_from_dict(db))

    def decide_summary(v):
        return {"v": [v.outcome, v.rule_ids()],
                "passed": v.outcome == outcome and rule in v.rule_ids()}

    ops = [Op(f"witness_sweep_1d/decide:{name}", decide, decide_summary)]
    check = {"no": "demonstrate_failure",
             "embeds": "check_embedding_bounded"}.get(outcome)
    if check is not None:
        def run(_):
            return getattr(verify, check)(params.spec_from_dict(da),
                                          params.spec_from_dict(db))

        ops.append(Op(f"witness_sweep_1d/{check}:{name}", run, _report_summary))
    return ops


def _radial_ops() -> List[Op]:
    # The dichotomy pair: source quadrature converges (< 1% norm change over
    # the last two eps-refinements), target classified Diverged.
    def src(_):
        return lpengine.radial_weighted_lp(witnesses.log_singularity(2, 0, 1.5, 1),
                                           2.0, 0.0)

    def tgt(_):
        return lpengine.radial_weighted_lp(witnesses.log_singularity(2, 0, 1.5, 1),
                                           1.5, -0.25)

    def src_summary(res):
        tail = [x ** 0.5 for x in res.history[-3:]]
        rel = max(abs(b - a) / b for a, b in zip(tail, tail[1:]))
        return {"v": [res.value, res.diverged, res.history],
                "passed": not res.diverged and rel < 0.01}

    def tgt_summary(res):
        return {"v": [res.value, res.diverged, res.history], "passed": res.diverged}

    return [Op("witness_sweep_1d/radial:src", src, src_summary),
            Op("witness_sweep_1d/radial:tgt", tgt, tgt_summary)]


def _peak_op(key, p, g, j, n_range, grid=None):
    def run(_):
        return verify.check_peak_scaling(p, g, j, n_range=n_range, grid=grid,
                                         tolerance=0.02)

    return Op(key, run, _report_summary)


def _nikolskij_ops(base_seed) -> List[Op]:
    ops = []
    for p0, g0, p1, g1 in NIKOLSKIJ_SETS:
        for alpha in ((0,), (1,)):
            def run(_, p0=p0, g0=g0, p1=p1, g1=g1, alpha=alpha):
                base = witnesses.random_band_limited(verify.default_grid(1),
                                                     base_seed, band=1.0)
                return verify.check_nikolskij(base, p0, g0, p1, g1, alpha=alpha,
                                              t_values=(1, 2, 4, 8, 16))

            key = (f"witness_sweep_1d/nikolskij:base={base_seed},p0={p0},g0={g0},"
                   f"p1={p1},g1={g1},alpha={alpha[0]}")
            ops.append(Op(key, run, _report_summary))
    return ops


def build_witness_sweep_1d(seed: int, universe: bool = False) -> List[Op]:
    """The checks in catalog order, fixed, so the same op builds each grid's
    dyadic system in every pass and for every seed; the seed picks the
    nikolskij bases."""
    rng = random.Random(f"witness_sweep_1d:{seed}")
    ops = [op for row in CURATED for op in _curated_ops(*row)]
    for p, g in PEAK_SETS_1D:
        for j in (-1, 0, 1):
            ops.append(_peak_op(f"witness_sweep_1d/peaks:p={p},g={g},j={j}",
                                p, g, j, range(3, 8)))
    for p, g in TRANSLATION_SETS:
        def run(_, p=p, g=g):
            return verify.check_translation_scaling(
                p, g, lambda_values=(4, 8, 16, 32, 64), tolerance=0.05)

        ops.append(Op(f"witness_sweep_1d/translation:p={p},g={g}", run,
                      _report_summary))

    def lacunary(_):
        return verify.check_lacunary_qnecessity(
            2, 0, math.inf, 4, 0, 1, 1, 0.75,
            n_values=(4, 6, 8, 12, 16, 24, 32), tolerance=0.1)

    ops.append(Op("witness_sweep_1d/lacunary", lacunary, _report_summary))
    ops.extend(_radial_ops())
    bases = (NIKOLSKIJ_BASES if universe
             else rng.sample(NIKOLSKIJ_BASES, NIKOLSKIJ_BASES_PER_RUN))
    for b in bases:
        ops.extend(_nikolskij_ops(b))
    return ops


# ---------------------------------------------------------------------------
# grid_2d
# ---------------------------------------------------------------------------

# The default 2-D grid (N=512, oversampling cap 4) builds cell weights at
# n=2048, projected near 4 GB; N=256 tops out at n=1024.
GRID_2D = (2, 8.0, 256)
GAMMAS_2D = (0.0, 0.5, 1.0)
FIELD_BAND_2D = 4.0
FIELDS_2D_PER_GAMMA = 8  # universe members per gamma
FIELDS_2D_PER_RUN = 2


def _grid_2d_field_ops(grid, gi, r) -> List[Op]:
    g = GAMMAS_2D[gi]
    seed = 20_000 + 10 * gi + r
    pre = f"grid_2d/f{seed}"
    return [_field_op(f"{pre}/field", seed, grid, seed, FIELD_BAND_2D),
            _norm_op(f"{pre}/B(s=0.5,p=2,q=2,g={g})", seed, grid, "B", 0.5, 2.0, 2.0, g),
            _norm_op(f"{pre}/F(s=0.5,p=2,q=2,g={g})", seed, grid, "F", 0.5, 2.0, 2.0, g)]


def build_grid_2d(seed: int, universe: bool = False) -> List[Op]:
    """One gamma at a time: its two peak checks, then its random fields.

    The order is fixed, so the same op pays for each cell-weight build in
    every pass and for every seed; the seed picks the fields.
    """
    rng = random.Random(f"grid_2d:{seed}")
    grid = lpengine.Grid(*GRID_2D)
    ops = []
    for gi, g in enumerate(GAMMAS_2D):
        ops += [_peak_op(f"grid_2d/peaks:p=2,g={g},j={j}", 2, g, j, range(2, 6), grid)
                for j in (-1, 0)]
        members = (range(FIELDS_2D_PER_GAMMA) if universe
                   else rng.sample(range(FIELDS_2D_PER_GAMMA), FIELDS_2D_PER_RUN))
        for r in members:
            ops += _grid_2d_field_ops(grid, gi, r)
    return ops


# ---------------------------------------------------------------------------


WORKLOADS = {
    "oracle_mix": build_oracle_mix,
    "norm_batch_1d": build_norm_batch_1d,
    "witness_sweep_1d": build_witness_sweep_1d,
    "grid_2d": build_grid_2d,
}


def build(name: str, seed: int, reference: dict) -> Workload:
    ops = WORKLOADS[name](seed)
    if name == "oracle_mix":
        pinned = reference.get("oracle_mix", {}).get(str(seed), {})
        hashes = dict(zip((op.key for op in ops), pinned.get("ops", [])))
        return Workload(name, ops, hashes, pinned.get("digest"))
    spectral = reference.get("spectral", {})
    return Workload(name, ops, {op.key: spectral[op.key] for op in ops
                                if op.key in spectral})
