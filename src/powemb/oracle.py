"""Exact decision procedures for embeddings between weighted smoothness spaces.

Each decide_* function takes two validated SpaceSpecs and returns a Verdict:
Embeds, DoesNotEmbed, or Unknown, together with an ordered trace of rule
citations whose notes restate the instantiated inequalities with the actual
numbers, so a verdict can be re-derived without reading the code.

All comparisons are exact, because several verdicts flip on exact equality
of rational index combinations: a pair's indices and exponents are compared
through integer keys (numerators over a common denominator, infinity above
every finite p), everything else as Fractions.  Unknown is a first-class
outcome: the oracle never extrapolates past the characterized parameter
regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .params import (
    INF,
    RangeError,
    SpaceSpec,
    as_extended,
    as_rational,
    indices,
    is_inf,
    rebrand,
    validate,
)

# Rule identifiers.  Each id names one condition set; the note attached to a
# citation restates that condition with the concrete numbers.
TRIVIAL_13 = "TRIVIAL_13"  # same p and gamma; s decreases, q grows
SUBCRITICAL_14 = "SUBCRITICAL_14"  # strict shifted-smoothness drop
SHARP_15 = "SHARP_15"  # shifted equality with q0 <= q1 (Besov)
F_SUFFICIENT_17 = "F_SUFFICIENT_17"  # F-scale, shifted >= with strict dim drop
H_CHAR_110 = "H_CHAR_110"  # H/W characterization, p0 <= p1
PQ_SWAP_114 = "PQ_SWAP_114"  # H/W characterization, p1 < p0
NEC_42 = "NEC_42"  # a non-strict necessary condition fails
NEC_STRICT_45 = "NEC_STRICT_45"  # strict dim-index necessity at p1 < p0
SANDWICH_BF = "SANDWICH_BF"  # verdict composed through B/F sandwiches
SANDWICH_HW = "SANDWICH_HW"  # verdict composed through H/W sandwiches
JAWERTH_FRANKE_62 = "JAWERTH_FRANKE_62"  # B -> F cross improvement
JAWERTH_FRANKE_63 = "JAWERTH_FRANKE_63"  # F -> B cross improvement
LP_TARGET_71 = "LP_TARGET_71"  # Besov source into weighted Lebesgue target
LP_TARGET_72 = "LP_TARGET_72"  # F/H/W source into weighted Lebesgue target
HOLDER_73 = "HOLDER_73"  # embedding into BUC^s
Q_NECESSITY = "Q_NECESSITY"  # q0 <= q1 forced on the sharp line
F_SHARP_NEC_55 = "F_SHARP_NEC_55"  # F-scale sharp case, p1 < p0, q0>=2>=q1
OPEN_REGIME = "OPEN_REGIME"  # uncharacterized parameter regime

ALL_RULE_IDS = (
    TRIVIAL_13,
    SUBCRITICAL_14,
    SHARP_15,
    F_SUFFICIENT_17,
    H_CHAR_110,
    PQ_SWAP_114,
    NEC_42,
    NEC_STRICT_45,
    SANDWICH_BF,
    SANDWICH_HW,
    JAWERTH_FRANKE_62,
    JAWERTH_FRANKE_63,
    LP_TARGET_71,
    LP_TARGET_72,
    HOLDER_73,
    Q_NECESSITY,
    F_SHARP_NEC_55,
    OPEN_REGIME,
)

EMBEDS = "embeds"
NO = "no"
UNKNOWN = "unknown"


class FamilyError(ValueError):
    """A decide_* function was called with the wrong space families."""


@dataclass(frozen=True)
class RuleCitation:
    rule_id: str
    note: str

    def to_dict(self):
        return {"rule": self.rule_id, "note": self.note}


@dataclass(frozen=True)
class Verdict:
    outcome: str  # EMBEDS | NO | UNKNOWN
    trace: Tuple[RuleCitation, ...]

    @property
    def embeds(self) -> bool:
        return self.outcome == EMBEDS

    def rule_ids(self):
        return [c.rule_id for c in self.trace]

    def to_dict(self):
        return {"outcome": self.outcome, "trace": [c.to_dict() for c in self.trace]}

    def prepend(self, citation: "RuleCitation") -> "Verdict":
        return Verdict(self.outcome, (citation,) + self.trace)


def _verdict(outcome, *citations) -> Verdict:
    return Verdict(outcome, tuple(citations))


class _Pair(NamedTuple):
    """Both specs, integer keys for their indices and exponents, and their
    stored A_p flags.

    Each key pair orders as the Fraction pair it stands for, so a rule reads
    ``pr.sh0 > pr.sh1`` as it reads on the Fractions; notes print the stored
    Fractions (``spec._indices``, ``spec.p``), never a key.
    """

    src: SpaceSpec
    tgt: SpaceSpec
    sh0: int
    sh1: int
    w0: int
    w1: int
    dim0: int
    dim1: int
    p0: int
    p1: int
    ap0: bool
    ap1: bool


def _keys(a, b):
    """Integer keys of the rationals a and b: their numerators over one
    common denominator."""
    return a.numerator * b.denominator, b.numerator * a.denominator


def _p_keys(p0, p1):
    """As ``_keys`` for exponents in (1, inf], with inf above every finite p."""
    if is_inf(p0) or is_inf(p1):
        return int(is_inf(p0)), int(is_inf(p1))
    return _keys(p0, p1)


def _pair(src: SpaceSpec, tgt: SpaceSpec) -> _Pair:
    if src.d != tgt.d:
        raise FamilyError(f"dimension mismatch: {src.d} vs {tgt.d}")
    # Callers pass validated B/F/H/W specs (a Holder target has no p).
    i0, i1 = src._indices, tgt._indices
    pr = _Pair(
        src,
        tgt,
        *_keys(i0.shifted_smoothness, i1.shifted_smoothness),
        *_keys(i0.weight_index, i1.weight_index),
        *_keys(i0.dim_index, i1.dim_index),
        *_p_keys(src.p, tgt.p),
        src._ap,
        tgt._ap,
    )
    _implication_audit(pr)
    return pr


def _implication_audit(pr: _Pair):
    """Internal consistency of the redundancy implications.

    If p0 < p1 and the weight indices are ordered, the dim-index drop is
    automatic and strict; if p1 < p0 and the dim indices drop strictly, the
    weight indices are ordered strictly.  Violations indicate arithmetic
    corruption, so they raise rather than producing a wrong verdict.
    """
    if pr.p0 < pr.p1 and pr.w1 <= pr.w0 and not pr.dim1 < pr.dim0:
        raise AssertionError(f"implication audit failed (dim redundancy): "
                             f"{pr.src} -> {pr.tgt}")
    if pr.p1 < pr.p0 and pr.dim1 < pr.dim0 and not pr.w1 < pr.w0:
        raise AssertionError(f"implication audit failed (weight redundancy): "
                             f"{pr.src} -> {pr.tgt}")


# ---------------------------------------------------------------------------
# Note helpers: each note restates the instantiated inequality.
# ---------------------------------------------------------------------------


def _note_shifted(pr, rel):
    return (
        f"s0-(d+g0)/p0 = {pr.src._indices.shifted_smoothness} {rel} "
        f"{pr.tgt._indices.shifted_smoothness} = s1-(d+g1)/p1"
    )


def _note_weight(pr, rel):
    return (f"g1/p1 = {pr.tgt._indices.weight_index} {rel} "
            f"{pr.src._indices.weight_index} = g0/p0")


def _note_dim(pr, rel):
    return (f"(d+g1)/p1 = {pr.tgt._indices.dim_index} {rel} "
            f"{pr.src._indices.dim_index} = (d+g0)/p0")


def _note_q(pr, rel):
    return f"q0 = {pr.src.q} {rel} {pr.tgt.q} = q1"


def _cond_trivial(pr: _Pair) -> bool:
    """Same-scale condition: equal p and gamma, s drops or q grows.

    At p0 = p1 = inf the weight is immaterial (the weighted sup-norm is the
    plain sup-norm), so differing gammas still count as the same scale.
    """
    if pr.p0 != pr.p1:
        return False
    if pr.src.gamma != pr.tgt.gamma and not is_inf(pr.src.p):
        return False
    if pr.src.s > pr.tgt.s:
        return True
    if pr.src.s == pr.tgt.s:
        q0 = pr.src.q if pr.src.q is not None else Fraction(1)
        q1 = pr.tgt.q if pr.tgt.q is not None else Fraction(1)
        return q0 <= q1
    return False


def _trivial_citation(pr: _Pair) -> RuleCitation:
    if pr.src.s > pr.tgt.s:
        detail = f"s0 = {pr.src.s} > {pr.tgt.s} = s1"
    else:
        detail = f"s0 = s1 = {pr.src.s}, " + _note_q(pr, "<=")
    if pr.src.gamma == pr.tgt.gamma:
        scale = f"g0 = g1 = {pr.src.gamma}, p0 = p1 = {pr.src.p}"
    else:
        scale = "p0 = p1 = inf (weighted sup-norms are weight-free)"
    return RuleCitation(TRIVIAL_13, f"{scale}, {detail}")


def _necessity_fails(pr: _Pair) -> bool:
    """Whether a necessary condition fails: the shifted smoothness, the
    weight index or the dim index rises, or the dim index does not drop
    strictly at p1 < p0.  ``_first_violated_necessity`` names which."""
    held = pr.sh0 >= pr.sh1 and pr.w1 <= pr.w0 and pr.dim1 <= pr.dim0
    return not held or (pr.p1 < pr.p0 and pr.dim1 == pr.dim0)


def _first_violated_necessity(pr: _Pair) -> RuleCitation:
    """Cite the first violated necessary condition.

    Order: shifted smoothness, weight index, dim index (the translation /
    peak / dilation witnesses), then the strict dim-index requirement at
    p1 < p0, then the q-comparison on the sharp line.
    """
    if pr.sh0 < pr.sh1:
        return RuleCitation(NEC_42, "violated: " + _note_shifted(pr, "<"))
    if pr.w1 > pr.w0:
        return RuleCitation(NEC_42, "violated: " + _note_weight(pr, ">"))
    if pr.dim1 > pr.dim0:
        return RuleCitation(NEC_42, "violated: " + _note_dim(pr, ">"))
    if pr.dim1 == pr.dim0 and pr.p1 < pr.p0:
        return RuleCitation(NEC_STRICT_45, "violated strict necessity at "
                            "p1 < p0: " + _note_dim(pr, "="))
    return RuleCitation(
        Q_NECESSITY,
        "sharp line (" + _note_shifted(pr, "=") + ") forces q0 <= q1; "
        + _note_q(pr, ">"),
    )


# ---------------------------------------------------------------------------
# Besov scale
# ---------------------------------------------------------------------------


def decide_besov(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """Complete characterization on the Besov scale; never returns Unknown."""
    src, tgt = validate(src), validate(tgt)
    if src.family != "B" or tgt.family != "B":
        raise FamilyError(f"decide_besov needs two B-spaces, got {src.family}/{tgt.family}")
    pr = _pair(src, tgt)

    if _cond_trivial(pr):
        return _verdict(EMBEDS, _trivial_citation(pr))

    base = pr.w1 <= pr.w0 and pr.dim1 < pr.dim0
    if base and pr.sh0 > pr.sh1:
        return _verdict(
            EMBEDS,
            RuleCitation(
                SUBCRITICAL_14,
                _note_weight(pr, "<=") + "; " + _note_dim(pr, "<") + "; "
                + _note_shifted(pr, ">"),
            ),
        )
    if base and pr.sh0 == pr.sh1 and src.q <= tgt.q:
        return _verdict(
            EMBEDS,
            RuleCitation(
                SHARP_15,
                _note_weight(pr, "<=") + "; " + _note_dim(pr, "<") + "; "
                + _note_shifted(pr, "=") + "; " + _note_q(pr, "<="),
            ),
        )
    return _verdict(NO, _first_violated_necessity(pr))


# ---------------------------------------------------------------------------
# Triebel-Lizorkin scale
# ---------------------------------------------------------------------------


def decide_triebel(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """F-scale decisions.

    For p0 <= p1 the characterization is complete (the sharp case is
    q-independent).  For p1 < p0 it combines the strict sufficiency route
    through the Besov scale with the strict necessity results; the sharp
    case is decided only for q0 in [2,inf], q1 in [1,2] inside the A_p
    ranges and is otherwise a genuinely open regime.
    """
    src, tgt = validate(src), validate(tgt)
    if src.family != "F" or tgt.family != "F":
        raise FamilyError(f"decide_triebel needs two F-spaces, got {src.family}/{tgt.family}")
    pr = _pair(src, tgt)

    if _cond_trivial(pr):
        return _verdict(EMBEDS, _trivial_citation(pr))

    if pr.p0 <= pr.p1:
        if pr.w1 <= pr.w0 and pr.dim1 < pr.dim0 and pr.sh0 >= pr.sh1:
            return _verdict(
                EMBEDS,
                RuleCitation(
                    F_SUFFICIENT_17,
                    _note_weight(pr, "<=") + "; " + _note_dim(pr, "<") + "; "
                    + _note_shifted(pr, ">="),
                ),
            )
        return _verdict(NO, _first_violated_necessity(pr))

    # p1 < p0: necessity demands a strict dim-index drop and shifted >=.
    if not (pr.dim1 < pr.dim0 and pr.sh0 >= pr.sh1):
        return _verdict(NO, _first_violated_necessity(pr))
    if pr.sh0 > pr.sh1:
        return _verdict(
            EMBEDS,
            RuleCitation(
                SANDWICH_BF,
                "p1 < p0 strict route: F wraps into the B-scale and back; "
                + _note_dim(pr, "<") + "; " + _note_shifted(pr, ">"),
            ),
            RuleCitation(
                SUBCRITICAL_14,
                f"B^{src.s}_{{{src.p},inf}} embeds into B^{tgt.s}_{{{tgt.p},1}} "
                "after an epsilon gain in s",
            ),
        )
    # Sharp case on the p1 < p0 side.
    if src.q >= 2 and tgt.q <= 2 and pr.ap0 and pr.ap1:
        return _verdict(
            NO,
            RuleCitation(
                F_SHARP_NEC_55,
                "sharp case with p1 < p0: " + _note_shifted(pr, "=")
                + f"; q0 = {src.q} >= 2 >= {tgt.q} = q1; both weights in A_p",
            ),
        )
    return _verdict(
        UNKNOWN,
        RuleCitation(
            OPEN_REGIME,
            "F-scale sharp case with p1 < p0 and (q0, q1) outside "
            "[2,inf] x [1,2] (or a weight outside its A_p range) is open",
        ),
    )


# ---------------------------------------------------------------------------
# Bessel-potential and Sobolev scales
# ---------------------------------------------------------------------------


def _decide_hw(src: SpaceSpec, tgt: SpaceSpec, fam: str) -> Verdict:
    pr = _pair(src, tgt)

    if pr.ap0 and pr.ap1:
        if pr.p0 <= pr.p1:
            if pr.w1 <= pr.w0 and pr.sh0 >= pr.sh1:
                return _verdict(
                    EMBEDS,
                    RuleCitation(
                        H_CHAR_110,
                        _note_weight(pr, "<=") + "; " + _note_shifted(pr, ">="),
                    ),
                )
            return _verdict(NO, _first_violated_necessity(pr))
        # p1 < p0: strict dim drop and strict shifted drop, both required.
        if pr.dim1 < pr.dim0 and pr.sh0 > pr.sh1:
            return _verdict(
                EMBEDS,
                RuleCitation(
                    PQ_SWAP_114,
                    _note_dim(pr, "<") + "; " + _note_shifted(pr, ">"),
                ),
            )
        # Equal dim indices at p1 < p0 force w1 < w0: NEC_STRICT_45 applies.
        if pr.sh0 < pr.sh1 or pr.dim1 >= pr.dim0:
            return _verdict(NO, _first_violated_necessity(pr))
        return _verdict(
            NO,
            RuleCitation(
                PQ_SWAP_114,
                "no embedding in the sharp case at p1 < p0: "
                + _note_shifted(pr, "="),
            ),
        )

    # Some weight lies outside its A_p range.  Same-scale embeddings stay
    # valid (negative-order lifting is weight-independent for power
    # weights); beyond those, only the necessary conditions (valid for
    # every gamma > -d) can decide, and the sufficiency question is open.
    if src.gamma == tgt.gamma and pr.p0 == pr.p1 and src.s >= tgt.s:
        return _verdict(
            EMBEDS,
            RuleCitation(
                TRIVIAL_13,
                f"g0 = g1 = {src.gamma}, p0 = p1 = {src.p}, "
                f"s0 = {src.s} >= {tgt.s} = s1 (same scale)",
            ),
        )
    if _necessity_fails(pr):
        return _verdict(NO, _first_violated_necessity(pr))
    which = []
    if not pr.ap0:
        which.append(f"g0={src.gamma} not in (-d, d(p0-1))=(-{src.d},{src.d*(src.p-1)})")
    if not pr.ap1:
        which.append(f"g1={tgt.gamma} not in (-d, d(p1-1))=(-{tgt.d},{tgt.d*(tgt.p-1)})")
    return _verdict(
        UNKNOWN,
        RuleCitation(
            OPEN_REGIME,
            f"{fam}-scale sufficiency outside the A_p ranges is open: "
            + "; ".join(which),
        ),
    )


def decide_bessel(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """H-scale decisions; complete inside the A_p ranges."""
    src, tgt = validate(src), validate(tgt)
    if src.family != "H" or tgt.family != "H":
        raise FamilyError(f"decide_bessel needs two H-spaces, got {src.family}/{tgt.family}")
    return _decide_hw(src, tgt, "H")


def decide_sobolev(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """W-scale decisions; the decision table coincides with the H-scale."""
    src, tgt = validate(src), validate(tgt)
    if src.family != "W" or tgt.family != "W":
        raise FamilyError(f"decide_sobolev needs two W-spaces, got {src.family}/{tgt.family}")
    return _decide_hw(src, tgt, "W")


# ---------------------------------------------------------------------------
# Cross-family decisions
# ---------------------------------------------------------------------------


def _wrap_up(spec: SpaceSpec):
    """Smallest Besov overspace used for sufficiency: src -> B.

    Returns (besov_spec, citation) or None when the wrap needs an A_p
    weight and the gate fails.
    """
    if spec.family == "B":
        return spec, None
    if spec.family == "F":
        q = spec.p if spec.q <= spec.p else spec.q
        note = f"F^s_{{p,q}} embeds into B^s_{{p,max(p,q)={q}}}"
        return rebrand(spec, "B", q), RuleCitation(SANDWICH_BF, note)
    if not spec._ap:
        return None
    note = f"{spec.family}-space with A_p weight embeds into B^s_{{p,inf}}"
    return rebrand(spec, "B", INF), RuleCitation(SANDWICH_HW, note)


def _wrap_down(spec: SpaceSpec):
    """Largest Besov subspace used for sufficiency: B -> tgt."""
    if spec.family == "B":
        return spec, None
    if spec.family == "F":
        q = spec.p if spec.p <= spec.q else spec.q
        note = f"B^s_{{p,min(p,q)={q}}} embeds into F^s_{{p,q}}"
        return rebrand(spec, "B", q), RuleCitation(SANDWICH_BF, note)
    if not spec._ap:
        return None
    note = f"B^s_{{p,1}} embeds into the {spec.family}-space (A_p weight)"
    return rebrand(spec, "B", Fraction(1)), RuleCitation(SANDWICH_HW, note)


def _in_besov_sandwich(spec: SpaceSpec) -> bool:
    """Whether B^s_{p,1} embeds into spec and spec into B^s_{p,inf}, both at
    spec's p and weight: the necessity sandwich, on the source side (to
    reach spec from B_{p0,1}) and on the target side (to leave it for
    B_{p1,inf}).  Always on the B and F scales; on H and W iff A_p."""
    return spec.family in ("B", "F") or spec._ap


def decide_cross(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """Cross-family decisions via sandwich, Jawerth-Franke, and necessity.

    Three stages, first hit wins: (i) sufficiency by wrapping both sides
    into the Besov scale, (ii) Jawerth-Franke improvements for B->F and
    F->B with p0 < p1, (iii) necessity through the reverse sandwich.
    """
    src, tgt = validate(src), validate(tgt)
    for spec in (src, tgt):
        if spec.family == "Holder":
            raise FamilyError("use holder_embedding for Holder targets")
    if src.family == tgt.family:
        raise FamilyError("decide_cross needs two distinct families")
    pr = _pair(src, tgt)

    # Stage (i): sufficiency by sandwich.
    up = _wrap_up(src)
    down = _wrap_down(tgt)
    if up is not None and down is not None:
        up_spec, up_cit = up
        down_spec, down_cit = down
        inner = decide_besov(up_spec, down_spec)
        if inner.embeds:
            cits = [c for c in (up_cit, down_cit) if c is not None]
            return Verdict(EMBEDS, tuple(cits) + inner.trace)

    # Stage (ii): Jawerth-Franke improvements (p0 < p1, A_p weights).
    if (
        pr.p0 < pr.p1
        and pr.ap0
        and pr.ap1
        and pr.w1 <= pr.w0
        and pr.sh0 >= pr.sh1
    ):
        if src.family == "B" and tgt.family == "F" and src.q <= tgt.p:
            return _verdict(
                EMBEDS,
                RuleCitation(
                    JAWERTH_FRANKE_62,
                    f"B^s0_{{p0,q0={src.q}}} embeds into B^s0_{{p0,p1={tgt.p}}} "
                    "and the latter into every F^s1_{p1,q}; "
                    + _note_weight(pr, "<=") + "; " + _note_shifted(pr, ">="),
                ),
            )
        if src.family == "F" and tgt.family == "B" and tgt.q >= src.p:
            return _verdict(
                EMBEDS,
                RuleCitation(
                    JAWERTH_FRANKE_63,
                    f"every F^s0_{{p0,q}} embeds into B^s1_{{p1,p0={src.p}}} "
                    f"and the latter into B^s1_{{p1,q1={tgt.q}}}; "
                    + _note_weight(pr, "<=") + "; " + _note_shifted(pr, ">="),
                ),
            )

    # Stage (iii): necessity through the reverse sandwich.
    if (_in_besov_sandwich(src) and _in_besov_sandwich(tgt)
            and _necessity_fails(pr)):
        return _verdict(NO, _first_violated_necessity(pr))
    return _verdict(
        UNKNOWN,
        RuleCitation(
            OPEN_REGIME,
            f"cross-family pair {src.family}->{tgt.family} not decided by "
            "sandwich or Jawerth-Franke rules in this parameter regime",
        ),
    )


# ---------------------------------------------------------------------------
# Unweighted Holder targets and weighted Lebesgue targets
# ---------------------------------------------------------------------------


def holder_embedding(src: SpaceSpec) -> Verdict:
    """Embedding of src into BUC^{s1} with s1 = s0 - (d+gamma0)/p0.

    Sufficiency-only rule: Embeds when s1 > 0 is not an integer (any q0 for
    B/F sources), or when s1 >= 0 is an integer and src is a Besov space
    with q0 = 1.  Requires gamma0 >= 0, and for H/W sources additionally
    gamma0 < d(p0-1).  The note names the target smoothness.
    """
    src = validate(src)
    if src.family == "Holder":
        raise FamilyError("source cannot be a Holder space")
    if src.gamma < 0:
        raise RangeError(f"Holder embedding needs gamma0 >= 0, got {src.gamma}")
    if src.family in ("H", "W") and not src._ap:  # gamma0 >= 0 > -d here
        raise RangeError(
            f"{src.family}-source needs gamma0 < d(p0-1); "
            f"gamma0={src.gamma}, bound={src.d * (src.p - 1)}"
        )
    s1 = indices(src).shifted_smoothness
    if s1 > 0 and s1.denominator != 1:
        return _verdict(
            EMBEDS,
            RuleCitation(
                HOLDER_73,
                f"s1 = s0-(d+g0)/p0 = {s1} > 0 is not an integer: "
                f"embeds into BUC^{s1}",
            ),
        )
    if s1 >= 0 and s1.denominator == 1 and src.family == "B" and src.q == 1:
        return _verdict(
            EMBEDS,
            RuleCitation(
                HOLDER_73,
                f"s1 = {s1} is a nonnegative integer and q0 = 1: "
                f"embeds into BUC^{s1}",
            ),
        )
    return _verdict(
        UNKNOWN,
        RuleCitation(
            OPEN_REGIME,
            f"Holder rule covers s1 > 0 non-integer, or integer s1 >= 0 with a "
            f"B_{{p,1}} source; here s1 = {s1}",
        ),
    )


def decide_holder_target(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """Embedding into a requested BUC^{st} target.

    Embeds when st is below the shifted smoothness s1 of the source (an
    epsilon gain reduces to the q0 = 1 case), or equals it under the rule
    conditions; fails when st exceeds s1 (sup-norm peak necessity).
    """
    src, tgt = validate(src), validate(tgt)
    if tgt.family != "Holder":
        raise FamilyError("decide_holder_target needs a Holder target")
    if src.d != tgt.d:
        raise FamilyError(f"dimension mismatch: {src.d} vs {tgt.d}")
    base = holder_embedding(src)
    s1 = indices(src).shifted_smoothness
    st = tgt.s
    if st > s1:
        return _verdict(
            NO,
            RuleCitation(
                NEC_42,
                f"violated: s0-(d+g0)/p0 = {s1} < {st} = target smoothness "
                "(peak family in the sup-norm)",
            ),
        )
    if st == s1:
        return base
    # st < s1: drop s0 by an epsilon down to a B_{p0,1} source.
    return _verdict(
        EMBEDS,
        RuleCitation(
            HOLDER_73,
            f"target smoothness {st} < {s1} = s0-(d+g0)/p0: an epsilon gain "
            f"in s reduces to a B_{{p0,1}} source, which embeds into BUC^{st}",
        ),
    )


def lp_target(src: SpaceSpec, p1, gamma1) -> Verdict:
    """Embedding of src into the weighted Lebesgue space L^{p1}(|x|^{gamma1}).

    Inside the A_p ranges an H/W source delegates to the exact H-scale
    characterization via L^{p1} = H^{0,p1}.  Otherwise the Lebesgue-target
    sufficiency rules apply, with the reverse-sandwich necessity.
    """
    src = validate(src)
    tgt = validate(SpaceSpec(
        family="Lp", d=src.d, p=as_extended(p1, what="p"),
        gamma=as_rational(gamma1, what="gamma"),
    ))  # canonicalizes to H^{0,p1}
    if src.family == "Holder":
        raise FamilyError("source cannot be a Holder space")
    return _lp_target(src, tgt)


def _lp_target(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """``lp_target`` on validated specs: a non-Holder src, tgt H^{0,p1} or W^{0,p1}."""
    pr = _pair(src, tgt)

    if src.family in ("H", "W") and pr.ap0 and pr.ap1:
        inner = _decide_hw(src, rebrand(tgt, src.family), src.family)
        return inner.prepend(
            RuleCitation(
                LP_TARGET_72,
                f"L^{tgt.p}(|x|^{tgt.gamma}) = H^{{0,{tgt.p}}} inside the A_p "
                "range; exact delegation",
            )
        )

    # Sufficiency for B/F sources (and H/W sources wrapped through F).
    nec = pr.sh0 >= pr.sh1 and pr.w1 <= pr.w0
    if src.family == "B":
        strict_route = nec and pr.dim1 < pr.dim0 and pr.sh0 > pr.sh1
        sharp_route = (
            nec
            and pr.dim1 < pr.dim0
            and src.q <= src.p
            and (pr.p0 <= pr.p1 or src.q == 1)
        )
        if strict_route or sharp_route:
            how = (
                "strict shifted drop (epsilon gain to q0 = 1)"
                if strict_route and not sharp_route
                else f"q0 = {src.q} <= p0 and "
                + ("p0 <= p1" if pr.p0 <= pr.p1 else "q0 = 1")
            )
            return _verdict(
                EMBEDS,
                RuleCitation(
                    LP_TARGET_71,
                    _note_shifted(pr, ">=") + "; " + _note_weight(pr, "<=")
                    + "; " + _note_dim(pr, "<") + "; " + how,
                ),
            )
    else:
        # F source, or H/W source with an A_p weight wrapped into F_{p0,inf}.
        wrapped_ok = src.family == "F" or pr.ap0
        trivial_route = (
            src.family == "F"
            and src.gamma == tgt.gamma
            and pr.p0 == pr.p1
            and (src.s > 0 or (src.s == 0 and src.q <= 1))
        )
        general_route = (
            wrapped_ok and pr.p0 <= pr.p1 and nec and pr.dim1 < pr.dim0
        )
        if trivial_route or general_route:
            return _verdict(
                EMBEDS,
                RuleCitation(
                    LP_TARGET_72,
                    (
                        _note_shifted(pr, ">=") + "; " + _note_weight(pr, "<=")
                        if general_route
                        else f"same p and gamma with s0 = {src.s} above the "
                        "Lebesgue line"
                    ),
                ),
            )

    # Necessity by the reverse sandwich (L^{p1}(w1) norms hit directly).
    if _in_besov_sandwich(src) and _necessity_fails(pr):
        return _verdict(NO, _first_violated_necessity(pr))
    return _verdict(
        UNKNOWN,
        RuleCitation(
            OPEN_REGIME,
            "Lebesgue-target rules do not decide this parameter regime",
        ),
    )


# ---------------------------------------------------------------------------
# Dispatcher and embedding matrix
# ---------------------------------------------------------------------------

_SAME_FAMILY = {
    "B": decide_besov,
    "F": decide_triebel,
    "H": decide_bessel,
    "W": decide_sobolev,
}


def decide(src: SpaceSpec, tgt: SpaceSpec) -> Verdict:
    """Dispatch on the (canonicalized) families of the two specs.

    H^{0,p}, W^{0,p} and L^p with the same weight are the same space by
    definition, so a zero-smoothness H/W endpoint is aligned with the other
    side's family before dispatching, and B/F sources aimed at such a
    target use the Lebesgue-target rules.
    """
    src, tgt = validate(src), validate(tgt)
    if src.family == "Holder":
        raise FamilyError("source cannot be a Holder space")
    if tgt.family == "Holder":
        return decide_holder_target(src, tgt)
    if src.family != tgt.family:
        if tgt.family in ("H", "W") and tgt.s == 0:
            if src.family in ("H", "W"):
                tgt = rebrand(tgt, src.family)
            else:
                return _lp_target(src, tgt)
        elif src.family in ("H", "W") and src.s == 0 and tgt.family in ("H", "W"):
            src = rebrand(src, tgt.family)
    if src.family == tgt.family:
        return _SAME_FAMILY[src.family](src, tgt)
    return decide_cross(src, tgt)


@dataclass
class MatrixCell:
    verdict: Optional[Verdict]
    error: Optional[str] = None


@dataclass
class MatrixReport:
    specs: List[SpaceSpec]
    cells: List[List[MatrixCell]]
    transitivity_violations: List[Tuple[int, int, int]]

    def to_dict(self):
        from .params import spec_to_dict

        return {
            "specs": [spec_to_dict(s) for s in self.specs],
            "cells": [
                [
                    {"error": c.error}
                    if c.verdict is None
                    else c.verdict.to_dict()
                    for c in row
                ]
                for row in self.cells
            ],
            "transitivity_violations": [list(t) for t in self.transitivity_violations],
        }


def embedding_matrix(specs: List[SpaceSpec]) -> MatrixReport:
    """Pairwise verdicts plus a transitivity audit.

    Per-cell errors become cell diagnostics; the matrix is still returned.
    A transitivity violation (Embeds(i,j), Embeds(j,k), DoesNotEmbed(i,k))
    would expose an internal inconsistency in the rule set, so any found
    are reported prominently.
    """
    canon = []
    errors = {}
    for i, s in enumerate(specs):
        try:
            canon.append(validate(s))
        except Exception as exc:  # keep the row/column with diagnostics
            canon.append(s)
            errors[i] = str(exc)

    n = len(specs)
    cells = [[MatrixCell(None) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i in errors or j in errors:
                cells[i][j] = MatrixCell(None, errors.get(i) or errors.get(j))
                continue
            try:
                cells[i][j] = MatrixCell(decide(canon[i], canon[j]))
            except Exception as exc:
                cells[i][j] = MatrixCell(None, str(exc))

    violations = []
    for i in range(n):
        for j in range(n):
            vij = cells[i][j].verdict
            if vij is None or not vij.embeds:
                continue
            for k in range(n):
                vjk = cells[j][k].verdict
                vik = cells[i][k].verdict
                if vjk is None or vik is None:
                    continue
                if vjk.embeds and vik.outcome == NO:
                    violations.append((i, j, k))
    return MatrixReport(canon, cells, violations)
