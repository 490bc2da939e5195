"""Experiments connecting oracle verdicts to measured numbers.

Scaling exponents are estimated by least squares in log-linear coordinates
along the witness families, compared against the predicted rational
exponents, and bounded-ratio checks validate Embeds verdicts.  Asymptotic
statements are checked on finite windows (peaks n in [3,7], translations
lambda in [4,64], dilations t in [2^-4, 1]) with stated tolerances; only
exponents and boundedness are asserted, never sharp constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import norms
from .lpengine import (
    Field,
    Grid,
    RadialProfile,
    _sys_cache,  # re-exported: perfbench clears and counts verify._sys_cache
    derivative,
    grid_entry,
    radial_weighted_lp,
    weighted_lp,
    weighted_lps,
)
from .oracle import NO, EMBEDS, Verdict, decide
from .params import SpaceSpec, indices, is_inf, spec_to_dict, validate
from .witnesses import (
    WitnessFamily,
    dilation_family,
    gaussian_base,
    gaussian_spectral_base,
    log_singularity,
    riesz_log,
    spectral_peaks,
    translation_family,
)


class DegenerateData(ValueError):
    """Not enough well-ordered data for a least-squares exponent."""


class ConditionError(ValueError):
    """The experiment's parameter precondition fails."""


class NotApplicable(ValueError):
    """The requested demonstration does not apply to this verdict."""


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------


@dataclass
class ExponentFit:
    xs: List[float]
    ys: List[float]
    slope: float
    intercept: float
    max_residual: float


def nonfinite_rows(values: Sequence[float]) -> List[int]:
    """Indices of the NaN or infinite values among a report's measurements.

    A pass rule fails on any of them: ``max`` and ``min`` skip a NaN that
    is not the first item, so a window or cap alone would let it pass.
    """
    return [i for i, v in enumerate(values) if not math.isfinite(v)]


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> ExponentFit:
    """Least squares of ys against log(xs).

    Callers pass ys already in log scale, so the slope is the power-law
    exponent; it is base-free as long as both logs share a base.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) < 4 or len(xs) != len(ys):
        raise DegenerateData(f"need at least 4 matched points, got {len(xs)}")
    if any(x <= 0 for x in xs):
        raise DegenerateData("family parameters must be positive")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise DegenerateData("family parameters must be strictly increasing")
    lx = np.log(xs)
    ya = np.asarray(ys)
    slope, intercept = np.polyfit(lx, ya, 1)
    resid = ya - (slope * lx + intercept)
    return ExponentFit(xs, ys, float(slope), float(intercept),
                       float(np.max(np.abs(resid))))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    experiment_id: str
    kind: str
    passed: bool
    predicted_exponent: Optional[float] = None
    predicted_formula: str = ""
    tolerance: Optional[float] = None
    residual_cap: Optional[float] = None
    fit: Optional[ExponentFit] = None
    src: Optional[dict] = None
    tgt: Optional[dict] = None
    rows: List[dict] = field(default_factory=list)
    details: Dict = field(default_factory=dict)
    manifest: Optional[dict] = None
    seed: Optional[int] = None
    warnings: List[str] = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


@dataclass
class Measured:
    """The rows of a measured check and the value each row measures."""
    rows: List[dict]
    values: List[float]


def measured_rows(params, src=None, tgt=None, ratios=None) -> Measured:
    """Rows of ``parameter``, ``src_norm``, ``tgt_norm`` and ``ratio``.

    A row measures the ratio tgt/src of its norms (``inf`` when the source
    norm is not positive), else its given ratio, else its source norm; a
    column the check has no value for is written "".
    """
    params = list(params)
    blank = [""] * len(params)
    src = None if src is None else [float(a) for a in src]
    if tgt is not None:
        tgt = [float(b) for b in tgt]
        ratios = [b / a if a > 0 else math.inf for a, b in zip(src, tgt)]
    rows = [{"parameter": t, "src_norm": a, "tgt_norm": b, "ratio": r}
            for t, a, b, r in zip(params, src or blank, tgt or blank,
                                  ratios or blank)]
    return Measured(rows, src if ratios is None else list(ratios))


def measured_report(experiment_id, kind, measured: Measured, passes, *,
                    fit=False, details=None, more_values=None,
                    **fields) -> ExperimentReport:
    """The report of a measured check under its pass rule.

    With ``fit`` the log of each measured value is fitted against the row
    parameters.  The report passes when every measured value (its log, with
    ``fit``) and every value in ``more_values`` is finite and ``passes``
    holds of the fit (None without ``fit``).  When a value is not finite,
    ``passes`` is not called, the report carries no fit, and the rows at
    fault are named in ``details["nonfinite_ratios"]`` and the positions in
    ``more_values[name]`` in ``details["nonfinite_<name>"]``.
    """
    values = measured.values
    if fit:
        values = [math.log(v) if v > 0 else math.nan for v in values]
    named = {f"nonfinite_{name}": nonfinite_rows(vals)
             for name, vals in {"ratios": values, **(more_values or {})}.items()}
    bad = {key: at for key, at in named.items() if at}
    fitted = None
    if fit and not bad:
        fitted = fit_exponent([row["parameter"] for row in measured.rows],
                              values)
    return ExperimentReport(
        experiment_id=experiment_id,
        kind=kind,
        passed=not bad and passes(fitted),
        fit=fitted,
        rows=measured.rows,
        details={**(details or {}), **bad},
        **fields,
    )


def _within(predicted, tolerance, residual_cap=math.inf):
    """The slope rule: the fitted exponent lies within ``tolerance`` of
    ``predicted`` and no residual exceeds ``residual_cap``."""
    return lambda fit: (abs(fit.slope - predicted) <= tolerance
                        and fit.max_residual <= residual_cap)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

DEFAULT_GRID_1D = (1, 16.0, 2 ** 14)
DEFAULT_GRID_2D = (2, 8.0, 2 ** 9)
WIDE_GRID_1D = (1, 128.0, 2 ** 14)
WIDE_GRID_2D = (2, 64.0, 2 ** 9)
# Dilation experiments probe the t -> 0 regime, where members must stay
# inside the lowest dyadic block (band <= 1.5) while widening by the whole
# t-window, so they live on a very wide, coarse lattice.
DIM_GRID_1D = (1, 1024.0, 2 ** 13)
DIM_GRID_2D = (2, 256.0, 2 ** 9)


def default_grid(d: int, wide: bool = False) -> Grid:
    if d == 1:
        return Grid(*(WIDE_GRID_1D if wide else DEFAULT_GRID_1D))
    if d == 2:
        return Grid(*(WIDE_GRID_2D if wide else DEFAULT_GRID_2D))
    raise NotApplicable(f"sampled grids support d in {{1, 2}}, got d={d}")


def dilation_grid(d: int) -> Grid:
    """The very wide, coarse grid of the t -> 0 dilation regime."""
    if d == 1:
        return Grid(*DIM_GRID_1D)
    if d == 2:
        return Grid(*DIM_GRID_2D)
    raise NotApplicable(f"sampled grids support d in {{1, 2}}, got d={d}")


def dilation_setup(d: int):
    """Wide-grid base and t-window for the t -> 0 dilation regime.

    The base transform is a narrow Gaussian with 1e-16 band 1.29, so every
    member of the window sits inside the plateau of the zeroth dyadic block
    and the measured ratio carries the pure dimension-index exponent.
    """
    grid = dilation_grid(d)
    ts = ([2.0 ** -k for k in range(4, -1, -1)] if d == 1
          else [0.25, 0.4, 0.63, 1.0])
    return gaussian_spectral_base(grid, sigma_xi=0.15), ts


def _member_norm(member: Field, spec: SpaceSpec) -> float:
    return norms.space_norm(member, spec).value


# ---------------------------------------------------------------------------
# Scaling checks
# ---------------------------------------------------------------------------


def _dim_index(p, gamma, d) -> float:
    """(d+gamma)/p in floats, 0 at p = inf."""
    return 0.0 if float(p) == math.inf else (d + float(gamma)) / float(p)


def check_peak_scaling(p, gamma, j, n_range=range(3, 8), grid: Optional[Grid] = None,
                       tolerance=0.02) -> ExperimentReport:
    """Fit of log ||phi_n * phi_{n+j}||_{L^p(w)} against n.

    Predicted slope (per doubling): d - (d+gamma)/p, with (d+gamma)/p = 0 at
    p = inf; no residual may exceed 0.05.
    """
    d = grid.d if grid is not None else 1
    grid = grid or default_grid(d)
    fam = spectral_peaks(grid, list(n_range), j)
    values = weighted_lps([(m, p, float(gamma)) for m in fam.members()])
    predicted = d - _dim_index(p, gamma, d)
    return measured_report(
        f"peak_scaling[p={p},gamma={gamma},j={j},d={d}]",
        "peak_scaling",
        measured_rows([2.0 ** n for n in fam.member_params], values),
        _within(predicted, tolerance, 0.05),
        fit=True,
        predicted_exponent=predicted,
        predicted_formula="d - (d+gamma)/p",
        tolerance=tolerance,
        residual_cap=0.05,
        manifest=fam.manifest(),
    )


def check_translation_scaling(p, gamma, lambda_values=(4, 8, 16, 32, 64),
                              grid: Optional[Grid] = None,
                              tolerance=0.05) -> ExperimentReport:
    """Fit of log ||f(. - lambda e1)||_{L^p(w)} against log lambda; slope gamma/p."""
    d = grid.d if grid is not None else 1
    grid = grid or default_grid(d, wide=True)
    fam = translation_family(gaussian_base(grid, sigma=1.0), list(lambda_values))
    values = weighted_lps([(m, p, float(gamma)) for m in fam.members()])
    predicted = 0.0 if float(p) == math.inf else float(gamma) / float(p)
    return measured_report(
        f"translation_scaling[p={p},gamma={gamma},d={d}]",
        "translation_scaling",
        measured_rows([float(l) for l in fam.member_params], values),
        _within(predicted, tolerance, 0.1),
        fit=True,
        predicted_exponent=predicted,
        predicted_formula="gamma/p",
        tolerance=tolerance,
        residual_cap=0.1,
        manifest=fam.manifest(),
    )


def check_nikolskij(base: Field, p0, gamma0, p1, gamma1, alpha=0,
                    t_values=(1, 2, 4, 8, 16), force=False) -> ExperimentReport:
    """Band-limited boundedness: R(t) = ||D^a f_t||_{p1,w1} / ||f_t||_{p0,w0}.

    Along dilations the normalized ratio R(t) / t^{|a|+delta}, with
    delta = (d+gamma0)/p0 - (d+gamma1)/p1, must stay within a factor 10,
    and the fitted exponent of R must not exceed |a| + delta by over 0.1.
    """
    d = base.grid.d
    if isinstance(alpha, int):
        alpha = (alpha,) * 1 if d == 1 else (alpha, 0)
    order = sum(alpha)
    dim0 = (d + float(gamma0)) / float(p0)
    dim1 = (d + float(gamma1)) / float(p1)
    w0, w1 = float(gamma0) / float(p0), float(gamma1) / float(p1)
    delta = dim0 - dim1
    cond_ok = w1 <= w0 + 1e-12 and dim1 < dim0 - 1e-12
    if not cond_ok and not force:
        raise ConditionError(
            f"need gamma1/p1 <= gamma0/p0 and (d+gamma1)/p1 < (d+gamma0)/p0; "
            f"got weight indices {w1} vs {w0} and dim indices {dim1} vs {dim0}"
        )
    fam = dilation_family(base, [float(t) for t in t_values])
    # One batch: each member's target norm, then its source norm.
    values = weighted_lps([item for member in fam.members() for item in (
        (derivative(member, alpha), p1, float(gamma1)), (member, p0, float(gamma0)))])
    measured = measured_rows(fam.member_params, values[1::2], values[0::2])
    normalized = [r / t ** (order + delta)
                  for r, t in zip(measured.values, fam.member_params)]
    spread = (max(normalized) / min(normalized) if min(normalized) > 0
              else math.inf)
    return measured_report(
        f"nikolskij[p0={p0},g0={gamma0},p1={p1},g1={gamma1},alpha={alpha}]",
        "nikolskij",
        measured,
        lambda fit: spread <= 10.0 and fit.slope <= order + delta + 0.1,
        fit=True,
        predicted_exponent=order + delta,
        predicted_formula="|alpha| + (d+gamma0)/p0 - (d+gamma1)/p1",
        tolerance=0.1,
        details={
            "normalized_spread": spread,
            "bound_factor": 10.0,
            "seed": getattr(base, "seed", None),
            "condition_forced": bool(not cond_ok),
        },
        manifest=fam.manifest(),
        seed=getattr(base, "seed", None),
    )


def check_gagliardo(fields: Sequence[Field], s0, s1, theta, p, q, gammas,
                    cap=10.0) -> List[ExperimentReport]:
    """Interpolation inequality on a batch: ||f||_{F^s} <= C ||f||^{1-th} ||f||^th.

    s = (1-theta) s0 + theta s1, one p, one report per weight in ``gammas``,
    in that order.  Each field is normed for every gamma before the next
    field, so the norms' one-field memo serves every gamma.  The batch
    maximum of the ratio is reported and compared against the cap.
    """
    s0, s1, theta, gammas = float(s0), float(s1), float(theta), list(gammas)
    s = (1.0 - theta) * s0 + theta * s1
    rows = [([], []) for _ in gammas]  # per gamma, numerators and denominators
    for f in fields:
        for gamma, (nums, dens) in zip(gammas, rows):
            nums.append(norms.triebel_norm(f, s, p, q, gamma).value)
            a = norms.triebel_norm(f, s0, p, q, gamma).value
            b = norms.triebel_norm(f, s1, p, q, gamma).value
            dens.append(a ** (1.0 - theta) * b ** theta)
    reports = []
    for gamma, (nums, dens) in zip(gammas, rows):
        measured = measured_rows(range(len(fields)), dens, nums)
        worst = max((r for r in measured.values if not math.isnan(r)), default=0.0)
        reports.append(measured_report(
            f"gagliardo[s0={s0},s1={s1},theta={theta},p={p},q={q},gamma={gamma}]",
            "gagliardo",
            measured,
            lambda fit, worst=worst: worst <= cap,
            predicted_formula="batch max of interpolation ratio <= cap",
            details={"batch_max_ratio": worst, "cap": cap, "s": s},
        ))
    return reports


# ---------------------------------------------------------------------------
# Lacunary ladder (sharp-line q-comparison)
# ---------------------------------------------------------------------------


def peak_constants(p, gamma, grid: Optional[Grid] = None,
                   n_check=(5, 6)) -> Dict[int, float]:
    """Measured n-free constants C_l with ||phi_n * phi_{n+l}||_{L^p(w)} =
    C_l 2^{n(d - (d+gamma)/p)}, validated on two block indices to 1e-3.

    The measured constants extend the per-block ladder beyond the Nyquist
    range, which the exact scaling identity makes sound.
    """
    grid = grid or default_grid(1)
    d = grid.d
    dim = _dim_index(p, gamma, d)
    out = {}
    for l in (-1, 0, 1):
        consts = []
        for n in n_check:
            fam = spectral_peaks(grid, [n], l)
            val = weighted_lp(fam.member(0), p, float(gamma))
            consts.append(val / 2.0 ** (n * (d - dim)))
        bad = nonfinite_rows(consts)
        if bad:
            raise ConditionError(
                f"peak constant for l={l} is not finite at "
                f"n={', '.join(str(n_check[i]) for i in bad)}: {consts}"
            )
        lo, hi = min(consts), max(consts)
        if hi - lo > 1e-3 * hi:
            raise ConditionError(
                f"peak constant for l={l} drifts across blocks: {consts}"
            )
        out[l] = consts[-1]
    return out


def lacunary_norm_from_constants(coeffs, s, p, q, gamma, d=1, *,
                                 constants: Dict[int, float]) -> float:
    """Besov norm of the lacunary block sum from measured peak constants
    (``peak_constants``).

    Per block 3j+l the Besov summand collapses to a_j * C_{-l} * 2^{l(s+d-dim)}
    (independent of j), so the aggregation is an exact little-lq computation
    over all block indices.
    """
    dim = _dim_index(p, gamma, d)
    level = [constants[-l] * 2.0 ** (l * (float(s) + d - dim)) for l in (-1, 0, 1)]
    qf = float(q)
    if qf == math.inf:
        return max(abs(a) for a in coeffs) * max(level)
    inner = sum(c ** qf for c in level)
    outer = sum(abs(a) ** qf for a in coeffs)
    return (outer * inner) ** (1.0 / qf)


def check_lacunary_qnecessity(p0, gamma0, q0, p1, gamma1, q1, s0, s1,
                              n_values=(4, 6, 8, 12, 16, 24, 32),
                              tolerance=0.1, grid: Optional[Grid] = None,
                              d=1) -> ExperimentReport:
    """Sharp-line ratio growth ||f_N||_{B1} / ||f_N||_{B0} ~ N^{1/q1 - 1/q0}.

    Uses the measured-constant ladder: grids cannot hold 3N dyadic blocks
    for N beyond 3, but the per-block collapse is an exact scaling identity,
    validated on-grid by peak_constants and the lacunary_sum tests.
    """
    grid = grid or default_grid(d)
    c0 = peak_constants(p0, gamma0, grid=grid)
    c1 = peak_constants(p1, gamma1, grid=grid)
    ns = [int(N) for N in n_values]
    measured = measured_rows(
        ns,
        [lacunary_norm_from_constants([1.0] * N, s0, p0, q0, gamma0, d=d,
                                      constants=c0) for N in ns],
        [lacunary_norm_from_constants([1.0] * N, s1, p1, q1, gamma1, d=d,
                                      constants=c1) for N in ns],
    )
    inv = lambda q: 0.0 if float(q) == math.inf else 1.0 / float(q)
    predicted = inv(q1) - inv(q0)
    return measured_report(
        f"lacunary_q[q0={q0},q1={q1}]",
        "lacunary_q",
        measured,
        _within(predicted, tolerance),
        fit=True,
        predicted_exponent=predicted,
        predicted_formula="1/q1 - 1/q0",
        tolerance=tolerance,
        details={"ladder_constants_src": c0, "ladder_constants_tgt": c1},
    )


# ---------------------------------------------------------------------------
# Failure demonstrations and bounded-ratio checks
# ---------------------------------------------------------------------------


def _witness_family(kind, d, grid: Optional[Grid] = None) -> WitnessFamily:
    """The window a failure demonstration or a bounded check measures along.

    ``peaks``: blocks n = 3..7 (d = 1) or 2..5 (d = 2) on ``grid``, by
    default the default grid; ``translation``: lambda = 4..64 (d = 1) or
    4..32 (d = 2) of a unit Gaussian on the wide default grid, whatever
    ``grid`` is; ``dilation``: the t -> 0 window of ``dilation_setup``, on
    its own grid.

    A window is built once, with all its members, and kept in the lpengine
    grid entry of its grid; its members keep their block magnitudes
    (``norms.keep_blocks``).  All of it is dropped with that entry, by the
    LRU or by ``_sys_cache.clear()``.
    """
    if kind == "peaks":
        grid = grid or default_grid(d)
        n_lo, n_hi = (3, 8) if d == 1 else (2, 6)
        build = lambda: spectral_peaks(grid, list(range(n_lo, n_hi)), 0)
    elif kind == "translation":
        grid = default_grid(d, wide=True)
        lams = [4, 8, 16, 32, 64] if d == 1 else [4, 8, 16, 32]
        build = lambda: translation_family(gaussian_base(grid, sigma=1.0), lams)
    else:
        grid = dilation_grid(d)
        build = lambda: dilation_family(*dilation_setup(d))
    entry = grid_entry(grid)
    if (kind, d) not in entry.built:
        fam = build()
        norms.keep_blocks(fam.members())
        entry.built[(kind, d)] = fam
    return entry.built[(kind, d)]


def _ratio_family_report(experiment_id, kind, fam: WitnessFamily, src, tgt,
                         passes, **fields) -> ExperimentReport:
    # Both norms of a member are taken together, so they share its blocks.
    pairs = [(_member_norm(m, src), _member_norm(m, tgt)) for m in fam.members()]
    src_vals, tgt_vals = [list(v) for v in zip(*pairs)]
    # Peaks are indexed by the block number n; the family parameter on the
    # log axis is the frequency scale 2^n.
    if fam.kind == "SpectralPeak":
        params = [2.0 ** float(n) for n in fam.member_params]
    else:
        params = [float(p) for p in fam.member_params]
    return measured_report(
        experiment_id, kind, measured_rows(params, src_vals, tgt_vals), passes,
        fit=True,
        manifest=fam.manifest(),
        src=spec_to_dict(src),
        tgt=spec_to_dict(tgt),
        **fields,
    )


def profile_report(experiment_id, kind, src, tgt, src_res, tgt_res,
                   details=None, converged=True,
                   more_values=None) -> ExperimentReport:
    """Source quadrature finite, target classified Diverged.

    Row m pairs the two cumulative quadratures down to eps = R0 * 2^-m.
    ``converged`` is the caller's own verdict on the source quadrature, and
    ``more_values`` the measurements it rests on.
    """
    m = min(len(src_res.history), len(tgt_res.history))
    return measured_report(
        experiment_id,
        kind,
        measured_rows(range(1, m + 1), src_res.history[:m], tgt_res.history[:m]),
        lambda fit: not src_res.diverged and tgt_res.diverged and converged,
        predicted_formula="source quadrature finite, target classified Diverged",
        src=spec_to_dict(src) if isinstance(src, SpaceSpec) else None,
        tgt=spec_to_dict(tgt) if isinstance(tgt, SpaceSpec) else None,
        details={
            "src_value": src_res.value,
            "src_diverged": src_res.diverged,
            "tgt_diverged": tgt_res.diverged,
            "src_warning": src_res.warning,
            "tgt_warning": tgt_res.warning,
            **(details or {}),
        },
        more_values=more_values,
    )


def demonstrate_failure(src: SpaceSpec, tgt: SpaceSpec,
                        verdict: Optional[Verdict] = None,
                        grid: Optional[Grid] = None) -> ExperimentReport:
    """Run the witness family matching the first violated condition.

    Smoothness violations use spectral peaks, weight-index violations use
    translations, dim-index violations use dilations toward t = 0, the
    sharp-line q-comparison uses the lacunary ladder (Besov pairs), and the
    two p1 < p0 sharp cases use the singular radial profiles.  Passing
    means the target/source norm ratio grows at the predicted exponent, or
    the profile dichotomy (source finite, target Diverged) is observed.
    ``grid`` moves the peaks and the lacunary ladder; translations stay on
    the wide default grid and dilations on their own, as in
    ``check_embedding_bounded``.
    """
    src, tgt = validate(src), validate(tgt)
    if verdict is None:
        verdict = decide(src, tgt)
    if verdict.outcome != NO:
        raise NotApplicable(
            f"verdict is {verdict.outcome}; failure demonstrations need DoesNotEmbed"
        )
    d = src.d
    i0, i1 = indices(src), indices(tgt)
    eid = f"demonstrate_failure[{src} -> {tgt}]"

    def growth(kind, fam, predicted, formula, tolerance):
        # The fitted exponent is the predicted one, and the ratio does grow
        # (shrinks in t when predicted < 0) by a margin.
        within = _within(predicted, tolerance, 0.1)
        margin = min(0.02, abs(predicted) / 2.0)
        return _ratio_family_report(
            eid, kind, fam, src, tgt,
            lambda fit: within(fit) and (fit.slope >= margin if predicted >= 0
                                         else fit.slope <= -margin),
            predicted_exponent=predicted,
            predicted_formula=formula,
            tolerance=tolerance,
            residual_cap=0.1,
        )

    if i0.shifted_smoothness < i1.shifted_smoothness:
        return growth("failure_peaks", _witness_family("peaks", d, grid),
                      float(i1.shifted_smoothness) - float(i0.shifted_smoothness),
                      "(s1 - (d+g1)/p1) - (s0 - (d+g0)/p0)", 0.05)

    if i1.weight_index > i0.weight_index:
        return growth("failure_translation",
                      _witness_family("translation", d),
                      float(i1.weight_index) - float(i0.weight_index),
                      "g1/p1 - g0/p0", 0.05)

    dim0 = float(i0.dim_index)
    if i1.dim_index > i0.dim_index:
        # negative: the ratio grows as t drops
        return growth("failure_dilation", _witness_family("dilation", d),
                      dim0 - float(i1.dim_index),
                      "(d+g0)/p0 - (d+g1)/p1 (in t; ratio grows as t->0)", 0.08)

    sharp = i0.shifted_smoothness == i1.shifted_smoothness
    p1_lt_p0 = (not is_inf(tgt.p)) and (is_inf(src.p) or tgt.p < src.p)

    if i1.dim_index == i0.dim_index and p1_lt_p0:
        prof = log_singularity(src.p, src.gamma, tgt.p, d)
        src_res = radial_weighted_lp(prof, float(src.p), float(src.gamma))
        tgt_res = radial_weighted_lp(prof, float(tgt.p), float(tgt.gamma))
        return profile_report(
            eid, "failure_log_singularity", src, tgt, src_res, tgt_res,
            details={"profile": "r^-(d+g0)/p0 log(1/r)^-1/p1 on (0, 1/2]"},
        )

    if sharp and src.family == "B" and tgt.family == "B" and src.q > tgt.q:
        return check_lacunary_qnecessity(
            src.p, src.gamma, src.q, tgt.p, tgt.gamma, tgt.q, src.s, tgt.s,
            grid=grid, d=d,
        )

    if sharp and p1_lt_p0:
        # Sharp H/W/F case: the Riesz-log profile pair carries the
        # contradiction (source norm finite, smoothed-image lower envelope
        # not in the target space).
        gap = float(src.s) - float(tgt.s)
        g = riesz_log(dim0, 1.0 / float(tgt.p), d)
        envelope = RadialProfile(
            d=d, kind="power_log", a=dim0 - gap, b=1.0 / float(tgt.p),
            R0=0.5, inner_cutoff=0.0, label="riesz_log_envelope",
        )
        src_res = radial_weighted_lp(g, float(src.p), float(src.gamma))
        tgt_res = radial_weighted_lp(envelope, float(tgt.p), float(tgt.gamma))
        return profile_report(
            eid, "failure_riesz_log", src, tgt, src_res, tgt_res,
            details={
                "profile": "g = r^-a log(1/r)^-b, a=(g0+d)/p0, b=1/p1",
                "envelope_power": dim0 - gap,
            },
        )

    raise NotApplicable(
        "no desk-scale witness wired for this regime "
        f"(families {src.family}->{tgt.family}, trace {verdict.rule_ids()})"
    )


def check_embedding_bounded(src: SpaceSpec, tgt: SpaceSpec,
                            verdict: Optional[Verdict] = None,
                            grid: Optional[Grid] = None) -> List[ExperimentReport]:
    """Bounded-ratio checks along the witness families for an Embeds pair.

    The target/source norm ratio must not grow: fitted slope <= 0.05 along
    peaks and translations, and >= -0.08 in t along dilations toward 0
    (growth as t -> 0 would contradict the embedding).  ``grid`` moves the
    peaks only: translations stay on the wide default grid and dilations on
    their own.
    """
    src, tgt = validate(src), validate(tgt)
    if verdict is None:
        verdict = decide(src, tgt)
    if verdict.outcome != EMBEDS:
        raise NotApplicable(
            f"verdict is {verdict.outcome}; bounded-ratio checks need Embeds"
        )
    rules = [
        ("peaks", "no growth along spectral peaks",
         lambda fit: fit.slope <= 0.05),
        ("dilation", "no growth along dilations toward 0",
         lambda fit: fit.slope >= -0.08),
        ("translation", "no growth along translations",
         lambda fit: fit.slope <= 0.05),
    ]
    return [
        _ratio_family_report(
            f"bounded[{src} -> {tgt}]", f"bounded_{kind}",
            _witness_family(kind, src.d, grid), src, tgt, passes,
            predicted_exponent=0.0,
            predicted_formula=formula,
            tolerance=math.inf,
            residual_cap=math.inf,
            details={"pass_rule": "ratio slope within margin 0.05"},
        )
        for kind, formula, passes in rules
    ]
