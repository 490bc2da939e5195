"""Weighted Besov, Triebel-Lizorkin, Bessel-potential and Sobolev norms.

All four norms are assembled from the spectral core: dyadic blocks S_k f,
the 2^{ks} smoothness ladder, weighted L^p cell quadrature, and either an
outer little-lp aggregation over k (Besov) or a pointwise one (F-scale).
Norms accept the exact parameter objects of the oracle side but work in
floats; q = inf aggregations use the exact max.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from .lpengine import (
    DyadicSystem,
    Field,
    GridMismatch,
    _active_blocks,
    _block_band,
    auto_oversample,
    bessel_apply,
    check_lp_range,
    derivative,
    dyadic_for,
    lp_blocks,
    stack_slots,
    upsample_stack,
    weighted_cell_sum,
    weighted_lp,
    weighted_lps,
)
from .params import RangeError

BOUNDARY_TOL = 1e-12


@dataclass
class NormResult:
    """A computed norm value with an optional per-block audit trail.

    per_block lists (k, 2^{ks} * ||S_k f||_{L^p(w)}) for Besov-type norms;
    the F-scale aggregates pointwise first, so no per-block list exists.
    """

    value: float
    per_block: Optional[List[Tuple[int, float]]] = None
    warnings: List[str] = field(default_factory=list)

    def __float__(self):
        return self.value

    def to_dict(self):
        out = {"value": self.value, "warnings": list(self.warnings)}
        if self.per_block is not None:
            out["per_block"] = [[k, v] for k, v in self.per_block]
        return out


def _check_boundary(f: Field, warnings: List[str]):
    if f.rim > BOUNDARY_TOL:
        warnings.append(
            f"field magnitude {f.rim:.2e} of its peak near the torus boundary "
            f"(requirement {BOUNDARY_TOL:g}); periodization error possible"
        )


def _ell_q(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if q == math.inf:
        return max(values)
    return float(np.sum(np.asarray(values) ** q) ** (1.0 / q))


# For the one field normed last: |S_k f| on factor-refined lattices keyed
# by (k, factor), each a view of the magnitude stack its block was
# transformed in, None for a block that is identically zero.  Norming any
# other field replaces it, so every B/F norm of one field transforms each
# block once per factor and no magnitude outlives the next field.  The
# numbers measured from them live on the field (``Field._numbers``).
# Witness window members keep their stacks on themselves instead
# (``keep_blocks``), up to the window's bound; a stack past it goes here.
# The field is held by a weak reference, so the memo keeps no window member
# (nor its kept stacks) alive past its window.
_memo = (None, {})
_MISSING = object()

# Bytes of |S_k f| stacks one witness window's members keep together.  The
# three 1-D windows of the bounded and failure checks keep every stack
# (peaks 1.3 MiB and dilation 0.3 MiB of half-lines, translation 3.1 MiB);
# a 2-D window on the default grid keeps three unrefined half-plane stacks
# (1 MiB each) of a point-symmetric field or two (2 MiB each) of another,
# and its refined ones (4 MiB and more) go through ``_memo``.
WINDOW_BLOCK_BYTES = 4 * 2 ** 20


class _Keep:
    """The bytes of one window's bound its kept stacks have left."""
    left = WINDOW_BLOCK_BYTES


def keep_blocks(members: List[Field]) -> None:
    """Let the members of one witness window keep, on themselves, the
    |S_k f| stacks their B/F norms make, within WINDOW_BLOCK_BYTES
    together: each block is then transformed once per factor for as long
    as the members live, whatever field is normed in between."""
    keep = _Keep()
    for f in members:
        f._kept = (keep, {})


def _field_memo(f: Field) -> dict:
    """The memo of f; the memo of any other field is dropped first, so its
    magnitudes are freed before this field's are computed."""
    global _memo
    if _memo[0] is None or _memo[0]() is not f:
        _memo = (weakref.ref(f), {})
    return _memo[1]


def _system(f: Field, sys: Optional[DyadicSystem]) -> DyadicSystem:
    """``sys``, else f's grid's one; every system of a grid is the same, so
    f's numbers hold under any, and one of another grid is rejected."""
    if sys is None:
        return dyadic_for(f.grid)
    if sys.grid != f.grid:
        raise GridMismatch("field and dyadic system live on different grids")
    return sys


def _block_abs(f: Field, sys: DyadicSystem, memo: dict,
               factors: Dict[int, int]) -> Dict[int, Optional[np.ndarray]]:
    """Read-only |S_k f| upsampled by factors[k] for each k, in the order
    given; None where S_k f is identically zero.  A window member's stacks
    are kept on it while its window's bound allows, the others in ``memo``."""
    keep, kept = f._kept if f._kept is not None else (None, memo)
    out = {k: kept.get((k, factor), memo.get((k, factor), _MISSING))
           for k, factor in factors.items()}
    missing = [k for k, mag in out.items() if mag is _MISSING]
    groups: Dict[int, list] = {}
    for k, block in zip(missing, lp_blocks(f, sys, missing) if missing else ()):
        # A block whose annulus misses the spectrum (most blocks of a
        # spectral peak) is zero on every lattice: no transform.
        if block.spectrum.any():
            groups.setdefault(factors[k], []).append((k, block.spectrum))
        else:
            out[k] = kept[(k, factors[k])] = None
    # The blocks of one factor are transformed together, as many per call
    # as the stack bound allows, on the half-lattice for a point-symmetric
    # field (real for a real one) at factor 1 too.
    flags = (f.real_valued, f.point_symmetric)
    for factor, group in groups.items():
        slots = stack_slots(f.grid, factor, *flags)
        for i in range(0, len(group), slots):
            ks, spectra = zip(*group[i:i + slots])
            mags = np.abs(upsample_stack(spectra, factor, *flags))
            mags.setflags(write=False)
            out.update(zip(ks, mags))
            home = memo
            if keep is not None and mags.nbytes <= keep.left:
                keep.left -= mags.nbytes
                home = kept
            home.update(((k, factor), out[k]) for k in ks)
    return out


def _block_norms(f: Field, sys: DyadicSystem, memo: dict, factors: List[int],
                 p: float, gamma: float) -> List[float]:
    """||S_k f||_{L^p(|x|^gamma)} on lattices refined by factors[k], for
    k = 0 .. len(factors)-1, kept on f; the weighted sup norm is the
    weight-free max."""
    stored = f._numbers
    keys = [(k, factor, p, gamma) for k, factor in enumerate(factors)]
    out = [stored.get(key) for key in keys]
    missing = {k: factors[k] for k, nk in enumerate(out) if nk is None}
    if missing:
        for k, mag in _block_abs(f, sys, memo, missing).items():
            if mag is None:
                out[k] = 0.0  # a zero block: no cell sum
            elif p == math.inf:
                out[k] = float(np.max(mag))
            else:
                out[k] = weighted_cell_sum(f.grid, mag, p, gamma, factors[k])
        stored.update((keys[k], out[k]) for k in missing)
    return out


def besov_norm(f: Field, s, p, q, gamma, sys: Optional[DyadicSystem] = None) -> NormResult:
    """(sum_k (2^{ks} ||S_k f||_{L^p(w)})^q)^{1/q}, sup over k at q = inf."""
    s, p, q, gamma = float(s), float(p), float(q), float(gamma)
    sys = _system(f, sys)
    memo = _field_memo(f)
    warnings: List[str] = []
    _check_boundary(f, warnings)
    check_lp_range(f.grid.d, p, gamma)
    kmax = _active_blocks(f, sys)
    # Each block is upsampled as far as its own band asks.
    factors = [1 if p == math.inf else auto_oversample(f.grid, _block_band(f, sys, k))
               for k in range(kmax + 1)]
    per_block = [(k, 2.0 ** (k * s) * nk) for k, nk in
                 enumerate(_block_norms(f, sys, memo, factors, p, gamma))]
    value = _ell_q([v for _, v in per_block], q)
    return NormResult(value, per_block=per_block, warnings=warnings)


def triebel_norm(f: Field, s, p, q, gamma, sys: Optional[DyadicSystem] = None) -> NormResult:
    """|| (sum_k |2^{ks} S_k f(.)|^q)^{1/q} ||_{L^p(w)}, sup-in-k at q = inf."""
    s, p, q, gamma = float(s), float(p), float(q), float(gamma)
    if p == math.inf:
        raise RangeError("the F-scale needs p < inf")
    sys = _system(f, sys)
    memo = _field_memo(f)
    warnings: List[str] = []
    _check_boundary(f, warnings)
    check_lp_range(f.grid.d, p, gamma)
    stored = f._numbers
    key = ("F", s, p, q, gamma)
    if key not in stored:
        stored[key] = _triebel_value(f, sys, memo, s, p, q, gamma)
    return NormResult(stored[key], warnings=warnings)


def _triebel_value(f: Field, sys: DyadicSystem, memo: dict, s: float, p: float,
                   q: float, gamma: float) -> float:
    kmax = _active_blocks(f, sys)
    # Pointwise-first aggregation: blocks are band-limited, so upsample them
    # exactly, all by the factor the widest one needs, before taking
    # magnitudes, then do the weighted cell sum on the refined lattice.
    factor = auto_oversample(f.grid, _block_band(f, sys, kmax))
    agg = None
    mags = _block_abs(f, sys, memo, dict.fromkeys(range(kmax + 1), factor))
    for k, mag in mags.items():
        if mag is None:
            # Every term is >= 0, so adding 0 or taking the max with 0
            # leaves the aggregate as it is.
            continue
        term = mag * 2.0 ** (k * s)
        if q == math.inf:
            agg = term if agg is None else np.maximum(agg, term, out=agg)
        else:
            term **= q
            agg = term if agg is None else np.add(agg, term, out=agg)
    if agg is None:
        return 0.0
    if q != math.inf:
        agg **= 1.0 / q
    return weighted_cell_sum(f.grid, agg, p, gamma, factor)


def bessel_norm(f: Field, s, p, gamma) -> NormResult:
    """||J_s f||_{L^p(w)} with the multiplier (1+|xi|^2)^{s/2}."""
    s, p, gamma = float(s), float(p), float(gamma)
    if p == math.inf:
        raise RangeError("the H-scale needs p < inf")
    warnings: List[str] = []
    _check_boundary(f, warnings)
    stored = f._numbers
    key = ("H", s, p, gamma)
    if key not in stored:
        stored[key] = weighted_lp(bessel_apply(f, s), p, gamma)
    return NormResult(stored[key], warnings=warnings)


def _multiindices(d: int, max_order: int):
    return [a for a in product(range(max_order + 1), repeat=d)
            if sum(a) <= max_order]


def sobolev_norm(f: Field, m, p, gamma) -> NormResult:
    """sum over |alpha| <= m of ||D^alpha f||_{L^p(w)}."""
    p, gamma = float(p), float(gamma)
    m = int(m)
    if m < 0:
        raise RangeError(f"Sobolev order must be a nonnegative integer, got {m}")
    if p == math.inf:
        raise RangeError("the W-scale needs p < inf")
    stored = f._numbers
    key = ("W", m, p, gamma)
    if key not in stored:
        total = 0.0  # an explicit loop: sum() rounds differently on 3.12+
        for value in weighted_lps([(derivative(f, alpha), p, gamma)
                                   for alpha in _multiindices(f.grid.d, m)]):
            total += value
        stored[key] = total
    # Scanned after the D^0 term, which may have read f's samples: the rim
    # scan then reuses them instead of transforming the spectrum again.
    warnings: List[str] = []
    _check_boundary(f, warnings)
    return NormResult(stored[key], warnings=warnings)


def space_norm(f: Field, spec) -> NormResult:
    """Norm of f in the space described by a validated SpaceSpec.

    Holder targets use the weight-free B^{s}_{inf,inf} realization of
    BUC^{s} (exact for non-integer s, an equivalent upper ladder otherwise).
    """
    fam = spec.family
    if fam == "B":
        return besov_norm(f, spec.s, spec.p, spec.q, spec.gamma)
    if fam == "F":
        return triebel_norm(f, spec.s, spec.p, spec.q, spec.gamma)
    if fam == "H":
        return bessel_norm(f, spec.s, spec.p, spec.gamma)
    if fam == "W":
        return sobolev_norm(f, int(spec.s), spec.p, spec.gamma)
    if fam == "Holder":
        return besov_norm(f, spec.s, math.inf, math.inf, 0.0)
    raise RangeError(f"no norm for family {fam!r}")
