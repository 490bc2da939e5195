"""Extremal witness families for the necessity side of the embedding rules.

Each constructor produces the parameterized family used in one scaling
argument: dilations (dimension index), translations along e1 (weight index),
spectral peaks phi_n * phi_{n+j} (smoothness), lacunary block sums (the
q-comparison on the sharp line), and two singular radial profiles (the
dichotomies at p1 < p0).  Members are reproducible bit for bit from the
recorded parameters: deterministic spectral generators, and a recorded seed
for the random band-limited bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from .lpengine import (
    Field,
    Grid,
    RadialProfile,
    bump_hat,
    field_from_samples,
    field_from_spectral,
    magnitude,
)
from .params import RangeError


class NyquistError(ValueError):
    """A requested family member needs frequencies the grid cannot represent."""


class BoundaryError(ValueError):
    """A requested member would reach around the torus boundary."""


Member = Union[Field, RadialProfile]
RIM_TOL = 1e-10  # the share of its peak a translated member may leave at the rim


@dataclass
class WitnessFamily:
    kind: str  # Dilation | Translation | SpectralPeak | LacunarySum | LogSingularity | RieszLog
    parameters: Dict
    member_params: List
    _make: Callable[[int], Member] = field(repr=False, default=None)
    _cache: Dict[int, Member] = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.member_params)

    def member(self, i: int) -> Member:
        if i not in self._cache:
            self._cache[i] = self._make(i)
        return self._cache[i]

    def members(self):
        return [self.member(i) for i in range(len(self))]

    def manifest(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": self.parameters,
            "members": [
                {"index": i, "parameter": _jsonable(p)}
                for i, p in enumerate(self.member_params)
            ],
        }


def _jsonable(p):
    if isinstance(p, (int, float, str)):
        return p
    return repr(p)


# ---------------------------------------------------------------------------
# Standard bases
# ---------------------------------------------------------------------------


def _radial(fn: Callable) -> Callable:
    """The spectral generator xi -> fn(|xi|), taking one array per axis."""
    return lambda *k: fn(magnitude(*k))


def gaussian_base(grid: Grid, sigma: float = 1.0) -> Field:
    """A Gaussian of width sigma > 0 at the origin, sampled in physical space.

    Not strictly band-limited; the declared band is where the transform
    falls below 1e-16, which is what the spectral machinery needs.
    """
    if not sigma > 0:
        raise RangeError(f"sigma must be positive, got {sigma}")
    band = math.sqrt(2.0 * 36.8) / sigma

    def gen(*axes):
        return np.exp(-sum(y ** 2 for y in axes) / (2.0 * sigma ** 2))

    return field_from_samples(grid, gen, band_limit=band)


def gaussian_spectral_base(grid: Grid, sigma_xi: float = 10.0) -> Field:
    """A narrow Gaussian defined through its transform exp(-xi^2/(2 sigma^2)).

    Physical width 1/sigma_xi, so dilations down to t = 2^-4 stay far from
    the torus rim; the numerical band limit is where the transform drops
    below 1e-16.  The bump-quotient generator is unsuitable here: its
    transform decays only like exp(-c sqrt|x|) and leaks around the torus
    for wide members.
    """
    band = math.sqrt(2.0 * 36.8) * sigma_xi
    gen = lambda *k: np.exp(-sum(x * x for x in k) / (2.0 * sigma_xi ** 2))
    return field_from_spectral(grid, gen, band_limit=band)


def random_band_limited(grid: Grid, seed: int, band: float = 1.0) -> Field:
    """A random smooth function with transform supported in |xi| <= band.

    The transform is a random degree-6 polynomial under the smooth bump
    envelope, so members dilate exactly through their spectral generator.
    The seed is the whole story: the same seed gives the same field on any grid.
    """
    if not band > 0:
        raise RangeError(f"band must be positive, got {band}")
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=7) + 1j * rng.normal(size=7)

    def radial(t):
        # t = |xi| / band in [0, 1]; smooth cutoff at 1.
        env = bump_hat(1.0 + 0.5 * t)  # 1 at t=0, 0 at t=1, smooth
        poly = np.zeros_like(t, dtype=np.complex128)
        for c in coeff[::-1]:
            poly = poly * t + c
        return poly * env

    out = field_from_spectral(grid, _radial(lambda r: radial(r / band)),
                              band_limit=band)
    out.seed = seed
    return out


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def dilation_family(base: Field, t_values: Sequence[float]) -> WitnessFamily:
    """Members f_t(x) = t^d base(t x), built in frequency space as gen(xi/t)."""
    if base.spectral_gen is None:
        raise RangeError("dilation needs a base with a spectral generator")
    if base.band_limit is None:
        raise RangeError("dilation needs a base with a declared band limit")
    grid = base.grid
    t_values = [float(t) for t in t_values]
    for t in t_values:
        if not t > 0:
            raise RangeError(f"dilation parameter must be positive, got {t}")
        if t * base.band_limit > grid.xi_max:
            raise NyquistError(
                f"t={t} pushes the band {t * base.band_limit:.3g} beyond "
                f"xi_max={grid.xi_max:.3g}"
            )

    def make(i: int) -> Field:
        t = t_values[i]
        gen = base.spectral_gen
        dil = lambda *k: gen(*(x / t for x in k))
        return field_from_spectral(grid, dil, band_limit=t * base.band_limit)

    return WitnessFamily(
        "Dilation",
        {"band_limit": base.band_limit, "seed": getattr(base, "seed", None)},
        t_values,
        make,
    )


def translation_family(base: Field, lambda_values: Sequence[float]) -> WitnessFamily:
    """Members base(. - lambda e1), sampled from the base's function."""
    if base.physical_gen is None:
        raise RangeError("translation needs a sampled base (physical_gen)")
    grid, gen = base.grid, base.physical_gen
    lambda_values = [float(lam) for lam in lambda_values]

    def make(i: int) -> Field:
        lam = lambda_values[i]
        f = field_from_samples(grid, lambda x, *rest: gen(x - lam, *rest),
                               band_limit=base.band_limit)
        if f.rim > RIM_TOL:
            raise BoundaryError(
                f"lambda={lam} leaves {f.rim:.2e} of the peak at "
                f"the torus rim (tolerance {RIM_TOL:g})"
            )
        return f

    return WitnessFamily(
        "Translation",
        {"band_limit": base.band_limit, "rim_tol": RIM_TOL,
         "seed": getattr(base, "seed", None)},
        lambda_values,
        make,
    )


def _hat_n(n: int):
    """Analytic transform of the n-th dyadic function (vector argument |xi|)."""
    if n == 0:
        return lambda r: bump_hat(r)
    return lambda r: bump_hat(r / 2.0 ** n) - bump_hat(r / 2.0 ** (n - 1))


def spectral_peaks(grid: Grid, n_values: Sequence[int], j: int) -> WitnessFamily:
    """Members phi_n * phi_{n+j}, via the product of the two dyadic hats,
    each bump_hat(|xi| / 2^m) of the two evaluated once (2 for j = 0, else 3).

    Only j in {-1, 0, 1} gives overlapping annuli; larger |j| makes the
    product vanish identically and is rejected.  The fixed convolution
    constant of the transform convention is absorbed into the member
    normalization (it cancels in every ratio and exponent).
    """
    j = int(j)
    if j not in (-1, 0, 1):
        raise RangeError(
            f"j={j}: the supports of phi_n and phi_{{n+j}} are disjoint for |j| >= 2"
        )
    n_values = [int(n) for n in n_values]
    for n in n_values:
        if n < 2:
            raise RangeError(f"peak index must satisfy n >= 2, got {n}")
        band = 1.5 * 2.0 ** (n + max(j, 0))
        if band > grid.xi_max:
            raise NyquistError(
                f"peak n={n}, j={j} needs band {band:.3g} beyond "
                f"xi_max={grid.xi_max:.3g}"
            )

    def make(i: int) -> Field:
        n = n_values[i]

        def product(r):
            b = {m: bump_hat(r / 2.0 ** m)
                 for m in range(n + min(j, 0) - 1, n + max(j, 0) + 1)}
            return (b[n] - b[n - 1]) * (b[n + j] - b[n + j - 1])

        return field_from_spectral(grid, _radial(product),
                                   band_limit=1.5 * 2.0 ** (n + max(j, 0)))

    return WitnessFamily("SpectralPeak", {"j": j}, n_values, make)


def _finite(name: str, value) -> float:
    """``value`` as a float; a RangeError naming ``name`` unless finite."""
    value = float(value)
    if not math.isfinite(value):
        raise RangeError(f"{name} must be finite, got {value}")
    return value


def lacunary_sum(grid: Grid, coeffs: Sequence[float], s0, p0, gamma0) -> Field:
    """The block sum f = sum_j 2^{-3j(d + s0 - (d+gamma0)/p0)} a_j phi_{3j}.

    Blocks three apart have disjoint spectra, so the Besov per-block values
    collapse to multiples of a_j.
    """
    coeffs = [float(a) for a in coeffs]
    s0, gamma0 = _finite("s0", s0), _finite("gamma0", gamma0)
    N = len(coeffs)
    if N < 1:
        raise RangeError("need at least one coefficient")
    band = 1.5 * 2.0 ** (3 * N)
    if band > grid.xi_max:
        raise NyquistError(
            f"lacunary sum with N={N} needs band {band:.3g} beyond "
            f"xi_max={grid.xi_max:.3g}"
        )
    d = grid.d
    if math.isinf(float(p0)):
        dim0 = 0.0
    else:
        dim0 = (d + gamma0) / float(p0)
    expo = d + s0 - dim0
    scaled = [a * 2.0 ** (-3.0 * (jj + 1) * expo) for jj, a in enumerate(coeffs)]
    hats = [_hat_n(3 * (jj + 1)) for jj in range(N)]

    def profile(r):
        out = np.zeros_like(r, dtype=np.complex128)
        for c, h in zip(scaled, hats):
            out += c * h(r)
        return out

    return field_from_spectral(grid, _radial(profile), band_limit=band)


# ---------------------------------------------------------------------------
# Singular radial profiles
# ---------------------------------------------------------------------------


def log_singularity(p0, gamma0, p1, d: int, eps: float = 0.0) -> RadialProfile:
    """The sharp-case dichotomy profile r^{-(d+gamma0)/p0} log(1/r)^{-1/p1}.

    The weight-adjusted power -(d+gamma0)/p0 reproduces the two decisive
    integrals (convergent in the source space, log-log divergent in the
    target under dim-index equality) for every gamma0 > -d; at gamma0 = 0
    it is the plain -d/p0.
    """
    p0, p1, gamma0 = float(p0), float(p1), _finite("gamma0", gamma0)
    if d < 1:
        raise RangeError(f"dimension must be >= 1, got {d}")
    if not p1 < p0:
        raise RangeError(f"the dichotomy needs p1 < p0, got p0={p0}, p1={p1}")
    if not 0.0 <= eps <= 0.25:
        raise RangeError(f"eps must lie in [0, 1/4], got {eps}")
    if gamma0 <= -d:
        raise RangeError(f"gamma0 must exceed -d, got {gamma0}")
    return RadialProfile(
        d=d, kind="power_log", a=(d + gamma0) / p0, b=1.0 / p1, R0=0.5,
        inner_cutoff=eps, label="log_singularity",
    )


def riesz_log(a, b, d: int, eps: float = 0.0) -> RadialProfile:
    """The profile g(r) = r^{-a} log(1/r)^{-b} on (eps, 1/2]."""
    if not 0.0 <= eps <= 0.25:
        raise RangeError(f"eps must lie in [0, 1/4], got {eps}")
    return RadialProfile(
        d=d, kind="power_log", a=_finite("a", a), b=_finite("b", b), R0=0.5,
        inner_cutoff=eps, label="riesz_log",
    )
