"""Discrete spectral core: periodic grids, dyadic frequency blocks,
Fourier multipliers, and weighted quadrature with singular power weights.

Functions live on a periodic lattice over [-L, L)^d (d = 1 or 2) and are
manipulated through their discrete Fourier coefficients.  The dyadic system
is generated by a fixed smooth bump built from exp(-1/t) quotients, so every
run reproduces the same frequency decomposition bit for bit.

Quadrature conventions:
  * weighted L^p sums use the exact cell integral of |x|^gamma per lattice
    cell (closed form in 1-D; in 2-D tensor Gauss-Legendre near the origin, a
    midpoint series beyond and the origin cell in polar coordinates), never a
    point sample of the weight at the origin; the weight is radial, so only
    the half-line (1-D) or the quadrant (2-D) of cells is integrated and
    stored, and a point-symmetric integrand is summed over x_0 >= 0 only;
  * band-limited integrands are upsampled by zero-padding before summation
    so that cell sums resolve the carrier oscillation; same-grid spectra
    are padded into one stack and transformed by one call per axis
    (``upsample_stack``, at most STACK_BYTES per call).  A stack of
    ``point_symmetric`` spectra makes only that half-lattice of samples,
    and one of ``real_valued`` (exactly Hermitian) ones is padded on the
    non-negative half of its last frequency axis only and ends in one real
    (c2r) inverse transform; ``weighted_lps`` makes a batch's samples so.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .params import RangeError


class GridMismatch(ValueError):
    """Two objects that must share a grid do not."""


# ---------------------------------------------------------------------------
# Grid and Field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Periodic sampling lattice on [-L, L)^d with N samples per axis."""

    d: int
    L: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise RangeError(f"grid dimension must be 1 or 2, got {self.d}")
        if self.L <= 0:
            raise RangeError(f"grid half-width must be positive, got {self.L}")
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise RangeError(f"N must be a power of two >= 4, got {self.N}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def xi_max(self) -> float:
        """Largest representable frequency magnitude per axis."""
        return math.pi * self.N / (2.0 * self.L)

    def axis_points(self) -> np.ndarray:
        """Sample coordinates -L + h*i, read-only, one array per Grid."""
        return self._point_axis

    def axis_freqs(self) -> np.ndarray:
        """Frequencies pi*k/L for k = -N/2 .. N/2-1 in FFT layout, read-only,
        one array per Grid; bin N-k is exactly -1 times bin k."""
        return self._freq_axis

    @functools.cached_property
    def _point_axis(self) -> np.ndarray:
        return _read_only(-self.L + self.h * np.arange(self.N))

    @functools.cached_property
    def _freq_axis(self) -> np.ndarray:
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.N, d=self.h))

    def points(self):
        """Physical coordinates, one array per axis (meshgrid layout)."""
        return np.meshgrid(*(self.axis_points(),) * self.d, indexing="ij")

    def freqs(self):
        """Lattice frequencies, one array per axis (meshgrid layout)."""
        return np.meshgrid(*(self.axis_freqs(),) * self.d, indexing="ij")

    def freq_magnitude(self) -> np.ndarray:
        return magnitude(*self.freqs())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def magnitude(*axes) -> np.ndarray:
    """Euclidean norm of per-axis coordinate arrays (exactly |x| in 1-D)."""
    return np.sqrt(functools.reduce(np.add, (x * x for x in axes)))


class _Fresh(NamedTuple):
    """A lattice array made for the one Field it is handed to and held
    nowhere else: the Field freezes it in place instead of copying it.

    ``sym`` and ``real`` mark a spectrum known to pass the tests of
    ``Field.point_symmetric`` and ``Field.real_valued``.
    """

    array: np.ndarray
    real: bool = False
    box: Optional[float] = None  # see Field
    sym: bool = False


def _frozen(grid: Grid, array, name: str) -> np.ndarray:
    """A read-only complex lattice array, checked against the grid: a copy of
    the caller's array, or a ``_Fresh`` array itself."""
    expected = (grid.N,) * grid.d
    if isinstance(array, _Fresh):
        array = np.asarray(array.array, dtype=np.complex128)
    else:
        array = np.array(array, dtype=np.complex128)
    if array.shape != expected:
        raise GridMismatch(f"{name} shape {array.shape} != {expected}")
    array.setflags(write=False)
    return array


class Field:
    """A complex sampled function with band metadata.

    A field keeps the representation it was built in, lattice samples
    (``values``) or raw FFT coefficients (``spectrum``); the other one is
    computed on first read and cached.  Both arrays are read-only.  ``rim``,
    the field's ``boundary_decay``, is scanned once and cached; it keeps no
    samples, so a field built from its spectrum still holds only that.

    ``band_limit``, None or a radius R >= 0, records a spectrum supported in
    |xi| <= R; it is enforced (coefficients beyond R zeroed) for fields built
    in frequency space and trusted as metadata for sampled fields.  Optional
    generators keep witness families reproducible and translatable exactly:
    ``spectral_gen`` evaluates the continuum Fourier transform, and
    ``physical_gen`` evaluates the function itself.

    ``point_symmetric`` and ``real_valued`` are derived, never passed.
    ``point_symmetric`` is True only for a spectrum zero off a box without
    Nyquist bins that equals plus or minus its reflection k -> -k there,
    bit for bit, so |v(x)| = |v(-x)|, as ``field_from_spectral`` finds for a
    radial generator; ``lp_blocks`` keep it, a multiplier result where its
    box passes the same test.  ``real_valued`` is True only for a symmetric
    field whose box is real and even, so exactly Hermitian.  A symmetric
    field's refined samples (``upsample_values`` past factor 1, the norms'
    block stacks at every factor) are made on the half-lattice x_0 >= 0
    only, a real one's by a c2r transform.  ``values`` stays complex.
    ``field_from_spectral`` with a band R (and ``lp_blocks`` and multipliers
    of such a field) fixes ``_box`` = R: the spectrum is 0 outside |xi_i| <= R.
    """

    def __init__(self, grid: Grid, values=None, band_limit=None,
                 spectral_gen=None, physical_gen=None, *, spectrum=None):
        if (values is None) == (spectrum is None):
            raise ValueError("a Field needs exactly one of values or spectrum")
        if band_limit is not None and not band_limit >= 0:
            raise RangeError(f"band limit must be a number >= 0, got {band_limit}")
        self.grid = grid
        self._real = isinstance(spectrum, _Fresh) and spectrum.real
        self._sym = isinstance(spectrum, _Fresh) and spectrum.sym
        self._box = spectrum.box if isinstance(spectrum, _Fresh) else None
        self._values = None if values is None else _frozen(grid, values, "values")
        self._spectrum = (None if spectrum is None
                          else _frozen(grid, spectrum, "spectrum"))
        self._rim = None
        # Floats the norms measure on this field, under any system of its
        # grid: kept while the field lives, since its arrays never change.
        self._numbers = {}
        # A witness window member's kept |S_k f| stacks (``norms.keep_blocks``).
        self._kept = None
        self.band_limit = band_limit
        self.spectral_gen = spectral_gen
        self.physical_gen = physical_gen

    @property
    def real_valued(self) -> bool:
        """The derived realness flag (see the class docstring)."""
        return self._real

    @property
    def point_symmetric(self) -> bool:
        """The derived symmetry flag (see the class docstring)."""
        return self._sym

    @property
    def values(self) -> np.ndarray:
        """Samples on the lattice."""
        if self._values is None:
            self._values = _read_only(np.fft.ifftn(self._spectrum))
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        """Raw FFT coefficients of the samples (numpy fft layout)."""
        if self._spectrum is None:
            self._spectrum = _read_only(np.fft.fftn(self._values))
        return self._spectrum

    @property
    def rim(self) -> float:
        """``boundary_decay``, on the outer 2 % of the torus, scanned once."""
        if self._rim is None:
            self._rim = boundary_decay(self)
        return self._rim


def field_from_samples(grid: Grid, fn: Callable, band_limit=None) -> Field:
    """Sample an analytic function ``fn(*axes)`` on the lattice."""
    return Field(grid, fn(*grid.points()), band_limit=band_limit,
                 physical_gen=fn)


def field_from_spectral(grid: Grid, spectral_fn: Callable, band_limit=None) -> Field:
    """Build the periodization of the function with continuum transform ``spectral_fn``.

    By Poisson summation, sampling the transform on the frequency lattice
    with Riemann weight (pi/L)^d / (2 pi)^{d/2} reproduces the periodized
    inverse transform exactly when the transform is supported in the
    representable ball.

    ``spectral_fn`` takes one frequency array per axis and must act
    elementwise: it is evaluated only on the box |xi_i| <= band_limit (the
    whole lattice without a band), and the coefficients outside the ball
    |xi| <= band_limit are zero.  Every bin of the ball lies in the box,
    since sqrt(fl(x^2)) = |x| and fl(x^2 + y^2) >= fl(x^2).

    The field is ``point_symmetric`` when the box holds no Nyquist bin and
    its masked coefficients equal plus or minus their reflection xi -> -xi,
    bit for bit, and ``real_valued`` when they are also real and even: the
    origin sign (-1)^k is even under k -> -k, so the spectrum keeps the
    symmetry, and a real even one is exactly Hermitian.
    """
    d, n = grid.d, grid.N
    axis = grid.axis_freqs()
    box = _band_box(axis, band_limit)
    idx = np.arange(n) if box is None else box
    # The spectrum the field keeps is made before the box's temporaries, so
    # it sits below them on the heap and their release leaves no hole under
    # it; made after them, it raised the peak heap size of 2-D passes.
    spectrum = None if box is None else np.zeros((n,) * d, dtype=np.complex128)
    xi = np.meshgrid(*(axis[idx],) * d, indexing="ij")
    coeff = np.asarray(spectral_fn(*xi), dtype=np.complex128)
    if band_limit is not None:
        coeff = np.where(magnitude(*xi) <= band_limit, coeff, 0.0)
    parity = 0 if spectrum is None else _parity(coeff)
    real = parity == 1 and not coeff.imag.any()
    weight = (math.pi / grid.L) ** d / (2.0 * math.pi) ** (d / 2.0)
    # Trig-interpolant coefficients carry the (-1)^k phase of the -L origin;
    # n is even, so bin k has the parity of its FFT index.
    sign = functools.reduce(np.multiply.outer, (np.where(idx & 1, -1.0, 1.0),) * d)
    inner = coeff * weight * sign * n ** d
    if spectrum is None:
        spectrum = inner
    else:
        spectrum[np.ix_(*(idx,) * d)] = inner
    return Field(grid, spectrum=_Fresh(spectrum, real, band_limit, parity != 0),
                 band_limit=band_limit, spectral_gen=spectral_fn)


def _band_box(axis: np.ndarray, radius) -> Optional[np.ndarray]:
    """Indices of the bins |xi| <= radius of an ``axis_freqs`` axis, in
    increasing order, or None for the whole axis (no radius, or one that
    reaches every bin).  Bisects the increasing half 0 .. n/2-1, since bin
    n-k is exactly -1 times bin k; the radius must be a number >= 0."""
    if radius is None:
        return None
    n = axis.size
    m = int(np.searchsorted(axis[:n // 2], radius, side="right"))
    if m == n // 2 and radius >= -axis[n // 2]:
        return None
    return np.r_[0:m, n - m + 1:n]


def _parity(box: np.ndarray) -> int:
    """1 if a box of coefficients in FFT order on each axis (bins 0..a, then
    -a..-1) equals its reflection k -> -k exactly, -1 if it equals minus
    it, 0 if neither."""
    axes = tuple(range(box.ndim))
    mirror = np.roll(np.flip(box, axes), 1, axes)
    if np.array_equal(box, mirror):
        return 1
    return -1 if np.array_equal(box, -mirror) else 0


# ---------------------------------------------------------------------------
# Dyadic system
# ---------------------------------------------------------------------------


def bump_hat(xi_abs: np.ndarray) -> np.ndarray:
    """The fixed dyadic generator a / (a + b), a = chi(3/2 - xi), b = chi(xi - 1)
    with chi(t) = exp(-1/t) for t > 0 and 0 else.  It is exactly 1 on xi <= 1
    and exactly 0 on xi >= 3/2 and at NaN, as the quotient is there, so the
    quotient is evaluated only on the transition band 1 < xi < 3/2."""
    xi_abs = np.asarray(xi_abs, dtype=np.float64)
    out = np.where(xi_abs <= 1.0, 1.0, 0.0)
    between = (xi_abs > 1.0) & (xi_abs < 1.5)
    t = xi_abs[between]
    a, b = np.exp(-1.0 / (1.5 - t)), np.exp(-1.0 / (t - 1.0))
    out[between] = a / (a + b)
    return out


@dataclass
class DyadicSystem:
    """Dyadic partition of unity on the frequency lattice.

    hat_phi[0] is the generator; hat_phi[k] = hat_phi0(2^-k xi) -
    hat_phi0(2^-k+1 xi) for k >= 1, supported in the annulus
    2^{k-1} <= |xi| <= (3/2) 2^k.

    Each hat is read-only, stored on its support box |xi_i| <= (3/2) 2^k:
    ``hat_phi[k]`` holds its values at the lattice bins ``box[k]`` on every
    axis (FFT order; None for a box that covers the whole lattice), and it
    is exactly zero at every bin outside the box.  ``lattice_hat(k)`` puts
    a hat back on the whole lattice.
    """

    grid: Grid
    K: int
    hat_phi: List[np.ndarray]
    box: List[Optional[np.ndarray]]

    def block_band(self, k: int) -> float:
        return 1.5 * 2.0 ** k

    def block_lower_edge(self, k: int) -> float:
        return 0.0 if k == 0 else 2.0 ** (k - 1)

    def lattice_hat(self, k: int) -> np.ndarray:
        """hat_phi[k] on the whole frequency lattice."""
        if self.box[k] is None:
            return self.hat_phi[k]
        out = np.zeros((self.grid.N,) * self.grid.d)
        out[np.ix_(*(self.box[k],) * self.grid.d)] = self.hat_phi[k]
        return out


def make_dyadic(grid: Grid) -> DyadicSystem:
    axis = grid.axis_freqs()
    radius = grid.xi_max * math.sqrt(grid.d)
    K = int(math.ceil(math.log2(radius))) + 1
    hats, boxes = [], []
    for k in range(K + 1):
        # Every bin of the ball |xi| <= (3/2) 2^k lies in the box, since
        # sqrt(fl(x^2 + y^2)) >= |x|: outside it the hat is exactly zero.
        box = _band_box(axis, 1.5 * 2.0 ** k)
        xi_abs = magnitude(*np.meshgrid(*(axis if box is None else axis[box],)
                                        * grid.d, indexing="ij"))
        hat = bump_hat(xi_abs / 2.0 ** k)
        if k:
            hat -= bump_hat(xi_abs / 2.0 ** (k - 1))
        hats.append(_read_only(hat))
        boxes.append(box)
    return DyadicSystem(grid, K, hats, boxes)


class LRUCache(OrderedDict):
    """A map that keeps its most recently used entries up to a total size.

    ``size(value)`` is an entry's cost (1 by default, so ``capacity`` counts
    entries); a store past ``capacity`` evicts the least recently used
    entries, never the one just stored.
    """

    def __init__(self, capacity, size=lambda value: 1):
        super().__init__()
        self.capacity = capacity
        self.size = size

    def lookup(self, key):
        """The value stored under key, marked as just used, or None."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def store(self, key, value):
        self[key] = value
        self.move_to_end(key)
        while len(self) > 1 and sum(map(self.size, self.values())) > self.capacity:
            self.popitem(last=False)


# Per grid, at most this many: its dyadic system, and what callers build
# once per grid on it (verify keeps its witness windows there).  The default
# catalog uses four grids.  With its hats on their boxes, a 2-D system on the
# default grid holds 8.8 MB (21 MB on the whole lattice) and a 1-D one at
# N = 2^14 0.5 MB.  The three 1-D windows of the bounded and failure checks
# hold 4.4 MB of member arrays, and their members keep up to
# norms.WINDOW_BLOCK_BYTES of block magnitudes per window (5.0 MB together).
DYADIC_CACHE_ENTRIES = 8
_sys_cache = LRUCache(DYADIC_CACHE_ENTRIES)


class GridEntry(NamedTuple):
    """What is kept for one grid: its dyadic system, and what callers build
    once per grid on it, by key."""
    sys: DyadicSystem
    built: dict


def grid_entry(grid: Grid) -> GridEntry:
    key = (grid.d, grid.L, grid.N)
    entry = _sys_cache.lookup(key)
    if entry is None:
        entry = GridEntry(make_dyadic(grid), {})
        _sys_cache.store(key, entry)
    return entry


def dyadic_for(grid: Grid) -> DyadicSystem:
    """The one dyadic system of ``grid`` that every norm without ``sys`` uses."""
    return grid_entry(grid).sys


def lp_blocks(f: Field, sys: DyadicSystem,
              ks: Optional[Sequence[int]] = None) -> List[Field]:
    """Littlewood-Paley blocks S_k f for k in ks (default 0 .. K), in that
    order, by spectral multiplication.

    Only the blocks asked for are built, and they hold coefficients only,
    so a block never read costs no transform.  The hats are real and
    exactly even, so blocks keep ``point_symmetric`` and ``real_valued``.
    """
    if f.grid != sys.grid:
        raise GridMismatch("field and dyadic system live on different grids")
    return [Field(f.grid, spectrum=_Fresh(_block_spectrum(f.spectrum, sys, k),
                                          f._real, f._box, f._sym),
                  band_limit=_block_band(f, sys, k))
            for k in (range(sys.K + 1) if ks is None else ks)]


def _block_spectrum(spec: np.ndarray, sys: DyadicSystem, k: int) -> np.ndarray:
    """spec * hat_phi[k] on the lattice, multiplied on the hat's box only."""
    if sys.box[k] is None:
        return spec * sys.hat_phi[k]
    box = np.ix_(*(sys.box[k],) * spec.ndim)
    out = np.zeros_like(spec)
    out[box] = spec[box] * sys.hat_phi[k]
    return out


def _block_band(f: Field, sys: DyadicSystem, k: int) -> float:
    """Band limit of S_k f: the block's outer edge, capped by the field's."""
    band = sys.block_band(k)
    return band if f.band_limit is None else min(band, f.band_limit)


def _active_blocks(f: Field, sys: DyadicSystem) -> int:
    """Index of the last block that can be nonzero for this field."""
    if f.band_limit is None:
        return sys.K
    k = 0
    while k < sys.K and sys.block_lower_edge(k + 1) <= f.band_limit:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------


def apply_multiplier(f: Field, symbol: Callable) -> Field:
    """F^-1 [ symbol(xi) F f ]; symbol takes one frequency array per axis
    and must act elementwise: it is evaluated on the field's box only."""
    axis = f.grid.axis_freqs()
    box = _band_box(axis, f._box)
    m = symbol(*np.meshgrid(*(axis if box is None else axis[box],) * f.grid.d,
                            indexing="ij"))
    if box is None:
        spec, sym = f.spectrum * m, False
    else:
        cells = np.ix_(*(box,) * f.grid.d)
        spec = np.zeros_like(f.spectrum)
        spec[cells] = inner = f.spectrum[cells] * m
        sym = f._sym and _parity(inner) != 0
    return Field(f.grid, spectrum=_Fresh(spec, box=f._box, sym=sym), band_limit=f.band_limit)


def bessel_apply(f: Field, s: float) -> Field:
    """Bessel potential: multiplier (1 + |xi|^2)^{s/2}."""
    return apply_multiplier(f, lambda *k: sum((x * x for x in k), 1.0) ** (s / 2.0))


def derivative(f: Field, alpha) -> Field:
    """Spectral derivative D^alpha via the (i xi)^alpha multiplier; D^0 f is f."""
    if isinstance(alpha, int):
        alpha = (alpha,)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.grid.d or any(a < 0 for a in alpha):
        raise RangeError(f"multiindex {alpha} does not fit dimension {f.grid.d}")
    if not any(alpha):
        return f
    return apply_multiplier(
        f, lambda *k: functools.reduce(
            np.multiply, ((1j * x) ** a for x, a in zip(k, alpha))))


# ---------------------------------------------------------------------------
# Weighted quadrature
# ---------------------------------------------------------------------------

# Cell weights by (d, L, n, gamma), at most this many bytes.  Weights are
# stored per half-line (1-D) or quadrant (2-D): the default 2-D grid at its
# largest oversampling (n = 2048) takes 8.4 MB per gamma, and a whole
# default ``powemb verify`` run stores 39 entries, 3.3 MB, building each once.
WEIGHT_CACHE_BYTES = 64 * 2 ** 20
_weight_cache = LRUCache(WEIGHT_CACHE_BYTES, size=lambda w: w.nbytes)

# Bytes of one ``upsample_stack`` call's arrays (``stack_slots``).  A 1-D
# block set fits whole (8 blocks at m = 16384 take 2 MiB); a 2-D block at
# m >= 512 takes 3 MiB (real) to 4 MiB or more and is transformed alone.
STACK_BYTES = 4 * 2 ** 20

_GL_NODES_2D = 8
_NEAR_CELLS = 32
_THETA_NODES = 64


@functools.lru_cache(maxsize=4)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], made once per n.

    Made on first use, not at import: importing ``numpy.polynomial`` adds
    about 2 MB and several ms to every process, and 1-D norms never need it.
    """
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def _cell_weights_1d(L: float, n: int, gamma: float) -> np.ndarray:
    """Exact integrals of |x|^gamma over the half-line cells centred at
    0, h, ..., L; lattice cell i has the weight of entry |i - n/2|."""
    h = 2.0 * L / n
    x = h * np.arange(n // 2 + 1)
    a, b = x - h / 2.0, x + h / 2.0

    def anti(t):
        # Antiderivative of |x|^gamma, continuous through 0 (gamma > -1).
        return np.sign(t) * np.abs(t) ** (gamma + 1.0) / (gamma + 1.0)

    return anti(b) - anti(a)


def _cell_weights_2d(L: float, n: int, gamma: float) -> np.ndarray:
    """Cell integrals of |x|^gamma in 2-D on the quadrant |x|, |y| in
    {0, h, ..., L}; lattice cell (i, j) has the weight of entry
    (|i - n/2|, |j - n/2|).  8x8 tensor Gauss-Legendre on the cells with both
    indices <= _NEAR_CELLS, ``_series_cells`` beyond (they agree to a few ulp
    there), and the origin cell as four polar squares with a closed-form
    radial part.  Both rules are symmetric in (i, j) bit for bit.
    """
    h = 2.0 * L / n
    m = n // 2
    near = min(m, _NEAR_CELLS) + 1
    q = _series_cells(h, m + 1, gamma)
    q[:near, :near] = _tensor_cells(h, near, gamma)

    # Origin cell: 4 * integral of r^gamma over [0, h/2]^2 in polar form.
    half = h / 2.0
    theta, tw = _gauss_legendre(_THETA_NODES)
    theta = (theta + 1.0) * (math.pi / 8.0)  # [0, pi/4]
    tw = tw * (math.pi / 8.0)
    sec_int = float(np.sum(tw / np.cos(theta) ** (gamma + 2.0)))
    q[0, 0] = 4.0 * 2.0 * half ** (gamma + 2.0) / (gamma + 2.0) * sec_int
    return q


def _tensor_cells(h: float, k: int, gamma: float) -> np.ndarray:
    """8x8 Gauss-Legendre integrals of |x|^gamma over the cells (i, j),
    0 <= i, j < k, centred at (i h, j h); one node pair at a time."""
    nodes, wts = _gauss_legendre(_GL_NODES_2D)
    wts = wts * (h / 2.0)
    sq = (h * np.arange(k) + nodes[:, None] * (h / 2.0)) ** 2
    # The (v, u) term is the transpose of the (u, v) one: the off-diagonal
    # pairs are summed once into ``off`` and added back as off + off.T, which
    # keeps the weights exactly symmetric; the sums reuse ``tmp`` (3 arrays).
    diag, off, tmp = np.zeros((k, k)), np.zeros((k, k)), np.empty((k, k))
    for u, v in itertools.combinations_with_replacement(range(_GL_NODES_2D), 2):
        np.add(sq[u][:, None], sq[v], out=tmp)
        np.power(tmp, gamma / 2.0, out=tmp)
        tmp *= wts[u] * wts[v]
        acc = diag if u == v else off
        acc += tmp
    return np.add(np.add(off, off.T, out=tmp), diag, out=tmp)


def _series_cells(h: float, k: int, gamma: float) -> np.ndarray:
    """Integrals of |x|^gamma over the cells (i, j), 0 <= i, j < k, centred at
    (i h, j h), by the cell-midpoint Taylor series: with s = i^2 + j^2,
    t = i^2 j^2 / s^2 and g = gamma / 2 a cell weighs h^(gamma+2) s^g
    (1 + Q2/s + Q4/s^2 + Q6/s^3 + Q8/s^4), each Q a polynomial in t.  One
    power per cell of the upper triangle; exact at gamma = 0 and 2."""
    if gamma == 0:
        return np.full((k, k), h * h)
    g = gamma / 2.0
    p4 = g * (g - 1) * (g - 2) * (g - 3)
    p6 = p4 * (g - 4) * (g - 5)
    # (1, t, t^2) coefficients of Q8, Q6, Q4 and Q2, in Horner order in 1/s.
    levels = ((p4 * (5 * g ** 4 - 10 * g ** 3 - 23 * g * g - 32 * g + 105) / 1814400,
               p6 * (5 * g * g + g - 21) / 226800, p6 * (g - 6) * (g - 7) / 113400),
              (g * g * (g - 1) * (g - 2) * (g * g - g - 3) / 5040, g * p4 * (g - 4) / 1260, 0.0),
              (g * (g - 1) * (3 * g * g - g - 3) / 360, p4 / 90, 0.0),
              (g * g / 6, 0.0, 0.0))
    i = np.arange(k, dtype=float)
    q = np.empty((k, k))
    for r in range(0, k, 64):  # row blocks keep the temporaries in cache
        ii, jj = i[r:r + 64, None], i[r:]
        s = np.maximum(ii * ii + jj * jj, 1.0)  # exact integers, 1 at the origin
        t = np.square(ii * jj / s)
        ser = 0.0
        for a, b, c in levels:
            ser = (ser + a + t * (b + c * t)) / s
        w = np.power(s, g) * (h * h * h ** gamma)
        q[r:r + 64, r:] = w + w * ser
        q[r + 64:, r:r + 64] = q[r:r + 64, r + 64:].T
    return q


def _get_weights(d: int, L: float, n: int, gamma: float) -> np.ndarray:
    key = (d, float(L), int(n), float(gamma))
    w = _weight_cache.lookup(key)
    if w is not None:
        return w
    w = _cell_weights_1d(L, n, gamma) if d == 1 else _cell_weights_2d(L, n, gamma)
    w.setflags(write=False)
    _weight_cache.store(key, w)
    return w


_OVERSAMPLE_CAP = {1: 32, 2: 4}


def auto_oversample(grid: Grid, band_limit) -> int:
    """Power-of-two padding so cell sums resolve the |f|^p carrier."""
    if band_limit is None or band_limit <= 0:
        return 1
    # Aim for >= 16 quadrature samples per wavelength of |f|^p (carrier 2*band).
    need = 16.0 * (2.0 * band_limit) * grid.h / (2.0 * math.pi)
    factor = 1
    while factor < need and factor < _OVERSAMPLE_CAP[grid.d]:
        factor *= 2
    return factor


def upsample_values(f: Field, factor: int) -> np.ndarray:
    """Exact samples of the trig interpolant on a factor-times finer lattice:
    ``values`` at factor 1, else the one-field ``upsample_stack`` on the
    field's flags (``point_symmetric`` half, ``real_valued`` real)."""
    if factor == 1:
        return f.values
    return upsample_stack([f.spectrum], factor, f.real_valued, f.point_symmetric)[0]


def upsample_stack(spectra: Sequence[np.ndarray], factor: int,
                   real: bool = False, half: bool = False) -> np.ndarray:
    """Samples of the trig interpolants of same-grid spectra on a
    factor-times finer lattice (factor 1 included), stacked on a new axis 0.

    The spectra are zero-padded into one buffer, and each axis is
    inverse-transformed by one call for the whole stack, last axis first as
    ``ifftn`` does; pocketfft transforms the lanes of one call as it does
    one, so each sample array is ``ifftn``'s of its padded spectrum bit for
    bit.  Each axis is padded only just before its own transform, so no lane
    that is still all padding is transformed.

    ``half`` spectra must be point-symmetric (``Field.point_symmetric``):
    only the half-lattice x_0 = 0, h, .., L (indices m/2 .. m-1, then 0, the
    copy in a spare element or row m) is made, a (b, m/2 + 1[, m]) stack.
    In 2-D, axis 0 then goes first, on the columns that hold coefficients,
    and the last axis on the half-plane rows only: each lane is those rows
    of ``ifft`` along axis 0 and then axis 1, bit for bit.

    ``real`` spectra must be exactly Hermitian with zero Nyquist lanes
    (``Field.real_valued``).  Only the non-negative half of their last axis
    is padded, the first axis (2-D) is transformed first, and one ``irfft``
    ends it: the samples are real, ``irfftn``'s of the padded half-spectrum
    bit for bit.
    """
    d, n = spectra[0].ndim, spectra[0].shape[0]
    m, h = n * factor, n // 2
    pad = np.zeros((len(spectra),) + _pad_shape(d, m, real, half), dtype=complex)
    # A real spectrum keeps bins 0..h-1 of its last axis: the others are
    # the conjugates of those and the zero Nyquist bin.
    box = (slice(None, n),) * (d - 1) + (slice(None, h if real else n),)
    for slot, spec in zip(pad, spectra):
        # Scaled before padding, n^d values instead of m^d: a power of two
        # scales every step of the transform exactly.
        np.multiply(spec[box], factor ** d, out=slot[box])
    if not (real or half):
        # Axes before this one are untransformed, their coefficients still
        # in the first n indices; only those lanes are transformed.
        for axis in reversed(range(d)):
            _inverse(pad[(slice(None),) + (slice(None, n),) * axis], axis + 1, n, factor)
        return pad
    if d == 2:
        _inverse(pad[:, :m, box[-1]], 1, n, factor)
        if half:
            pad[:, m] = pad[:, 0]
            pad = pad[:, m // 2:]
    if real:
        out = np.empty(pad.shape[:-1] + (m + (half and d == 1),))
        np.fft.irfft(pad, n=m, axis=-1, out=out[..., :m])
    else:
        out = pad
        _inverse(out[..., :m], d, n, factor)
    if half and d == 1:
        out[:, m] = out[:, 0]
        out = out[:, m // 2:]
    return out


def _inverse(lanes: np.ndarray, axis: int, n: int, factor: int) -> None:
    """Inverse-transform ``lanes`` along ``axis`` in place, the negative
    frequencies of their n coefficients (Nyquist included) moved to the back."""
    if factor > 1:
        line, m, h = np.moveaxis(lanes, axis, 0), n * factor, n // 2
        line[m - h:] = line[h:n]
        line[h:n] = 0.0
    np.fft.ifft(lanes, axis=axis, out=lanes)


def _pad_shape(d: int, m: int, real: bool, half: bool) -> tuple:
    """Per lane, the shape of ``upsample_stack``'s buffer."""
    return (m + half,) * (d - 1) + (m // 2 + 1 if real else m + (half and d == 1),)


def stack_slots(grid: Grid, factor: int, real: bool = False,
                half: bool = False) -> int:
    """How many of the grid's spectra one ``upsample_stack`` call at this
    factor takes within STACK_BYTES, counting its buffer and a real stack's
    samples: at least one."""
    d, m = grid.d, grid.N * factor
    nbytes = 16 * math.prod(_pad_shape(d, m, real, half))
    if real:
        nbytes += 8 * (m // 2 + 1 if half else m) ** (d - 1) * (m + (half and d == 1))
    return max(1, STACK_BYTES // nbytes)


def weighted_cell_sum(grid: Grid, values: np.ndarray, p: float, gamma: float,
                      factor: int = 1) -> float:
    """(sum |values|^p W_c)^{1/p} over a factor-refined n^d lattice of the
    grid, or over a half-lattice (n/2 + 1[, n]) of ``upsample_stack``: its
    entries a = 1 .. n/2-1 on axis 0 stand for lattice indices a and -a."""
    n = grid.N * factor
    shapes = [(n,) * grid.d, (n // 2 + 1,) + (n,) * (grid.d - 1)]
    if values.shape not in shapes:
        raise GridMismatch(f"a lattice of shape {values.shape} on a {grid.d}-D "
                           f"grid refined to n = {n}; expected one of {shapes}")
    half = values.shape != shapes[0]
    w = _get_weights(grid.d, grid.L, n, float(gamma))
    # |values|^p W_c in one buffer: refined lattices reach 2^20 cells in 2-D.
    # The weights are one half-line or quadrant; 2^d mirrored views of it
    # (one on a half-line, two on a half-plane) multiply it in place.
    terms = np.abs(values)
    terms **= p
    for cells, entries in _mirror_index(grid.d, n, half):
        view = terms[cells]
        view *= w[entries]
    total = (2.0 * np.sum(terms[1:-1]) + np.sum(terms[0]) + np.sum(terms[-1])
             if half else np.sum(terms))
    return float(total) ** (1.0 / p)


@functools.lru_cache(maxsize=32)
def _mirror_index(d: int, n: int, half: bool):
    """(lattice cells, weight entries) index pairs that cover an n^d lattice,
    or with ``half`` the half-line or half-plane of ``weighted_cell_sum``.

    Lattice index i reads weight entry |i - n/2| on each axis: indices
    0..n/2 read the entries backwards, n/2+1..n-1 read entries 1..n/2-1.
    Half-lattice index a on axis 0 reads entry a.  Kept: building the pairs
    cost half again the multiplies' own time in a 1-D cell sum at n = 4096.
    """
    mid = n // 2
    axis = ((slice(None, mid + 1), slice(None, None, -1)),
            (slice(mid + 1, None), slice(1, mid)))
    rows = ((slice(None), slice(None)),) if half else axis
    return tuple(tuple(zip(*parts))
                 for parts in itertools.product(rows, *(axis,) * (d - 1)))


def check_lp_range(d: int, p: float, gamma: float) -> None:
    """Reject a weight |x|^gamma with gamma <= -d and an exponent p < 1."""
    if gamma <= -d:
        raise RangeError(f"gamma must exceed -d, got gamma={gamma}, d={d}")
    if p < 1:
        raise RangeError(f"p must lie in [1, inf], got {p}")


def weighted_lp(f: Field, p, gamma: float) -> float:
    """Weighted Lebesgue norm of a sampled function: a batch of one."""
    return weighted_lps([(f, p, gamma)])[0]


def weighted_lps(items: Sequence) -> List[float]:
    """Weighted Lebesgue norms of ``(field, p, gamma)`` items, in order:
    p = inf gives the weight-free max of |f|; finite p the cell sum
    (sum |f(x_c)|^p W_c)^{1/p}, W_c the cell integral of |x|^gamma, upsampled
    as the band limit asks.  Each field is transformed once, in stacks of one
    grid, factor and pair of flags; a field keeps a factor 1 lane as ``values``.
    """
    groups = {}  # (grid, factor, (real, half)) -> {field: [(item index, p, gamma)]}
    for i, (f, p, gamma) in enumerate(items):
        p = float(p)
        check_lp_range(f.grid.d, p, gamma)
        factor = 1 if p == math.inf else auto_oversample(f.grid, f.band_limit)
        key = (f.grid, factor, (factor > 1 and f.real_valued, factor > 1 and f._sym))
        groups.setdefault(key, {}).setdefault(f, []).append((i, p, gamma))
    out = [0.0] * len(items)
    for (grid, factor, flags), fields in groups.items():
        fields, slots = list(fields.items()), stack_slots(grid, factor, *flags)
        for start in range(0, len(fields), slots):
            _stack_norms(fields[start:start + slots], factor, flags, out)
    return out


def _stack_norms(chunk, factor: int, flags, out: list) -> None:
    """Fill ``out`` from one stack of ``weighted_lps`` fields, dropped here."""
    fresh = [f for f, _ in chunk if factor > 1 or f._values is None]
    stack = upsample_stack([f.spectrum for f in fresh], factor, *flags) if fresh else ()
    if factor == 1:  # complex lanes, kept as the fields' values
        for f, lane in zip(fresh, stack):
            lane = lane.copy() if len(fresh) > 1 else lane  # a view holds the stack
            lane.setflags(write=False)
            f._values = lane
        stack = [f.values for f, _ in chunk]
    for (f, jobs), lane in zip(chunk, stack):
        for i, p, gamma in jobs:
            out[i] = (float(np.max(np.abs(lane))) if p == math.inf
                      else weighted_cell_sum(f.grid, lane, p, gamma, factor))


def boundary_decay(f: Field) -> float:
    """max |f| on the outer 2 % of the torus, relative to max |f|.

    The field's samples are scanned when it holds them; otherwise its
    spectrum is transformed for the scan and the samples are not kept.
    """
    n = f.grid.N
    edge = max(1, int(n * 0.02))
    samples = f._values if f._values is not None else np.fft.ifftn(f._spectrum)
    mag = np.abs(samples)
    peak = float(np.max(mag))
    if peak == 0.0:
        return 0.0
    rim = max(
        float(np.max(np.moveaxis(mag, axis, 0)[side]))
        for axis in range(f.grid.d)
        for side in (slice(None, edge), slice(-edge, None))
    )
    return rim / peak


# ---------------------------------------------------------------------------
# Radial profiles and singular quadrature
# ---------------------------------------------------------------------------


@dataclass
class RadialProfile:
    """A radial function r -> f(r) on (inner_cutoff, R0].

    Power-log profiles f(r) = r^-a * log(1/r)^-b have closed-form tags so
    the quadrature can reason about the r -> 0 tail; tabulated profiles
    carry sample arrays instead.
    """

    d: int
    kind: str  # "power_log" | "tabulated"
    a: float = 0.0
    b: float = 0.0
    R0: float = 0.5
    inner_cutoff: float = 0.0
    r_samples: Optional[np.ndarray] = None
    f_samples: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise RangeError(f"dimension must be >= 1, got {self.d}")
        if not 0.0 <= self.inner_cutoff < self.R0:
            raise RangeError("need 0 <= inner_cutoff < R0")
        if self.kind == "power_log" and self.b != 0.0 and self.R0 >= 1.0:
            raise RangeError("log-power profiles need R0 < 1 (log(1/r) > 0)")

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.kind == "power_log":
            out = r ** (-self.a)
            if self.b != 0.0:
                out = out * np.log(1.0 / r) ** (-self.b)
            return out
        return np.interp(np.log(r), np.log(self.r_samples), self.f_samples)


@dataclass
class RadialNorm:
    """Outcome of a singular radial quadrature.

    ``history`` holds the cumulative raw radial integrals (without the
    sphere-surface factor) at eps_m = R0 * 2^-m, innermost last; the
    divergence protocol classifies this sequence.
    """

    value: float  # math.inf when diverged
    diverged: bool
    history: List[float]
    warning: Optional[str] = None

    def __float__(self):
        return self.value


DIVERGENCE_DELTA = 0.1
CAUCHY_TOL = 1e-3
_PANEL_NODES = 24


def _panel_integral(fn, lo: float, hi: float) -> float:
    """Gauss-Legendre in u = log r over [lo, hi]."""
    nodes, wts = _gauss_legendre(_PANEL_NODES)
    ulo, uhi = math.log(lo), math.log(hi)
    u = (nodes + 1.0) * (uhi - ulo) / 2.0 + ulo
    w = wts * (uhi - ulo) / 2.0
    r = np.exp(u)
    return float(np.sum(fn(r) * r * w))


def classify_refinements(history: List[float]):
    """Apply the divergence protocol to a cumulative-integral sequence.

    Diverged: the total increase over the last three eps-halvings exceeds
    DIVERGENCE_DELTA, each step increases, and the sequence shows no Cauchy
    behavior at CAUCHY_TOL.  Converged: the last two increments are below
    CAUCHY_TOL (relative to max(1, value)).  Anything else is returned as
    converged with a slow-convergence warning.
    """
    if len(history) < 4:
        return "converged", None
    i0, i1, i2, i3 = history[-4], history[-3], history[-2], history[-1]
    scale = max(1.0, abs(i3))
    cauchy = abs(i3 - i2) <= CAUCHY_TOL * scale and abs(i2 - i1) <= CAUCHY_TOL * scale
    growing = (i3 > i2) and (i2 > i1) and (i1 > i0)
    if not cauchy and growing and (i3 - i0) > DIVERGENCE_DELTA:
        return "diverged", None
    if cauchy:
        return "converged", None
    return "converged", "slow convergence: increments above Cauchy tolerance"


def radial_weighted_lp(prof: RadialProfile, p: float, gamma: float) -> RadialNorm:
    """sigma_{d-1} * integral of |prof(r)|^p r^{d-1+gamma} dr over (eps, R0].

    With inner_cutoff > 0 this is an ordinary integral.  With cutoff 0 the
    integral is refined along eps = R0 * 2^-m and classified by the
    divergence protocol; a Diverged result carries value = inf.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise RangeError(f"radial quadrature needs p in [1, inf), got {p}")
    if gamma <= -prof.d:
        raise RangeError(f"gamma must exceed -d, got gamma={gamma}, d={prof.d}")
    sigma = 2.0 * math.pi ** (prof.d / 2.0) / math.gamma(prof.d / 2.0)

    def integrand(r):
        return np.abs(prof(r)) ** p * r ** (prof.d - 1.0 + gamma)

    if prof.inner_cutoff > 0.0:
        total, hi = 0.0, prof.R0
        while hi / 2.0 > prof.inner_cutoff:
            total += _panel_integral(integrand, hi / 2.0, hi)
            hi /= 2.0
        total += _panel_integral(integrand, prof.inner_cutoff, hi)
        return RadialNorm((sigma * total) ** (1.0 / p), False, [total])

    # eps -> 0: cumulative integrals at eps_m = R0 * 2^-m, m = 1..M, where M
    # is chosen so the innermost eps is about 2^-20.  The protocol runs on
    # the raw radial integrals so the delta threshold is geometry-free.
    M = max(8, int(math.ceil(20.0 + math.log2(prof.R0))))
    history, total, hi = [], 0.0, prof.R0
    for _ in range(M):
        total += _panel_integral(integrand, hi / 2.0, hi)
        hi /= 2.0
        history.append(total)
    status, warning = classify_refinements(history)
    if status == "diverged":
        return RadialNorm(math.inf, True, history)
    return RadialNorm((sigma * history[-1]) ** (1.0 / p), False, history, warning)


# ---------------------------------------------------------------------------
# Field and profile serialization
# ---------------------------------------------------------------------------

_FIELD_MAGIC = "powemb-field-v1"


def save_field(f: Field, path, extra_header: Optional[dict] = None):
    header = {
        "magic": _FIELD_MAGIC,
        "d": f.grid.d,
        "L": f.grid.L,
        "N": f.grid.N,
        "band_limit": f.band_limit,
        "dtype": "complex128",
        "byteorder": "little",
    }
    if extra_header:
        header.update(extra_header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(f.values).astype("<c16").tobytes())


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("magic") != _FIELD_MAGIC:
            raise ValueError(f"{path} is not a powemb field file")
        grid = Grid(header["d"], header["L"], header["N"])
        raw = fh.read()
    values = np.frombuffer(raw, dtype="<c16").reshape((grid.N,) * grid.d)
    return Field(grid, values.astype(np.complex128), band_limit=header["band_limit"])


def save_profile_csv(prof: RadialProfile, path):
    lo = prof.inner_cutoff if prof.inner_cutoff > 0 else prof.R0 * 2.0 ** -20
    r = np.exp(np.linspace(math.log(lo), math.log(prof.R0), 512))
    vals = prof(r)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("r,value\n")
        for ri, vi in zip(r, vals):
            fh.write(f"{float(ri)!r},{float(vi)!r}\n")


def load_profile_csv(path, d: int = 1) -> RadialProfile:
    """Read back the r,value table that ``save_profile_csv`` writes (the
    CLI's ``witness logsing``/``rieszlog`` profiles) as a tabulated profile."""
    rs, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip().lower().startswith("r,"):
            raise ValueError(f"{path}: expected an 'r,value' header row")
        for line in fh:
            if not line.strip():
                continue
            r_str, v_str = line.split(",")[:2]
            rs.append(float(r_str))
            vs.append(float(v_str))
    r = np.asarray(rs)
    return RadialProfile(
        d=d, kind="tabulated", R0=float(r.max()), inner_cutoff=float(r.min()),
        r_samples=r, f_samples=np.asarray(vs),
    )
