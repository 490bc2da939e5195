"""Spectral core: dyadic system, multipliers, weighted quadrature, radial
integrals, and field serialization."""

import functools
import importlib
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import powemb
from powemb import lpengine, witnesses
from powemb.lpengine import (
    Field,
    Grid,
    GridMismatch,
    RadialProfile,
    bessel_apply,
    bump_hat,
    classify_refinements,
    derivative,
    field_from_samples,
    field_from_spectral,
    load_field,
    load_profile_csv,
    lp_blocks,
    magnitude,
    make_dyadic,
    radial_weighted_lp,
    save_field,
    save_profile_csv,
    upsample_values,
    weighted_cell_sum,
    weighted_lp,
    weighted_lps,
)
from powemb.params import RangeError


def gaussian(grid, width=2.0):
    return field_from_samples(grid, lambda x: np.exp(-x * x / (2 * width ** 2)),
                              band_limit=8.6 / width)


class TestGrid:
    def test_geometry(self):
        g = Grid(1, 16.0, 2 ** 10)
        assert g.h == 32.0 / 1024
        assert g.xi_max == pytest.approx(math.pi * 1024 / 32)
        assert g.axis_points()[0] == -16.0
        assert 0.0 in g.axis_points()

    def test_rejects_bad_parameters(self):
        with pytest.raises(RangeError):
            Grid(3, 16.0, 2 ** 8)
        with pytest.raises(RangeError):
            Grid(1, 16.0, 1000)  # not a power of two
        with pytest.raises(RangeError):
            Grid(1, -1.0, 2 ** 8)

    @pytest.mark.parametrize("grid", [Grid(1, 16.0, 2 ** 14), Grid(2, 8.0, 256),
                                      Grid(1, 3.0, 4)], ids=str)
    def test_axes_made_once_and_read_only(self, grid):
        freqs, points = grid.axis_freqs(), grid.axis_points()
        assert np.array_equal(freqs, 2.0 * math.pi * np.fft.fftfreq(grid.N, d=grid.h))
        assert np.array_equal(points, -grid.L + grid.h * np.arange(grid.N))
        # _band_box bisects the increasing half and mirrors it.
        half = grid.N // 2
        assert np.all(np.diff(freqs[:half]) > 0)
        assert np.array_equal(freqs[:0:-1][:half - 1], -freqs[1:half])
        assert grid.axis_freqs() is freqs and grid.axis_points() is points
        for axis in (freqs, points):
            with pytest.raises(ValueError):
                axis[0] = 1.0
        # An equal grid is a separate instance with axes of its own.
        twin = Grid(grid.d, grid.L, grid.N)
        assert twin == grid and twin.axis_freqs() is not freqs
        # The lattice arrays made from the axes are the caller's to write.
        for arr in grid.points() + grid.freqs():
            arr[(0,) * grid.d] = 0.0


def _band_box_reference(axis, radius):
    """_band_box by a scan of the whole axis."""
    idx = None if radius is None else np.flatnonzero(np.abs(axis) <= radius)
    return None if idx is None or idx.size == axis.size else idx


def _make_dyadic_reference(grid, bump):
    """make_dyadic's hats and boxes from the reference ``bump`` and box."""
    axis = 2.0 * math.pi * np.fft.fftfreq(grid.N, d=grid.h)
    K = int(math.ceil(math.log2(grid.xi_max * math.sqrt(grid.d)))) + 1
    hats, boxes = [], []
    for k in range(K + 1):
        box = _band_box_reference(axis, 1.5 * 2.0 ** k)
        xi_abs = magnitude(*np.meshgrid(*(axis if box is None else axis[box],)
                                        * grid.d, indexing="ij"))
        hat = bump(xi_abs / 2.0 ** k)
        if k:
            hat -= bump(xi_abs / 2.0 ** (k - 1))
        hats.append(hat)
        boxes.append(box)
    return K, hats, boxes


class TestDyadic:
    def test_generator_plateau_and_support(self):
        xi = np.linspace(0, 2, 2001)
        vals = bump_hat(xi)
        assert np.all(vals[xi <= 1.0] == 1.0)
        assert np.all(vals[xi >= 1.5] == 0.0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_generator_matches_reference_bit_for_bit(self, bump_hat_reference):
        # Evaluated only on 1 < xi < 3/2, the bump equals a / (a + b)
        # evaluated everywhere: that quotient is exactly 1 (a / a) below,
        # exactly 0 (0 / b) above, and 0 at NaN and +inf.
        edges = [1.0, 1.5, 0.0, -0.0, np.inf, -np.inf, np.nan]
        near = [np.nextafter(e, s) for e in (1.0, 1.5) for s in (-np.inf, np.inf)]
        xi = np.concatenate([np.linspace(-1.0, 3.0, 400001), edges, near])
        got, want = bump_hat(xi), bump_hat_reference(xi)
        assert got.dtype == np.float64
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                             np.signbit(want))
        for x in [*edges, *near, 1.25]:
            assert np.array_equal(bump_hat(x), bump_hat_reference(x)), x
            assert np.ndim(bump_hat(x)) == 0
        two_d = xi[:400000].reshape(400, 1000)
        assert np.array_equal(bump_hat(two_d), bump_hat_reference(two_d))

    @pytest.mark.parametrize("N, L", [
        *itertools.product([4, 8, 256], [0.75, 8.0, 16.0, 1024.0]),
        (2 ** 14, 16.0), (2 ** 14, 1024.0)])
    def test_band_box_matches_full_scan(self, N, L):
        axis = Grid(1, L, N).axis_freqs()
        mags = np.unique(np.abs(axis))
        radii = [None, 0.0, *mags, *np.nextafter(mags, -np.inf),
                 *np.nextafter(mags, np.inf), 2.0 * mags[-1], math.inf]
        for radius in radii:
            got, want = lpengine._band_box(axis, radius), _band_box_reference(axis, radius)
            if want is None:
                assert got is None, radius
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want), radius

    @pytest.mark.parametrize("grid", [Grid(1, 16.0, 2 ** 14), Grid(2, 8.0, 256),
                                      Grid(1, 0.75, 4), Grid(2, 1024.0, 8)],
                             ids=str)
    def test_hats_match_reference_build(self, grid, bump_hat_reference):
        sys_ = make_dyadic(grid)
        K, hats, boxes = _make_dyadic_reference(grid, bump_hat_reference)
        assert sys_.K == K
        for k in range(K + 1):
            assert (sys_.box[k] is None) == (boxes[k] is None), k
            if boxes[k] is not None:
                assert np.array_equal(sys_.box[k], boxes[k]), k
            assert sys_.hat_phi[k].tobytes() == hats[k].tobytes(), k

    def test_partition_of_unity(self, grid1d, sys1d):
        total = sum(map(sys1d.lattice_hat, range(sys1d.K + 1)))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_partition_of_unity_2d(self, grid2d, sys2d):
        total = sum(map(sys2d.lattice_hat, range(sys2d.K + 1)))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_block_one_vanishes_inside_unit_ball(self, grid1d, sys1d):
        xi = np.abs(grid1d.axis_freqs())
        assert np.max(np.abs(sys1d.lattice_hat(1)[xi <= 1.0])) == 0.0

    def test_support_annuli(self, grid1d, sys1d):
        xi = np.abs(grid1d.axis_freqs())
        for k in (2, 4, 6):
            outside = (xi < 2.0 ** (k - 1)) | (xi > 1.5 * 2.0 ** k)
            assert np.max(np.abs(sys1d.lattice_hat(k)[outside])) == 0.0

    def test_values_within_unit_interval(self, sys1d):
        for h in map(sys1d.lattice_hat, range(sys1d.K + 1)):
            assert np.all((h >= 0.0) & (h <= 1.0 + 1e-15))

    def test_blocks_beyond_nyquist_vanish(self, grid1d, sys1d):
        # the last block's support starts beyond the representable ball
        assert np.max(np.abs(sys1d.lattice_hat(sys1d.K))) == 0.0

    @pytest.mark.parametrize("grid", [Grid(1, 16.0, 2 ** 14), Grid(2, 8.0, 256),
                                      Grid(1, 1024.0, 2 ** 13), Grid(2, 8.0, 2 ** 9)],
                             ids=str)
    def test_box_hats_are_the_lattice_hats(self, grid):
        # Each hat kept on its box |xi_i| <= (3/2) 2^k, put back on the
        # lattice, is the one made on the whole lattice, bit for bit.
        sys_ = make_dyadic(grid)
        xi_abs = grid.freq_magnitude()
        full_bytes = 0
        for k in range(sys_.K + 1):
            full = bump_hat(xi_abs / 2.0 ** k)
            if k:
                full = full - bump_hat(xi_abs / 2.0 ** (k - 1))
            assert sys_.lattice_hat(k).tobytes() == full.tobytes(), k
            full_bytes += full.nbytes
        assert sum(h.nbytes for h in sys_.hat_phi) < full_bytes

    def test_hats_are_read_only(self, grid1d, grid2d):
        # Two systems of one grid hold the same hats, and neither can be
        # written, so the two cannot come to differ.
        for grid in (grid1d, grid2d):
            a, b = make_dyadic(grid), make_dyadic(grid)
            for k in range(a.K + 1):
                assert a.hat_phi[k].tobytes() == b.hat_phi[k].tobytes(), k
                with pytest.raises(ValueError):
                    a.hat_phi[k][...] = 0.0


class TestBlocks:
    def test_low_band_field_is_block_zero(self, grid1d, sys1d):
        f = field_from_spectral(grid1d, lambda xi: bump_hat(np.abs(2 * xi)),
                                band_limit=0.75)
        blocks = lp_blocks(f, sys1d)
        assert np.allclose(blocks[0].values, f.values, atol=1e-12)
        for b in blocks[1:]:
            assert np.max(np.abs(b.values)) <= 1e-14

    def test_pure_mode_lands_in_one_block(self, grid1d, sys1d):
        # a lattice frequency inside the plateau [(3/4)2^k, 2^k] of hat_phi[k]
        xi = grid1d.axis_freqs()
        xi0 = xi[(xi >= 0.77 * 2 ** 4) & (xi <= 0.98 * 2 ** 4)][0]
        f = field_from_samples(grid1d, lambda x: np.exp(1j * xi0 * x),
                               band_limit=xi0 + 0.5)
        blocks = lp_blocks(f, sys1d)
        for k, b in enumerate(blocks):
            peak = float(np.max(np.abs(b.values)))
            if k == 4:
                assert peak == pytest.approx(1.0, abs=1e-10)
            else:
                assert peak <= 1e-12

    def test_reconstruction(self, grid1d, sys1d):
        rng = np.random.default_rng(0)
        spec = np.zeros(grid1d.N, dtype=complex)
        spec[:200] = rng.normal(size=200) + 1j * rng.normal(size=200)
        spec[-200:] = rng.normal(size=200) + 1j * rng.normal(size=200)
        f = Field(grid1d, np.fft.ifft(spec))
        blocks = lp_blocks(f, sys1d)
        rec = sum(b.values for b in blocks)
        assert np.max(np.abs(rec - f.values)) <= 1e-10

    def test_disjoint_spectra_two_apart(self, grid1d, sys1d):
        for k in range(2, 8):
            overlap = sys1d.lattice_hat(k) * sys1d.lattice_hat(k + 2)
            assert np.max(np.abs(overlap)) == 0.0

    def test_only_the_blocks_asked_for_are_built(self, grid1d, sys1d, monkeypatch):
        f = gaussian(grid1d)
        every = lp_blocks(f, sys1d)
        built = []
        init = Field.__init__
        monkeypatch.setattr(Field, "__init__",
                            lambda obj, *a, **kw: built.append(obj) or init(obj, *a, **kw))
        ks = [5, 0, 3]
        blocks = lp_blocks(f, sys1d, ks)
        assert built == blocks and len(blocks) == len(ks)
        for k, block in zip(ks, blocks):
            assert np.array_equal(block.spectrum, every[k].spectrum)
            assert block.band_limit == every[k].band_limit
        assert lp_blocks(f, sys1d, []) == []

    def test_grid_mismatch(self, grid1d, sys1d):
        other = Grid(1, 16.0, 2 ** 8)
        f = gaussian(other)
        with pytest.raises(GridMismatch):
            lp_blocks(f, sys1d)


class TestMultipliers:
    def test_bessel_zero_is_identity(self, grid1d):
        f = gaussian(grid1d)
        assert np.max(np.abs(bessel_apply(f, 0.0).values - f.values)) <= 1e-13

    def test_bessel_composition(self, grid1d):
        f = gaussian(grid1d)
        two_step = bessel_apply(bessel_apply(f, 0.8), -0.3)
        one_step = bessel_apply(f, 0.5)
        assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-12

    def test_bessel_pure_mode(self, grid1d):
        xi0 = 4.0  # lattice frequency: pi*k/L with k = 4*L/pi... use exact bin
        xi0 = grid1d.axis_freqs()[37]
        f = field_from_samples(grid1d, lambda x: np.exp(1j * xi0 * x))
        out = bessel_apply(f, 2.0)
        factor = (1 + xi0 ** 2)
        assert np.allclose(out.values, factor * f.values, rtol=1e-10)

    def test_derivative_identity(self, grid1d, grid2d):
        f = gaussian(grid1d)
        assert np.max(np.abs(derivative(f, (0,)).values - f.values)) <= 1e-13
        # D^0 is no multiplier at all: the field itself, no copy, no FFT.
        assert derivative(f, (0,)) is f
        assert derivative(f, 0) is f
        g = Field(grid2d, spectrum=_random_coefficients(grid2d))
        assert derivative(g, (0, 0)) is g

    def test_derivative_sine(self, grid1d):
        om = abs(grid1d.axis_freqs()[48])
        f = field_from_samples(grid1d, lambda x: np.sin(om * x))
        out = derivative(f, (1,))
        exact = om * np.cos(om * grid1d.axis_points())
        assert np.max(np.abs(out.values - exact)) <= 1e-9 * om

    def test_mixed_derivative_2d(self, grid2d):
        k1 = grid2d.axis_freqs()[5]
        k2 = grid2d.axis_freqs()[9]
        f = field_from_samples(
            grid2d, lambda x, y: np.exp(1j * (k1 * x + k2 * y)))
        out = derivative(f, (2, 1))
        factor = (1j * k1) ** 2 * (1j * k2)
        assert np.allclose(out.values, factor * f.values, rtol=1e-9)

    def test_derivative_rejects_bad_multiindex(self, grid1d):
        f = gaussian(grid1d)
        with pytest.raises(RangeError):
            derivative(f, (1, 1))
        with pytest.raises(RangeError):
            derivative(f, (-1,))


class TestWeightedLp:
    def test_indicator_example(self, grid1d_fine):
        x = grid1d_fine.axis_points()
        f = Field(grid1d_fine, ((x >= 0) & (x <= 1)).astype(complex))
        # int_0^1 x dx = 1/2, so the norm is 1/sqrt(2)
        assert weighted_lp(f, 2, 1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-3)

    def test_gaussian_example(self, grid1d_fine):
        f = field_from_samples(grid1d_fine, lambda x: np.exp(-x * x / 2),
                               band_limit=9.0)
        assert weighted_lp(f, 2, 0.0) == pytest.approx(math.pi ** 0.25, abs=1e-6)

    def test_sup_norm_ignores_weight(self, grid1d):
        f = gaussian(grid1d)
        assert weighted_lp(f, math.inf, 3.0) == weighted_lp(f, math.inf, -0.5)
        assert weighted_lp(f, math.inf, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_parseval(self, grid1d):
        f = gaussian(grid1d)
        lattice = 2 * grid1d.L * np.sum(np.abs(np.fft.fft(f.values) / grid1d.N) ** 2)
        assert weighted_lp(f, 2, 0.0) ** 2 == pytest.approx(lattice, rel=1e-8)

    def test_singular_weight_1d(self, grid1d_fine):
        # ||e^{-x^2/2}||_{L^2(|x|^{-1/2})}^2 = 2 int_0^inf x^{-1/2} e^{-x^2}
        #                                    = Gamma(1/4)
        f = field_from_samples(grid1d_fine, lambda x: np.exp(-x * x / 2),
                               band_limit=9.0)
        exact = math.sqrt(math.gamma(0.25))
        assert weighted_lp(f, 2, -0.5) == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("d,p,gamma", [(1, 1.0, -0.5), (1, 2.0, 0.0),
                                           (1, 3.5, 1.0), (2, 2.0, -1.5),
                                           (2, 3.0, 0.5)])
    def test_cell_sum_in_one_buffer(self, d, p, gamma):
        # Powers and mirrored weights are applied in place; the sum is the
        # one of the separate temporaries with full-lattice weights, bit
        # for bit.
        grid = Grid(d, 8.0, 64)
        vals = _random_coefficients(grid, 4)
        w = _full_weights(d, 8.0, 64 * 2, gamma)
        up = upsample_values(Field(grid, spectrum=vals), 2)
        expected = float(np.sum(np.abs(up) ** p * w)) ** (1.0 / p)
        assert weighted_cell_sum(grid, up, p, gamma, 2) == expected

    @pytest.mark.parametrize("d", [1, 2])
    def test_wrong_lattice_shape_is_grid_mismatch(self, d):
        # The shape got and the shapes accepted are named, not left to a
        # broadcast error: n^d, and the half path's half-line (1-D) or
        # half-plane (2-D).
        grid = Grid(d, 8.0, 64)
        n = 64 * 2
        accepted = [(n,) * d, (n // 2 + 1,) + (n,) * (d - 1)]
        for shape in [(n // 2,), (n // 2 + 2,), (n + 1,), (64,) * d,
                      (n, n // 2 + 1), (n // 2 + 1, n // 2 + 1), (n // 2, n),
                      (n // 2 + 1, n + 1), (n + 1, n), (n // 2 + 1,) * 3]:
            if shape in accepted:
                continue
            with pytest.raises(GridMismatch) as err:
                weighted_cell_sum(grid, np.ones(shape), 2.0, 0.5, 2)
            assert str(shape) in str(err.value)
            assert all(str(ok) in str(err.value) for ok in accepted)
        for shape in accepted:
            assert weighted_cell_sum(grid, np.ones(shape), 2.0, 0.5, 2) > 0.0

    def test_gamma_at_minus_d_rejected(self, grid1d):
        with pytest.raises(RangeError):
            weighted_lp(gaussian(grid1d), 2, -1.0)

    def test_2d_polar_origin_cell(self, grid2d):
        f = field_from_samples(grid2d, lambda x, y: np.exp(-(x * x + y * y) / 2),
                               band_limit=9.0)
        # 2 pi int r^{-3/2} e^{-r^2} r dr = 2 pi Gamma(1/4) / 2
        exact = math.sqrt(2 * math.pi * math.gamma(0.25) / 2)
        assert weighted_lp(f, 2, -1.5) == pytest.approx(exact, rel=1e-3)

    def test_dilation_law(self, grid1d_fine):
        # t^d f(tx) scales the weighted norm by t^{d - (d+gamma)/p} exactly;
        # the base must decay fast enough that periodization is negligible,
        # so a spectral Gaussian is used rather than the bump transform.
        from powemb.witnesses import dilation_family, gaussian_spectral_base

        base = gaussian_spectral_base(grid1d_fine, sigma_xi=2.0)
        for t, p, gamma in [(2.0, 2.0, 0.5), (4.0, 3.0, -0.25), (0.5, 2.0, 1.0)]:
            fam = dilation_family(base, [t])
            expected = t ** (1 - (1 + gamma) / p) * weighted_lp(base, p, gamma)
            assert weighted_lp(fam.member(0), p, gamma) == pytest.approx(
                expected, rel=1e-3)


def _full_lattice(w, n):
    """The n^d lattice of weights from a half-line or quadrant: cell i reads
    entry |i - n/2| on each axis."""
    idx = np.abs(np.arange(n) - n // 2)
    return w[np.ix_(*(idx,) * w.ndim)]


def _full_cell_weights_1d(L, n, gamma):
    """The closed-form integrals of |x|^gamma on all n lattice cells, kept as
    the reference for the half-line build."""
    h = 2.0 * L / n
    x = -L + h * np.arange(n)
    a, b = x - h / 2.0, x + h / 2.0

    def anti(t):
        return np.sign(t) * np.abs(t) ** (gamma + 1.0) / (gamma + 1.0)

    return anti(b) - anti(a)


def _full_weights(d, L, n, gamma):
    """Full-lattice cell weights: the closed form on every cell in 1-D, the
    quadrant gathered onto the lattice in 2-D."""
    if d == 1:
        return _full_cell_weights_1d(L, n, gamma)
    return _full_lattice(lpengine._cell_weights_2d(L, n, gamma), n)


def _einsum_cell_weights_2d(L, n, gamma):
    """The direct 8x8 Gauss-Legendre rule on all n^2 cells through (n, n, 8, 8)
    arrays, kept as the reference for the mirrored-quadrant build; it agrees
    with the 8x8 corner and midpoint series to within a few ulp."""
    h = 2.0 * L / n
    x = -L + h * np.arange(n)
    nodes, wts = np.polynomial.legendre.leggauss(lpengine._GL_NODES_2D)
    nodes = nodes * (h / 2.0)
    wts = wts * (h / 2.0)
    X = x[:, None, None, None]
    Y = x[None, :, None, None]
    U = nodes[None, None, :, None]
    V = nodes[None, None, None, :]
    R2 = (X + U) ** 2 + (Y + V) ** 2
    out = np.einsum("ijuv,u,v->ij", R2 ** (gamma / 2.0), wts, wts)
    out[n // 2, n // 2] = _polar_origin_cell(h, gamma)
    return out


def _polar_origin_cell(h, gamma):
    """4 * integral of r^gamma over [0, h/2]^2 in polar form."""
    half = h / 2.0
    theta, tw = np.polynomial.legendre.leggauss(lpengine._THETA_NODES)
    theta = (theta + 1.0) * (math.pi / 8.0)
    tw = tw * (math.pi / 8.0)
    sec_int = float(np.sum(tw / np.cos(theta) ** (gamma + 2.0)))
    return 4.0 * 2.0 * half ** (gamma + 2.0) / (gamma + 2.0) * sec_int


def _quadrant_8x8(L, n, gamma):
    """The 8x8 Gauss-Legendre rule on every cell of the quadrant, with the
    polar origin cell: the all-8x8 build, kept as the reference for the
    8x8 corner and the midpoint series beyond it."""
    h = 2.0 * L / n
    m = n // 2
    nodes, wts = np.polynomial.legendre.leggauss(8)
    wts = wts * (h / 2.0)
    sq = (h * np.arange(m + 1) + nodes[:, None] * (h / 2.0)) ** 2
    shape = (m + 1, m + 1)
    diag, off, tmp = np.zeros(shape), np.zeros(shape), np.empty(shape)
    for u, v in itertools.combinations_with_replacement(range(8), 2):
        np.add(sq[u][:, None], sq[v], out=tmp)
        np.power(tmp, gamma / 2.0, out=tmp)
        tmp *= wts[u] * wts[v]
        acc = diag if u == v else off
        acc += tmp
    q = diag + (off + off.T)
    q[0, 0] = _polar_origin_cell(h, gamma)
    return q


class TestCellWeights1d:
    @pytest.mark.parametrize("n", [16, 1024])
    @pytest.mark.parametrize("L", [8.0, 3.0, 1024.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0, 3.0])
    def test_half_line_is_the_full_lattice(self, n, L, gamma):
        w = lpengine._cell_weights_1d(L, n, gamma)
        assert w.shape == (n // 2 + 1,)
        assert np.array_equal(_full_lattice(w, n),
                              _full_cell_weights_1d(L, n, gamma))


class TestCellWeights2d:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("L", [8.0, 3.0])
    @pytest.mark.parametrize("gamma", [-1.5, -0.5, 0.0, 0.5, 1.0, 3.0, 8.0])
    def test_matches_einsum_reference(self, n, L, gamma):
        q = lpengine._cell_weights_2d(L, n, gamma)
        assert q.shape == (n // 2 + 1,) * 2
        np.testing.assert_allclose(_full_lattice(q, n),
                                   _einsum_cell_weights_2d(L, n, gamma),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("L", [8.0, 3.0])
    def test_unit_weight_gives_cell_areas(self, L):
        n = 64
        h = 2.0 * L / n
        w = _full_weights(2, L, n, 0.0)
        np.testing.assert_allclose(w, h * h, rtol=1e-13)
        assert w.sum() == pytest.approx((2.0 * L) ** 2, rel=1e-13)

    @pytest.mark.parametrize("L", [8.0, 3.0])
    def test_quadratic_weight_exact(self, L):
        # The 8x8 rule (exact to degree 15) and the midpoint series (exact at
        # gamma = 2) integrate x^2 + y^2 exactly on every cell; the cells
        # tile [-L - h/2, L - h/2]^2.
        n = 64
        h = 2.0 * L / n
        a, b = -L - h / 2.0, L - h / 2.0
        exact = 2.0 * (b - a) * (b ** 3 - a ** 3) / 3.0
        w = _full_weights(2, L, n, 2.0)
        assert w.sum() == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("gamma", [-1.5, 0.5, 3.0])
    def test_mirror_and_transpose_symmetry(self, gamma):
        # Mirror symmetry holds by storing one quadrant; the quadrant itself
        # is symmetric under transposition, bit for bit.
        q = lpengine._cell_weights_2d(3.0, 64, gamma)
        assert np.array_equal(q, q.T)

    GAMMAS = [-1.9, -1.5, -0.5, 0.5, 1.0, 2.5, 8.0]

    @pytest.mark.parametrize("n", [16, 64, 1024])
    @pytest.mark.parametrize("L", [8.0, 3.0])
    @pytest.mark.parametrize("gamma", GAMMAS + [0.0])
    def test_corner_is_the_8x8_rule(self, n, L, gamma):
        # Cells with both indices <= _NEAR_CELLS, the origin cell included,
        # are the all-8x8 build's bit for bit; at m <= _NEAR_CELLS that is
        # the whole quadrant.
        q, ref = lpengine._cell_weights_2d(L, n, gamma), _quadrant_8x8(L, n, gamma)
        corner = (slice(None, lpengine._NEAR_CELLS + 1),) * 2
        assert q[corner].tobytes() == ref[corner].tobytes()
        if n // 2 <= lpengine._NEAR_CELLS:
            assert q.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("L", [8.0, 3.0])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_far_cells_within_ulps_of_the_8x8_rule(self, L, gamma):
        # Rounding, not truncation: 4-6 ulp (6-7 at gamma = 8) measured, and
        # the same with a corner of radius 16.
        q, ref = lpengine._cell_weights_2d(L, 1024, gamma), _quadrant_8x8(L, 1024, gamma)
        ulps = np.abs(q - ref) / np.spacing(ref)
        assert ulps.max() <= (16 if gamma > 4 else 8)

    @pytest.mark.parametrize("L", [8.0, 3.0, 1024.0])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_series_cells_within_ulps_at_the_largest_default_n(self, L, gamma):
        # n = 2048 is the default 2-D grid at its oversampling cap: 4-7 ulp
        # measured against the all-8x8 build.
        q, ref = lpengine._cell_weights_2d(L, 2048, gamma), _quadrant_8x8(L, 2048, gamma)
        ulps = np.abs(q - ref) / np.spacing(ref)
        assert ulps.max() <= (16 if gamma > 4 else 8)

    @pytest.mark.parametrize("L", [8.0, 3.0, 1024.0])
    def test_series_cells_at_gamma_12(self, L):
        # 8-9 ulp measured; the 4x4 rule the series replaced left cells
        # 56-67 ulp off here.
        q, ref = lpengine._cell_weights_2d(L, 1024, 12.0), _quadrant_8x8(L, 1024, 12.0)
        assert (np.abs(q - ref) / np.spacing(ref)).max() <= 16

    @pytest.mark.parametrize("gamma", [-1.5, 0.5, 3.0, 8.0, 12.0])
    def test_transpose_symmetry_past_the_corner(self, gamma):
        # At n = 1024 most cells are far cells: still symmetric bit for bit.
        q = lpengine._cell_weights_2d(3.0, 1024, gamma)
        assert q.tobytes() == np.ascontiguousarray(q.T).tobytes()

    @pytest.mark.parametrize("L", [8.0, 3.0])
    def test_quadratic_weight_exact_past_the_corner(self, L):
        n = 1024
        h = 2.0 * L / n
        a, b = -L - h / 2.0, L - h / 2.0
        exact = 2.0 * (b - a) * (b ** 3 - a ** 3) / 3.0
        assert _full_weights(2, L, n, 2.0).sum() == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("L", [8.0, 3.0])
    def test_unit_weight_far_block_is_the_cell_area(self, L):
        n = 1024
        h = 2.0 * L / n
        q = lpengine._cell_weights_2d(L, n, 0.0).copy()
        q[:lpengine._NEAR_CELLS + 1, :lpengine._NEAR_CELLS + 1] = h * h
        assert np.all(q == h * h)

    @pytest.mark.parametrize("L", [8.0, 3.0])
    def test_unit_weight_cells(self, L):
        # At gamma = 0 every cell is h^2 exactly or the 8x8 build's value
        # (at L = 3, h is no power of two, and the 8x8 sum rounds off h^2).
        n = 1024
        h = 2.0 * L / n
        q, ref = lpengine._cell_weights_2d(L, n, 0.0), _quadrant_8x8(L, n, 0.0)
        assert np.all((q == h * h) | (q == ref))

    def test_every_rule_order_stays_cached(self):
        # _gauss_legendre holds every order lpengine uses, so no build
        # evicts a rule that the next one makes again.
        orders = {lpengine._GL_NODES_2D, lpengine._THETA_NODES,
                  lpengine._PANEL_NODES}
        assert len(orders) <= lpengine._gauss_legendre.cache_info().maxsize
        prof = RadialProfile(d=2, kind="power_log", a=0.5, b=0.0, R0=0.5)
        lpengine._gauss_legendre.cache_clear()
        for _ in range(2):
            lpengine._cell_weights_2d(8.0, 4 * lpengine._NEAR_CELLS, 0.5)
            radial_weighted_lp(prof, 2, 0.0)
        info = lpengine._gauss_legendre.cache_info()
        assert info.misses == info.currsize == len(orders)

    def test_default_grid_peak_memory_bounded(self):
        # DEFAULT_GRID_2D (N=512) at the 2-D oversampling cap of 4 asks for
        # the n=2048 weights; building them must stay well below 300 MB.
        from powemb.verify import DEFAULT_GRID_2D

        _, L, N = DEFAULT_GRID_2D
        n = N * lpengine._OVERSAMPLE_CAP[2]
        assert n == 2048
        code = ("import resource\n"
                "from powemb.lpengine import _get_weights\n"
                f"_get_weights(2, {L!r}, {n}, 0.5)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        peak_mb = int(_run_child(code)) / 1024.0  # ru_maxrss is in KiB
        assert peak_mb < 300.0, peak_mb

    def test_default_grid_peak_check_memory_bounded(self):
        # One 2-D peak check on the default grid (N=512): its widest member
        # is upsampled to n=2048, where a complex buffer is 64 MB.  The
        # child keeps freed memory in the heap, so ru_maxrss is the heap's
        # high-water mark; full-lattice weights and the complex samples
        # held through the cell sum took it 235 MB above the imports, the
        # quadrant weights and magnitudes alone 160 MB.
        code = ("import resource\n"
                "from powemb.verify import check_peak_scaling, default_grid\n"
                "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "check_peak_scaling(2, 0.5, -1, n_range=range(2, 6),\n"
                "                   grid=default_grid(2))\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n")
        heap = {"MALLOC_MMAP_THRESHOLD_": "4000000000",
                "MALLOC_TRIM_THRESHOLD_": "4000000000"}
        peak_mb = int(_run_child(code, heap)) / 1024.0
        assert peak_mb < 200.0, peak_mb


# Linux carries the RSS high-water mark of the process that execs into the
# new program's ru_maxrss, so a child of this test process starts at the test
# process's size.  The child therefore forks at once, before any import, and
# the code runs in the fork, whose ru_maxrss starts at the bare interpreter.
_FORK_PRELUDE = ("import os, sys\n"
                 "if os.fork():\n"
                 "    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n")


def _run_child(code, env_extra=()):
    """stdout of code run in a fresh interpreter (in a fork of it, see
    _FORK_PRELUDE) with this package importable."""
    src = os.path.dirname(os.path.dirname(lpengine.__file__))
    env = dict(os.environ)
    env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", _FORK_PRELUDE + code], env=env,
                          capture_output=True, text=True, check=True).stdout.strip()


def _full_upsample(f, factor, real=None, half=False):
    """One inverse FFT of the whole zero-padded spectrum, kept as the
    reference for the axis-by-axis transform: ``irfftn`` of the padded
    half-spectrum for a real-valued field (``real``, by default the
    field's flag past factor 1, as in ``upsample_values``), ``ifftn`` of
    the padded spectrum, at factor 1 ``values``, for any other.  With
    ``half``, the half-lattice of the samples (``_half_lattice``), a complex
    2-D spectrum transformed along axis 0 and then along axis 1, in the
    half path's order."""
    if real is None:
        real = f.real_valued and factor > 1
    if factor == 1 and not (real or half):
        return f.values
    d, n = f.grid.d, f.grid.N
    m, h = n * factor, n // 2
    idx = np.r_[0:h, m - h:m]
    if real:
        pad = np.zeros((m,) * (d - 1) + (m // 2 + 1,), dtype=np.complex128)
        pad[np.ix_(*(idx,) * (d - 1), np.arange(h))] = f.spectrum[..., :h]
        out = np.fft.irfftn(pad, s=(m,) * d, axes=tuple(range(d))) * factor ** d
    else:
        pad = np.zeros((m,) * d, dtype=np.complex128)
        pad[np.ix_(*(idx,) * d)] = f.spectrum
        out = (np.fft.ifft(np.fft.ifft(pad, axis=0), axis=1) if half and d == 2
               else np.fft.ifftn(pad)) * factor ** d
    return _half_lattice(out) if half else out


def _half_lattice(a):
    """Indices m/2 .. m-1 and then index 0 of axis 0 of an m^d lattice: the
    samples (1-D) or rows (2-D) with |x_0| = 0, h, .., L that the half path
    makes."""
    return np.concatenate([a[len(a) // 2:], a[:1]])


def _half_lattice_cell_sum(grid, mag, p, gamma, factor):
    """The cell sum over a half-lattice: entries 1 .. m/2-1 of axis 0 count
    twice, for their mirror images, and entries 0 and m/2 once."""
    terms = np.abs(mag) ** p * _half_lattice(
        _full_weights(grid.d, grid.L, grid.N * factor, gamma))
    total = 2.0 * np.sum(terms[1:-1]) + np.sum(terms[0]) + np.sum(terms[-1])
    return float(total) ** (1.0 / p)


def _full_cell_sum(grid, mag, p, gamma, factor):
    w = _full_weights(grid.d, grid.L, grid.N * factor, gamma)
    return float(np.sum(np.abs(mag) ** p * w)) ** (1.0 / p)


def _full_weighted_lp(f, p, gamma, half=False):
    """The full-lattice weighted norm; with ``half``, a point-symmetric
    field's refined samples are made on the half-lattice and summed as one."""
    factor = lpengine.auto_oversample(f.grid, f.band_limit)
    half = half and factor > 1
    mag = np.abs(_full_upsample(f, factor, half=half))
    return (_half_lattice_cell_sum if half else _full_cell_sum)(
        f.grid, mag, p, gamma, factor)


def _full_block_abs(f, sys, k, factor, half=False):
    block = Field(f.grid, spectrum=f.spectrum * sys.lattice_hat(k))
    return np.abs(_full_upsample(block, factor, real=f.real_valued, half=half))


def _full_besov(f, s, p, q, gamma, sys, half=False):
    cell_sum = _half_lattice_cell_sum if half else _full_cell_sum
    vals = []
    for k in range(lpengine._active_blocks(f, sys) + 1):
        factor = lpengine.auto_oversample(f.grid, lpengine._block_band(f, sys, k))
        vals.append(2.0 ** (k * s) * cell_sum(
            f.grid, _full_block_abs(f, sys, k, factor, half), p, gamma, factor))
    return max(vals) if q == math.inf else float(
        np.sum(np.asarray(vals) ** q) ** (1.0 / q))


def _full_triebel(f, s, p, q, gamma, sys, half=False):
    kmax = lpengine._active_blocks(f, sys)
    factor = lpengine.auto_oversample(f.grid, lpengine._block_band(f, sys, kmax))
    agg = None
    for k in range(kmax + 1):
        term = _full_block_abs(f, sys, k, factor, half) * 2.0 ** (k * s)
        if q == math.inf:
            agg = term if agg is None else np.maximum(agg, term)
        else:
            term **= q
            agg = term if agg is None else agg + term
    if q != math.inf:
        agg **= 1.0 / q
    return (_half_lattice_cell_sum if half else _full_cell_sum)(
        f.grid, agg, p, gamma, factor)


@pytest.mark.parametrize("which", ["band96_1d", "gauss_1d", "peak_1d",
                                   "random_2d", "peak_2d"])
def test_norms_match_full_lattice_reference(which):
    # Mirrored weights, axis-by-axis upsampling and skipped zero blocks give
    # the values of full-lattice weights and one ifftn per block, bit for bit.
    # A point-symmetric field is summed over the half-lattice of its samples:
    # bit for bit the half-lattice sum of a transform in the half path's
    # order, and the full-lattice sum to rounding.
    from powemb.norms import besov_norm, triebel_norm
    from powemb.witnesses import random_band_limited, spectral_peaks

    g1, g2 = Grid(1, 16.0, 2 ** 12), Grid(2, 8.0, 2 ** 6)
    f = {
        "band96_1d": lambda: random_band_limited(g1, 7, band=96.0),
        "gauss_1d": lambda: field_from_samples(
            g1, lambda x: np.exp(-x * x / 8.0), band_limit=4.3),
        "peak_1d": lambda: spectral_peaks(g1, [5], 0).member(0),
        "random_2d": lambda: random_band_limited(g2, 5, band=6.0),
        "peak_2d": lambda: spectral_peaks(g2, [3], -1).member(0),
    }[which]()
    sys = lpengine.make_dyadic(f.grid)
    low = -0.5 if f.grid.d == 1 else -1.5
    half = f.point_symmetric
    assert half == (which != "gauss_1d")

    def check(got, ref, *args):
        assert got == ref(f, *args, half=half)
        full = ref(f, *args)
        assert got == full if not half else abs(got - full) <= 1e-14 * full

    for p, gamma in [(1.0, low), (2.0, 0.0), (3.5, 1.0)]:
        check(weighted_lp(f, p, gamma), _full_weighted_lp, p, gamma)
        for s, q in [(0.5, 2.0), (-0.5, math.inf)]:
            check(besov_norm(f, s, p, q, gamma, sys=sys).value,
                  _full_besov, s, p, q, gamma, sys)
            check(triebel_norm(f, s, p, q, gamma, sys=sys).value,
                  _full_triebel, s, p, q, gamma, sys)


class TestHalfPlaneSum:
    """A 2-D real field's norms sum the half-plane of its point-symmetric
    samples; they are the full-lattice sums to rounding."""

    # h = 1/16: bands 3, 6 and 12 are refined by 1, 2 and 4.
    GRID = Grid(2, 2.0, 64)
    PS = (1.0, 1.5, 2.0, 4.0)
    GAMMAS = (-1.5, 0.0, 0.5, 2.5)

    @staticmethod
    def assert_close(got, ref, *key):
        assert abs(got - ref) <= 1e-14 * ref, key

    @pytest.mark.parametrize("n,factors", [(2, {1, 2}), (3, {2, 4})],
                             ids=["n2", "n3"])
    def test_peaks_and_blocks_match_full_lattice(self, n, factors):
        from powemb.norms import besov_norm, triebel_norm

        grid = self.GRID
        sys = lpengine.make_dyadic(grid)
        f = witnesses.spectral_peaks(grid, [n], 0).member(0)
        # The non-zero blocks; their bands are the Besov blocks' too.
        blocks = [b for b in lp_blocks(f, sys) if b.spectrum.any()]
        assert f.real_valued and all(b.real_valued for b in blocks)
        assert {lpengine.auto_oversample(grid, g.band_limit)
                for g in [f] + blocks} == factors
        items = [(g, p, gamma) for g in [f] + blocks
                 for p, gamma in itertools.product(self.PS, self.GAMMAS)]
        for (g, p, gamma), got in zip(items, weighted_lps(items)):
            self.assert_close(got, _full_weighted_lp(g, p, gamma), p, gamma)
        for p, gamma, q in itertools.product(self.PS, self.GAMMAS, (2.0, math.inf)):
            self.assert_close(besov_norm(f, 0.5, p, q, gamma, sys=sys).value,
                              _full_besov(f, 0.5, p, q, gamma, sys), p, gamma, q)
            self.assert_close(triebel_norm(f, 0.5, p, q, gamma, sys=sys).value,
                              _full_triebel(f, 0.5, p, q, gamma, sys), p, gamma, q)

    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_cell_sum_of_a_stack_matches_full_lattice(self, factor):
        grid = self.GRID
        f = witnesses.spectral_peaks(grid, [3], -1).member(0)
        fields = [f] + lp_blocks(f, lpengine.make_dyadic(grid), [2, 3])
        stack = lpengine.upsample_stack([g.spectrum for g in fields], factor,
                                        real=True, half=True)
        m = grid.N * factor
        assert stack.shape == (3, m // 2 + 1, m)
        for g, half in zip(fields, stack):
            full = np.abs(_full_upsample(g, factor, real=True))
            for p, gamma in itertools.product(self.PS, self.GAMMAS):
                got = weighted_cell_sum(grid, half, p, gamma, factor)
                assert got == _half_lattice_cell_sum(grid, half, p, gamma, factor)
                self.assert_close(got, _full_cell_sum(grid, full, p, gamma, factor),
                                  p, gamma)


class TestCacheBounds:
    def test_lru_keeps_recent_entries_within_capacity(self):
        cache = lpengine.LRUCache(10, size=len)
        cache.store("a", "aaaa")
        cache.store("b", "bbbb")
        assert cache.lookup("a") == "aaaa"  # now the most recent
        cache.store("c", "cccc")  # 12 > 10: the least recent, b, goes
        assert list(cache) == ["a", "c"]
        assert cache.lookup("b") is None
        cache.store("a", "aa")  # a replaced entry is counted once
        cache.store("e", "eeee")
        assert list(cache) == ["c", "a", "e"]
        cache.store("d", "d" * 11)  # too large alone: kept, all else evicted
        assert list(cache) == ["d"]
        cache.clear()
        assert len(cache) == 0

    def test_weight_cache_stays_within_its_bytes(self):
        # 1-D half-lines at n = 2^20 are 4 MB each; twenty of them exceed
        # the bound, and only the most recent that fit are kept.
        cache = lpengine._weight_cache
        n = 2 ** 20
        gammas = [0.05 * i for i in range(20)]
        cache.clear()
        try:
            for gamma in gammas:
                lpengine._get_weights(1, 16.0, n, gamma)
            entry = (n // 2 + 1) * 8
            kept = lpengine.WEIGHT_CACHE_BYTES // entry
            assert kept < len(gammas)
            assert len(cache) == kept
            assert sum(w.nbytes for w in cache.values()) == kept * entry
            assert kept * entry <= lpengine.WEIGHT_CACHE_BYTES
            assert list(cache) == [(1, 16.0, n, g) for g in gammas[-kept:]]
        finally:
            cache.clear()

    def test_dyadic_cache_stays_within_its_entries(self):
        bound = lpengine.DYADIC_CACHE_ENTRIES
        grids = [Grid(1, 16.0 + i, 64) for i in range(bound + 2)]
        lpengine._sys_cache.clear()
        try:
            systems = [lpengine.dyadic_for(g) for g in grids]
            assert len(lpengine._sys_cache) == bound
            assert list(lpengine._sys_cache) == [(1, g.L, 64) for g in grids[2:]]
            assert lpengine.dyadic_for(grids[-1]) is systems[-1]
        finally:
            lpengine._sys_cache.clear()



class TestOneSystemPerGrid:
    """lpengine keeps the one dyadic system of each grid; verify reaches the
    same cache, so clearing it there starts every grid cold."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        inner = lpengine.make_dyadic
        monkeypatch.setattr(lpengine, "make_dyadic",
                            lambda grid: calls.append(grid) or inner(grid))
        lpengine._sys_cache.clear()
        yield calls
        lpengine._sys_cache.clear()

    def test_clearing_verify_cache_drops_the_systems(self, builds):
        from powemb import verify
        from powemb.norms import besov_norm

        assert verify._sys_cache is lpengine._sys_cache
        f = gaussian(Grid(1, 16.0, 2 ** 12))
        besov_norm(f, 0.5, 2, 2, 0.5)
        verify._witness_family("peaks", 1, f.grid)
        builds.clear()
        verify._sys_cache.clear()
        besov_norm(f, 0.5, 2, 2, 0.5)
        besov_norm(f, 0.5, 2, 1, 0.0)
        assert builds == [f.grid]
        assert verify._sys_cache[(1, 16.0, 2 ** 12)].built == {}

    def test_catalog_run_builds_one_system_per_grid(self, builds):
        from powemb import suite

        reps = suite.run_experiments(
            ["gagliardo", "equivalences"],
            {"gagliardo": {"count": 2},
             "equivalences": {"count": 2, "grid": {"d": 1, "L": 16.0, "N": 1024}}})
        assert all(r.passed for rs in reps.values() for r in rs)
        assert sorted(builds, key=lambda g: g.N) == [Grid(1, 16.0, 2 ** 10),
                                                     Grid(1, 16.0, 2 ** 12)]

class TestRadial:
    def test_constant_profile(self):
        prof = RadialProfile(d=1, kind="power_log", a=0.0, b=0.0, R0=1.0)
        # sigma_0 * int_0^1 r dr = 2 * 1/2 = 1 with p=2, gamma=1
        res = radial_weighted_lp(prof, 2, 1.0)
        assert not res.diverged
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_log_divergence(self):
        prof = RadialProfile(d=1, kind="power_log", a=0.5, b=0.0, R0=1.0,
                             inner_cutoff=0.0)
        res = radial_weighted_lp(prof, 2, 0.0)  # integrand r^{-1}
        assert res.diverged and res.value == math.inf

    def test_cutoff_makes_it_finite(self):
        prof = RadialProfile(d=1, kind="power_log", a=0.5, b=0.0, R0=1.0,
                             inner_cutoff=0.125)
        res = radial_weighted_lp(prof, 2, 0.0)
        # 2 * int_{1/8}^{1} dr/r = 2 log 8
        assert res.value == pytest.approx(math.sqrt(2 * math.log(8)), rel=1e-8)

    def test_agrees_with_grid_quadrature_on_radial_field(self, grid1d_fine):
        width = 1.0
        prof = RadialProfile(
            d=1, kind="tabulated", R0=14.0, inner_cutoff=1e-6,
            r_samples=np.exp(np.linspace(np.log(1e-6), np.log(14.0), 4000)),
            f_samples=np.exp(-np.exp(np.linspace(np.log(1e-6), np.log(14.0),
                                                 4000)) ** 2 / (2 * width ** 2)),
        )
        f = field_from_samples(grid1d_fine,
                               lambda x: np.exp(-x * x / (2 * width ** 2)),
                               band_limit=9.0)
        for p, gamma in [(2.0, 0.5), (3.0, 0.0)]:
            a = radial_weighted_lp(prof, p, gamma).value
            b = weighted_lp(f, p, gamma)
            assert a == pytest.approx(b, rel=0.01)

    def test_quadrature_rule_made_once(self, monkeypatch):
        # The panel rule is computed on first use and then shared read-only.
        prof = RadialProfile(d=2, kind="power_log", a=0.5, b=0.0, R0=0.5)
        first = radial_weighted_lp(prof, 2, 0.0)
        calls = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n))
        assert radial_weighted_lp(prof, 2, 0.0).value == first.value
        assert calls == []
        nodes, wts = lpengine._gauss_legendre(lpengine._PANEL_NODES)
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    def test_rejects_bad_parameters(self):
        prof = RadialProfile(d=1, kind="power_log", a=0.5, b=0.5)
        with pytest.raises(RangeError):
            radial_weighted_lp(prof, math.inf, 0.0)
        with pytest.raises(RangeError):
            radial_weighted_lp(prof, 2, -2.0)

    def test_classify_protocol_shapes(self):
        growing = [math.log(m) for m in range(4, 21)]
        assert classify_refinements(growing)[0] == "diverged"
        settled = [1.0 - 2.0 ** -m for m in range(4, 21)]
        assert classify_refinements(settled)[0] == "converged"
        slow = [3 * (1.13 - (m * 0.693) ** (-1 / 3.0)) for m in range(4, 21)]
        status, warning = classify_refinements(slow)
        assert status == "converged" and warning is not None


class TestSerialization:
    def test_field_round_trip(self, grid1d, tmp_path):
        f = gaussian(grid1d)
        path = tmp_path / "f.field"
        save_field(f, path)
        g = load_field(path)
        assert g.grid == f.grid
        assert g.band_limit == f.band_limit
        assert np.array_equal(g.values, f.values)

    def test_profile_round_trip(self, tmp_path):
        prof = RadialProfile(d=1, kind="power_log", a=0.5, b=0.25,
                             inner_cutoff=1e-4)
        path = tmp_path / "p.csv"
        save_profile_csv(prof, path)
        back = load_profile_csv(path)
        r = np.exp(np.linspace(math.log(2e-4), math.log(0.4), 50))
        assert np.allclose(back(r), prof(r), rtol=1e-4)

    def test_load_rejects_a_nan_band(self, grid1d, tmp_path):
        path = tmp_path / "f.field"
        save_field(gaussian(grid1d), path)
        head, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["band_limit"] = math.nan
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        with pytest.raises(RangeError, match="got nan"):
            load_field(path)

    def test_load_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.field"
        path.write_bytes(b'{"magic": "nope"}\n')
        with pytest.raises(ValueError):
            load_field(path)


class TestFieldInvariants:
    def test_spectrum_consistency_check(self, grid1d):
        f = gaussian(grid1d)
        back = np.fft.ifftn(f.spectrum)
        scale = max(1.0, float(np.max(np.abs(f.values))))
        assert np.max(np.abs(back - f.values)) <= 1e-9 * scale

    def test_values_are_immutable(self, grid1d):
        f = gaussian(grid1d)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    @pytest.mark.parametrize("band", [math.nan, -1.0])
    def test_sampled_fields_reject_a_bad_band(self, grid1d, band):
        # Neither is a radius; the norms read either as "block 0 only".
        fn = lambda x: np.exp(-x * x / 8.0)
        with pytest.raises(RangeError, match=f"got {band}"):
            Field(grid1d, fn(*grid1d.points()), band_limit=band)
        with pytest.raises(RangeError, match=f"got {band}"):
            field_from_samples(grid1d, fn, band_limit=band)

    def test_band_enforced_for_spectral_fields(self, grid1d, max_coeff_outside):
        f = field_from_spectral(grid1d, lambda xi: np.ones_like(xi),
                                band_limit=2.0)
        assert max_coeff_outside(f, 2.0) == 0.0
        assert max_coeff_outside(f, 1.0) > 0.0


def _random_coefficients(grid, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.N,) * grid.d
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestFieldRepresentation:
    @pytest.mark.parametrize("d", [1, 2])
    def test_spectrum_constructor(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        spec = _random_coefficients(grid)
        f = Field(grid, spectrum=spec)
        assert np.array_equal(f.values, np.fft.ifftn(spec))
        assert np.array_equal(f.spectrum, spec)
        spec[0] = 0.0  # the field keeps its own copy
        assert f.spectrum.flat[0] != 0.0
        for arr in (f.values, f.spectrum):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_values_constructor_arrays_read_only(self, grid2d):
        f = Field(grid2d, _random_coefficients(grid2d))
        for arr in (f.values, f.spectrum):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_exactly_one_representation(self, grid1d):
        vals = np.zeros(grid1d.N, dtype=complex)
        with pytest.raises(ValueError, match="exactly one"):
            Field(grid1d)
        with pytest.raises(ValueError, match="exactly one"):
            Field(grid1d, vals, spectrum=vals)

    @pytest.mark.parametrize("kind", ["values", "spectrum"])
    def test_wrong_shape_is_grid_mismatch(self, grid1d, grid2d, kind):
        for grid, bad in ((grid1d, np.zeros(grid1d.N // 2)),
                          (grid2d, np.zeros(grid2d.N))):
            with pytest.raises(GridMismatch, match=kind):
                Field(grid, **{kind: bad})

    @pytest.mark.parametrize("factor", [2, 4])
    def test_2d_upsampling_of_separable_mode(self, factor):
        g1, g2 = Grid(1, 8.0, 16), Grid(2, 8.0, 16)
        # random coefficients fill every bin, the Nyquist bin included
        a, b = _random_coefficients(g1, 1), _random_coefficients(g1, 2)
        up_a = upsample_values(Field(g1, spectrum=a), factor)
        up_b = upsample_values(Field(g1, spectrum=b), factor)
        up_ab = upsample_values(Field(g2, spectrum=np.outer(a, b)), factor)
        assert up_ab.shape == (16 * factor,) * 2
        assert np.allclose(up_ab, np.outer(up_a, up_b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,factor,real", [
        pytest.param(d, factor, real, id=("real-" if real else "") + f"{d}-{factor}")
        for real in (False, True) for d, factor in [(1, 2), (1, 32), (2, 2), (2, 4)]])
    def test_upsampling_is_one_inverse_fft(self, d, factor, real, fft_calls):
        # One in-place transform per axis, of the lanes holding coefficients
        # only; the samples are those of one inverse FFT of the whole padded
        # spectrum and a scaling, bit for bit.  A real-valued field ends in
        # one irfft along the last axis and its samples are real; they are
        # the half-lattice of that transform.
        grid = Grid(d, 8.0, 16)
        if real:
            f = field_from_spectral(
                grid, lambda *k: np.exp(-sum(x * x for x in k)), band_limit=2.5)
            assert f.real_valued
        else:
            f = Field(grid, spectrum=_random_coefficients(grid, 3))
        fft_calls.clear()
        up = upsample_values(f, factor)
        names = ["ifft"] * (d - 1) + ["irfft"] if real else ["ifft"] * d
        assert fft_calls == [(name, 1) for name in names]
        assert up.dtype == (np.float64 if real else np.complex128)
        ref = _full_upsample(f, factor, half=real)
        m = 16 * factor
        assert up.shape == ((m // 2 + 1,) + (m,) * (d - 1) if real else (m,) * d)
        assert np.array_equal(up, ref)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rim_of_a_spectrum_keeps_no_samples(self, grid1d, grid2d, d,
                                                fft_calls):
        # One transform for the scan, its samples dropped after it; the
        # value is the scan of the field's own samples, bit for bit.
        grid = grid1d if d == 1 else grid2d
        f = Field(grid, spectrum=_random_coefficients(grid, 5))
        fft_calls.clear()
        rim = f.rim
        assert fft_calls == [("ifftn", 1)]
        assert f._values is None
        assert rim == lpengine.boundary_decay(Field(grid, f.values))

    def test_rim_of_samples_scans_them(self, grid1d, fft_calls):
        f = gaussian(grid1d)
        fft_calls.clear()
        assert f.rim == lpengine.boundary_decay(f)
        assert fft_calls == []
        assert f._spectrum is None


def _origin_sign(grid):
    """(-1)^k on the whole lattice, from the bins' frequencies k."""
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    return functools.reduce(np.multiply.outer, (np.where(k % 2, -1.0, 1.0),) * grid.d)


class TestOriginPhase:
    @pytest.mark.parametrize("d, n", [(1, 16), (1, 4096), (2, 16), (2, 256)])
    @pytest.mark.parametrize("band", [None, 3.0])
    def test_field_sign_is_exactly_minus_one_to_the_k(self, d, n, band):
        # A constant generator leaves the sign alone in the spectrum: every
        # coefficient is +-weight * n^d exactly, with no imaginary part.
        grid = Grid(d, 8.0, n)
        f = field_from_spectral(grid, lambda *k: 1.0, band_limit=band)
        weight = (math.pi / grid.L) ** d / (2.0 * math.pi) ** (d / 2.0)
        expected = _origin_sign(grid) * weight * n ** d
        if band is not None:
            expected = np.where(grid.freq_magnitude() <= band, expected, 0.0)
        assert not f.spectrum.imag.any()
        assert np.array_equal(f.spectrum.real, expected)

    def test_spectral_fields_unchanged(self, grid2d):
        # A spectrum equals the generator's coefficients times the sign table.
        fn = lambda *xi: np.exp(-sum(x * x for x in xi))
        f = field_from_spectral(grid2d, fn)
        weight = (math.pi / grid2d.L) ** 2 / (2.0 * math.pi)
        coeff = np.asarray(fn(*grid2d.freqs()), dtype=np.complex128)
        expected = coeff * weight * _origin_sign(grid2d) * grid2d.N ** 2
        assert np.array_equal(f.spectrum, expected)


def _full_lattice_spectrum(grid, fn, band_limit=None):
    """field_from_spectral's coefficients with ``fn`` evaluated on the whole
    lattice and the band applied by a mask afterwards."""
    coeff = np.asarray(fn(*grid.freqs()), dtype=np.complex128)
    if band_limit is not None:
        coeff = np.where(grid.freq_magnitude() <= band_limit, coeff, 0.0)
    weight = (math.pi / grid.L) ** grid.d / (2.0 * math.pi) ** (grid.d / 2.0)
    return coeff * weight * _origin_sign(grid) * grid.N ** grid.d


def _witness_members(grid):
    """One member of every spectral witness kind that fits the grid."""
    peak_n = 2 if grid.d == 2 else 6
    rand = witnesses.random_band_limited(grid, seed=7, band=1.0)
    gauss = witnesses.gaussian_spectral_base(grid, sigma_xi=2.0)
    # The spectral Gaussian moved by 1.5 along e1: a non-radial, complex
    # generator.
    shifted = lambda k1, *rest: gauss.spectral_gen(k1, *rest) * np.exp(-1j * k1 * 1.5)
    members = {
        "bump": field_from_spectral(grid, lambda *k: bump_hat(magnitude(*k)),
                                    band_limit=1.5),
        "gaussian_spectral": gauss,
        "random": rand,
        "dilation": witnesses.dilation_family(rand, [4.0]).member(0),
        "gaussian_dilation": witnesses.dilation_family(gauss, [0.5]).member(0),
        "translation": field_from_spectral(grid, shifted,
                                           band_limit=gauss.band_limit),
        "lacunary": witnesses.lacunary_sum(
            grid, [1.0, -0.5] if grid.d == 1 else [1.0], 1.0, 2.0, 0.5),
    }
    for j in (-1, 0, 1):
        members[f"peak_j{j}"] = witnesses.spectral_peaks(grid, [peak_n], j).member(0)
    return members


class TestSpectralBox:
    """field_from_spectral evaluates its generator on the band's frequency
    box only; every coefficient equals the whole-lattice evaluation."""

    @staticmethod
    def assert_matches_full_lattice(f, fn, band_limit):
        ref = _full_lattice_spectrum(f.grid, fn, band_limit)
        assert np.array_equal(f.spectrum, ref)
        assert np.array_equal(np.abs(f.values), np.abs(np.fft.ifftn(ref)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_witness_members(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        for name, f in _witness_members(grid).items():
            assert f.band_limit is not None, name
            self.assert_matches_full_lattice(f, f.spectral_gen, f.band_limit)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("band", ["none", "whole_axis", "whole_lattice",
                                      "on_a_bin", "below_first_bin", "zero",
                                      "negative", "nan"])
    @pytest.mark.parametrize("scalar", [False, True])
    def test_edge_bands(self, grid1d, grid2d, d, band, scalar):
        grid = grid1d if d == 1 else grid2d
        band_limit = {
            "none": None,
            "whole_axis": grid.xi_max,  # in 2-D the disc still cuts corners
            "whole_lattice": 2.0 * grid.xi_max,
            "on_a_bin": float(grid.axis_freqs()[3]),  # bins at the edge kept
            "below_first_bin": 0.5 * math.pi / grid.L,  # the zero bin only
            "zero": 0.0,
            "negative": -1.0,
            "nan": math.nan,
        }[band]
        if scalar:
            fn = lambda *k: 2.0 - 1.0j
        else:
            fn = lambda *k: np.exp(-sum(x * x for x in k) / 50.0) * (1.0 + 0.5j)
        if band in ("negative", "nan"):
            # Neither is a radius: rejected, not read as an empty band.
            with pytest.raises(RangeError, match=f"got {band_limit}"):
                field_from_spectral(grid, fn, band_limit=band_limit)
            return
        f = field_from_spectral(grid, fn, band_limit=band_limit)
        self.assert_matches_full_lattice(f, fn, band_limit)
        if band in ("below_first_bin", "zero"):
            assert np.count_nonzero(f.spectrum) == 1

    @pytest.mark.parametrize("d, band", [(1, 1.0), (1, 20.0), (2, 3.0), (2, 10.0)])
    def test_generator_sees_only_the_box(self, grid1d, grid2d, d, band):
        grid = grid1d if d == 1 else grid2d
        seen = []

        def recording(*k):
            seen.append(k[0].size)
            return np.cos(k[0])

        f = field_from_spectral(grid, recording, band_limit=band)
        K = math.floor(band * grid.L / math.pi)
        assert seen and max(seen) <= (2 * K + 1) ** d < grid.N ** d
        self.assert_matches_full_lattice(f, lambda *k: np.cos(k[0]), band)


# The members of _witness_members whose generator is real and even.
_REAL_MEMBERS = {"bump", "gaussian_spectral", "gaussian_dilation", "lacunary",
                 "peak_j-1", "peak_j0", "peak_j1"}


def _assert_real_spectrum(spec):
    """Exactly Hermitian, S(-k) = conj S(k), with every Nyquist lane zero."""
    axes = tuple(range(spec.ndim))
    assert np.array_equal(spec, np.conj(np.roll(np.flip(spec, axes), 1, axes)))
    for axis in axes:
        assert not np.take(spec, spec.shape[axis] // 2, axis=axis).any()


class TestRealValued:
    """The realness flag is derived from the spectrum field_from_spectral
    builds, and it sends upsampling through the half-spectrum."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_flag_marks_exactly_the_real_members(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        sys_ = make_dyadic(grid)
        for name, f in _witness_members(grid).items():
            assert f.real_valued == (name in _REAL_MEMBERS), name
            if f.real_valued:
                _assert_real_spectrum(f.spectrum)
            for block in lp_blocks(f, sys_):
                assert block.real_valued == f.real_valued, name
                if block.real_valued:
                    _assert_real_spectrum(block.spectrum)

    @pytest.mark.parametrize("d", [1, 2])
    def test_other_fields_are_not_flagged(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        even = lambda *k: np.exp(-sum(x * x for x in k))
        fields = {
            "not_even": field_from_spectral(
                grid, lambda *k: np.exp(-sum((x - 1.0) ** 2 for x in k)),
                band_limit=6.0),
            "no_band": field_from_spectral(grid, even),
            "band_past_nyquist": field_from_spectral(grid, even,
                                                     band_limit=grid.xi_max),
            "sampled": field_from_samples(
                grid, lambda *x: np.exp(-sum(y * y for y in x)), band_limit=8.0),
            "multiplier": bessel_apply(field_from_spectral(grid, even,
                                                           band_limit=6.0), 1.0),
            "constructor": Field(grid, spectrum=field_from_spectral(
                grid, even, band_limit=6.0).spectrum),
        }
        for name, f in fields.items():
            assert not f.real_valued, name

    @pytest.mark.parametrize("d", [1, 2])
    def test_flagged_fields_are_point_symmetric(self, grid1d, grid2d, d):
        # The 2-D real path sums a half-plane, so the flag must mean real
        # and even: v[i] = v[-i], lattice index i against (n - i) mod n.
        # The origin sign is exactly (-1)^k, so the odd part is rounding
        # alone: at most 1e-15 of the peak.
        grid = grid1d if d == 1 else grid2d
        axes = tuple(range(d))
        members = _witness_members(grid)

        def asymmetry(v):
            """max |v[i] - v[-i]| over 1e-15 of the peak."""
            mirror = np.roll(np.flip(v, axes), 1, axes)
            return np.max(np.abs(v - mirror)) / (1e-15 * np.max(np.abs(v)))

        for name in sorted(_REAL_MEMBERS):
            for g in [members[name]] + lp_blocks(members[name], make_dyadic(grid)):
                if g.spectrum.any():
                    assert asymmetry(_full_upsample(g, 1, real=True)) <= 1.0, name
        # The bound has teeth: a moved Gaussian is not even and lies far outside.
        assert asymmetry(members["translation"].values.real) > 1e6

    @pytest.mark.parametrize("d", [1, 2])
    def test_real_generators_that_are_not_even_are_not_flagged(self, grid1d,
                                                               grid2d, d):
        grid = grid1d if d == 1 else grid2d
        gauss = lambda *k: np.exp(-sum(x * x for x in k))
        for fn in (lambda *k: k[0] * gauss(*k),
                   lambda *k: np.exp(-sum((x - 0.5) ** 2 for x in k)),
                   lambda *k: gauss(*k) * (1.0 + 0.1 * np.sin(k[-1]))):
            f = field_from_spectral(grid, fn, band_limit=6.0)
            assert np.isrealobj(fn(*grid.freqs()))
            assert not f.real_valued

    @pytest.mark.parametrize("d", [1, 2])
    def test_real_path_matches_complex_path(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        factors = [2, 4, 8, 16, 32] if d == 1 else [2, 4]
        members = _witness_members(grid)
        for name in sorted(_REAL_MEMBERS):
            f = members[name]
            as_complex = Field(grid, spectrum=f.spectrum)
            for factor in factors:
                got = upsample_values(f, factor)
                ref = _half_lattice(upsample_values(as_complex, factor))
                assert got.dtype == np.float64
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (
                    name, factor)


def _mirror(v):
    """v at lattice index -i, (n - i) mod n on every axis."""
    axes = tuple(range(v.ndim))
    return np.roll(np.flip(v, axes), 1, axes)


class TestPointSymmetric:
    """The symmetry flag is derived from the spectrum: set exactly where it
    equals plus or minus its reflection k -> -k, and the samples' magnitudes
    are then even to rounding."""

    @staticmethod
    def fields(grid):
        """Every witness member, its blocks and its first derivatives, and a
        translation family member, by name."""
        sys_ = make_dyadic(grid)
        members = dict(_witness_members(grid))
        members["translation_family"] = witnesses.translation_family(
            witnesses.gaussian_base(grid, sigma=0.5), [1.0]).member(0)
        out = {}
        for name, f in members.items():
            out[name] = f
            for k, block in enumerate(lp_blocks(f, sys_)):
                out[f"{name}/block{k}"] = block
            for axis in range(grid.d):
                alpha = tuple(int(i == axis) for i in range(grid.d))
                out[f"{name}/D{alpha}"] = derivative(f, alpha)
        return out

    @pytest.mark.parametrize("d", [1, 2])
    def test_flag_marks_exactly_the_symmetric_spectra(self, grid1d, grid2d, d):
        # Radial members, their blocks (even) and their first derivatives
        # (odd) are flagged; a moved member is not, nor anything of it.
        grid = grid1d if d == 1 else grid2d
        for name, f in self.fields(grid).items():
            base = name.split("/")[0]
            sym = base not in ("translation", "translation_family")
            assert f.point_symmetric == sym, name
            spec = f.spectrum
            even = np.array_equal(spec, _mirror(spec))
            odd = np.array_equal(spec, -_mirror(spec))
            if not sym:
                assert not (even or odd) or not spec.any(), name
            elif "/D" in name:
                assert odd, name
            else:
                assert even, name
            if f.real_valued:
                assert sym and even, name
        assert not witnesses.random_band_limited(grid, 7).real_valued

    @pytest.mark.parametrize("d", [1, 2])
    def test_flagged_magnitudes_are_even(self, grid1d, grid2d, d):
        # |v[i]| and |v[-i]| differ by rounding alone: at most 1e-15 of the
        # peak, which the half-lattice sums rely on.
        grid = grid1d if d == 1 else grid2d
        fields = self.fields(grid)
        for name, f in fields.items():
            if f.point_symmetric and f.spectrum.any():
                mag = np.abs(f.values)
                assert (np.max(np.abs(mag - _mirror(mag)))
                        <= 1e-15 * np.max(mag)), name
        # The bound has teeth: a moved member lies far outside it.
        mag = np.abs(fields["translation"].values)
        assert np.max(np.abs(mag - _mirror(mag))) > 1e-3 * np.max(mag)

    @pytest.mark.parametrize("d", [1, 2])
    def test_half_lattice_norms_match_full_lattice(self, grid1d, grid2d, d):
        # Every kind of flagged member, at every factor: the half-lattice
        # cell sum agrees within 1e-14 with the full-lattice sum of the same
        # samples, mirrored to lattice indices -a.
        grid = grid1d if d == 1 else grid2d
        members = _witness_members(grid)
        for name in ("random", "dilation", "peak_j0"):
            f = members[name]
            assert f.point_symmetric, name
            for factor in (1, 2, 4):
                half = lpengine.upsample_stack([f.spectrum], factor,
                                               f.real_valued, True)[0]
                m = grid.N * factor
                full = np.concatenate([half[m // 2:0:-1], half[:m // 2]])
                for p, gamma in itertools.product((1.0, 2.0, 3.5),
                                                  (-0.5, 0.0, 1.5)):
                    got = weighted_cell_sum(grid, half, p, gamma, factor)
                    ref = _full_cell_sum(grid, full, p, gamma, factor)
                    assert abs(got - ref) <= 1e-14 * ref, (name, factor, p, gamma)


class TestUpsampleStack:
    """One call per axis transforms a stack of same-grid spectra, and each
    of its sample arrays is the one-field path's bit for bit."""

    @pytest.mark.parametrize("d,factor", [(d, factor) for d in (1, 2)
                                          for factor in (1, 2, 4)])
    def test_complex_stack_matches_single_fields(self, d, factor, fft_calls):
        grid = Grid(d, 8.0, 16)
        fields = [Field(grid, spectrum=_random_coefficients(grid, seed))
                  for seed in range(3)]
        fft_calls.clear()
        up = lpengine.upsample_stack([f.spectrum for f in fields], factor)
        assert fft_calls == [("ifft", 3)] * d
        assert up.shape == (3,) + (16 * factor,) * d
        for f, got in zip(fields, up):
            assert np.array_equal(got, upsample_values(f, factor))

    @pytest.mark.parametrize("d,factor", [(d, factor) for d in (1, 2)
                                          for factor in (1, 2, 4)])
    def test_real_stack_matches_half_spectrum_reference(self, d, factor, fft_calls):
        grid = Grid(d, 8.0, 16)
        fields = [field_from_spectral(
            grid, lambda *k, a=a: np.exp(-a * sum(x * x for x in k)), band_limit=2.5)
            for a in (0.5, 1.0, 2.0)]
        assert all(f.real_valued for f in fields)
        fft_calls.clear()
        up = lpengine.upsample_stack([f.spectrum for f in fields], factor,
                                     real=True, half=True)
        assert fft_calls == [("ifft", 3)] * (d - 1) + [("irfft", 3)]
        assert up.dtype == np.float64
        m = 16 * factor
        assert up.shape == (3, m // 2 + 1) + (m,) * (d - 1)
        for f, got in zip(fields, up):
            ref = _full_upsample(f, factor, real=True, half=True)
            assert np.array_equal(got, ref)
            if factor > 1:
                assert np.array_equal(got, upsample_values(f, factor))

    @pytest.mark.parametrize("d,factor", [(d, factor) for d in (1, 2)
                                          for factor in (1, 2, 4)])
    def test_symmetric_stack_matches_axis_order_reference(self, d, factor,
                                                          fft_calls):
        # Complex point-symmetric spectra: the half-lattice of one ifft per
        # axis, axis 0 first, bit for bit; in 2-D the last axis is
        # transformed on the half-plane rows only.
        grid = Grid(d, 8.0, 16)
        fields = [witnesses.random_band_limited(grid, seed, band=2.5)
                  for seed in range(3)]
        assert all(f.point_symmetric and not f.real_valued for f in fields)
        fft_calls.clear()
        up = lpengine.upsample_stack([f.spectrum for f in fields], factor,
                                     half=True)
        assert fft_calls == [("ifft", 3)] * d
        m = 16 * factor
        assert up.shape == (3, m // 2 + 1) + (m,) * (d - 1)
        for f, got in zip(fields, up):
            assert np.array_equal(got, _full_upsample(f, factor, half=True))
            if factor > 1:
                assert np.array_equal(got, upsample_values(f, factor))

    @pytest.mark.parametrize("d,factor,real,slots", [
        (1, 4, False, 16), (1, 32, False, 2), (1, 1, True, 63),
        (2, 1, False, 4), (2, 1, True, 5), (2, 2, False, 1), (2, 2, True, 1),
        (2, 4, False, 1)])
    def test_stack_slots_bound_the_buffer(self, d, factor, real, slots):
        # 1-D at N = 4096 and 2-D at N = 256, a real stack on its
        # half-lattice as a real field's: a padded 2-D block at factor 2 is
        # 4 MiB (3 MiB real), and one at factor 4, 16 MiB, still gets its call.
        grid = Grid(d, 8.0, 4096 if d == 1 else 256)
        assert lpengine.stack_slots(grid, factor, real, real) == slots

    @pytest.mark.parametrize("d,real,half,factor", [
        (d, real, half, factor) for d in (1, 2) for real in (False, True)
        for half in (False, True) for factor in (1, 2)])
    def test_a_call_stays_within_stack_bytes(self, monkeypatch, d, real, half,
                                             factor):
        # Every path: the bound lies just below three lanes' bytes, the
        # buffer with its spare element or row, and a real stack's samples
        # too, so two lanes fit and the call's traced peak stays within it.
        grid = Grid(d, 8.0, 1024 if d == 1 else 64)
        m = grid.N * factor
        if d == 1:
            lane = 16 * (m // 2 + 1) + 8 * (m + half) if real else 16 * (m + half)
        else:
            lane = 16 * (m + half) * (m // 2 + 1 if real else m)
            lane += 8 * (m // 2 + 1 if half else m) * m if real else 0
        monkeypatch.setattr(lpengine, "STACK_BYTES", 3 * lane - 1)
        assert lpengine.stack_slots(grid, factor, real, half) == 2
        spec = field_from_spectral(
            grid, lambda *k: np.exp(-sum(x * x for x in k)), band_limit=6.0).spectrum
        tracemalloc.start()
        try:
            up = lpengine.upsample_stack([spec, spec], factor, real, half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert up.shape[1:] == ((m // 2 + 1,) + (m,) * (d - 1) if half else (m,) * d)
        assert 2 * lane <= peak <= lpengine.STACK_BYTES


def _one_by_one(f, p, gamma):
    """A norm the way one field used to take it: its ``values`` at factor
    1 (and for p = inf), else its one-field upsampling."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    factor = lpengine.auto_oversample(f.grid, f.band_limit)
    return weighted_cell_sum(f.grid, upsample_values(f, factor), float(p),
                             gamma, factor)


def _batch_items(d):
    """(field, p, gamma) items on a small grid: real-valued and complex
    fields at factors 1, 2 and 4, a sampled field that holds its values,
    p = inf, and fields listed twice."""
    grid = Grid(d, 8.0, 64 if d == 1 else 32)
    # The bands that give factors 1, 2 and 4 on this grid.
    bands = {1: 0.5 / d, 2: 1.5 / d, 4: 3.0 / d}
    even = lambda a: lambda *k: np.exp(-a * sum(x * x for x in k))
    shifted = lambda *k: np.exp(-sum(x * x for x in k) - 1.5j * k[0])
    real = {c: field_from_spectral(grid, even(0.3 * c), band_limit=b)
            for c, b in bands.items()}
    cplx = {c: field_from_spectral(grid, shifted, band_limit=b)
            for c, b in bands.items()}
    noisy = Field(grid, spectrum=_random_coefficients(grid, 5), band_limit=bands[4])
    flat = Field(grid, spectrum=_random_coefficients(grid, 6), band_limit=bands[1])
    sampled = field_from_samples(grid, lambda *x: np.exp(-sum(y * y for y in x)),
                                 band_limit=bands[1])
    items = [(real[1], 2, 0.5), (cplx[2], 3.0, -0.5), (real[4], 1.5, 1.0),
             (cplx[1], 2, 0.0), (noisy, 4, 0.5), (sampled, 2, 0.5),
             (real[2], 2, 0.0), (cplx[4], 1, 0.25), (real[1], math.inf, 0.0),
             (real[4], math.inf, 0.5), (cplx[2], 2, 0.5), (real[1], 3, 0.0),
             (sampled, math.inf, 0.0), (noisy, 2, 0.0), (flat, 2, 1.0)]
    assert {lpengine.auto_oversample(grid, f.band_limit)
            for f, _, _ in items} == {1, 2, 4}
    return items


class TestWeightedLps:
    """The batch gives every item's norm, in order, bit for bit as the
    fields would one at a time."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_per_item_loop(self, d):
        got = weighted_lps(_batch_items(d))
        assert got == [weighted_lp(f, p, g) for f, p, g in _batch_items(d)]
        assert got == [_one_by_one(f, p, g) for f, p, g in _batch_items(d)]

    @pytest.mark.parametrize("d", [1, 2])
    def test_factor_one_lanes_are_the_values(self, d, fft_calls):
        items = [(f, p, g) for f, p, g in _batch_items(d)
                 if p == math.inf or lpengine.auto_oversample(
                     f.grid, f.band_limit) == 1]
        fresh = list({id(f): f for f, _, _ in items if f._values is None}.values())
        held = [f for f, _, _ in items if f._values is not None]
        kept = [f.values for f in held]
        fft_calls.clear()
        weighted_lps(items)
        # Each field without values once, in one stack; none that holds them.
        assert fft_calls == [("ifft", len(fresh))] * d
        assert all(f.values is v for f, v in zip(held, kept))
        for f in fresh:
            assert f.values.tobytes() == np.fft.ifftn(f.spectrum).tobytes()
            with pytest.raises(ValueError):
                f.values.flat[0] = 1.0

    def test_kept_values_retain_their_own_bytes(self):
        # A factor 1 lane of a stack of three (f, f', f'') kept as a view
        # held the whole stack: 786432 bytes for 262144 bytes of samples.
        from powemb.norms import sobolev_norm
        from powemb.verify import default_grid

        def retained(a):
            while a.base is not None:
                a = a.base
            return a.nbytes

        f = witnesses.random_band_limited(default_grid(1), 3)
        sobolev_norm(f, 2, 2, 0.5)
        assert retained(f._values) == f._values.nbytes
        g = witnesses.random_band_limited(default_grid(1), 4)
        weighted_lp(g, 2, 0.5)  # a stack of one lane
        assert retained(g._values) == g._values.nbytes

    def test_a_field_listed_twice_is_transformed_once(self, fft_calls):
        f = witnesses.spectral_peaks(Grid(1, 8.0, 256), [3], 0).member(0)
        assert lpengine.auto_oversample(f.grid, f.band_limit) > 1
        fft_calls.clear()
        got = weighted_lps([(f, 2, 0.5), (f, 3, 0.0), (f, 2, 0.5)])
        assert fft_calls == [("irfft", 1)]
        assert got == [_one_by_one(f, 2, 0.5), _one_by_one(f, 3, 0.0),
                       _one_by_one(f, 2, 0.5)]

    def test_bad_item_raises_before_any_transform(self, fft_calls):
        f = witnesses.spectral_peaks(Grid(1, 8.0, 256), [3], 0).member(0)
        fft_calls.clear()
        with pytest.raises(RangeError):
            weighted_lps([(f, 2, 0.5), (f, 0.5, 0.0)])
        assert fft_calls == []

    def test_refined_stacks_are_dropped_one_by_one(self):
        # Three 2-D members at factor 4, one lane per stack: the batch peaks
        # where one norm does, not at three stacks.
        grid = Grid(2, 8.0, 128)
        fields = [field_from_spectral(
            grid, lambda *k, a=a: np.exp(-a * sum(x * x for x in k)), band_limit=5.0)
            for a in (0.2, 0.3, 0.4)]
        assert lpengine.auto_oversample(grid, 5.0) == 4
        assert lpengine.stack_slots(grid, 4, True) == 1
        weighted_lp(fields[0], 2, 0.5)  # the cell weights, built once

        def peak(run):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        one = peak(lambda: weighted_lp(fields[1], 2, 0.5))
        three = peak(lambda: weighted_lps([(f, 2, 0.5) for f in fields]))
        assert three <= 1.1 * one


def _box_bins(f):
    """The bins of each axis inside the field's band box."""
    return lpengine._band_box(f.grid.axis_freqs(), f._box)


class TestBoxMultipliers:
    """A multiplier of a field that knows its band box is evaluated on the
    box only, and gives the whole-lattice product: the same coefficients
    (outside the box the whole-lattice product may hold -0 where the box
    path holds +0) and the same samples, byte for byte."""

    MULTIPLIERS = {
        "derivative": lambda f: derivative(f, (1,) * f.grid.d),
        "second_derivative": lambda f: derivative(f, (2,) + (1,) * (f.grid.d - 1)),
        "bessel": lambda f: bessel_apply(f, 0.7),
        "bessel_of_derivative": lambda f: bessel_apply(derivative(f, (1,) * f.grid.d),
                                                       -0.4),
    }

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("which", list(MULTIPLIERS))
    def test_matches_the_whole_lattice_product(self, grid1d, grid2d, d, which):
        grid = grid1d if d == 1 else grid2d
        apply = self.MULTIPLIERS[which]
        for name, f in _witness_members(grid).items():
            assert f._box is not None, name
            got = apply(f)
            # Field(...) knows no box: the whole-lattice path.
            ref = apply(Field(grid, spectrum=f.spectrum))
            assert got._box is f._box and ref._box is None
            cells = np.ix_(*(_box_bins(f),) * d)
            assert got.spectrum[cells].tobytes() == ref.spectrum[cells].tobytes()
            assert np.array_equal(got.spectrum, ref.spectrum), name
            assert got.values.tobytes() == ref.values.tobytes(), name

    @staticmethod
    def seen_by(f):
        seen = []

        def recording(*k):
            seen.append(k[0].size)
            return 1.0 + k[0] * k[0]

        return seen, lpengine.apply_multiplier(f, recording)

    @pytest.mark.parametrize("d", [1, 2])
    def test_symbol_sees_only_the_box(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        f = witnesses.random_band_limited(grid, 3, band=1.0)
        seen, g = self.seen_by(f)
        assert seen == [_box_bins(f).size ** d] and _box_bins(f).size < grid.N
        # The box is fixed when the field is built: a later band does not
        # move it.
        f.band_limit = 2.0 * grid.xi_max
        seen_again, h = self.seen_by(f)
        assert seen_again == seen
        assert h.values.tobytes() == g.values.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_sampled_fields_take_the_whole_lattice(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        for f in (field_from_samples(grid, lambda *x: np.exp(-sum(y * y for y in x)),
                                     band_limit=4.0),
                  Field(grid, spectrum=_random_coefficients(grid), band_limit=4.0)):
            assert f._box is None
            seen, g = self.seen_by(f)
            assert seen == [grid.N ** d] and g._box is None

    @pytest.mark.parametrize("d", [1, 2])
    def test_blocks_keep_the_box(self, grid1d, grid2d, d):
        grid = grid1d if d == 1 else grid2d
        sys_ = make_dyadic(grid)
        f = witnesses.random_band_limited(grid, 3, band=3.0)
        for k, block in enumerate(lp_blocks(f, sys_)):
            assert block._box is f._box, k
            inside = np.zeros((grid.N,) * d, bool)
            inside[np.ix_(*(_box_bins(f),) * d)] = True
            assert not block.spectrum[~inside].any(), k
            got = bessel_apply(block, 0.7)
            ref = bessel_apply(Field(grid, spectrum=block.spectrum), 0.7)
            assert got.values.tobytes() == ref.values.tobytes(), k
        sampled = field_from_samples(grid, lambda *x: np.exp(-sum(y * y for y in x)))
        assert all(b._box is None for b in lp_blocks(sampled, sys_))


class TestFreshArrays:
    def test_block_spectrum_frozen_in_place(self):
        grid = Grid(2, 8.0, 256)
        sys_ = make_dyadic(grid)
        f = field_from_spectral(grid, lambda *k: np.exp(-sum(x * x for x in k)))
        spec = f.spectrum
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            (block,) = lp_blocks(f, sys_, [3])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # One spectrum is made, the product itself, and no copy of it.
        assert spec.nbytes <= peak < 1.5 * spec.nbytes
        with pytest.raises(ValueError):
            block.spectrum.flat[0] = 1.0
        assert np.array_equal(block.spectrum, spec * sys_.lattice_hat(3))


def test_every_lru_cache_is_bounded():
    """Memory stays bounded: no functools cache in powemb grows without
    limit, whatever grids or seeds a process sees."""
    caches = {}
    for mod in pkgutil.iter_modules(powemb.__path__):
        module = importlib.import_module(f"powemb.{mod.name}")
        scopes = [vars(module)] + [vars(obj) for obj in vars(module).values()
                                   if isinstance(obj, type)
                                   and obj.__module__ == module.__name__]
        for scope in scopes:
            for name, obj in scope.items():
                obj = getattr(obj, "__func__", obj)  # static/class methods
                if hasattr(obj, "cache_parameters"):
                    caches[f"{module.__name__}.{name}"] = obj.cache_parameters()
    assert "powemb.lpengine._gauss_legendre" in caches
    assert "powemb.params._parse_token" in caches
    unbounded = [name for name, params in caches.items()
                 if params["maxsize"] is None]
    assert not unbounded
