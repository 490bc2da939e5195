"""The four space norms: worked identities and equivalence-scale behavior."""

import math
import weakref
from itertools import permutations, product

import numpy as np
import pytest

from powemb import lpengine
from powemb import norms as norms_mod
from powemb.lpengine import (
    Field,
    Grid,
    GridMismatch,
    _active_blocks,
    _block_band,
    auto_oversample,
    bessel_apply,
    derivative,
    field_from_samples,
    lp_blocks,
    make_dyadic,
    upsample_values,
    weighted_cell_sum,
    weighted_lp,
)
from powemb.norms import (
    besov_norm,
    bessel_norm,
    sobolev_norm,
    space_norm,
    triebel_norm,
)
from powemb.params import RangeError
from powemb.suite import S
from powemb.witnesses import random_band_limited, spectral_peaks


@pytest.fixture(scope="module")
def batch(grid1d, sys1d):
    return [random_band_limited(grid1d, 1000 + i, band=48.0) for i in range(20)]


def pure_mode(grid, k=6, width=2.0):
    """A Gaussian-windowed lattice mode confined to the plateau of hat_phi[k].

    The window transform spreads +-8.6/width around the carrier, so the
    carrier sits mid-plateau of a block wide enough to hold the whole
    support (k >= 6 for width 2 on the unit-frequency scale).
    """
    xi = grid.axis_freqs()
    lo, hi = 0.85 * 2 ** k, 0.92 * 2 ** k
    xi0 = float(xi[(xi >= lo) & (xi <= hi)][0])
    spread = 8.6 / width
    assert 0.75 * 2 ** k + spread < xi0 < 2 ** k - spread
    f = field_from_samples(
        grid,
        lambda x: np.exp(1j * xi0 * x) * np.exp(-x * x / (2.0 * width ** 2)),
        band_limit=xi0 + spread)
    f.carrier = xi0
    f.spread = spread
    return f


class TestBesov:
    def test_single_block_collapse(self, grid1d, sys1d):
        f = pure_mode(grid1d, 6)
        for q in (1, 2, math.inf):
            res = besov_norm(f, 1.5, 2, q, 0.0, sys=sys1d)
            expected = 2.0 ** (6 * 1.5) * weighted_lp(f, 2, 0.0)
            assert res.value == pytest.approx(expected, rel=1e-9)

    def test_band_one_is_plain_lp(self, grid1d, sys1d):
        from powemb.witnesses import gaussian_spectral_base

        f = gaussian_spectral_base(grid1d, sigma_xi=0.1)  # band 0.86
        res = besov_norm(f, 0.0, 2, 1, 0.5, sys=sys1d)
        assert res.value == pytest.approx(weighted_lp(f, 2, 0.5), rel=1e-12)
        nonzero = [k for k, v in res.per_block if v > 1e-12 * res.value]
        assert nonzero == [0]

    def test_q_monotone(self, grid1d, sys1d, batch):
        for f in batch[:5]:
            small = besov_norm(f, 0.5, 2, 4, 0.0, sys=sys1d).value
            big = besov_norm(f, 0.5, 2, 1, 0.0, sys=sys1d).value
            assert small <= big * (1 + 1e-12)

    def test_per_block_aggregation_consistent(self, grid1d, sys1d, batch):
        f = batch[0]
        res = besov_norm(f, 0.5, 2, 3, 0.25, sys=sys1d)
        manual = sum(v ** 3 for _, v in res.per_block) ** (1 / 3)
        assert res.value == pytest.approx(manual, rel=1e-12)

    def test_homogeneous_and_zero(self, grid1d, sys1d, batch):
        f = batch[1]
        scaled = Field(grid1d, 3.5 * f.values, band_limit=f.band_limit)
        a = besov_norm(scaled, 0.5, 2, 2, 0.0, sys=sys1d).value
        b = besov_norm(f, 0.5, 2, 2, 0.0, sys=sys1d).value
        assert a == pytest.approx(3.5 * b, rel=1e-10)
        zero = Field(grid1d, np.zeros(grid1d.N, dtype=complex), band_limit=1.0)
        assert besov_norm(zero, 0.5, 2, 2, 0.0, sys=sys1d).value == 0.0


class TestTriebel:
    def test_single_block_matches_besov(self, grid1d, sys1d):
        f = pure_mode(grid1d, 6)
        for q in (1, 3, math.inf):
            t = triebel_norm(f, 0.7, 2, q, 0.5, sys=sys1d).value
            b = besov_norm(f, 0.7, 2, q, 0.5, sys=sys1d).value
            assert t == pytest.approx(b, rel=1e-9)

    def test_q_equals_p_fubini(self, grid1d, sys1d, batch):
        for f in batch[:5]:
            t = triebel_norm(f, 0.7, 3, 3, 0.5, sys=sys1d).value
            b = besov_norm(f, 0.7, 3, 3, 0.5, sys=sys1d).value
            assert t == pytest.approx(b, rel=1e-10)

    def test_sandwich_ordering(self, grid1d, sys1d, batch):
        p, q = 2.0, 4.0
        for f in batch:
            t = triebel_norm(f, 0.5, p, q, 0.0, sys=sys1d).value
            b_min = besov_norm(f, 0.5, p, min(p, q), 0.0, sys=sys1d).value
            b_max = besov_norm(f, 0.5, p, max(p, q), 0.0, sys=sys1d).value
            assert t <= 10 * b_min and b_max <= 10 * t

    def test_p_inf_rejected(self, grid1d, batch):
        with pytest.raises(RangeError):
            triebel_norm(batch[0], 0.5, math.inf, 2, 0.0)

    @pytest.mark.parametrize("norm", [besov_norm, triebel_norm])
    @pytest.mark.parametrize("p,gamma", [(2, -1.0), (2, -1.5), (0.5, 0.0)])
    def test_weight_and_exponent_range(self, batch, norm, p, gamma):
        # gamma <= -d makes the cell integrals of |x|^gamma diverge.
        with pytest.raises(RangeError):
            norm(batch[0], 0.5, p, 2, gamma)


class TestBessel:
    def test_s_zero_is_lp(self, grid1d, batch):
        f = batch[2]
        assert bessel_norm(f, 0.0, 2, 0.5).value == pytest.approx(
            weighted_lp(f, 2, 0.5), rel=1e-12)

    def test_lifting_identity(self, grid1d, batch):
        # || J_{-sigma} f ||_{H^s} = || f ||_{H^{s-sigma}} exactly
        f = batch[3]
        lifted = bessel_norm(bessel_apply(f, -0.6), 1.1, 2, 0.5).value
        direct = bessel_norm(f, 0.5, 2, 0.5).value
        assert lifted == pytest.approx(direct, rel=1e-10)

    def test_pure_mode_factor(self, grid1d):
        # the multiplier varies across the window, so bracket the ratio by
        # its extremes over the spectral support
        f = pure_mode(grid1d, 6)
        ratio = bessel_norm(f, 2.0, 2, 0.0).value / weighted_lp(f, 2, 0.0)
        lo = 1 + (f.carrier - f.spread) ** 2
        hi = 1 + (f.carrier + f.spread) ** 2
        assert lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9)
        assert ratio == pytest.approx(1 + f.carrier ** 2, rel=0.2)


class TestSobolev:
    def test_m_zero_is_lp(self, grid1d, batch):
        f = batch[4]
        assert sobolev_norm(f, 0, 2, 0.5).value == pytest.approx(
            weighted_lp(f, 2, 0.5), rel=1e-12)

    def test_sine_eigenfunction(self, grid1d_fine):
        om = abs(grid1d_fine.axis_freqs()[2048])
        f = field_from_samples(grid1d_fine, lambda x: np.sin(om * x))
        got = sobolev_norm(f, 1, 2, 0.0).value
        # ||sin|| = ||om cos|| up to the phase: both integrate to sqrt(L)
        base = math.sqrt(grid1d_fine.L)
        assert got == pytest.approx((1 + om) * base, rel=1e-6)

    def test_wh_equivalence_batch(self, grid1d, batch):
        for f in batch:
            ratio = (sobolev_norm(f, 1, 2, 0.5).value
                     / bessel_norm(f, 1, 2, 0.5).value)
            assert 0.1 <= ratio <= 10.0


class TestAcrossScales:
    def test_lifting_ratio_window(self, grid1d, sys1d, batch):
        for f in batch:
            num = besov_norm(bessel_apply(f, 1.0), -0.5, 2, 2, 0.5,
                             sys=sys1d).value
            den = besov_norm(f, 0.5, 2, 2, 0.5, sys=sys1d).value
            assert 0.1 <= num / den <= 10.0

    def test_differentiation_ratio_window(self, grid1d, sys1d, batch):
        for f in batch:
            num = (besov_norm(f, -0.5, 2, 2, 0.0, sys=sys1d).value
                   + besov_norm(derivative(f, (1,)), -0.5, 2, 2, 0.0,
                                sys=sys1d).value)
            den = besov_norm(f, 0.5, 2, 2, 0.0, sys=sys1d).value
            assert 0.1 <= num / den <= 10.0

    def test_epsilon_gain_dominates(self, grid1d, sys1d, batch):
        # B^{s+eps}_{p,q0} controls B^{s}_{p,q1} for any q pair
        for f in batch[:5]:
            hi = besov_norm(f, 0.75, 2, math.inf, 0.0, sys=sys1d).value
            lo = besov_norm(f, 0.5, 2, 1, 0.0, sys=sys1d).value
            assert lo <= 10 * hi

    def test_space_norm_dispatch(self, grid1d, sys1d, batch):
        f = batch[0]
        assert space_norm(f, S("B", "1/2", 2, 2, "1/2")).value > 0
        assert space_norm(f, S("F", "1/2", 2, 2, "1/2")).value > 0
        assert space_norm(f, S("H", "1/2", 2, gamma="1/2")).value > 0
        assert space_norm(f, S("W", 1, 2, gamma="1/2")).value > 0
        assert space_norm(f, S("Holder", "3/2")).value > 0

    def test_boundary_warning_attached(self, grid1d, sys1d):
        flat = Field(grid1d, np.ones(grid1d.N, dtype=complex), band_limit=0.5)
        res = besov_norm(flat, 0.5, 2, 2, 0.0, sys=sys1d)
        assert res.warnings

    def test_norm_result_json(self, grid1d, sys1d, batch):
        res = besov_norm(batch[0], 0.5, 2, 2, 0.0, sys=sys1d)
        d = res.to_dict()
        assert "value" in d and "per_block" in d


# Norm values pinned before the spectral layer stopped re-transforming
# fields it builds in frequency space; any representation change must keep
# them to floating-point noise.
PINNED = {
    ("band96_1d", "B_q2"): 29.663974373629195,
    ("band96_1d", "B_qinf"): 28.337223332909318,
    ("band96_1d", "Holder"): 97.72095827983651,
    ("band96_1d", "F_q1"): 54.76186830780104,
    ("band96_1d", "F_qinf"): 29.460617586319135,
    ("band96_1d", "H"): 18.69862668551684,
    ("band96_1d", "W1"): 124.06834007412907,
    ("gauss_1d", "B_q2"): 2.253036229481102,
    ("gauss_1d", "B_qinf"): 1.6564051433039397,
    ("gauss_1d", "Holder"): 0.9883680205720083,
    ("gauss_1d", "F_q1"): 2.2845883743213173,
    ("gauss_1d", "F_qinf"): 1.6564052086679895,
    ("gauss_1d", "H"): 2.355114501537435,
    ("gauss_1d", "W1"): 2.8304666524174595,
    ("random_2d", "B_q2"): 9.7027575985851,
    ("random_2d", "B_qinf"): 3.9280729752361916,
    ("random_2d", "Holder"): 4.742482228043307,
    ("random_2d", "F_q1"): 15.032337938632141,
    ("random_2d", "F_qinf"): 4.351643996468635,
    ("random_2d", "H"): 7.87450842109822,
    ("random_2d", "W1"): 22.979039682160845,
}

PINNED_NORMS = {
    "B_q2": lambda f, g: besov_norm(f, 0.5, 2, 2, g),
    "B_qinf": lambda f, g: besov_norm(f, 0.5, 3, math.inf, g),
    "Holder": lambda f, g: space_norm(f, S("Holder", "1/2", d=f.grid.d)),
    "F_q1": lambda f, g: triebel_norm(f, 0.5, 2, 1, g),
    "F_qinf": lambda f, g: triebel_norm(f, 0.5, 3, math.inf, g),
    "H": lambda f, g: bessel_norm(f, 0.5, 2, g),
    "W1": lambda f, g: sobolev_norm(f, 1, 2, g),
}


@pytest.fixture(scope="module")
def band96():
    # band 96 on N = 4096: block upsampling factors 1, 2 and 4
    return random_band_limited(Grid(1, 16.0, 2 ** 12), 7, band=96.0)


@pytest.fixture(scope="module")
def pinned_fields(band96, grid1d, grid2d):
    return {
        "band96_1d": (band96, 0.5),
        "gauss_1d": (field_from_samples(
            grid1d, lambda x: np.exp(-x * x / 8.0), band_limit=4.3), -0.5),
        "random_2d": (random_band_limited(grid2d, 5, band=6.0), 0.5),
    }


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_norm_values(pinned_fields, key):
    f, gamma = pinned_fields[key[0]]
    got = PINNED_NORMS[key[1]](f, gamma).value
    assert got == pytest.approx(PINNED[key], rel=1e-12)


def fresh_band96(seed=7):
    # A field object no other test holds, for tests that need two fields,
    # watch one being freed or count what its norms compute.
    return random_band_limited(Grid(1, 16.0, 2 ** 12), seed, band=96.0)


@pytest.mark.parametrize("norm,own_factor", [
    (lambda f, sys: besov_norm(f, 0.5, 2, 2, 0.5, sys=sys), True),
    (lambda f, sys: triebel_norm(f, 0.5, 2, 1, 0.5, sys=sys), False),
], ids=["besov", "triebel"])
def test_one_fft_per_active_block(norm, own_factor, fft_calls):
    # The field's own samples (read by the boundary check) are cached first;
    # after that each active block costs exactly one (padded) inverse FFT,
    # and the blocks of one upsampling factor share one call.
    f = fresh_band96()
    sys = make_dyadic(f.grid)
    f.values
    fft_calls.clear()
    kmax = _active_blocks(f, sys)
    assert kmax + 1 == 8
    norm(f, sys)
    assert fft_calls.blocks == kmax + 1
    factors = {auto_oversample(f.grid, _block_band(f, sys, k if own_factor else kmax))
               for k in range(kmax + 1)}
    assert len(fft_calls) == len(factors) < kmax + 1


@pytest.mark.parametrize("d", [1, 2])
def test_zero_blocks_need_no_fft(d, fft_calls, cell_sums):
    # A spectral peak fills 3 of its active blocks; the others are zero on
    # every lattice and cost no transform and no cell sum, yet keep their
    # per-block entry.
    grid = Grid(1, 16.0, 2 ** 12) if d == 1 else Grid(2, 8.0, 2 ** 7)
    sys = make_dyadic(grid)
    f = spectral_peaks(grid, [5 if d == 1 else 4], 0).member(0)
    f.values
    kmax = _active_blocks(f, sys)
    nonzero = [k for k, block in enumerate(lp_blocks(f, sys)[:kmax + 1])
               if block.spectrum.any()]
    assert len(nonzero) == 3 and kmax + 1 > 3
    fft_calls.clear()
    res = besov_norm(f, 0.5, 2, 2, 0.5, sys=sys)
    # The peak is real: each block of it, at every factor, is d - 1 ifft
    # and one irfft of the half-spectrum.
    assert f.real_valued
    assert fft_calls.blocks == d * len(nonzero)
    assert {call.name for call in fft_calls} == ({"irfft"} if d == 1
                                                 else {"ifft", "irfft"})
    assert len(cell_sums) == len(nonzero)
    assert [k for k, _ in res.per_block] == list(range(kmax + 1))
    assert all((v > 0.0) == (k in nonzero) for k, v in res.per_block)


def test_zero_field_has_zero_norms(cell_sums):
    # Every block is zero: no cell sum, and the F-scale sum is empty.
    f = Field(Grid(1, 16.0, 2 ** 9), spectrum=np.zeros(2 ** 9))
    sys = make_dyadic(f.grid)
    for q in (1.0, math.inf):
        assert besov_norm(f, 0.5, 2, q, 0.5, sys=sys).value == 0.0
        assert triebel_norm(f, 0.5, 2, q, 0.5, sys=sys).value == 0.0
    assert cell_sums == []


@pytest.mark.parametrize("norm", [besov_norm, triebel_norm])
def test_foreign_dyadic_system_rejected(band96, sys1d, norm):
    with pytest.raises(GridMismatch):
        norm(band96, 0.5, 2, 2, 0.0, sys=sys1d)
    # Also for a field that holds the numbers asked for: none is read.
    f = fresh_band96()
    norm(f, 0.5, 2, 2, 0.0)
    with pytest.raises(GridMismatch):
        norm(f, 0.5, 2, 2, 0.0, sys=sys1d)


class TestSharedBlocks:
    """B and F norms of one field reuse its block magnitudes."""

    def test_later_norms_of_the_field_need_no_fft(self, fft_calls):
        f = fresh_band96()
        sys = make_dyadic(f.grid)
        f.values
        kmax = _active_blocks(f, sys)
        # Besov upsamples each block by its own factor, Triebel all blocks
        # by the factor of the widest; blocks whose factors differ are
        # transformed once more, and nothing else is.
        widest = auto_oversample(f.grid, min(sys.block_band(kmax), f.band_limit))
        own = [auto_oversample(f.grid, min(sys.block_band(k), f.band_limit))
               for k in range(kmax + 1)]
        steps = [
            (lambda: besov_norm(f, 0.5, 2, 2, 0.5, sys=sys), kmax + 1),
            (lambda: besov_norm(f, -0.5, 3, math.inf, 1.0, sys=sys), 0),
            (lambda: besov_norm(f, 1.25, 1, 1, -0.5, sys=sys), 0),
            (lambda: triebel_norm(f, 0.5, 2, 1, 0.5, sys=sys),
             sum(fac != widest for fac in own)),
            (lambda: triebel_norm(f, -0.5, 4, math.inf, 0.0, sys=sys), 0),
            (lambda: besov_norm(f, 0.5, 1.5, 4, 0.0, sys=sys), 0),
        ]
        for norm, ffts in steps:
            fft_calls.clear()
            norm()
            assert fft_calls.blocks == ffts

    def test_only_the_last_field_is_held(self, fft_calls):
        # The magnitudes are held for the field normed last only, while its
        # block norms stay with each field: after g, f at its old gamma
        # needs no transform, and at another gamma every block again.
        f, g = fresh_band96(7), fresh_band96(8)
        sys = make_dyadic(f.grid)
        f.values, g.values
        kmax = _active_blocks(f, sys)
        for field_, gamma, ffts in ((f, 0.5, kmax + 1), (f, 0.5, 0),
                                    (g, 0.5, kmax + 1), (f, 0.5, 0),
                                    (f, 1.0, kmax + 1)):
            fft_calls.clear()
            besov_norm(field_, 0.5, 2, 2, gamma, sys=sys)
            assert fft_calls.blocks == ffts
        # Another system object for the same grid is the same system: its
        # numbers are f's stored ones, bit for bit.
        fft_calls.clear()
        again = besov_norm(f, 0.5, 2, 2, 0.5, sys=make_dyadic(f.grid))
        assert fft_calls.blocks == 0
        first = besov_norm(f, 0.5, 2, 2, 0.5, sys=sys)
        assert again.to_dict() == first.to_dict()

    def test_besov_at_another_s_q_reads_stored_block_norms(self, fft_calls,
                                                            cell_sums):
        f = fresh_band96()
        sys = make_dyadic(f.grid)
        kmax = _active_blocks(f, sys)
        besov_norm(f, 0.5, 2, 2, 0.5, sys=sys)
        # (s, q) only move the ladder: no cell sum, no transform.
        for s, q in ((-0.5, math.inf), (1.25, 1), (0.5, 4)):
            fft_calls.clear(), cell_sums.clear()
            besov_norm(f, s, 2, q, 0.5, sys=sys)
            assert (len(cell_sums), len(fft_calls)) == (0, 0)
        # Another gamma or p is one cell sum per block on stored magnitudes.
        for p, gamma in ((2, 1.0), (3, 0.5)):
            fft_calls.clear(), cell_sums.clear()
            besov_norm(f, 0.5, p, 2, gamma, sys=sys)
            assert (len(cell_sums), len(fft_calls)) == (kmax + 1, 0)
            assert {args[:2] for args in cell_sums} == {(float(p), gamma)}

    def test_block_norms_are_kept_per_lattice(self, band96):
        from powemb.norms import _block_norms, _field_memo

        f = band96
        sys = make_dyadic(f.grid)
        blocks = lp_blocks(f, sys)
        for factor in (1, 4, 1):
            got = _block_norms(f, sys, _field_memo(f), [factor] * 3, 2.0, 0.5)
            assert got == [weighted_cell_sum(
                f.grid, _block_lane(blocks[k], factor), 2.0, 0.5, factor)
                for k in range(3)]

    def test_rim_is_scanned_once_per_field(self, monkeypatch):
        scans = []
        orig = lpengine.boundary_decay
        monkeypatch.setattr(lpengine, "boundary_decay",
                            lambda f, *a: scans.append(f) or orig(f, *a))
        f = fresh_band96()
        sys = make_dyadic(f.grid)
        besov_norm(f, 0.5, 2, 2, 0.5, sys=sys)
        triebel_norm(f, 0.5, 2, 1, 0.5, sys=sys)
        bessel_norm(f, 0.5, 2, 0.5)
        sobolev_norm(f, 1, 2, 0.5)
        assert scans == [f]

    @pytest.mark.parametrize("norm", [besov_norm, triebel_norm])
    def test_previous_field_is_freed_before_the_next_is_normed(self, norm,
                                                               monkeypatch):
        old = fresh_band96(7)
        sys = make_dyadic(old.grid)
        norm(old, 0.5, 2, 2, 0.5, sys=sys)
        gone = weakref.ref(old)
        del old
        # Seen from the new field's rim scan and its block builds: the old
        # field, and with it its magnitudes, are already freed.
        seen = []
        scan, build = lpengine.boundary_decay, norms_mod.lp_blocks
        monkeypatch.setattr(lpengine, "boundary_decay",
                            lambda *a: seen.append(gone() is None) or scan(*a))
        monkeypatch.setattr(norms_mod, "lp_blocks",
                            lambda *a: seen.append(gone() is None) or build(*a))
        norm(fresh_band96(8), 0.5, 2, 2, 0.5, sys=sys)
        assert seen == [True, True]

    def test_block_magnitudes_are_read_only(self):
        from powemb.norms import _block_abs, _field_memo

        f = fresh_band96()
        sys = make_dyadic(f.grid)
        for mag in _block_abs(f, sys, _field_memo(f), {0: 1, 1: 2}).values():
            with pytest.raises(ValueError):
                mag[0] = 0.0


STORED_NORMS = {
    "B": lambda f, sys: besov_norm(f, 0.5, 2, 2, 0.5, sys=sys),
    "F": lambda f, sys: triebel_norm(f, 0.5, 2, 1, 0.5, sys=sys),
    "H": lambda f, sys: bessel_norm(f, 0.5, 2, 0.5),
    "W": lambda f, sys: sobolev_norm(f, 1, 2, 0.5),
    # What space_norm takes a Holder norm to, under the system given.
    "Holder": lambda f, sys: besov_norm(f, 0.5, math.inf, math.inf, 0.0, sys=sys),
}


def _rim_field():
    # A Gaussian too wide for its torus: every norm of it warns.
    return field_from_samples(Grid(1, 4.0, 2 ** 10),
                              lambda x: np.exp(-x * x / 8.0), band_limit=8.0)


class TestStoredNumbers:
    """The numbers a field's norms measure stay on the field while it
    lives; its block magnitudes stay only while it is the field normed
    last."""

    @pytest.fixture
    def spies(self, monkeypatch, fft_calls, cell_sums):
        # Cell sums made by the norms themselves and inside weighted_lp.
        inner = lpengine.weighted_cell_sum
        monkeypatch.setattr(lpengine, "weighted_cell_sum",
                            lambda *a: cell_sums.append(a[2:]) or inner(*a))
        return fft_calls, cell_sums

    @pytest.mark.parametrize("which", list(STORED_NORMS))
    @pytest.mark.parametrize("make", [fresh_band96, _rim_field],
                             ids=["band96", "rim"])
    def test_stored_value_is_the_fresh_fields_bit_for_bit(self, which, make,
                                                          spies):
        fft_calls, cell_sums = spies
        norm = STORED_NORMS[which]
        f = make()
        sys = make_dyadic(f.grid)
        first = norm(f, sys)
        fft_calls.clear(), cell_sums.clear()
        again = norm(f, sys)
        assert (len(fft_calls), len(cell_sums)) == (0, 0)
        ref = make()
        fresh = norm(ref, make_dyadic(ref.grid))
        # A new result each time, with the same value and warnings.
        assert again is not first
        assert again.to_dict() == first.to_dict() == fresh.to_dict()
        assert fresh.warnings or make is not _rim_field

    def test_another_system_of_the_grid_reads_the_stored_numbers(self, spies):
        # Every system of one grid is the same (make_dyadic is deterministic
        # and its hats are read-only), so another system object of f's grid
        # reads f's stored numbers: no transform, no cell sum.
        fft_calls, cell_sums = spies
        f = fresh_band96()
        sys = make_dyadic(f.grid)
        f.values
        values = {name: norm(f, sys).value for name, norm in STORED_NORMS.items()}
        for name in ("B", "F", "Holder"):
            other = make_dyadic(f.grid)
            fft_calls.clear(), cell_sums.clear()
            assert STORED_NORMS[name](f, other).value == values[name]
            assert (len(fft_calls), len(cell_sums)) == (0, 0), name
        # The H and W values are kept whatever system B and F last used.
        for name in ("H", "W"):
            fft_calls.clear(), cell_sums.clear()
            assert STORED_NORMS[name](f, None).value == values[name]
            assert (len(fft_calls), len(cell_sums)) == (0, 0)

    @pytest.mark.parametrize("norm", [
        lambda f, **kw: besov_norm(f, 0.5, 2, 2, 0.5, **kw),
        lambda f, **kw: triebel_norm(f, 0.5, 2, 1, 0.5, **kw),
        # space_norm takes no system; under one, its sup-norm ladder.
        lambda f, **kw: (STORED_NORMS["Holder"](f, kw["sys"]) if kw
                         else space_norm(f, S("Holder", "1/2"))),
    ], ids=["besov_norm", "triebel_norm", "space_norm-Holder"])
    def test_repeat_without_system_reuses_the_grids_one(self, norm, spies,
                                                        monkeypatch):
        # The package API (no sys) shares the grid's one kept system, so a
        # repeat builds nothing, transforms nothing and sums nothing.
        fft_calls, cell_sums = spies
        builds = []
        inner = lpengine.make_dyadic
        monkeypatch.setattr(lpengine, "make_dyadic",
                            lambda grid: builds.append(grid) or inner(grid))
        f = fresh_band96()
        first = norm(f)
        builds.clear(), fft_calls.clear(), cell_sums.clear()
        again = norm(f)
        assert (len(builds), len(fft_calls), len(cell_sums)) == (0, 0, 0)
        ref = fresh_band96()
        kept = norm(ref, sys=inner(ref.grid))
        assert again.to_dict() == first.to_dict() == kept.to_dict()

    def test_no_stored_value_is_an_array(self):
        f = fresh_band96()
        sys = make_dyadic(f.grid)
        for norm in STORED_NORMS.values():
            norm(f, sys)
        numbers = f._numbers
        # H, W and F values and B block norms, keyed by (k, ...), all floats.
        named = {key[0] for key in numbers if isinstance(key[0], str)}
        assert named == {"H", "W", "F"}
        assert any(isinstance(key[0], int) for key in numbers)
        for value in numbers.values():
            assert isinstance(value, float)
            assert not isinstance(value, np.ndarray)

    def test_numbers_go_with_the_field(self):
        f = fresh_band96(7)
        sys = make_dyadic(f.grid)
        besov_norm(f, 0.5, 2, 2, 0.5, sys=sys)
        gone = weakref.ref(f)
        besov_norm(fresh_band96(8), 0.5, 2, 2, 0.5, sys=sys)
        del f
        assert gone() is None


class TestBlockStacks:
    """The blocks of one factor share each transform call, as many per call
    as ``lpengine.STACK_BYTES`` allows."""

    def test_bound_splits_a_group(self, monkeypatch, fft_calls):
        f = fresh_band96()
        sys = make_dyadic(f.grid)
        kmax = _active_blocks(f, sys)
        factor = auto_oversample(f.grid, _block_band(f, sys, kmax))
        # Room for the padded buffers of three blocks per call, each with
        # the spare element of a half-line.
        assert f.point_symmetric
        monkeypatch.setattr(lpengine, "STACK_BYTES",
                            3 * 16 * (f.grid.N * factor + 1))
        fft_calls.clear()
        mags = norms_mod._block_abs(f, sys, norms_mod._field_memo(f),
                                    dict.fromkeys(range(kmax + 1), factor))
        assert kmax + 1 == 8
        assert fft_calls == [("ifft", 3), ("ifft", 3), ("ifft", 2)]
        for block, (k, mag) in zip(lp_blocks(f, sys), mags.items()):
            assert np.array_equal(mag, np.abs(upsample_values(block, factor))), k

    def test_2d_block_over_the_bound_is_transformed_alone(self, fft_calls):
        grid = Grid(2, 8.0, 256)
        f = random_band_limited(grid, 3, band=6.0)
        sys = make_dyadic(grid)
        kmax = _active_blocks(f, sys)
        factor = auto_oversample(grid, _block_band(f, sys, kmax))
        assert factor == 2 and 16 * (grid.N * factor) ** 2 >= lpengine.STACK_BYTES
        f.values
        fft_calls.clear()
        triebel_norm(f, 0.5, 2, 2, 0.5, sys=sys)
        assert fft_calls == [("ifft", 1)] * (2 * (kmax + 1))

    @pytest.mark.parametrize("d", [1, 2])
    def test_real_blocks_at_factor_1_match_complex_path(self, d, fft_calls):
        # A real field's blocks take the half-spectrum path at factor 1 too;
        # their magnitudes are those of the complex samples to rounding.
        grid = Grid(1, 16.0, 2 ** 12) if d == 1 else Grid(2, 8.0, 2 ** 7)
        sys = make_dyadic(grid)
        f = spectral_peaks(grid, [5 if d == 1 else 4], 0).member(0)
        assert f.real_valued
        kmax = _active_blocks(f, sys)
        fft_calls.clear()
        mags = norms_mod._block_abs(f, sys, norms_mod._field_memo(f),
                                    dict.fromkeys(range(kmax + 1), 1))
        assert fft_calls[-1] == ("irfft", 3)
        for block, (k, mag) in zip(lp_blocks(f, sys), mags.items()):
            # Index m/2 .. m-1 and index 0 of axis 0: the half-line or
            # half-plane |x_0| = 0 .. L.
            ref = np.abs(block.values)
            ref = np.concatenate([ref[grid.N // 2:], ref[:1]])
            if mag is None:
                assert not block.spectrum.any(), k
                continue
            assert mag.dtype == np.float64
            assert np.max(np.abs(mag - ref)) <= 1e-14 * np.max(ref), k


def _block_lane(block, factor):
    """One block's samples refined by factor, alone in its stack, as the
    norms make them: on the half-lattice of a point-symmetric block, and
    real for a real one, at every factor."""
    return lpengine.upsample_stack([block.spectrum], factor, block.real_valued,
                                   block.point_symmetric)[0]


def _block_lp(block, p, gamma):
    """A block's weighted norm on its own lane (``_block_lane``)."""
    factor = 1 if p == math.inf else auto_oversample(block.grid, block.band_limit)
    lane = _block_lane(block, factor)
    if p == math.inf:
        return float(np.max(np.abs(lane)))
    return weighted_cell_sum(block.grid, lane, p, gamma, factor)


def _per_call_besov(f, s, p, q, gamma, sys):
    """The per-call Besov path: every block transformed and normed afresh."""
    blocks = lp_blocks(f, sys)
    vals = [2.0 ** (k * s) * _block_lp(blocks[k], p, gamma)
            for k in range(_active_blocks(f, sys) + 1)]
    return max(vals) if q == math.inf else float(
        np.sum(np.asarray(vals) ** q) ** (1.0 / q))


def _per_call_triebel(f, s, p, q, gamma, sys):
    """The per-call F path: a stack of all upsampled block magnitudes."""
    kmax = _active_blocks(f, sys)
    blocks = lp_blocks(f, sys)
    band = min(x for x in (sys.block_band(kmax), f.band_limit) if x is not None)
    factor = auto_oversample(f.grid, band)
    stack = np.stack([np.abs(_block_lane(blocks[k], factor)) * 2.0 ** (k * s)
                      for k in range(kmax + 1)])
    if q == math.inf:
        agg = np.max(stack, axis=0)
    else:
        agg = np.sum(stack ** q, axis=0) ** (1.0 / q)
    return weighted_cell_sum(f.grid, agg, p, gamma, factor)


SHARED_FIELDS = {
    "band96_1d": lambda: fresh_band96(),
    "unbanded_1d": lambda: field_from_samples(
        Grid(1, 16.0, 2 ** 9), lambda x: np.exp(-x * x / 2.0)),
    "random_2d": lambda: random_band_limited(Grid(2, 8.0, 2 ** 6), 5, band=4.0),
}


@pytest.mark.parametrize("which", list(SHARED_FIELDS))
def test_shared_blocks_match_per_call_path(which):
    # Bit for bit: the shared magnitudes and block norms are the per-call
    # ones, reused.
    f = SHARED_FIELDS[which]()
    sys = make_dyadic(f.grid)
    low = -0.5 if f.grid.d == 1 else -1.5
    for s, q, p, g in product((-0.5, 1.25), (1.0, 2.0, 3.5, math.inf),
                              (1.0, 2.0, 3.0, math.inf), (low, 0.0, 1.0)):
        got = besov_norm(f, s, p, q, g, sys=sys)
        assert got.value == _per_call_besov(f, s, p, q, g, sys)
        if p != math.inf:
            got = triebel_norm(f, s, p, q, g, sys=sys).value
            assert got == _per_call_triebel(f, s, p, q, g, sys)


@pytest.mark.parametrize("which", list(SHARED_FIELDS))
def test_block_memo_values_do_not_depend_on_call_order(which):
    # B norms sharing (p, gamma), a sup-norm ladder on unrefined lattices and
    # an F norm on the widest factor, in every order: each value is the
    # per-call one, whatever an earlier call left in the memo.
    f = SHARED_FIELDS[which]()
    g = 0.0 if f.grid.d == 1 else -0.5
    calls = [
        (besov_norm, _per_call_besov, (0.5, 2.0, 2.0, g)),
        (besov_norm, _per_call_besov, (-0.5, 2.0, math.inf, g)),
        (besov_norm, _per_call_besov, (1.25, 3.0, 1.0, 1.0)),
        (besov_norm, _per_call_besov, (0.5, math.inf, 2.0, 0.0)),
        (triebel_norm, _per_call_triebel, (0.5, 2.0, 1.0, g)),
    ]
    sys = make_dyadic(f.grid)
    expected = [ref(f, *args, sys) for _, ref, args in calls]
    for order in permutations(range(len(calls))):
        f = SHARED_FIELDS[which]()  # another field: nothing stored or held
        for i in order:
            norm, _, args = calls[i]
            assert norm(f, *args, sys=sys).value == expected[i]
