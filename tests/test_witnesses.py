"""Witness families: scaling laws, support geometry, reproducibility."""

import math

import numpy as np
import pytest

from powemb import lpengine
from powemb.lpengine import Grid, radial_weighted_lp, weighted_lp
from powemb.norms import besov_norm
from powemb.params import RangeError
from powemb.verify import fit_exponent
from powemb.witnesses import (
    BoundaryError,
    NyquistError,
    dilation_family,
    gaussian_base,
    gaussian_spectral_base,
    lacunary_sum,
    log_singularity,
    random_band_limited,
    riesz_log,
    spectral_peaks,
    translation_family,
)


class TestDilation:
    def test_t_one_is_base(self, grid1d):
        base = gaussian_spectral_base(grid1d, sigma_xi=2.0)
        fam = dilation_family(base, [1.0])
        assert np.allclose(fam.member(0).values, base.values, atol=1e-12)

    def test_norm_scaling_law(self, grid1d_fine):
        base = gaussian_spectral_base(grid1d_fine, sigma_xi=2.0)
        fam = dilation_family(base, [0.5, 1.0, 2.0, 4.0])
        for p, gamma in [(2.0, 0.0), (2.0, 1.0), (3.0, -0.5)]:
            w0 = weighted_lp(base, p, gamma)
            for t, member in zip(fam.member_params, fam.members()):
                expected = t ** (1 - (1 + gamma) / p) * w0
                assert weighted_lp(member, p, gamma) == pytest.approx(
                    expected, rel=1e-3)

    def test_spectrum_support_scales(self, grid1d, max_coeff_outside):
        base = gaussian_spectral_base(grid1d, sigma_xi=2.0)
        fam = dilation_family(base, [2.0])
        member = fam.member(0)
        assert member.band_limit == pytest.approx(2.0 * base.band_limit)
        assert max_coeff_outside(member, member.band_limit) == 0.0

    def test_nyquist_guard(self, grid1d):
        base = gaussian_spectral_base(grid1d, sigma_xi=2.0)
        with pytest.raises(NyquistError):
            dilation_family(base, [1e6])

    def test_needs_spectral_generator(self, grid1d):
        phys = gaussian_base(grid1d, sigma=1.0)
        with pytest.raises(RangeError):
            dilation_family(phys, [1.0])

    @pytest.mark.parametrize("t", [math.nan, -1.0, 0.0])
    def test_rejects_t_that_is_not_positive(self, grid1d, t):
        # NaN fails "t > 0" but passes "t <= 0" and the Nyquist check.
        base = gaussian_spectral_base(grid1d, sigma_xi=2.0)
        with pytest.raises(RangeError, match=f"got {t}"):
            dilation_family(base, [1.0, t])


class TestTranslation:
    def test_lambda_zero_is_base(self, grid1d):
        base = gaussian_base(grid1d, sigma=1.0)
        fam = translation_family(base, [0.0])
        assert np.allclose(fam.member(0).values, base.values, atol=1e-14)

    def test_unweighted_norm_invariant(self):
        grid = Grid(1, 128.0, 2 ** 13)
        base = gaussian_base(grid, sigma=1.0)
        fam = translation_family(base, [0.0, 8.0, 32.0])
        norms = [weighted_lp(m, 2, 0.0) for m in fam.members()]
        assert max(norms) - min(norms) <= 1e-10 * norms[0]

    def test_weight_growth_slope(self):
        grid = Grid(1, 128.0, 2 ** 13)
        base = gaussian_base(grid, sigma=1.0)
        lams = [4.0, 8.0, 16.0, 32.0, 64.0]
        fam = translation_family(base, lams)
        gamma, p = 1.0, 2.0
        fit = fit_exponent(
            lams,
            [math.log(weighted_lp(m, p, gamma)) for m in fam.members()],
        )
        assert abs(fit.slope - gamma / p) <= 0.05

    def test_boundary_guard(self, grid1d, monkeypatch):
        base = gaussian_base(grid1d, sigma=1.0)  # L = 16 torus
        fam = translation_family(base, [14.0])
        scans = []
        orig = lpengine.boundary_decay
        monkeypatch.setattr(lpengine, "boundary_decay",
                            lambda f, *a: scans.append(f) or orig(f, *a))
        with pytest.raises(BoundaryError):
            fam.member(0)
        # The check and the message read one scan of the member's rim.
        assert len(scans) == 1

    def test_needs_sampled_base(self, grid1d):
        spec = gaussian_spectral_base(grid1d, sigma_xi=1.0)
        with pytest.raises(RangeError, match="sampled base"):
            translation_family(spec, [1.0])


class TestSpectralPeaks:
    def test_overlap_member_nonzero(self, grid1d_fine, max_coeff_outside):
        fam = spectral_peaks(grid1d_fine, [4], 1)
        member = fam.member(0)
        assert weighted_lp(member, 2, 0.0) > 0
        # spectrum confined to the annulus intersection [2^n, 1.5*2^n]
        assert max_coeff_outside(member, 1.5 * 2.0 ** 5) == 0.0

    def test_consecutive_ratio_quarter(self, grid1d_fine):
        # d=1, p=2, gamma=1/2: log2 ratio of consecutive norms is
        # d - (d+gamma)/p = 1 - 3/4 = 1/4
        fam = spectral_peaks(grid1d_fine, [3, 4, 5, 6, 7], 0)
        vals = [weighted_lp(m, 2, 0.5) for m in fam.members()]
        ratios = [math.log2(b / a) for a, b in zip(vals, vals[1:])]
        assert all(abs(r - 0.25) <= 0.02 for r in ratios)

    def test_j_two_rejected(self, grid1d):
        with pytest.raises(RangeError):
            spectral_peaks(grid1d, [4], 2)

    def test_small_n_rejected(self, grid1d):
        with pytest.raises(RangeError):
            spectral_peaks(grid1d, [1], 0)

    def test_nyquist(self, grid1d):
        with pytest.raises(NyquistError):
            spectral_peaks(grid1d, [15], 0)

    def test_reproducible(self, grid1d):
        a = spectral_peaks(grid1d, [4], 0).member(0)
        b = spectral_peaks(grid1d, [4], 0).member(0)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("j", [-1, 0, 1])
    @pytest.mark.parametrize("d", [1, 2])
    def test_spectra_match_hat_product_reference(self, grid1d, grid2d, d, j,
                                                 bump_hat_reference):
        # Each distinct bump evaluated once gives the spectrum of the
        # product hat_n(|xi|) * hat_{n+j}(|xi|) of two separate evaluations.
        grid = grid1d if d == 1 else grid2d
        ns = [2, 3] if d == 2 else [2, 4, 6, 8]

        def hat(n, r):
            return bump_hat_reference(r / 2.0 ** n) - bump_hat_reference(r / 2.0 ** (n - 1))

        fam = spectral_peaks(grid, ns, j)
        for n, member in zip(ns, fam.members()):
            band = 1.5 * 2.0 ** (n + max(j, 0))
            ref = lpengine.field_from_spectral(
                grid, lambda *k: hat(n, lpengine.magnitude(*k))
                * hat(n + j, lpengine.magnitude(*k)), band_limit=band)
            assert np.array_equal(member.spectrum, ref.spectrum), n
            assert member.real_valued and member.band_limit == band


class TestLacunary:
    def test_single_term_is_scaled_block(self, grid1d_fine, sys1d_fine):
        f = lacunary_sum(grid1d_fine, [1.0], 1.0, 2.0, 0.0)
        res = besov_norm(f, 1.0, 2, 1, 0.0, sys=sys1d_fine)
        active = [k for k, v in res.per_block if v > 1e-9 * res.value]
        assert set(active) <= {2, 3, 4}
        assert 3 in active

    def test_ell_q_collapse_stable_across_coefficients(self, grid1d_fine,
                                                       sys1d_fine):
        # ratio besov_norm / ell_q(a) stays within a factor 2 across shapes
        s0, p0, q0, g0 = 1.0, 2.0, 2.0, 0.0
        ratios = []
        for coeffs in ([1.0, 1.0, 1.0], [1.0, 0.5, 0.25]):
            f = lacunary_sum(grid1d_fine, coeffs, s0, p0, g0)
            norm = besov_norm(f, s0, p0, q0, g0, sys=sys1d_fine).value
            ell = sum(c ** q0 for c in coeffs) ** (1 / q0)
            ratios.append(norm / ell)
        assert max(ratios) / min(ratios) <= 2.0

    def test_nyquist_guard(self, grid1d):
        with pytest.raises(NyquistError):
            lacunary_sum(grid1d, [1.0] * 10, 1.0, 2.0, 0.0)

    def test_matches_ladder_prediction(self, grid1d_fine):
        from powemb.verify import lacunary_norm_from_constants, peak_constants

        consts = peak_constants(2.0, 0.0, grid=grid1d_fine)
        f = lacunary_sum(grid1d_fine, [1.0, 1.0, 1.0], 1.0, 2.0, 0.0)
        direct = besov_norm(f, 1.0, 2, 2, 0.0).value
        ladder = lacunary_norm_from_constants([1.0] * 3, 1.0, 2, 2, 0.0,
                                              constants=consts)
        assert direct == pytest.approx(ladder, rel=1e-4)


class TestProfiles:
    def test_log_singularity_source_converges(self):
        prof = log_singularity(2, 0, 1.5, 1)
        res = radial_weighted_lp(prof, 2.0, 0.0)
        assert not res.diverged
        tail = [x ** 0.5 for x in res.history[-3:]]
        rel = [abs(b - a) / b for a, b in zip(tail, tail[1:])]
        assert max(rel) < 0.01

    def test_log_singularity_target_diverges_on_dim_equality(self):
        # (d+gamma1)/p1 = (d+gamma0)/p0 makes the target integrand
        # r^-1 log(1/r)^-1
        prof = log_singularity(2, 0, 1.5, 1)
        res = radial_weighted_lp(prof, 1.5, -0.25)
        assert res.diverged

    def test_generalized_exponent_keeps_dichotomy_for_nonzero_gamma(self):
        # gamma0 = 1: source finite, target diverges under dim equality
        p0, g0, p1 = 2.0, 1.0, 1.5
        g1 = (1 + g0) * p1 / p0 - 1  # dim equality
        prof = log_singularity(p0, g0, p1, 1)
        assert not radial_weighted_lp(prof, p0, g0).diverged
        assert radial_weighted_lp(prof, p1, g1).diverged

    def test_requires_p1_below_p0(self):
        with pytest.raises(RangeError):
            log_singularity(2, 0, 2, 1)

    def test_riesz_log_finite_source(self):
        # a = (gamma0+d)/p0, b = 1/p1 with p1 < p0 gives a finite source norm
        p0, g0, p1 = 4.0, 2.0, 2.0
        g = riesz_log((g0 + 1) / p0, 1 / p1, 1)
        assert not radial_weighted_lp(g, p0, g0).diverged

    def test_riesz_pure_power_cases(self):
        assert not radial_weighted_lp(riesz_log(0.3, 0.0, 1), 2, 0.0).diverged
        assert radial_weighted_lp(riesz_log(0.5, 0.0, 1), 2, 0.0).diverged

    def test_eps_range_guard(self):
        with pytest.raises(RangeError):
            riesz_log(0.5, 0.5, 1, eps=0.3)


class TestReproducibility:
    @pytest.mark.parametrize("band", [math.nan, -1.0, 0.0])
    def test_random_base_rejects_band_that_is_not_positive(self, grid1d, band):
        # Band 0 would divide the DC bin by zero; NaN and -1 name no band.
        with pytest.raises(RangeError, match=f"got {band}"):
            random_band_limited(grid1d, 0, band=band)

    def test_random_base_is_seed_deterministic(self, grid1d):
        a = random_band_limited(grid1d, 42, band=2.0)
        b = random_band_limited(grid1d, 42, band=2.0)
        c = random_band_limited(grid1d, 43, band=2.0)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_manifest_records_parameters(self, grid1d):
        fam = spectral_peaks(grid1d, [3, 4], 1)
        man = fam.manifest()
        assert man["kind"] == "SpectralPeak"
        assert man["parameters"]["j"] == 1
        assert [m["parameter"] for m in man["members"]] == [3, 4]

    def test_bump_base_partition_generator(self, grid1d, max_coeff_outside):
        # The dyadic generator itself: spectrum = bump_hat, band 3/2.
        base = lpengine.field_from_spectral(
            grid1d, lambda *k: lpengine.bump_hat(lpengine.magnitude(*k)),
            band_limit=1.5)
        assert base.band_limit == 1.5
        assert max_coeff_outside(base, 1.5) == 0.0


class TestTwoDimensional:
    def test_translation_slope_2d(self):
        grid = Grid(2, 32.0, 2 ** 7)
        base = gaussian_base(grid, sigma=1.0)
        lams = [4.0, 6.0, 9.0, 13.0]
        fam = translation_family(base, lams)
        gamma, p = 1.0, 2.0
        fit = fit_exponent(
            lams, [math.log(weighted_lp(m, p, gamma)) for m in fam.members()])
        assert abs(fit.slope - gamma / p) <= 0.1
        # gamma = 0 is exactly flat
        flat = [weighted_lp(m, 2, 0.0) for m in fam.members()]
        assert max(flat) - min(flat) <= 1e-9 * flat[0]

    def test_dilation_scaling_2d(self):
        grid = Grid(2, 64.0, 2 ** 7)
        base = gaussian_spectral_base(grid, sigma_xi=0.3)
        fam = dilation_family(base, [0.5, 1.0])
        for p, gamma in [(2.0, 0.0), (2.0, 1.0)]:
            w1 = weighted_lp(fam.member(1), p, gamma)
            w0 = weighted_lp(fam.member(0), p, gamma)
            expected = 0.5 ** (2 - (2 + gamma) / p)
            assert w0 / w1 == pytest.approx(expected, rel=1e-3)

    def test_peaks_2d_ratio(self, grid2d):
        fam = spectral_peaks(grid2d, [2, 3], 0)
        a, b = [weighted_lp(m, 2, 0.0) for m in fam.members()]
        # log2 ratio = d - (d+gamma)/p = 2 - 1 = 1
        assert math.log2(b / a) == pytest.approx(1.0, abs=0.02)
