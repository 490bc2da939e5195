"""Exponent fits, experiment checks, and failure demonstrations."""

import math

import numpy as np
import pytest

from powemb.suite import S
from powemb.verify import (
    ConditionError,
    DegenerateData,
    NotApplicable,
    check_embedding_bounded,
    check_gagliardo,
    check_nikolskij,
    check_peak_scaling,
    check_translation_scaling,
    check_lacunary_qnecessity,
    demonstrate_failure,
    fit_exponent,
    peak_constants,
)
from powemb.witnesses import gaussian_spectral_base, random_band_limited


class TestFitExponent:
    def test_exact_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [2.0 * math.log(x) + 1.0 for x in xs]
        fit = fit_exponent(xs, ys)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(1.0, abs=1e-10)
        assert fit.max_residual <= 1e-10

    def test_constant_data(self):
        fit = fit_exponent([1, 2, 4, 8], [3.0, 3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_three_points_rejected(self):
        with pytest.raises(DegenerateData):
            fit_exponent([1, 2, 4], [0, 0, 0])

    def test_non_increasing_rejected(self):
        with pytest.raises(DegenerateData):
            fit_exponent([1, 2, 2, 4], [0, 0, 0, 0])
        with pytest.raises(DegenerateData):
            fit_exponent([-1, 1, 2, 4], [0, 0, 0, 0])


class TestPeakScaling:
    def test_sup_norm_slope_is_dimension(self):
        rep = check_peak_scaling(math.inf, 123.0, 0)
        assert rep.predicted_exponent == 1.0
        assert rep.passed

    def test_negative_gamma(self):
        rep = check_peak_scaling(1.5, -1 / 3, 1)
        assert abs(rep.fit.slope - (1 - (1 - 1 / 3) / 1.5)) <= 0.02
        assert rep.passed


class TestTranslationScaling:
    def test_gamma_zero_flat(self):
        rep = check_translation_scaling(2, 0.0)
        assert abs(rep.fit.slope) <= 0.01
        assert rep.passed


class TestNikolskij:
    def test_same_space_ratio_is_constant_one(self, grid1d_fine):
        base = random_band_limited(grid1d_fine, 9, band=1.0)
        rep = check_nikolskij(base, 2, 0.5, 2, 0.5, alpha=(0,), force=True)
        ratios = [row["ratio"] for row in rep.rows]
        assert all(r == pytest.approx(1.0, abs=1e-8) for r in ratios)

    def test_condition_error(self, grid1d_fine):
        base = random_band_limited(grid1d_fine, 9, band=1.0)
        with pytest.raises(ConditionError):
            check_nikolskij(base, 2, 0.0, 2, 1.0)  # weight indices reversed

    def test_derivative_exponent(self, grid1d_fine):
        base = random_band_limited(grid1d_fine, 10, band=1.0)
        rep = check_nikolskij(base, 2, 1.0, 4, 1.0, alpha=(1,))
        # delta = (1+1)/2 - (1+1)/4 = 1/2; exponent bound 1 + 1/2
        assert rep.predicted_exponent == pytest.approx(1.5)
        assert rep.passed


class TestGagliardo:
    def test_theta_zero_elementary(self, grid1d):
        fields = [random_band_limited(grid1d, 20 + i, band=24.0)
                  for i in range(5)]
        rep = check_gagliardo(fields, 0.5, 2.0, 0.0, 2, 2, 0.0)
        assert rep.passed

    def test_single_block_ratio_one(self, grid1d):
        from powemb.witnesses import gaussian_spectral_base

        f = gaussian_spectral_base(grid1d, sigma_xi=0.1)
        rep = check_gagliardo([f], 0.0, 2.0, 0.5, 2, 2, 0.0)
        assert rep.details["batch_max_ratio"] == pytest.approx(1.0, rel=1e-6)


class TestNonFiniteRatios:
    """A NaN or infinite ratio fails its report wherever it sits in the
    batch, and the report names it."""

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_gagliardo_nan_fails(self, monkeypatch, pos):
        from powemb import norms
        from powemb.lpengine import Grid
        from powemb.norms import NormResult

        fields = [random_band_limited(Grid(1, 8.0, 64), i, band=2.0)
                  for i in range(3)]
        # Every norm is 1 except the interpolated one (s = 1) of one field.
        monkeypatch.setattr(norms, "triebel_norm", lambda f, s, *args, **kw: (
            NormResult(math.nan if f is fields[pos] and s == 1.0 else 1.0)))
        rep = check_gagliardo(fields, 0.0, 2.0, 0.5, 2, 2, 0.0)
        assert not rep.passed
        assert rep.details["nonfinite_ratios"] == [pos]
        assert rep.details["batch_max_ratio"] == 1.0

    def test_gagliardo_on_an_overflowing_grid_fails(self):
        from powemb.lpengine import Grid
        from powemb.suite import _exp_gagliardo

        with np.errstate(all="ignore"):
            reps = _exp_gagliardo(0, grid=Grid(1, 1e-300, 4096), count=1)
        assert [r.passed for r in reps] == [False, False]
        assert all(r.details["nonfinite_ratios"] == [0] for r in reps)

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_window_nan_fails(self, pos):
        from powemb.suite import _window_report

        ratios = [1.0, 2.0]
        ratios.insert(pos, math.nan)
        rep = _window_report("w", ratios)
        assert not rep.passed
        assert rep.details["nonfinite_ratios"] == [pos]
        assert (rep.details["min_ratio"], rep.details["max_ratio"]) == (1.0, 2.0)

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_dichotomy_nan_fails(self, monkeypatch, pos):
        # A NaN among the last three cumulative source integrals makes one
        # or both tail changes NaN; max() alone let all but a first one pass.
        from powemb import suite
        from powemb.lpengine import RadialNorm

        real = suite.radial_weighted_lp

        def source_nan(prof, p, gamma):
            res = real(prof, p, gamma)
            if p == 2.0:  # the source, p0 = 2
                res.history[len(res.history) - 3 + pos] = math.nan
            return res

        monkeypatch.setattr(suite, "radial_weighted_lp", source_nan)
        [rep] = suite._exp_dichotomy(0)
        assert not rep.passed and rep.details["src_converged"] is False
        assert rep.details["nonfinite_rel_changes"] == {0: [0], 1: [0, 1],
                                                        2: [1]}[pos]

    def test_converged_dichotomy_names_nothing(self):
        from powemb.suite import _exp_dichotomy

        [rep] = _exp_dichotomy(0)
        assert rep.passed and "nonfinite_rel_changes" not in rep.details

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_peak_constants_nan_raises(self, monkeypatch, pos):
        from types import SimpleNamespace

        from powemb import verify
        from powemb.lpengine import Grid

        n_check = (4, 5, 6)
        scale = 1 - verify._dim_index(2.0, 0.5, 1)
        # The member of peak n is n itself, normed to exactly C_l = 1 ...
        monkeypatch.setattr(verify, "spectral_peaks", lambda grid, ns, l: (
            SimpleNamespace(member=lambda i: ns[0])))
        # ... except at one block, which reads NaN.
        monkeypatch.setattr(verify, "weighted_lp", lambda n, p, gamma: (
            math.nan if n == n_check[pos] else 2.0 ** (n * scale)))
        with pytest.raises(ConditionError,
                           match=f"l=-1 is not finite at n={n_check[pos]}:"):
            peak_constants(2.0, 0.5, grid=Grid(1, 16.0, 64), n_check=n_check)

    def test_finite_window_names_nothing(self):
        from powemb.suite import _window_report

        rep = _window_report("w", [1.0, 2.0])
        assert rep.passed and "nonfinite_ratios" not in rep.details


def _bad_at(real, calls, value=math.nan):
    """``real`` with its return value replaced by ``value`` on the given
    (0-based) calls; each item of a batch (a returned list) counts as one
    call."""
    count = iter(range(10 ** 6))

    def bad(out):
        return value if next(count) in calls else out

    def wrapped(*args, **kw):
        out = real(*args, **kw)
        return [bad(x) for x in out] if isinstance(out, list) else bad(out)

    return wrapped


def _named_and_failed(rep, rows):
    assert not rep.passed
    assert rep.details["nonfinite_ratios"] == rows
    return rep


class TestNonFiniteMeasurements:
    """Every measured pass rule fails on a NaN wherever it sits, and names
    the row; a fitted report then carries no fit."""

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_peak_scaling(self, monkeypatch, pos):
        from powemb import verify
        from powemb.lpengine import Grid

        monkeypatch.setattr(verify, "weighted_lps",
                            _bad_at(verify.weighted_lps, {pos}))
        rep = check_peak_scaling(2, 0, 0, n_range=range(2, 7),
                                 grid=Grid(1, 16.0, 2 ** 10))
        assert _named_and_failed(rep, [pos]).fit is None

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_translation_scaling(self, monkeypatch, pos):
        from powemb import verify
        from powemb.lpengine import Grid

        monkeypatch.setattr(verify, "weighted_lps",
                            _bad_at(verify.weighted_lps, {pos}))
        rep = check_translation_scaling(2, 1, grid=Grid(1, 128.0, 2 ** 11))
        assert _named_and_failed(rep, [pos]).fit is None

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_nikolskij(self, monkeypatch, pos):
        from powemb import verify
        from powemb.lpengine import Grid

        base = random_band_limited(Grid(1, 16.0, 2 ** 10), 3, band=1.0)
        # Each member takes the target norm, then the source norm.
        monkeypatch.setattr(verify, "weighted_lps",
                            _bad_at(verify.weighted_lps, {2 * pos}))
        rep = check_nikolskij(base, 2, 0.5, 4, 1, alpha=(1,))
        assert _named_and_failed(rep, [pos]).fit is None

    @pytest.mark.parametrize("pos", [0, 3, 6])
    def test_lacunary(self, monkeypatch, pos):
        from powemb import verify
        from powemb.lpengine import Grid

        # The seven source norms come before the seven target norms.
        monkeypatch.setattr(verify, "lacunary_norm_from_constants",
                            _bad_at(verify.lacunary_norm_from_constants, {pos}))
        rep = check_lacunary_qnecessity(2, 0, math.inf, 4, 0, 1, 1, 0.75,
                                        grid=Grid(1, 16.0, 2 ** 11))
        assert _named_and_failed(rep, [pos]).fit is None

    FAILURES = {
        "failure_peaks": (S("B", 0, 2, 2, 0), S("B", 1, 2, 2, 0)),
        "failure_translation": (S("B", 1, 2, 2, "-1/2"),
                                S("B", 0, 4, 2, "-1/2")),
        "failure_dilation": (S("B", 0, 4, 2, 0), S("B", 0, 2, 2, 0)),
    }

    @pytest.mark.parametrize("kind", list(FAILURES))
    @pytest.mark.parametrize("member", [0, 2, 4])
    def test_failure_families(self, monkeypatch, kind, member):
        from powemb import verify

        # Each member takes the source norm, then the target norm.
        monkeypatch.setattr(verify, "_member_norm",
                            _bad_at(verify._member_norm, {2 * member + 1}))
        rep = demonstrate_failure(*self.FAILURES[kind])
        assert rep.kind == kind
        assert _named_and_failed(rep, [member]).fit is None

    @pytest.mark.parametrize("member", [0, 2, 4])
    def test_bounded_families(self, monkeypatch, member):
        from powemb import verify

        # Three families of five members, two norms per member.
        monkeypatch.setattr(verify, "_member_norm", _bad_at(
            verify._member_norm, {f * 10 + 2 * member + 1 for f in range(3)}))
        reps = check_embedding_bounded(S("B", 1, 2, 1, 0), S("B", 0, 4, 1, 0))
        assert [r.details["nonfinite_ratios"] for r in reps] == [[member]] * 3
        assert not any(r.passed for r in reps)

    @pytest.mark.parametrize("pos", [0, 9, -1])
    @pytest.mark.parametrize("pair", [
        (S("B", 1, 2, 1, 0), S("B", 1, "3/2", 1, "-1/4")),
        (S("H", "3/4", 4, gamma=2), S("H", "3/5", 2, gamma="1/5")),
    ])
    def test_profiles(self, monkeypatch, pos, pair):
        from powemb import verify

        real = verify.radial_weighted_lp
        calls = []

        def target_nan(prof, p, gamma):
            res = real(prof, p, gamma)
            calls.append(res)
            if len(calls) == 2:  # the target
                res.history[pos] = math.nan
            return res

        monkeypatch.setattr(verify, "radial_weighted_lp", target_nan)
        rep = demonstrate_failure(*pair)
        _named_and_failed(rep, [pos % len(rep.rows)])

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_zero_norm_in_a_slope_report_is_named(self, monkeypatch, pos):
        from powemb import verify
        from powemb.lpengine import Grid

        monkeypatch.setattr(verify, "weighted_lps",
                            _bad_at(verify.weighted_lps, {pos}, 0.0))
        rep = check_peak_scaling(2, 0, 0, n_range=range(2, 7),
                                 grid=Grid(1, 16.0, 2 ** 10))
        _named_and_failed(rep, [pos])

    @pytest.mark.parametrize("call", [0, 1])  # source, target
    def test_zero_member_norm_is_named(self, monkeypatch, call):
        from powemb import verify

        monkeypatch.setattr(verify, "_member_norm",
                            _bad_at(verify._member_norm, {4 + call}, 0.0))
        rep = demonstrate_failure(S("B", 0, 2, 2, 0), S("B", 1, 2, 2, 0))
        _named_and_failed(rep, [2])
        assert rep.rows[2]["ratio"] == (math.inf if call == 0 else 0.0)


class TestLacunaryLadder:
    def test_constants_are_block_free(self, grid1d_fine):
        consts = peak_constants(2.0, 0.5, grid=grid1d_fine, n_check=(4, 6))
        assert set(consts) == {-1, 0, 1}
        assert all(v > 0 for v in consts.values())

    def test_equal_q_gives_flat_ratio(self):
        rep = check_lacunary_qnecessity(2, 0, 2, 4, 0, 2, 1, 0.75)
        assert abs(rep.fit.slope) <= 1e-6


class TestDemonstrateFailure:
    def test_not_applicable_on_embeds(self):
        with pytest.raises(NotApplicable):
            demonstrate_failure(S("B", 1, 2, 1, 0), S("B", 0, 4, 1, 0))

    def test_smoothness_violation_peaks(self):
        rep = demonstrate_failure(S("B", 0, 2, 2, 0), S("B", 1, 2, 2, 0))
        assert rep.kind == "failure_peaks"
        assert rep.passed and rep.predicted_exponent == pytest.approx(1.0)

    def test_weight_violation_translation(self):
        rep = demonstrate_failure(S("B", 1, 2, 2, "-1/2"),
                                  S("B", 0, 4, 2, "-1/2"))
        assert rep.kind == "failure_translation"
        assert rep.passed and rep.predicted_exponent == pytest.approx(1 / 8)

    def test_dim_violation_dilation(self):
        rep = demonstrate_failure(S("B", 0, 4, 2, 0), S("B", 0, 2, 2, 0))
        assert rep.kind == "failure_dilation"
        assert rep.passed and rep.predicted_exponent == pytest.approx(-0.25)

    def test_q_violation_lacunary(self):
        rep = demonstrate_failure(S("B", 1, 2, 2, 0), S("B", "3/4", 4, 1, 0))
        assert rep.kind == "lacunary_q"
        assert rep.passed and rep.predicted_exponent == pytest.approx(0.5)

    def test_dim_equality_log_profile(self):
        rep = demonstrate_failure(S("B", 1, 2, 1, 0),
                                  S("B", 1, "3/2", 1, "-1/4"))
        assert rep.kind == "failure_log_singularity"
        assert rep.passed

    def test_sharp_pswap_riesz_profile(self):
        rep = demonstrate_failure(S("H", "3/4", 4, gamma=2),
                                  S("H", "3/5", 2, gamma="1/5"))
        assert rep.kind == "failure_riesz_log"
        assert rep.passed


class TestBoundedChecks:
    def test_not_applicable_on_failure(self):
        with pytest.raises(NotApplicable):
            check_embedding_bounded(S("B", 0, 2, 2, 0), S("B", 1, 2, 2, 0))

    def test_embeds_pair_bounded(self):
        reps = check_embedding_bounded(S("B", 1, 2, 1, 0), S("B", 0, 4, 1, 0))
        assert len(reps) == 3
        assert all(r.passed for r in reps)


class TestWitnessWindows:
    """Each window is built once per grid and kept in that grid's
    ``lpengine._sys_cache`` entry, so it goes with the entry."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        from powemb import verify

        verify._sys_cache.clear()
        yield
        verify._sys_cache.clear()

    def test_one_window_per_grid(self):
        from powemb import verify
        from powemb.lpengine import Grid

        grid = Grid(1, 16.0, 2 ** 12)
        fam = verify._witness_family("peaks", 1, grid)
        assert verify._witness_family("peaks", 1, grid) is fam
        assert verify._sys_cache[(1, 16.0, 2 ** 12)].built == {("peaks", 1): fam}
        # A window on another grid is another window.
        assert verify._witness_family("peaks", 1) is not fam
        verify._sys_cache.clear()
        assert verify._witness_family("peaks", 1, grid) is not fam

    def test_evicted_with_its_grid(self):
        from powemb import lpengine, verify
        from powemb.lpengine import Grid

        grid = Grid(1, 16.0, 2 ** 12)
        fam = verify._witness_family("peaks", 1, grid)
        for i in range(lpengine.DYADIC_CACHE_ENTRIES):
            lpengine.dyadic_for(Grid(1, 20.0 + i, 64))
        assert (1, 16.0, 2 ** 12) not in verify._sys_cache
        assert verify._witness_family("peaks", 1, grid) is not fam

    def test_translations_stay_on_the_wide_grid(self):
        from powemb import verify
        from powemb.lpengine import Grid

        fam = verify._witness_family("translation", 1)
        assert fam.member(0).grid == verify.default_grid(1, wide=True)
        assert verify._witness_family("translation", 1,
                                      Grid(1, 16.0, 2 ** 14)) is fam

    @pytest.mark.parametrize("check,pair", [
        (check_embedding_bounded, (S("B", 1, 2, 1, 0), S("B", 0, 4, 1, 0))),
        (demonstrate_failure, (S("B", 1, 2, 2, "-1/2"), S("B", 0, 4, 2, "-1/2"))),
    ])
    def test_cold_and_warm_reports_agree(self, check, pair):
        from powemb import verify

        def reports():
            out = check(*pair)
            return [r.to_dict() for r in (out if isinstance(out, list) else [out])]

        cold = reports()
        assert len(verify._sys_cache) > 0
        assert reports() == cold


class TestKeptBlocks:
    """Witness window members keep their block magnitudes, within a bound
    per window, for as long as their window lives."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        from powemb import verify

        verify._sys_cache.clear()
        yield
        verify._sys_cache.clear()

    @pytest.mark.parametrize("pair", [
        (S("B", 1, 2, 1, 0), S("B", 0, 4, 1, 0)),
        (S("F", 1, 2, 2, 0), S("F", "1/2", 4, 1, 0)),
    ], ids=["B", "F"])
    def test_second_check_transforms_no_kept_block(self, pair, fft_calls):
        from powemb import norms, verify

        first = [r.to_dict() for r in check_embedding_bounded(*pair)]
        members = [m for kind in ("peaks", "dilation", "translation")
                   for m in verify._witness_family(kind, 1).members()]
        assert all(m._kept[1] for m in members)
        # Without the numbers measured from them, the norms read the kept
        # magnitudes again: no block is transformed.
        for m in members:
            m._numbers.clear()
        norms._memo = (None, {})
        fft_calls.clear()
        second = [r.to_dict() for r in check_embedding_bounded(*pair)]
        assert fft_calls.blocks == 0
        assert second == first

    def test_2d_window_keeps_at_most_its_bound(self):
        from powemb import norms, verify

        fam = verify._witness_family("peaks", 2)
        assert fam.member(0).grid == verify.default_grid(2)
        for m in fam.members():
            norms.besov_norm(m, 0.5, math.inf, math.inf, 0.0)
        kept = {id(mag.base): mag.base.nbytes for m in fam.members()
                for mag in m._kept[1].values() if mag is not None}
        assert 0 < sum(kept.values()) <= norms.WINDOW_BLOCK_BYTES
        # The stacks past the bound went through the one-field memo.
        assert any(mag is not None for mag in norms._memo[1].values())

    def test_clear_drops_the_kept_stacks(self):
        import gc
        import weakref

        from powemb import verify

        spec = S("B", 1, 2, 1, 0)
        for kind in ("peaks", "dilation", "translation"):
            for m in verify._witness_family(kind, 1).members():
                verify._member_norm(m, spec)
        stacks = {id(mag.base): weakref.ref(mag.base)
                  for entry in verify._sys_cache.values()
                  for fam in entry.built.values() for m in fam.members()
                  for mag in m._kept[1].values() if mag is not None}
        assert stacks
        del m
        verify._sys_cache.clear()
        gc.collect()
        assert all(ref() is None for ref in stacks.values())


class TestStoredMemberNumbers:
    """Kept window members keep the numbers their norms measured, so a
    later bounded check at a spec already measured re-measures nothing."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        from powemb import verify

        verify._sys_cache.clear()
        yield
        verify._sys_cache.clear()

    @pytest.mark.parametrize("chain", [
        (S("W", 2, 2, gamma=0), S("H", 1, 2, gamma=0), S("F", "1/2", 2, 2, 0)),
        (S("B", 1, 2, 1, 0), S("B", "3/4", 4, 1, 0), S("Holder", "1/4")),
    ], ids=["W-H-F", "B-B-Holder"])
    def test_second_check_at_measured_specs_transforms_nothing(
            self, chain, monkeypatch, fft_calls, cell_sums):
        from powemb import lpengine, verify

        inner = lpengine.weighted_cell_sum
        monkeypatch.setattr(lpengine, "weighted_cell_sum",
                            lambda *a: cell_sums.append(a[2:]) or inner(*a))
        x, y, z = chain
        check_embedding_bounded(x, y)
        check_embedding_bounded(y, z)
        fft_calls.clear(), cell_sums.clear()
        warm = [r.to_dict() for r in check_embedding_bounded(x, z)]
        assert (len(fft_calls), len(cell_sums)) == (0, 0)
        # The stored numbers are the ones a cold cache measures.
        verify._sys_cache.clear()
        assert [r.to_dict() for r in check_embedding_bounded(x, z)] == warm
        assert len(fft_calls) > 0 and len(cell_sums) > 0

    def test_clear_drops_the_members_with_their_numbers(self, fft_calls):
        import gc
        import weakref

        from powemb import verify

        spec = S("B", 1, 2, 1, 0)
        fam = verify._witness_family("peaks", 1)
        members = fam.members()
        for m in members:
            verify._member_norm(m, spec)
        assert all(m._numbers for m in members)
        gone = weakref.ref(members[0])
        del fam, members, m
        verify._sys_cache.clear()
        gc.collect()
        assert gone() is None
        # The window built again holds new members, measured afresh.
        fresh = verify._witness_family("peaks", 1).members()
        assert not any(m._numbers for m in fresh)
        fft_calls.clear()
        verify._member_norm(fresh[0], spec)
        assert len(fft_calls) > 0


def test_gagliardo_builds_one_batch_for_every_gamma(monkeypatch):
    # The batch is shared by the gammas and gives the reports of one run
    # per gamma.
    from powemb import suite
    from powemb.lpengine import Grid

    grid = Grid(1, 8.0, 256)
    apart = [r.to_dict() for gamma in (0, 0.5)
             for r in suite._exp_gagliardo(0, grid=grid, gammas=(gamma,),
                                           count=2)]
    built, batch = [], suite.random_field_batch
    monkeypatch.setattr(suite, "random_field_batch",
                        lambda *args: built.append(args) or batch(*args))
    both = suite._exp_gagliardo(0, grid=grid, gammas=(0, 0.5), count=2)
    assert len(built) == 1
    assert [r.to_dict() for r in both] == apart
