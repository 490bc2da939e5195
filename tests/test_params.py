"""Parameter algebra: validation, canonicalization, derived indices."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powemb.params import (
    INF,
    RangeError,
    SpaceSpec,
    as_extended,
    as_rational,
    divide,
    in_ap_range,
    indices,
    is_inf,
    reciprocal,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    validate,
)


def sp(family, s=0, p=None, q=None, gamma=None, d=1):
    return SpaceSpec(
        family=family, d=d, s=as_rational(s),
        p=None if p is None else as_extended(p),
        q=None if q is None else as_extended(q),
        gamma=None if gamma is None else as_rational(gamma),
    )


class TestExtended:
    def test_reciprocal_of_inf_is_zero(self):
        assert reciprocal(INF) == 0

    def test_reciprocal_strictly_decreasing(self):
        values = [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(100), INF]
        recips = [reciprocal(v) for v in values]
        assert all(a > b for a, b in zip(recips, recips[1:]))

    def test_divide_by_inf(self):
        assert divide(Fraction(7, 2), INF) == 0

    def test_ordering_against_fractions(self):
        assert Fraction(10 ** 9) < INF
        assert INF <= INF
        assert not INF < INF
        assert INF > Fraction(1)

    def test_parse_rational_strings(self):
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational("0.75") == Fraction(3, 4)
        assert as_rational(0.1) == Fraction(1, 10)
        assert as_extended("inf") is INF

    def test_parse_rejects_junk(self):
        with pytest.raises(RangeError):
            as_rational("pi")
        with pytest.raises(RangeError):
            as_rational(float("nan"))


class TestValidate:
    def test_fractional_sobolev_becomes_besov(self):
        out = validate(sp("W", "1/2", 2, gamma=0))
        assert out.family == "B"
        assert out.q == Fraction(2)
        assert out.s == Fraction(1, 2)

    def test_lebesgue_becomes_bessel(self):
        out = validate(sp("Lp", 0, 2, gamma=0))
        assert out.family == "H"
        assert out.s == 0

    def test_gamma_at_minus_d_rejected(self):
        with pytest.raises(RangeError):
            validate(sp("B", 1, 2, 1, gamma=-1))

    def test_p_at_one_rejected(self):
        with pytest.raises(RangeError):
            validate(sp("B", 1, 1, 1, gamma=0))

    def test_q_below_one_rejected(self):
        with pytest.raises(RangeError):
            validate(sp("B", 1, 2, "1/2", gamma=0))

    def test_triebel_needs_finite_p(self):
        with pytest.raises(RangeError):
            validate(sp("F", 1, "inf", 2, gamma=0))

    def test_sobolev_negative_s_rejected(self):
        with pytest.raises(RangeError):
            validate(sp("W", "-1/2", 2, gamma=0))
        with pytest.raises(RangeError):
            validate(sp("W", -1, 2, gamma=0))

    def test_holder_needs_positive_s(self):
        with pytest.raises(RangeError):
            validate(sp("Holder", 0))

    def test_besov_p_inf_allowed(self):
        out = validate(sp("B", 1, "inf", 1, gamma=3))
        assert is_inf(out.p)

    def test_integer_sobolev_stays(self):
        out = validate(sp("W", 2, 2, gamma=0))
        assert out.family == "W"

    def test_idempotent(self):
        first = validate(sp("W", "1/2", 2, gamma=0))
        assert validate(first) == first
        second = validate(sp("Lp", 0, 3, gamma="1/2"))
        assert validate(second) == second


class TestIndices:
    def test_plain_values(self):
        ix = indices(validate(sp("B", 1, 2, 1, gamma=0)))
        assert ix.shifted_smoothness == Fraction(1, 2)
        assert ix.weight_index == 0
        assert ix.dim_index == Fraction(1, 2)

    def test_p_inf_convention(self):
        ix = indices(validate(sp("B", 1, "inf", 1, gamma=5, d=3)))
        assert ix.shifted_smoothness == 1
        assert ix.weight_index == 0
        assert ix.dim_index == 0

    def test_weighted_values(self):
        ix = indices(validate(sp("B", "3/4", 4, 1, gamma=2)))
        assert ix.shifted_smoothness == 0
        assert ix.weight_index == Fraction(1, 2)
        assert ix.dim_index == Fraction(3, 4)

    def test_stored_once_and_fresh_after_replace(self):
        v = validate(sp("B", 1, 2, 1, gamma=0))
        first = indices(v)
        assert indices(v) is first and indices(validate(v)) is first
        moved = replace(v, s=v.s + 1)
        assert indices(moved).shifted_smoothness == first.shifted_smoothness + 1
        assert indices(moved).dim_index == first.dim_index


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)
p_values = st.one_of(
    st.just(INF),
    st.fractions(min_value=Fraction(9, 8), max_value=8, max_denominator=16),
)


class TestProperties:
    @given(s=rationals,
           p=p_values,
           gamma=st.fractions(min_value=Fraction(-7, 8), max_value=4,
                              max_denominator=16))
    @settings(max_examples=200)
    def test_shifted_plus_dim_is_s(self, s, p, gamma):
        spec = validate(sp("B", s, p, 1, gamma=gamma))
        ix = indices(spec)
        assert ix.shifted_smoothness + ix.dim_index == s

    @given(p=st.fractions(min_value=Fraction(9, 8), max_value=8,
                          max_denominator=16),
           bump=st.fractions(min_value=0, max_value=4, max_denominator=16),
           gamma=st.fractions(min_value=Fraction(-7, 8), max_value=4,
                              max_denominator=16))
    @settings(max_examples=200)
    def test_ap_range_monotone_in_p(self, p, bump, gamma):
        if in_ap_range(p, gamma, 1):
            assert in_ap_range(p + bump, gamma, 1)

    def test_ap_examples(self):
        assert in_ap_range(Fraction(2), Fraction(1, 2), 1)
        assert not in_ap_range(Fraction(2), Fraction(1), 1)  # boundary excluded
        assert in_ap_range(Fraction(4), Fraction(29, 10), 1)
        with pytest.raises(RangeError):
            in_ap_range(INF, Fraction(0), 1)


class TestJson:
    def test_round_trip_lossless(self):
        spec = validate(sp("B", "3/4", "inf", "7/3", gamma="-1/2", d=2))
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_round_trip_all_families(self):
        cases = [
            sp("B", 1, 2, 1, 0), sp("F", "1/2", 4, "inf", "1/5"),
            sp("H", -2, 3, gamma=1), sp("W", 2, 2, gamma=0),
            sp("Holder", "3/2"),
        ]
        for c in cases:
            v = validate(c)
            assert spec_from_dict(spec_to_dict(v)) == v

    def test_parse_spec_json(self):
        spec = spec_from_json(
            '{"family":"B","s":1,"p":2,"q":1,"gamma":0,"dim":1}'
        )
        assert spec.family == "B" and spec.p == 2

    def test_malformed_json(self):
        with pytest.raises(RangeError):
            spec_from_json("not json")
        with pytest.raises(RangeError):
            spec_from_json(json.dumps({"family": "Z", "dim": 1}))
        with pytest.raises(RangeError):
            spec_from_json(json.dumps({"s": 1, "dim": 1}))
