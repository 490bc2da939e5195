"""Parameter algebra: validation, canonicalization, derived indices."""

import json
import random
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
    in_ap_range,
    indices,
    is_inf,
    parse_spec,
    rebrand,
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

    @pytest.mark.parametrize("spec, ok", [
        (SpaceSpec("B", 1, 1, 1, 1, 0), False),  # p = 1, as ints
        (sp("B", 1, "1001/1000", 1, gamma=0), True),
        (sp("B", 1, "999/1000", 1, gamma=0), False),
        (SpaceSpec("H", 2, 1, 2, None, -2), False),  # gamma = -d, as ints
        (sp("H", 1, 2, gamma="-1999/1000", d=2), True),
        (sp("H", 1, 2, gamma="-3/2"), False),
        (SpaceSpec("F", 1, 1, 2, 1, 0), True),  # q = 1, as ints
        (sp("F", 1, 2, "999/1000", gamma=0), False),
        (sp("Holder", "1/1000"), True),
        (SpaceSpec("Holder", 1, 0), False),
        (sp("Holder", "-1/2"), False),
        (SpaceSpec("W", 1, 0, 2, None, 0), True),  # s = 0, as ints
        (sp("W", -1, 2, gamma=0), False),
    ], ids=str)
    def test_range_boundaries(self, spec, ok):
        if ok:
            validate(spec)
        else:
            with pytest.raises(RangeError, match="must (lie in|exceed)|needs s"):
                validate(spec)

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


def _over(a, p):
    """a/p with the convention a/inf = 0."""
    return Fraction(0) if is_inf(p) else a / p


def _indices_reference(spec):
    """The three indices in chained Fraction arithmetic (1/inf = 0)."""
    if spec.family == "Holder":
        return spec.s, Fraction(0), Fraction(0)
    dim = _over(Fraction(spec.d) + spec.gamma, spec.p)
    return spec.s - dim, _over(spec.gamma, spec.p), dim


def _ap_reference(spec):
    """A_p membership by ``in_ap_range``, gated at p = inf."""
    if spec.family == "Holder" or is_inf(spec.p):
        return False
    return in_ap_range(spec.p, spec.gamma, spec.d)


def _stored(spec):
    ix = indices(spec)
    return (ix.shifted_smoothness, ix.weight_index, ix.dim_index), spec._ap


class TestStoredArithmetic:
    """validate derives the indices and the A_p flag by integer
    cross-multiplication; each must equal the Fraction route."""

    @pytest.mark.parametrize("spec, ap", [
        (sp("Holder", "3/2", d=2), False),
        (sp("B", "1/3", "inf", 2, gamma="5/2"), False),  # B with p = inf
        (sp("B", "-7/4", "inf", "inf", gamma="-1/2", d=3), False),
        (sp("Lp", 0, "7/3", gamma="-1/2"), True),  # Lp -> H
        (sp("W", "3/2", "5/2", gamma=1, d=2), True),  # fractional W -> B
        (sp("W", 2, 3, gamma=-1 + Fraction(1, 1000)), True),
        (sp("F", -1, "9/8", 3, gamma="3/8", d=3), False),  # d(p-1) = 3/8
        (sp("F", -1, "9/8", 3, gamma="1/8", d=3), True),
        (sp("H", 1, 3, gamma=2), False),  # gamma = d(p-1) exactly
        (sp("H", 1, 3, gamma="1999/1000"), True),  # just below d(p-1)
        (sp("H", 1, "5/2", gamma=3, d=2), False),  # gamma = d(p-1), d = 2
        (sp("H", 1, "5/2", gamma="2999/1000", d=2), True),
        (sp("H", 1, 2, gamma="-999/1000"), True),  # just above -d
        (sp("H", 1, 2, gamma="-1999/1000", d=2), True),
    ], ids=lambda v: str(v) if isinstance(v, SpaceSpec) else None)
    def test_fixed_cases(self, spec, ap):
        v = validate(spec)
        assert _stored(v) == (_indices_reference(v), _ap_reference(v))
        assert v._ap is ap

    def test_random_specs_every_family(self):
        from powemb.suite import random_spec

        rng = random.Random(5)
        for d in (1, 2, 3):
            for fam in "BFHW":
                for _ in range(300):
                    v = random_spec(rng, fam, d)
                    assert _stored(v) == (_indices_reference(v), _ap_reference(v)), v


class TestRebrand:
    @pytest.mark.parametrize("family, q", [
        ("B", Fraction(2)), ("B", INF), ("F", Fraction(1)), ("H", None), ("W", None)])
    def test_matches_fresh_validation(self, family, q):
        from powemb.suite import random_spec

        rng = random.Random(13)
        moved = 0
        for fam in "BFHW":
            for _ in range(100):
                spec = random_spec(rng, fam, 2)
                if spec.s.denominator != 1 and family == "W":
                    spec = validate(replace(spec, s=Fraction(spec.s.numerator)))
                try:
                    out = rebrand(spec, family, q)
                except RangeError as exc:
                    with pytest.raises(RangeError, match=str(exc)):
                        validate(replace(spec, family=family, q=q))
                    continue
                moved += 1
                fresh = validate(replace(out))
                assert "_indices" not in vars(replace(out))
                assert (out.family, out.q) == (fresh.family, fresh.q) == (family, q)
                assert _stored(out) == _stored(fresh)
        assert moved > 100

    def test_range_checks_still_run(self):
        b_inf = validate(sp("B", 1, "inf", 1, gamma=0))
        with pytest.raises(RangeError, match="p < inf"):
            rebrand(b_inf, "H")
        with pytest.raises(RangeError, match="s >= 0"):
            rebrand(validate(sp("H", -1, 2, gamma=0)), "W")
        with pytest.raises(RangeError, match="needs the microscopic index"):
            rebrand(validate(sp("H", 1, 2, gamma=0)), "F")
        with pytest.raises(RangeError, match="keeps s"):
            rebrand(validate(sp("H", 1, 2, gamma=0)), "Lp")


def _parse_reference(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return RangeError


class TestParseParity:
    """as_rational parses every string with Fraction(text) and memoizes the
    result per token; the value, or the rejection, must be what
    Fraction(text) gives, on the first call and on the memoized second."""

    @pytest.mark.parametrize("text", [
        "3/4", "-3/4", "+3/4", " 3/4 ", "3 / 4", "3/-4", "3/+4", "3/0", "/4",
        "3/", "/", "0.75", "1e-3", "3_0", "3_0/4_0", "-0", "+0", "--3", "+-3",
        "-", "+", "", "   ", "12/8", "007/010", "0/5", "7", "-7",
        "12345678901234567890/3", "3/4/5", "3.0/4", "0x10", "inf", "nan",
        "٣/٤", "３", "²", "3 ", "\t-5/6\n",
    ])
    def test_matches_fraction(self, text):
        expected = _parse_reference(text)
        for _ in range(2):
            if expected is RangeError:
                with pytest.raises(RangeError, match="cannot parse"):
                    as_rational(text)
            else:
                got = as_rational(text)
                assert type(got) is Fraction and got == expected


class TestParseMemo:
    """Each str or int token is parsed once per process; the memo must not
    change what is accepted, what is rejected, or any message."""

    def test_bool_rejected_after_equal_int(self):
        assert as_rational(1) == 1 and as_rational(0) == 0
        assert as_extended(1) == 1 and as_extended(0) == 0
        for value in (True, False):
            with pytest.raises(RangeError, match="expected a number"):
                as_rational(value)
            with pytest.raises(RangeError, match="expected a number"):
                as_extended(value)
            with pytest.raises(RangeError, match="expected a number"):
                parse_spec({"family": "H", "dim": 1, "p": 2, "gamma": value})

    def test_equal_tokens_of_each_type(self):
        values = [as_rational(v) for v in (1, "1", 1.0, 1, "1", 1.0)]
        assert all(type(v) is Fraction and v == Fraction(1) for v in values)
        assert as_extended("inf") is INF and as_extended(" Infinity ") is INF
        with pytest.raises(RangeError, match="cannot parse 'inf'"):
            as_rational("inf")

    @pytest.mark.parametrize("token", ["pi", "3/0", "inf", "", "1/2/3"])
    def test_rejection_repeats_its_message(self, token):
        messages = set()
        for what in ("s", "gamma", "s"):
            with pytest.raises(RangeError) as exc:
                as_rational(token, what=what)
            messages.add(str(exc.value))
        assert messages == {f"s: cannot parse {token!r} as a rational",
                            f"gamma: cannot parse {token!r} as a rational"}


class TestTokenLimits:
    """A string token past the digit or exponent limit is rejected before
    Fraction builds its integer, with a message naming the field."""

    @pytest.mark.parametrize("token, cause", [
        ("1e999999", "exponent 999999"),
        (" 1E-401 ", "exponent -401"),
        ("1e1_000", "exponent 1000"),
        ("9" * 101, "101 digits"),
        ("1/" + "3" * 100, "101 digits"),
    ])
    def test_rejected_with_its_field(self, token, cause):
        for what in ("s", "gamma"):
            with pytest.raises(RangeError, match=f"^{what}: .*{cause}.*limit"):
                as_rational(token, what=what)
        with pytest.raises(RangeError, match="^p: "):
            as_extended(token, what="p")

    @pytest.mark.parametrize("token, value", [
        ("1e400", Fraction(10) ** 400),
        ("-2.5e-400", Fraction(-25, 10 ** 401)),
        ("9" * 100, Fraction(10 ** 100 - 1)),
        ("1e308", Fraction(10) ** 308),
    ])
    def test_limits_are_inclusive(self, token, value):
        assert as_rational(token) == value

    def test_spec_names_the_field(self):
        with pytest.raises(RangeError, match="^gamma: exponent"):
            spec_from_dict({"family": "H", "dim": 1, "p": 2, "gamma": "1e999999"})


class TestRejectedTypes:
    DESC = {"family": "B", "s": 1, "p": 2, "q": 1, "gamma": 0}

    @pytest.mark.parametrize("key", ["dim", "d"])
    def test_parse_spec_rejects_bool(self, key):
        with pytest.raises(RangeError, match="dimension"):
            parse_spec({**self.DESC, key: True})

    def test_validate_rejects_float_parameters(self):
        for field in ("s", "p", "q", "gamma"):
            spec = replace(sp("B", 1, 2, 1, gamma=0), **{field: 0.5})
            with pytest.raises(RangeError, match="must be exact"):
                validate(spec)

    @pytest.mark.parametrize("field", ["s", "p", "q", "gamma"])
    @pytest.mark.parametrize("value", ["2", True, 2.0, [2]], ids=repr)
    def test_validate_names_an_inexact_field(self, field, value):
        spec = replace(sp("B", 1, 2, 1, gamma=0), **{field: value})
        with pytest.raises(RangeError, match=f"^{field} must be exact"):
            validate(spec)

    def test_parsed_fraction_subclass_validates(self):
        class Ratio(Fraction):
            pass

        assert type(as_rational(Ratio(1, 2))) is Fraction
        spec = spec_from_dict({"family": "H", "dim": 1, "s": Ratio(1, 2),
                               "p": Ratio(3, 2), "gamma": Ratio(-1, 2)})
        assert (spec.s, spec.p, spec.gamma) == (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2))
        with pytest.raises(RangeError, match="^s must be exact"):
            validate(replace(spec, s=Ratio(1, 2)))

    def test_validate_rejects_infinite_s_and_gamma(self):
        with pytest.raises(RangeError, match="^s must be exact"):
            validate(replace(sp("B", 1, 2, 1, gamma=0), s=INF))
        with pytest.raises(RangeError, match="^gamma must be exact"):
            validate(replace(sp("H", 1, 2, gamma=0), gamma=INF))

    def test_validate_rejects_bool(self):
        with pytest.raises(RangeError, match="dimension"):
            validate(sp("B", 1, 2, 1, gamma=0, d=True))
        with pytest.raises(RangeError, match="dimension"):
            validate(sp("Holder", 1, d=False))
