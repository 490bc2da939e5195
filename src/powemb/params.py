"""Parameter algebra for weighted smoothness spaces.

Every space handled by this package is described by a handful of exact
parameters: a family tag, a smoothness s, an integrability exponent p, an
optional microscopic index q, a weight exponent gamma (the weight is
w(x) = |x|^gamma) and the ambient dimension d.  The embedding rules dispatch
on equalities and strict inequalities between rational combinations of these
numbers, so everything here is kept in exact arithmetic: parameters are
``fractions.Fraction`` values, and the endpoint value infinity is an explicit
sentinel, never a large float.

Conventions:
  * p lives in (1, inf], q in [1, inf]; 1/inf = 0.
  * gamma > -d (locally integrable weights only).
  * fractional Sobolev spaces canonicalize to Besov spaces with q = p,
    and plain Lebesgue spaces to Bessel-potential spaces with s = 0.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union


class RangeError(ValueError):
    """A parameter is outside its admissible range."""


class _Infinity:
    """Singleton for the extended value +infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("powemb-inf")

    # Ordering against finite rationals: inf is larger than everything finite.
    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __float__(self):
        return float("inf")


INF = _Infinity()

Extended = Union[Fraction, _Infinity]

FAMILIES = ("B", "F", "H", "W", "Lp", "Holder")


def is_inf(x) -> bool:
    return isinstance(x, _Infinity)


def as_rational(value, *, what="value") -> Fraction:
    """Parse a number into an exact Fraction.

    Accepts Fraction, int, strings like "3/4" or "0.75", and floats whose
    decimal repr is exact (floats go through their shortest decimal form, so
    0.1 means 1/10, not the binary expansion).
    """
    if isinstance(value, bool):
        raise RangeError(f"{what}: expected a number, got {value!r}")
    if isinstance(value, (str, int)):
        out = as_extended(value, what=what)
        if out is not INF:
            return out
        raise RangeError(f"{what}: cannot parse {value!r} as a rational")
    if isinstance(value, Fraction):  # a subclass becomes a Fraction, as validate asks
        return value if type(value) is Fraction else Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise RangeError(f"{what}: {value!r} is not a finite number")
        return Fraction(repr(value))
    raise RangeError(f"{what}: cannot parse {value!r} as a rational")


def as_extended(value, *, what="value") -> Extended:
    """Parse a number or the string/float infinity into an Extended value."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return _parse_token(value)
        except RangeError as exc:  # a token past the size limits
            raise RangeError(f"{what}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise RangeError(f"{what}: cannot parse {value!r} as a rational") from exc
    if is_inf(value) or (isinstance(value, float) and value == float("inf")):
        return INF
    return as_rational(value, what=what)


# Size limits of a string number token.  Fraction('1e999999') builds a
# 3.3-million-bit integer in 0.25 s, and the memo below would keep it; every
# float written out in decimal stays within the exponent limit.
TOKEN_MAX_DIGITS = 100
TOKEN_MAX_EXPONENT = 400


@functools.lru_cache(maxsize=4096)
def _parse_token(token) -> Extended:
    """A str or int token's value, parsed once per process (successes only,
    keyed by the token alone, so each rejection keeps its caller's message).

    A string past the size limits raises RangeError before it is parsed.
    """
    if isinstance(token, str):
        if token.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        _check_token_size(token)
    return Fraction(token)


def _check_token_size(token: str) -> None:
    digits = sum(map(str.isdigit, token))
    if digits > TOKEN_MAX_DIGITS:
        raise RangeError(f"a number of {digits} digits is past the limit of "
                         f"{TOKEN_MAX_DIGITS} digits")
    _, mark, exponent = token.lower().partition("e")
    try:
        exponent = int(exponent) if mark else 0
    except ValueError:
        return  # not a number; Fraction rejects it
    if abs(exponent) > TOKEN_MAX_EXPONENT:
        raise RangeError(f"exponent {exponent} of {token.strip()!r} is past the "
                         f"limit of {TOKEN_MAX_EXPONENT} in magnitude")


_ZERO = Fraction(0)


@dataclass(frozen=True)
class SpaceSpec:
    """One weighted smoothness space.

    family: "B" (Besov), "F" (Triebel-Lizorkin), "H" (Bessel potential),
    "W" (Sobolev), "Lp" (Lebesgue, canonicalizes to H with s=0) or
    "Holder" (unweighted BUC^s target; only s and d are set).
    """

    family: str
    d: int
    s: Fraction = Fraction(0)
    p: Optional[Extended] = None
    q: Optional[Extended] = None
    gamma: Optional[Fraction] = None

    def __str__(self):
        if self.family == "Holder":
            return f"BUC^{self.s}(d={self.d})"
        q = f",{self.q}" if self.q is not None else ""
        return f"{self.family}^{self.s}_{{{self.p}{q}}}(gamma={self.gamma},d={self.d})"


@dataclass(frozen=True)
class DerivedIndices:
    """The three rational indices every embedding condition compares.

    shifted_smoothness = s - (d+gamma)/p   (the dilation-scaling exponent)
    weight_index       = gamma/p
    dim_index          = (d+gamma)/p
    """

    shifted_smoothness: Fraction
    weight_index: Fraction
    dim_index: Fraction


def validate(spec: SpaceSpec) -> SpaceSpec:
    """Check ranges and return the canonicalized spec, carrying its indices.

    Canonicalization: fractional Sobolev -> Besov with q = p; Lebesgue -> H
    with s = 0.  Raises RangeError on any definitional violation.
    Idempotent; already-validated instances pass through untouched.  The
    derived indices and the A_p flag (``in_ap_range``, False at p = inf and
    for Holder targets) are stored on the returned spec, for ``indices`` and
    the oracle to read; ``dataclasses.replace`` builds a spec without them,
    so a replaced spec is validated and derived afresh (``rebrand`` keeps
    them).
    """
    if getattr(spec, "_indices", None) is not None:
        return spec
    out = _validate_impl(spec)
    if out.family == "Holder" or is_inf(out.p):
        # Unweighted sup-norm scale, or 1/p = 0: gamma is irrelevant.
        derived, ap = DerivedIndices(out.s, _ZERO, _ZERO), False
    else:
        # Integer cross-multiplication with p = a/b, gamma = g/h, s = m/n:
        # (d+gamma)/p = (dh+g)b/(ha), gamma/p = gb/(ha), and A_p is
        # gb < d(a-b)h (gamma > -d is a range check above).
        a, b = out.p.numerator, out.p.denominator
        g, h = out.gamma.numerator, out.gamma.denominator
        m, n = out.s.numerator, out.s.denominator
        dim, den = (out.d * h + g) * b, h * a
        derived = DerivedIndices(Fraction(m * den - dim * n, n * den),
                                 Fraction(g * b, den), Fraction(dim, den))
        ap = g * b < out.d * (a - b) * h
    object.__setattr__(out, "_indices", derived)
    object.__setattr__(out, "_ap", ap)
    return out


def rebrand(spec: SpaceSpec, family: str, q: Optional[Extended] = None) -> SpaceSpec:
    """The validated spec moved to family B, F, H or W with index q.

    The range checks run on the new spec.  Its indices and A_p flag depend
    only on (s, p, gamma, d), so the stored ones carry over.
    """
    if family not in ("B", "F", "H", "W"):
        raise RangeError(f"rebrand keeps s, so it cannot target {family!r}")
    spec = validate(spec)
    out = _validate_impl(SpaceSpec(family, spec.d, spec.s, spec.p, q, spec.gamma))
    object.__setattr__(out, "_indices", spec._indices)
    object.__setattr__(out, "_ap", spec._ap)
    return out


_RATIONAL = (int, Fraction)  # exact types, so bool, float and str fail
_OPTIONAL = (int, Fraction, type(None))
_EXTENDED = (int, Fraction, _Infinity, type(None))
_KINDS = (("s", _RATIONAL), ("p", _EXTENDED), ("q", _EXTENDED), ("gamma", _OPTIONAL))


def _validate_impl(spec: SpaceSpec) -> SpaceSpec:
    fam = spec.family
    if fam not in FAMILIES:
        raise RangeError(f"unknown family {fam!r}")
    if isinstance(spec.d, bool) or not isinstance(spec.d, int) or spec.d < 1:
        raise RangeError(f"dimension must be a positive integer, got {spec.d!r}")
    if (type(spec.s) not in _RATIONAL or type(spec.gamma) not in _OPTIONAL
            or type(spec.p) not in _EXTENDED or type(spec.q) not in _EXTENDED):
        name, kinds = next((n, k) for n, k in _KINDS if type(getattr(spec, n)) not in k)
        raise RangeError(f"{name} must be exact (an int, a Fraction"
                         f"{' or inf' if _Infinity in kinds else ''}; see "
                         f"as_rational), got {getattr(spec, name)!r}")

    # Range checks on numerator and denominator (the denominator is > 0).
    if fam == "Holder":
        if spec.s.numerator <= 0:
            raise RangeError(f"Holder target needs s > 0, got s={spec.s}")
        if spec.p is not None or spec.q is not None or spec.gamma is not None:
            raise RangeError("Holder target carries no p, q or gamma")
        return spec

    if spec.p is None:
        raise RangeError(f"{fam}-space needs p")
    if spec.gamma is None:
        raise RangeError(f"{fam}-space needs gamma")
    if not is_inf(spec.p) and spec.p.numerator <= spec.p.denominator:
        raise RangeError(f"p must lie in (1, inf], got p={spec.p}")
    if spec.gamma.numerator <= -spec.d * spec.gamma.denominator:
        raise RangeError(
            f"gamma must exceed -d for a locally integrable weight; "
            f"gamma={spec.gamma}, d={spec.d}"
        )

    if fam in ("F", "H", "Lp") or fam == "W":
        if is_inf(spec.p):
            raise RangeError(f"{fam}-space needs p < inf")

    if fam in ("B", "F"):
        if spec.q is None:
            raise RangeError(f"{fam}-space needs the microscopic index q")
        if not is_inf(spec.q) and spec.q.numerator < spec.q.denominator:
            raise RangeError(f"q must lie in [1, inf], got q={spec.q}")
        return spec

    if spec.q is not None:
        raise RangeError(f"{fam}-space carries no microscopic index q")

    if fam == "Lp":
        return replace(spec, family="H", s=Fraction(0))

    if fam == "H":
        return spec

    # Sobolev: integer s >= 0 stays W, fractional positive s becomes B_{p,p}.
    if spec.s.numerator < 0:
        raise RangeError(f"Sobolev space needs s >= 0, got s={spec.s}")
    if spec.s.denominator == 1:
        return spec
    return replace(spec, family="B", q=spec.p)


def indices(spec: SpaceSpec) -> DerivedIndices:
    """Derived indices of a spec (exact arithmetic, 1/inf = 0), as stored by
    ``validate``."""
    return validate(spec)._indices


def in_ap_range(p: Extended, gamma: Fraction, d: int) -> bool:
    """Whether |x|^gamma is a Muckenhoupt A_p weight: -d < gamma < d(p-1).

    Defined for p in (1, inf) only; callers must gate the p = inf endpoint.
    """
    if is_inf(p):
        raise RangeError("A_p membership is undefined at p = inf")
    if p <= 1:
        raise RangeError(f"A_p membership needs p > 1, got p={p}")
    return -d < gamma < d * (p - 1)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

_FAMILY_ALIASES = {f.lower(): f for f in FAMILIES}


def _num_to_json(x):
    if is_inf(x):
        return "inf"
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def spec_to_dict(spec: SpaceSpec) -> dict:
    out = {"family": spec.family, "s": _num_to_json(spec.s), "dim": spec.d}
    if spec.p is not None:
        out["p"] = _num_to_json(spec.p)
    if spec.q is not None:
        out["q"] = _num_to_json(spec.q)
    if spec.gamma is not None:
        out["gamma"] = _num_to_json(spec.gamma)
    return out


def spec_from_dict(data: dict) -> SpaceSpec:
    """Build a validated SpaceSpec from its JSON descriptor dict."""
    return validate(parse_spec(data))


def parse_spec(data: dict) -> SpaceSpec:
    """Read a JSON descriptor dict into a SpaceSpec without range checks."""
    if not isinstance(data, dict):
        raise RangeError(f"space descriptor must be an object, got {data!r}")
    try:
        raw_fam = data["family"]
    except KeyError:
        raise RangeError("space descriptor needs a 'family' entry") from None
    fam = _FAMILY_ALIASES.get(str(raw_fam).lower())
    if fam is None:
        raise RangeError(f"unknown family {raw_fam!r}")
    d = data.get("dim", data.get("d"))
    if isinstance(d, bool) or not isinstance(d, int):
        raise RangeError(f"dimension must be an integer, got {d!r}")
    s = as_rational(data.get("s", 0), what="s")
    p = as_extended(data["p"], what="p") if "p" in data else None
    q = as_extended(data["q"], what="q") if "q" in data else None
    gamma = as_rational(data["gamma"], what="gamma") if "gamma" in data else None
    if fam == "Lp" and "s" in data and s != 0:
        raise RangeError("Lp descriptor cannot carry a nonzero s")
    return SpaceSpec(family=fam, d=d, s=s, p=p, q=q, gamma=gamma)


def spec_from_json(text: str) -> SpaceSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RangeError(f"malformed JSON descriptor: {exc}") from exc
    return spec_from_dict(data)


def spec_to_json(spec: SpaceSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True)
