"""Closed-form sharp constants and exponent-domain checks.

All exponents are floats with ``math.inf`` as the distinct infinite value.
The Babenko-Beckner quantity C_p is defined for every positive p through the
signed Hoelder dual p' = p/(p-1), whose magnitude enters for p < 1; the
endpoint values C_1 = C_inf = 1 hold by convention and as limits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from typing import Optional, Union

__all__ = [
    "DomainError",
    "ExponentSet",
    "as_exponent",
    "holder_dual",
    "general_dual",
    "babenko_beckner",
    "lieb_H",
    "sharp_B",
    "leindler_duals",
    "solve_partner_exponent",
    "check_cowling_price",
    "check_galperin_grochenig",
    "check_lieb_domain",
    "CowlingPriceWitness",
    "GalperinGrochenigWitness",
    "RELATION_TOL",
]

# Absolute tolerance for exponent relations such as 1/u + 1/v = 1/s + 1/r'.
RELATION_TOL = 1e-12


class DomainError(ValueError):
    """Exponents outside the validity region of a formula or theorem."""


ExponentLike = Union[int, float, str, Fraction]


def as_exponent(x: ExponentLike, name: str = "exponent") -> float:
    """Convert one exponent to float once; accepts Fraction and 'inf'."""
    if isinstance(x, str):
        text = x.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return math.inf
        try:
            x = Fraction(text)
        except ValueError as exc:
            raise DomainError(f"cannot parse {name} from {x!r}") from exc
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    # a JSON true/false is no exponent, although float(True) is 1.0
    if isinstance(x, bool):
        raise DomainError(f"{name} must be a number, got {x!r}")
    try:
        value = float(x)
    except TypeError as exc:
        raise DomainError(f"{name} must be a number, got {x!r}") from exc
    if math.isnan(value):
        raise DomainError(f"{name} must not be NaN")
    return value


def _inv(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if p == math.inf else 1.0 / p


def holder_dual(p: float) -> float:
    """Hoelder conjugate on [1, inf]: 1/p + 1/p' = 1."""
    p = as_exponent(p, "p")
    if p == math.inf:
        return 1.0
    if p < 1.0:
        raise DomainError(f"holder_dual requires p in [1, inf], got {p}")
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def general_dual(p: float) -> float:
    """Signed dual p/(p-1) for any positive p; negative when p < 1."""
    p = as_exponent(p, "p")
    if not (p > 0.0):
        raise DomainError(f"general_dual requires p > 0, got {p}")
    if p == math.inf:
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def babenko_beckner(p: float) -> float:
    """Sharp Hausdorff-Young constant C_p = (p^(1/p) / |p'|^(1/p'))^(1/2).

    Defined for all p > 0 with C_1 = C_inf = 1; for p < 1 the dual is
    negative and its magnitude is used.
    """
    p = as_exponent(p, "p")
    if not (p > 0.0):
        raise DomainError(f"babenko_beckner requires p > 0, got {p}")
    if p == 1.0 or p == math.inf:
        return 1.0
    q = general_dual(p)
    num = p ** _inv(p)
    den = abs(q) ** _inv(q) if q != math.inf else 1.0
    return math.sqrt(num / den)


def _pow_conv(base: float, expo: float) -> float:
    """|base|^expo with the 0^0 = 1 convention used by degenerate factors."""
    if base == 0.0 and expo == 0.0:
        return 1.0
    return abs(base) ** expo


def lieb_H(r: float, p: float) -> float:
    """Sharp constant H(r, p) of the ambiguity-function Lp bounds.

    H^2 = (p p' / r^2) |r-2|^(2-r) |r-p|^(r/p - 1) |r-p'|^(r/p' - 1) with
    0^0 = 1 when r coincides with p or p'.  Valid for r > 2 with
    r' <= p, p' <= r, and for 1 <= r < 2 with r <= p, p' <= r'.
    """
    r = as_exponent(r, "r")
    p = as_exponent(p, "p")
    if not (r >= 1.0 and math.isfinite(r)):
        raise DomainError(f"lieb_H requires finite r >= 1, got {r}")
    if p == math.inf or not (p >= 1.0):
        raise DomainError(f"lieb_H requires finite p >= 1, got {p}")
    pp = holder_dual(p)
    if pp == math.inf:
        raise DomainError("lieb_H requires 1 < p < inf")
    rp = holder_dual(r)
    # RELATION_TOL absorbs one-ulp dual round trips at the domain boundary
    if r > 2.0:
        if not (rp - RELATION_TOL <= p <= r + RELATION_TOL
                and rp - RELATION_TOL <= pp <= r + RELATION_TOL):
            raise DomainError(
                f"lieb_H with r > 2 requires r' <= p, p' <= r; got r={r}, p={p}"
            )
    elif r < 2.0:
        if not (r - RELATION_TOL <= p <= rp + RELATION_TOL
                and r - RELATION_TOL <= pp <= rp + RELATION_TOL):
            raise DomainError(
                f"lieb_H with r < 2 requires r <= p, p' <= r'; got r={r}, p={p}"
            )
    else:
        raise DomainError("lieb_H is stated for r != 2")
    h_sq = (
        (p * pp / r**2)
        * _pow_conv(r - 2.0, 2.0 - r)
        * _pow_conv(r - p, r / p - 1.0)
        * _pow_conv(r - pp, r / pp - 1.0)
    )
    return math.sqrt(h_sq)


def sharp_B(r: float, s: float, u: float, v: float, d: int = 1) -> float:
    """Sharp constant of the reverse mixed-norm ambiguity bound.

    B = C_{r'}^d (C_{u/r'} C_{v/r'} / C_{s/r'})^{d/r'} on the admissible set
    1 <= r, s <= 2, 0 < u, v <= r', 1/u + 1/v = 1/s + 1/r'.
    """
    r = as_exponent(r, "r")
    s = as_exponent(s, "s")
    u = as_exponent(u, "u")
    v = as_exponent(v, "v")
    if not check_lieb_domain(r, s, u, v):
        raise DomainError(
            f"(r={r}, s={s}, u={u}, v={v}) violates the reverse-bound exponent domain"
        )
    rp = holder_dual(r)
    if rp == math.inf:
        # r = 1: the bracket carries exponent d/r' = 0 and C_inf = 1.
        return 1.0
    core = babenko_beckner(u / rp) * babenko_beckner(v / rp) / babenko_beckner(s / rp)
    return (babenko_beckner(rp) ** d) * core ** (d / rp)


def leindler_duals(u: float, v: float, r: float) -> tuple[float, float]:
    """Signed duals (m', n') of m = u/r', n = v/r' in the reverse Young step.

    m' = u(r-1)/(u r - u - r) and symmetrically for n'; the value is inf when
    the inner exponent equals 1 (u = r').
    """
    u = as_exponent(u, "u")
    v = as_exponent(v, "v")
    r = as_exponent(r, "r")
    if not (1.0 < r <= 2.0) or not math.isfinite(r):
        raise DomainError(f"leindler_duals requires 1 < r <= 2, got r={r}")
    rp = holder_dual(r)

    def dual_of(w: float, name: str) -> float:
        if not (0.0 < w <= rp):
            raise DomainError(f"{name} must lie in (0, r'], got {w} with r'={rp}")
        den = w * r - w - r
        if abs(den) < 1e-300:
            return math.inf
        return w * (r - 1.0) / den

    return dual_of(u, "u"), dual_of(v, "v")


def solve_partner_exponent(s: float, r: float, u: float) -> float:
    """Solve 1/u + 1/v = 1/s + 1/r' for v, requiring v in (0, r']."""
    s = as_exponent(s, "s")
    r = as_exponent(r, "r")
    u = as_exponent(u, "u")
    if not (1.0 <= r <= 2.0 and 1.0 <= s <= 2.0):
        raise DomainError(f"solve_partner_exponent requires 1 <= r, s <= 2, got r={r}, s={s}")
    rp = holder_dual(r)
    if not (0.0 < u <= rp):
        raise DomainError(f"u must lie in (0, r'], got u={u} with r'={rp}")
    rhs = _inv(s) + _inv(rp) - _inv(u)
    if rhs <= 0.0:
        raise DomainError(
            f"no positive partner exponent: 1/s + 1/r' - 1/u = {rhs:.6g} <= 0"
        )
    v = 1.0 / rhs
    if v > rp + RELATION_TOL:
        raise DomainError(f"partner exponent v={v:.6g} exceeds r'={rp:.6g}")
    return min(v, rp)


def check_lieb_domain(r: float, s: float, u: float, v: float) -> bool:
    """True when (r, s, u, v) satisfies the reverse-bound hypotheses."""
    r = as_exponent(r, "r")
    s = as_exponent(s, "s")
    u = as_exponent(u, "u")
    v = as_exponent(v, "v")
    if not (1.0 <= r <= 2.0 and 1.0 <= s <= 2.0):
        return False
    rp = holder_dual(r)
    if not (0.0 < u <= rp + RELATION_TOL and 0.0 < v <= rp + RELATION_TOL):
        return False
    return abs(_inv(u) + _inv(v) - _inv(s) - _inv(rp)) <= RELATION_TOL


@dataclass(frozen=True)
class CowlingPriceWitness:
    """Margins of the strict conditions a > 1/2 - 1/p and b > 1/2 - 1/q."""

    ok: bool
    margin_x: float
    margin_omega: float

    def __bool__(self) -> bool:
        return self.ok


def check_cowling_price(p: float, q: float, a: float, b: float) -> CowlingPriceWitness:
    """Strict moment-exponent condition for the two-moment uncertainty bound."""
    p = as_exponent(p, "p")
    q = as_exponent(q, "q")
    if not (1.0 <= p and 1.0 <= q):
        raise DomainError(f"p and q must lie in [1, inf], got p={p}, q={q}")
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"moment orders must be positive finite, got a={a}, b={b}")
    mx = a - (0.5 - _inv(p))
    mw = b - (0.5 - _inv(q))
    return CowlingPriceWitness(mx > 0.0 and mw > 0.0, mx, mw)


@dataclass(frozen=True)
class GalperinGrochenigWitness:
    """The six scalar quantities entering the weighted-norm minimum criterion."""

    ok: bool
    left_factor_x: float
    left_factor_omega: float
    left_product: float
    right_max_x: float
    right_max_omega: float
    right_product: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ExponentSet:
    """All exponents a run may need; unset entries stay None.

    ``d`` is the ambient dimension; (p, a) and (q, b) are the moment terms,
    (r, s, alpha, beta) the modulation norm, (u, v) the Lebesgue targets.
    """

    d: int = 1
    p: Optional[float] = None
    q: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    r: Optional[float] = None
    s: Optional[float] = None
    alpha: float = 0.0
    beta: float = 0.0
    u: Optional[float] = None
    v: Optional[float] = None

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.d}")
        for name in ("p", "q", "a", "b", "r", "s", "alpha", "beta", "u", "v"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, as_exponent(value, name))

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @staticmethod
    def from_dict(data: dict) -> "ExponentSet":
        if not isinstance(data, dict):
            raise DomainError(f"exponent set must be a JSON object, got {type(data).__name__}")
        allowed = {"d", "p", "q", "a", "b", "r", "s", "alpha", "beta", "u", "v"}
        unknown = set(data) - allowed
        if unknown:
            raise DomainError(f"unknown exponent keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "d" in kwargs:
            d = as_exponent(kwargs["d"], "d")
            if not d.is_integer():
                raise DomainError(f"dimension must be an integer, got {kwargs['d']!r}")
            kwargs["d"] = int(d)
        return ExponentSet(**kwargs)


def check_galperin_grochenig(e: ExponentSet) -> GalperinGrochenigWitness:
    """Weighted-exponent criterion guaranteeing a strictly positive minimum.

    Requires both left factors positive and their product to exceed the
    product of the two right-hand maxima.  Structural problems (missing or
    out-of-range exponents) raise DomainError instead of returning False.
    """
    needed = ("p", "q", "a", "b", "r", "s")
    missing = [name for name in needed if getattr(e, name) is None]
    if missing:
        raise DomainError(f"exponent set missing {missing}")
    p, q, a, b, r, s = e.p, e.q, e.a, e.b, e.r, e.s
    alpha, beta, d = e.alpha, e.beta, float(e.d)
    if not (1.0 <= p and 1.0 <= q):
        raise DomainError(f"p, q must lie in [1, inf], got p={p}, q={q}")
    if not (1.0 <= r <= 2.0 and 1.0 <= s <= 2.0):
        raise DomainError(f"r, s must lie in [1, 2], got r={r}, s={s}")
    if not (a > 0 and b > 0):
        raise DomainError(f"moment orders must be positive, got a={a}, b={b}")
    if alpha < 0 or beta < 0:
        raise DomainError("weight exponents must be nonnegative")
    qp = holder_dual(q)
    pp = holder_dual(p)
    left_x = (a - alpha) / d + _inv(p) - _inv(r)
    left_w = (b - beta) / d + _inv(q) - _inv(s)
    right_x = max(_inv(r) - _inv(qp) + alpha / d, _inv(r) - 0.5 + alpha / d)
    right_w = max(_inv(s) - _inv(pp) + beta / d, _inv(s) - 0.5 + beta / d)
    right = right_x * right_w
    ok = left_x > 0.0 and left_w > 0.0 and left_x * left_w > right
    return GalperinGrochenigWitness(ok, left_x, left_w, left_x * left_w, right_x, right_w, right)
