"""Closed-form constants, exponent algebra, and admissibility conditions."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from tfuncert.constants import (
    DomainError,
    ExponentSet,
    as_exponent,
    babenko_beckner,
    check_cowling_price,
    check_galperin_grochenig,
    check_lieb_domain,
    general_dual,
    holder_dual,
    leindler_duals,
    lieb_H,
    sharp_B,
    solve_partner_exponent,
)


# ---------------------------------------------------------------------------
# duals


def test_holder_dual_values():
    assert holder_dual(2.0) == 2.0
    assert holder_dual(1.0) == math.inf
    assert holder_dual(math.inf) == 1.0
    assert holder_dual(4.0 / 3.0) == pytest.approx(4.0)
    for p in (1.0, 1.3, 2.0, 5.0, math.inf):
        assert holder_dual(holder_dual(p)) == pytest.approx(p)
    with pytest.raises(DomainError):
        holder_dual(0.9)


def test_general_dual_extends_below_one():
    assert general_dual(0.8) == pytest.approx(-4.0)
    assert general_dual(0.5) == pytest.approx(-1.0)
    assert general_dual(2.0) == 2.0
    assert general_dual(1.0) == math.inf
    assert general_dual(math.inf) == 1.0
    with pytest.raises(DomainError):
        general_dual(0.0)


def test_as_exponent_parses_inf_and_rejects_garbage():
    assert as_exponent("inf") == math.inf
    assert as_exponent("2.5") == 2.5
    assert as_exponent(3) == 3.0
    with pytest.raises(DomainError):
        as_exponent("spam")
    with pytest.raises(DomainError):
        as_exponent(float("nan"))
    # a JSON boolean is not a number, although float(True) is 1.0
    for flag in (True, False):
        with pytest.raises(DomainError, match=f"p must be a number, got {flag}"):
            as_exponent(flag, "p")
    # zero denominators and values beyond the float range once escaped as
    # ZeroDivisionError and OverflowError
    for text in ("1/0", "0/0", " -3/0 "):
        with pytest.raises(DomainError, match="cannot parse p"):
            as_exponent(text, "p")
    for value in ("1e999", "-1e999", Fraction(10**400, 3), 10**400):
        with pytest.raises(DomainError, match="p is too large for a float"):
            as_exponent(value, "p")
    assert as_exponent(Fraction(10**400, 10**399)) == 10.0


# ---------------------------------------------------------------------------
# sharp constants


def test_babenko_beckner_closed_values():
    assert babenko_beckner(1.0) == 1.0
    assert babenko_beckner(2.0) == 1.0
    assert babenko_beckner(math.inf) == 1.0
    # C_p = (p^(1/p) / |p'|^(1/p'))^(1/2); at p = 4/3 the dual is 4
    expected = math.sqrt((4.0 / 3.0) ** 0.75 / 4.0**0.25)
    assert babenko_beckner(4.0 / 3.0) == pytest.approx(expected, rel=1e-15)
    assert babenko_beckner(4.0 / 3.0) == pytest.approx(0.9366870743752481, rel=1e-15)
    # below 1 the dual is negative and enters through its magnitude
    assert babenko_beckner(0.8) == pytest.approx(math.sqrt(0.8 ** (1 / 0.8) / 4.0 ** (-0.25)))
    with pytest.raises(DomainError):
        babenko_beckner(-1.0)


def test_babenko_beckner_peaks_at_extremes():
    # C_p < 1 strictly inside (1, 2); above 1 again just below p = 1
    for p in (1.1, 1.5, 1.9):
        assert babenko_beckner(p) < 1.0
    for p in (0.8, 0.85, 0.95):
        assert babenko_beckner(p) > 1.0


def test_babenko_beckner_below_the_overflow_threshold():
    # |p'|^(1/p') overflows for p below 0.0069436686854468; C_p is then taken
    # in log space.  Just below the threshold it is a subnormal, not 0.0
    # (2.8163248841108405e-310 to 17 digits, from a 60-digit evaluation)
    assert babenko_beckner(0.0069436686) == pytest.approx(2.8163248841108405e-310, rel=1e-12, abs=0.0)
    # the values on both sides of the overflow agree
    below, above = 0.006943668685446811, 0.006943668685446812
    assert babenko_beckner(below) == pytest.approx(babenko_beckner(above), rel=1e-9, abs=0.0)
    assert babenko_beckner(1e-300) == 0.0


def test_babenko_beckner_with_a_subnormal_quotient():
    # at p = s/r' of B(1.01, 1.2, ...) the quotient p^(1/p) / |p'|^(1/p') is
    # about 2e-322, a subnormal with three digits, while C_p = 1.3989e-161 is
    # a normal float; the square root of the subnormal read 1.4058e-161
    p = 1.2 / holder_dual(1.01)
    assert p == 0.01188118811881189
    with localcontext() as ctx:
        ctx.prec = 50
        assert babenko_beckner(p) == pytest.approx(float(_decimal_C(Decimal(p))), rel=1e-13, abs=0.0)
    # the direct and the log-space evaluation meet where the quotient leaves the normal range
    below, above = 0.012319096933166023, 0.012319096933166025
    assert babenko_beckner(below) == pytest.approx(babenko_beckner(above), rel=1e-12, abs=0.0)
    # the 0.5 % error, raised to d/r', moved B by 1.5e-4
    v = solve_partner_exponent(1.2, 1.01, 50.0)
    assert sharp_B(1.01, 1.2, 50.0, v, d=3) == pytest.approx(_decimal_sharp_B(1.01, 1.2, 50.0, v, 3), rel=1e-10)
    assert sharp_B(1.01, 1.2, 50.0, v, d=3) == pytest.approx(1.217259, abs=5e-7)


def test_lieb_H_values():
    assert lieb_H(3.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    for r in (2.5, 3.0, 4.0, 6.0):
        assert lieb_H(r, 2.0) == pytest.approx(2.0 / r, rel=1e-14)
    assert lieb_H(4.0, 4.0 / 3.0) == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)
    # symmetric in p <-> p'
    assert lieb_H(4.0, 4.0) == pytest.approx(lieb_H(4.0, 4.0 / 3.0), rel=1e-12)
    assert lieb_H(1.5, 1.8) == pytest.approx(lieb_H(1.5, holder_dual(1.8)), rel=1e-12)


def _decimal_C(p):
    """C_p = (p^(1/p) / |p'|^(1/p'))^(1/2) in the current decimal context."""
    if p == 1:
        return Decimal(1)
    q = p / (p - 1)
    return (p ** (1 / p) / abs(q) ** (1 / q)).sqrt()


def _decimal_lieb_H(r, p):
    """H(r, p) in decimal arithmetic, 50 digits beyond the scale of 1/r.

    The defining product's powers leave the decimal exponent range once r is
    about 2e5, so it is taken as sqrt(p p')/r prod |1 - c/r|^e, which is
    equal by 1/p + 1/p' = 1 (the exponents e sum to 0); 1 - c/r needs the
    extra digits to keep its O(1/r) part, which e ~ r multiplies.
    """
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, int(math.log10(r)))
        r, p = Decimal(r), Decimal(p)
        pp = p / (p - 1)
        log = sum(
            expo * abs(1 - c / r).ln()
            for c, expo in ((2, 2 - r), (p, r / p - 1), (pp, r / pp - 1))
            if expo != 0
        )
        return float((p * pp).sqrt() / r * (log / 2).exp())


def _decimal_sharp_B(r, s, u, v, d=1):
    """B(r, s, u, v) in d dimensions, in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        r, s, u, v = (Decimal(t) for t in (r, s, u, v))
        rp = r / (r - 1)
        bracket = _decimal_C(u / rp) * _decimal_C(v / rp) / _decimal_C(s / rp)
        return float(_decimal_C(rp) ** d * bracket ** (d / rp))


@pytest.mark.parametrize(
    "r, p",
    [(150.0, 1.5), (230.0, 1.8), (4.0, 4.0 / 3.0), (1.5, 1.8)]
    + [(r, p) for r in (200.0, 210.0, 400.0, 1e3, 1e6, 1e300) for p in (1.01, 1.5, 1.99)],
)
def test_lieb_H_for_large_r_matches_a_50_digit_evaluation(r, p):
    # for large r a power of the defining product over- or underflows on its
    # own: H(200, 1.5) read 0.0 instead of 0.010613, and H(210, 1.5) and
    # H(1e300, 1.5) were refused as overflows
    assert lieb_H(r, p) == pytest.approx(_decimal_lieb_H(r, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.01, 1.5, 1.99])
def test_lieb_H_tends_to_its_large_r_limit(p):
    # H = sqrt(p p')/r (1 + O(1/r)): the exponents' r-parts cancel exactly
    pp = holder_dual(p)
    for r in (1e3, 1e6, 1e9, 1e300, 1e308):
        assert abs(r * lieb_H(r, p) / math.sqrt(p * pp) - 1.0) <= (p + pp + 4.0) / r + 1e-15


@pytest.mark.parametrize("r, s, u", [(1.01, 1.0, 1.0), (1.005, 1.2, 1.5), (1.5, 1.5, 2.0)])
def test_sharp_B_near_r_one_matches_a_50_digit_evaluation(r, s, u):
    # C_{s/r'} underflows to 0.0 once r' is near 100: B(1.01, 1, 1, 101)
    # ended in a ZeroDivisionError although B = 1.0181 there
    v = solve_partner_exponent(s, r, u)
    for d in (1, 2):
        assert sharp_B(r, s, u, v, d=d) == pytest.approx(_decimal_sharp_B(r, s, u, v, d), rel=1e-10)
    assert sharp_B(1.01, 1.0, 1.0, 101.0) == pytest.approx(1.0181, abs=5e-5)


def test_lieb_H_domain():
    with pytest.raises(DomainError):
        lieb_H(2.0, 2.0)  # stated away from r = 2
    with pytest.raises(DomainError):
        lieb_H(4.0, 1.2)  # p below r'
    with pytest.raises(DomainError):
        lieb_H(1.5, 4.0)  # p above r'
    # one-ulp dual round trips at the boundary must not be rejected
    assert lieb_H(4.0, holder_dual(holder_dual(4.0 / 3.0))) > 0.0


def test_sharp_B_reduces_to_lieb_H():
    # at s = r, u = p, v = p' the mixed-norm constant is H(r, p)^(1/r)
    for r, p in ((1.5, 2.0), (1.5, 1.8), (1.25, 2.0), (1.75, 2.1)):
        B = sharp_B(r, r, p, holder_dual(p))
        assert B == pytest.approx(lieb_H(r, p) ** (1.0 / r), rel=1e-13)


def test_sharp_B_dimension_power():
    b1 = sharp_B(1.5, 1.5, 2.0, 2.0, d=1)
    b2 = sharp_B(1.5, 1.5, 2.0, 2.0, d=2)
    assert b2 == pytest.approx(b1**2, rel=1e-13)


@pytest.mark.parametrize("point", [(1.5, 1.5, 2.0, 2.0), (1.0, 1.5, 3.0, 3.0)])
@pytest.mark.parametrize("d", [0, -1])
def test_sharp_B_rejects_a_dimension_below_one(point, d):
    # admissible exponents in d < 1: without the check B^d read 1.0 and 1/B
    sharp_B(*point)
    with pytest.raises(DomainError, match="dimension"):
        sharp_B(*point, d=d)


def test_sharp_B_r_equals_one():
    # r = 1 collapses every Babenko-Beckner factor: 1/u + 1/v = 1/s with r' = inf
    assert sharp_B(1.0, 1.5, 3.0, 3.0) == 1.0


def test_sharp_B_rejects_bad_domain():
    with pytest.raises(DomainError):
        sharp_B(1.5, 1.5, 3.5, 2.0)  # u beyond r' = 3
    with pytest.raises(DomainError):
        sharp_B(2.5, 1.5, 2.0, 2.0)  # r outside [1, 2]


# ---------------------------------------------------------------------------
# exponent relations


def test_leindler_duals_match_general_dual_of_ratio():
    # (m', n') are the signed duals of m = u/r', n = v/r'
    for u, v, r in ((2.0, 2.0, 1.5), (2.0, 70.0 / 19.0, 1.25), (1.2, 1.1, 1.75)):
        mp, np_ = leindler_duals(u, v, r)
        rp = holder_dual(r)
        assert mp == pytest.approx(general_dual(u / rp), rel=1e-12)
        assert np_ == pytest.approx(general_dual(v / rp), rel=1e-12)


def test_leindler_duals_infinite_at_u_equals_rp():
    mp, np_ = leindler_duals(3.0, 2.0, 1.5)
    assert mp == math.inf
    assert np_ == pytest.approx(-2.0)
    with pytest.raises(DomainError):
        leindler_duals(3.5, 2.0, 1.5)
    with pytest.raises(DomainError):
        leindler_duals(2.0, 2.0, 2.5)


def test_solve_partner_exponent_relation():
    for s, r, u in ((1.5, 1.5, 2.0), (1.75, 1.25, 2.0), (1.2, 1.9, 1.5)):
        v = solve_partner_exponent(s, r, u)
        rp = holder_dual(r)
        assert 1.0 / u + 1.0 / v == pytest.approx(1.0 / s + 1.0 / rp, abs=1e-12)
        assert check_lieb_domain(r, s, u, v)
    assert solve_partner_exponent(1.5, 1.5, 2.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        solve_partner_exponent(2.0, 2.0, 0.4)  # 1/s + 1/r' - 1/u <= 0


def test_check_lieb_domain():
    assert check_lieb_domain(1.5, 1.5, 2.0, 2.0)
    assert not check_lieb_domain(1.5, 1.5, 2.0, 2.1)  # relation broken
    assert not check_lieb_domain(2.5, 1.5, 2.0, 2.0)  # r out of range
    assert not check_lieb_domain(1.5, 1.5, 3.2, 2.0)  # u beyond r'
    # boundary u = r' admitted up to the relation tolerance
    v = solve_partner_exponent(1.5, 1.5, 3.0)
    assert check_lieb_domain(1.5, 1.5, 3.0, v)


# ---------------------------------------------------------------------------
# admissibility witnesses


def test_check_cowling_price_witness():
    w = check_cowling_price(2.0, 2.0, 1.0, 1.0)
    assert bool(w)
    assert w.margin_x == pytest.approx(1.0)
    assert w.margin_omega == pytest.approx(1.0)
    # a exactly at the threshold 1/2 - 1/p fails the strict inequality
    w = check_cowling_price(math.inf, 2.0, 0.5, 1.0)
    assert not bool(w)
    assert w.margin_x == pytest.approx(0.0)
    with pytest.raises(DomainError):
        check_cowling_price(0.5, 2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        check_cowling_price(2.0, 2.0, -1.0, 1.0)


def test_check_galperin_grochenig_witness():
    e = ExponentSet(d=1, p=2, q=2, a=1, b=1, r=2, s=2, alpha=0, beta=0)
    w = check_galperin_grochenig(e)
    assert bool(w)
    assert w.left_factor_x == pytest.approx(1.0)
    assert w.left_product > w.right_product
    # dropping the moment order below the admissible region flips the verdict
    e_bad = ExponentSet(d=1, p=2, q=2, a=0.01, b=0.01, r=1.5, s=1.5)
    w_bad = check_galperin_grochenig(e_bad)
    assert not bool(w_bad)
    assert w_bad.left_factor_x < 0.0
    with pytest.raises(DomainError):
        check_galperin_grochenig(ExponentSet(d=1, p=2, q=2, a=1, b=1))  # r, s missing
    with pytest.raises(DomainError):
        check_galperin_grochenig(
            ExponentSet(d=1, p=2, q=2, a=1, b=1, r=2.5, s=2)
        )


def test_exponent_set_round_trip():
    e = ExponentSet(d=2, p=2.5, q="inf", a=1.0, b=0.5, r=1.5, s=2.0)
    assert e.q == math.inf
    data = e.to_dict()
    assert "u" not in data
    assert ExponentSet.from_dict(data) == e
    with pytest.raises(DomainError):
        ExponentSet.from_dict({"p": 2.0, "bogus": 1.0})
    with pytest.raises(DomainError):
        ExponentSet(d=3)
