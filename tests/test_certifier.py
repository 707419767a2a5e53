"""Inequality certificates: saturation by extremals, random batteries, reports."""

import json
import math

import numpy as np
import pytest

from tfuncert.certifier import (
    CertificateReport,
    build_lieb_extremals,
    certify_cowling_functional,
    certify_hausdorff_young,
    certify_heisenberg,
    certify_leindler,
    certify_lieb_forward,
    certify_lieb_reverse,
    certify_modulation_bound,
    certify_young,
    default_lattice,
    evaluate_banach_functional,
    run_battery,
    verdict,
    INEQUALITY_IDS,
    _INEQUALITIES,
)
import tfuncert.certifier as certifier
import tfuncert.transforms as transforms
from tfuncert.constants import (
    DomainError,
    babenko_beckner,
    general_dual,
    holder_dual,
    leindler_duals,
    solve_partner_exponent,
)
from tfuncert.norms import default_window, lp_weighted
from tfuncert.sampling import RandomFunctionSpec, make_grid, random_smooth
from tfuncert.transforms import AliasingError

from conftest import gaussian


# ---------------------------------------------------------------------------
# report container


def test_report_properties():
    rep = CertificateReport("heisenberg", {}, 2.0, 1.0, 0.5, 1e-8, {"n": 8})
    assert rep.slack == 1.0
    assert rep.ratio == 2.0
    assert rep.gap == 1.0
    assert rep.passed
    assert json.loads(rep.to_json_line())["inequality"] == "heisenberg"
    fail = CertificateReport("heisenberg", {}, 1.0, 2.0, 0.5, 1e-8, {"n": 8})
    assert not fail.passed
    zero = CertificateReport("heisenberg", {}, 0.0, 0.0, 0.5, 1e-8, {"n": 8})
    assert zero.ratio == 1.0
    with pytest.raises(ValueError):
        CertificateReport("heisenberg", {}, -1.0, 1.0, 0.5, 1e-8, {})
    assert verdict(1.0, 1.0 + 1e-9, 1e-8) and not verdict(1.0, 1.1, 1e-8)


# ---------------------------------------------------------------------------
# pointwise certificates


def test_hausdorff_young_gaussian_saturates(grid512):
    f = gaussian(grid512)
    for r in (1.25, 1.5, 1.75):
        rep = certify_hausdorff_young(f, r)
        assert rep.constant == pytest.approx(babenko_beckner(r))
        assert abs(rep.slack) < 1e-14
        assert rep.passed
    rep = certify_hausdorff_young(random_smooth(RandomFunctionSpec(seed=0), grid512), 1.5)
    assert rep.passed and rep.slack > 0
    with pytest.raises(DomainError):
        certify_hausdorff_young(f, 2.5)


def test_young_gaussian_extremals(grid512):
    m = n = 1.25
    mp, np_ = general_dual(m), general_dual(n)
    base = math.pi / max(abs(mp), abs(np_))
    f, g = gaussian(grid512, abs(mp) * base), gaussian(grid512, abs(np_) * base)
    rep = certify_young(f, g, m, n, 5.0 / 3.0)
    assert abs(rep.slack) < 1e-12 and rep.passed
    with pytest.raises(DomainError):
        certify_young(f, g, 1.25, 1.25, 2.0)  # exponent relation broken
    with pytest.raises(DomainError):
        certify_young(f, g, 0.9, 1.25, 2.0)  # below the Lebesgue range


def test_leindler_gaussian_extremals(grid512):
    m = n = 0.8
    mp, np_ = general_dual(m), general_dual(n)
    base = math.pi / max(abs(mp), abs(np_))
    f, g = gaussian(grid512, abs(mp) * base), gaussian(grid512, abs(np_) * base)
    rep = certify_leindler(f, g, m, n, 2.0 / 3.0, tol=1e-5)
    assert abs(rep.slack) < 1e-8 and rep.passed
    with pytest.raises(DomainError):
        certify_leindler(f, g, 1.25, 0.8, 2.0)  # m must stay at or below 1
    chirped = gaussian(grid512, math.pi, chirp=1.0)
    with pytest.raises(DomainError):
        certify_leindler(chirped, g, 0.8, 0.8, 2.0 / 3.0)  # nonnegativity


def test_lieb_forward_gaussian_saturates(grid512):
    f = gaussian(grid512)
    rep = certify_lieb_forward(f, f, 4.0, 2.0)
    assert abs(rep.slack) < 1e-13 and rep.passed
    rep = certify_lieb_forward(
        random_smooth(RandomFunctionSpec(seed=1), grid512),
        random_smooth(RandomFunctionSpec(seed=2), grid512),
        3.0,
        2.0,
    )
    assert rep.passed and rep.slack > 0
    with pytest.raises(DomainError):
        certify_lieb_forward(f, f, 1.5, 2.0)


def test_lieb_forward_rejects_non_decaying(grid512):
    # the streamed norm keeps the boundary guard of the materialized transform
    flat = random_smooth(RandomFunctionSpec(seed=1), grid512)
    flat = flat.with_values(flat.values + 1e-3)
    with pytest.raises(AliasingError):
        certify_lieb_forward(flat, gaussian(grid512), 4.0, 2.0)
    with pytest.raises(AliasingError):
        certify_lieb_forward(gaussian(grid512), flat, 4.0, 2.0)


def test_lieb_reverse_extremals_both_orders(grid512):
    r = s = 1.5
    u = 2.0
    v = solve_partner_exponent(s, r, u)
    mp, np_ = leindler_duals(u, v, r)
    width = math.pi / math.sqrt(abs(mp) * abs(np_))
    for order in ("x", "omega"):
        f, g = build_lieb_extremals(r, s, u, v, width * np.eye(1), None, grid512, order)
        rep = certify_lieb_reverse(f, g, r, s, u, v, order)
        assert abs(rep.slack) < 1e-12 and rep.passed
    rep = certify_lieb_reverse(
        random_smooth(RandomFunctionSpec(seed=3), grid512),
        random_smooth(RandomFunctionSpec(seed=4), grid512),
        r, s, u, v, "x",
    )
    assert rep.passed and rep.slack > 0


def test_lieb_reverse_chirped_extremals(grid512):
    # both members carry the same chirp; the ambiguity product cancels it
    r, s = 1.25, 1.75
    u = 2.0
    v = solve_partner_exponent(s, r, u)
    mp, np_ = leindler_duals(u, v, r)
    width = math.pi / math.sqrt(abs(mp) * abs(np_))
    f, g = build_lieb_extremals(
        r, s, u, v, width * np.eye(1), 0.4 * np.eye(1), grid512, "omega"
    )
    assert np.sign(np.imag(np.log(f.values[200] / abs(f.values[200])))) == np.sign(
        np.imag(np.log(g.values[200] / abs(g.values[200])))
    )
    rep = certify_lieb_reverse(f, g, r, s, u, v, "omega")
    assert abs(rep.slack) < 1e-10 and rep.passed


def test_build_lieb_extremals_strict_ranges(grid512):
    with pytest.raises(DomainError):
        build_lieb_extremals(1.5, 1.5, 2.0, 2.0, np.eye(1), None, grid512, "bogus")
    with pytest.raises(DomainError):
        build_lieb_extremals(1.5, 1.5, 2.0, 2.0, np.eye(1), None, None, "x")
    # order='omega' needs 1 < s < 2 strictly; u = v = 2.4 satisfies the
    # relation 1/u + 1/v = 1/s + 1/r' at (r, s) = (1.5, 2)
    with pytest.raises(DomainError):
        build_lieb_extremals(1.5, 2.0, 2.4, 2.4, np.eye(1), None, grid512, "omega")
    # u = r' sits on the boundary where the dual degenerates
    v = solve_partner_exponent(1.5, 1.5, 3.0)
    with pytest.raises(DomainError):
        build_lieb_extremals(1.5, 1.5, 3.0, v, np.eye(1), None, grid512, "omega")


def test_heisenberg_certificate(grid512):
    rep = certify_heisenberg(gaussian(grid512))
    assert abs(rep.slack) < 1e-14 and rep.passed
    assert rep.constant == pytest.approx(1.0 / (2.0 * math.pi))
    rep = certify_heisenberg(random_smooth(RandomFunctionSpec(seed=5), grid512))
    assert rep.passed and rep.slack > 0
    with pytest.raises(DomainError):
        certify_heisenberg(gaussian(make_grid(16, 9.0, dim=2)))


def test_modulation_bound_moyal_equality(grid512):
    f = random_smooth(RandomFunctionSpec(seed=6), grid512)
    win = default_window(grid512)
    for side in ("frequency", "time"):
        rep = certify_modulation_bound(f, win, 2.0, 2.0, 2.0, 2.0, side=side)
        assert abs(rep.slack) < 1e-10 and rep.passed
    with pytest.raises(DomainError):
        certify_modulation_bound(f, win, 2.0, 2.0, 2.0, 2.0, side="middle")
    with pytest.raises(DomainError):
        certify_modulation_bound(f, win, 1.5, 1.5, 3.5, 2.0)


def test_cowling_functional_gaussian_equality(grid512):
    f = gaussian(grid512)
    rep = certify_cowling_functional(f, 2.0, 2.0, 1.0, 1.0)
    assert rep.constant == pytest.approx(1.0 / math.sqrt(math.pi))
    assert abs(rep.slack) < 1e-12 and rep.passed
    # the functional itself is the sum of the two moment seminorms
    val = evaluate_banach_functional(f, 2.0, 2.0, 1.0, 1.0)
    norm = lp_weighted(f, 2.0)
    assert val / norm == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)


# ---------------------------------------------------------------------------
# batteries


def test_default_lattices_are_valid():
    for ineq in INEQUALITY_IDS:
        lattice = default_lattice(ineq)
        assert lattice and all(isinstance(point, dict) for point in lattice)
    # the m = n = 2 Young corner targets r = inf without dividing by zero
    young = default_lattice("young")
    assert any(point["r"] == math.inf for point in young)
    with pytest.raises(DomainError):
        default_lattice("bogus")


def test_inequality_table_drives_lattices_and_batteries():
    grid = make_grid(128, 12.0)
    for ineq in INEQUALITY_IDS:
        entry = _INEQUALITIES[ineq]
        lattice = default_lattice(ineq)
        for point in lattice:
            # keyword extras (side, K) aside, a point names exactly the exponents
            assert set(point) - set(entry.keywords) == set(entry.exponents)
        bat = run_battery(ineq, seeds=1, grid=grid)
        assert not bat.errors
        assert len(bat.reports) == len(lattice)
        assert {rep.inequality for rep in bat.reports} == {ineq}


@pytest.mark.parametrize("ineq", INEQUALITY_IDS)
def test_certifiers_refuse_an_identically_zero_input(ineq):
    entry = _INEQUALITIES[ineq]
    point = entry.lattice()[0]
    inputs = entry.extremal(make_grid(128, 10.0), **point)
    for k, h in enumerate(inputs):
        zeroed = (*inputs[:k], h.with_values(np.zeros_like(h.values)), *inputs[k + 1 :])
        # a zero window is refused by the STFT guard, whose error is a ValueError
        error = ValueError if k and entry.second == "window" else DomainError
        with pytest.raises(error, match="identically zero"):
            certifier._certify(ineq, zeroed, point, 1e-8)


def test_run_battery_smoke():
    # extent 12 keeps the seeded inputs clear of the convolution decay guard
    bat = run_battery("young", seeds=3, grid=make_grid(128, 12.0))
    assert bat.all_passed
    assert len(bat.reports) == 3 * len(default_lattice("young"))
    assert bat.worst_slack > -1e-10
    # seeds recorded so any report can be reproduced
    assert {rep.seed for rep in bat.reports} == {0, 1, 2}
    with pytest.raises(DomainError):
        run_battery("bogus")


def test_run_battery_collects_point_errors(grid128):
    bat = run_battery("young", lattice=[{"m": 1.25, "n": 1.25, "r": 2.0}], seeds=2, grid=grid128)
    assert not bat.reports
    assert len(bat.errors) == 2
    assert not bat.all_passed
    assert "young" in bat.errors[0]["error"]
    # a point without every exponent of the id is a per-point domain error too
    bat = run_battery("young", lattice=[{"m": 1.5}], seeds=1, grid=grid128)
    assert not bat.reports
    assert bat.errors == [{"point": {"m": 1.5}, "seed": 0, "error": "young point lacks exponent 'n'"}]


def test_run_battery_builds_each_seed_once(monkeypatch):
    calls = []
    real = certifier.random_smooth

    def counted(spec, grid):
        calls.append(spec.seed)
        if spec.seed == 1:
            raise ValueError("degenerate seed")
        return real(spec, grid)

    monkeypatch.setattr(certifier, "random_smooth", counted)
    lattice = default_lattice("young")
    bat = run_battery("young", lattice, seeds=3, grid=make_grid(128, 12.0))
    assert calls == [0, 500_000, 1, 2, 500_002]
    # a seed whose inputs raise still gives one error per point, in (point, seed) order
    assert bat.errors == [{"point": p, "seed": 1, "error": "degenerate seed"} for p in lattice]
    assert [rep.seed for rep in bat.reports] == [0, 2] * len(lattice)


def test_run_battery_does_not_depend_on_the_stft_worker_count(monkeypatch):
    # on 32^2 every modulation norm has eight chunks, so two workers really
    # run the STFT engine's pool
    grid = make_grid(32, 12.0, dim=2)
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(transforms, "_FFT_WORKERS", workers)
        bat = run_battery("modulation_bound", seeds=2, grid=grid)
        assert not bat.errors
        reports.append([r.to_dict() for r in bat.reports])
    assert reports[0] == reports[1]
