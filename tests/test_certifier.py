"""Inequality certificates: saturation by extremals, random batteries, reports."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from tfuncert.sampling import RandomFunctionSpec, SampledFunction, make_grid, random_smooth
from tfuncert.transforms import AliasingError

from conftest import gaussian, strict_json


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


def test_report_json_lines_are_strict():
    # the young lattice's m = n = 2 corner has r = inf, written as "inf"
    reports = run_battery("young", None, seeds=1).reports
    lines = [strict_json(rep.to_json_line()) for rep in reports]
    assert any(line["exponents"].get("r") == "inf" for line in lines)


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


def _moved(h, k, m, theta):
    """h rolled by k nodes, modulated by the grid frequency m / extent and turned by theta."""
    grid = h.grid
    wave = np.exp(1j * (2.0 * math.pi * m / grid.extent * grid.axis + theta))
    return h.with_values(np.roll(h.values, k) * wave)


_INVARIANT_POINTS = [
    ("lieb_reverse_xw", default_lattice("lieb_reverse_xw")[1]),
    ("lieb_reverse_wx", default_lattice("lieb_reverse_wx")[3]),
    ("modulation_bound", default_lattice("modulation_bound")[2]),
    ("modulation_bound", {**default_lattice("modulation_bound")[2], "side": "time"}),
]


@pytest.fixture(scope="module")
def invariance_inputs():
    """Seeded inputs and their ratios at each of ``_INVARIANT_POINTS``.  On
    128 nodes over [-6, 6) they stay below the 1e-8 boundary guard when rolled
    by up to 8 nodes (over [-5, 5) a roll of 8 reads 7.6e-7)."""
    grid = make_grid(128, 12.0)
    f = random_smooth(RandomFunctionSpec(seed=11), grid)
    g = random_smooth(RandomFunctionSpec(seed=12), grid)
    inputs = {"seeded": (f, g), "window": (f, default_window(grid))}
    ratios = [
        certifier._certify(ineq, inputs[_INEQUALITIES[ineq].second], point, 1e-9).ratio
        for ineq, point in _INVARIANT_POINTS
    ]
    return inputs, ratios


_MOVES = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.floats(0.0, 2.0 * math.pi))


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(move_f=_MOVES, move_g=_MOVES)
def test_ratios_invariant_under_translation_modulation_and_phase(invariance_inputs, move_f, move_g):
    # |V_g f| moves on the phase-space grid when f or g is rolled by whole
    # nodes or modulated by a grid frequency, and a phase drops out of every
    # modulus, so each norm in these ratios is unchanged on the periodic grid
    inputs, ratios = invariance_inputs
    for (ineq, point), ratio in zip(_INVARIANT_POINTS, ratios):
        f, g = inputs[_INEQUALITIES[ineq].second]
        moved = (_moved(f, *move_f), _moved(g, *move_g))
        rep = certifier._certify(ineq, moved, point, 1e-9)
        assert rep.ratio == pytest.approx(ratio, rel=1e-12, abs=0), (ineq, point)


# Resolved on both sides for every dilation below: at lam = 0.6 and r' = 11
# the peak of |Ff|^r' still spans several frequency nodes.  Neither input has
# a zero, so no |.|^p kink limits the rectangle rule.
_DILATION_GRID = make_grid(256, 20.0)


def _dilated(lam):
    """f(lam x) and g(lam x) on ``_DILATION_GRID``."""
    x = lam * _DILATION_GRID.axis
    f = (1.0 + x + 0.5 * x**2) * np.exp(-math.pi * x**2)
    g = (1.0 + 0.4 * x**2) * np.exp(-2.0 * x**2 + 0.3j * x)
    return SampledFunction(_DILATION_GRID, f), SampledFunction(_DILATION_GRID, g)


_DILATIONS = st.floats(0.6, 1.6)


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(lam=_DILATIONS, r=st.floats(1.1, 2.0))
def test_hausdorff_young_is_dilation_invariant(lam, r):
    # ||F f(lam.)||_r' and ||f(lam.)||_r both scale by lam^(-d/r), and the
    # certificate's rhs is their ratio
    (f, _), (fl, _) = _dilated(1.0), _dilated(lam)
    want = certify_hausdorff_young(f, r).rhs
    assert certify_hausdorff_young(fl, r).rhs == pytest.approx(want, rel=1e-12, abs=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(lam=_DILATIONS, m=st.floats(1.1, 1.9), n=st.floats(1.1, 1.9))
def test_young_is_dilation_invariant_on_its_scaling_line(lam, m, n):
    # f(lam.) * g(lam.) = lam^-d (f * g)(lam.), so on 1/m + 1/n = 1 + 1/r the
    # ratio ||f * g||_r / (||f||_m ||g||_n) has dilation exponent 0
    r = 1.0 / (1.0 / m + 1.0 / n - 1.0)
    want = certify_young(*_dilated(1.0), m, n, r).rhs
    assert certify_young(*_dilated(lam), m, n, r).rhs == pytest.approx(want, rel=1e-12, abs=0)


# Gaussians are the equality cases of the sharp constants, so on grids that
# resolve both sides the certificates read ratio 1 to rounding.  Below
# r = 1.2 the rectangle rule under-resolves the peak of |F f|^r' and
# Hausdorff-Young drifts from 1 (by 3.8e-3 at r = 1.01, width pi/2, d = 2).
_SATURATION_GRIDS = {1: make_grid(512, 12.0), 2: make_grid(128, 12.0, dim=2)}


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(r=st.floats(1.2, 2.0), width=st.floats(math.pi / 2, 2 * math.pi), d=st.sampled_from([1, 2]))
def test_every_centered_gaussian_saturates_hausdorff_young(r, width, d):
    f = certifier._centered_gaussian(_SATURATION_GRIDS[d], width)
    assert certify_hausdorff_young(f, r).gap <= 1e-10


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(m=st.floats(1.2, 2.0), n=st.floats(1.2, 2.0))
def test_the_gaussian_convolution_pair_saturates_young(grid512, m, n):
    r = certifier._young_target(m, n)
    assume(r <= 6.0)
    rep = certify_young(*certifier._convolution_pair(grid512, m, n, r), m, n, r)
    assert rep.gap <= 1e-10


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(r=st.floats(2.1, 8.0))
def test_a_gaussian_with_itself_saturates_lieb_forward(grid512, r):
    f = certifier._centered_gaussian(grid512)
    assert certify_lieb_forward(f, f, r, 2.0).gap <= 1e-10


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
