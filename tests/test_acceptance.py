"""Acceptance gate: one test per numbered criterion, each printing a PASS/FAIL
line and asserting the stated tolerance (run with -s to see the lines)."""

import itertools
import json
import math
import time

import numpy as np

from tfuncert.certifier import (
    build_lieb_extremals,
    certify_heisenberg,
    certify_leindler,
    certify_lieb_reverse,
    certify_modulation_bound,
    certify_young,
    run_battery,
    _young_target,
)
from tfuncert.constants import (
    ExponentSet,
    babenko_beckner,
    check_cowling_price,
    check_galperin_grochenig,
    general_dual,
    holder_dual,
    leindler_duals,
    lieb_H,
    sharp_B,
    solve_partner_exponent,
)
from tfuncert.norms import default_window, lp_weighted, modulation_norm, moment_seminorm
from tfuncert.sampling import RandomFunctionSpec, make_grid, random_smooth, scale
from tfuncert.transforms import fourier
from tfuncert.variational import (
    ModulationTerm,
    OmegaMomentTerm,
    XMomentTerm,
    build_forms,
    frechet_directional,
    oscillator_modes,
    smallest_eigen,
)
from tfuncert.norms import AdmissibleTriple

from conftest import gaussian, run_cli


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_oscillator_ground():
    t0 = time.monotonic()
    code, out = run_cli(["spectrum", "--oscillator", "--count", "1"])
    elapsed = time.monotonic() - t0
    rec = json.loads(out.strip())
    lam0 = rec["eigenvalues"][0]
    err = abs(lam0 - 1.0 / (2.0 * math.pi))
    _, modes = oscillator_modes(1024, 16.0, 1)
    grid = modes[0].grid
    target = 2.0 ** 0.25 * np.exp(-math.pi * grid.axis**2)
    dist = math.sqrt(float(np.sum(np.abs(modes[0].values - target) ** 2)) * grid.spacing)
    ok = code == 0 and err <= 1e-4 and dist <= 1e-3 and elapsed <= 10.0
    _verdict(1, "oscillator ground state",
             ok, f"|lam0 - 1/(2pi)| = {err:.3e}, mode L2 dist = {dist:.3e}, {elapsed:.2f}s")


def test_criterion_02_excited_states():
    vals = oscillator_modes(1024, 16.0, 6)[0]
    targets = np.array([(2 * n + 1) / (2 * math.pi) for n in range(6)])
    errs = np.abs(vals - targets)
    hi = oscillator_modes(4096, 16.0, 6)[0]  # independent high-resolution oracle
    hi_errs = np.abs(np.asarray(hi) - targets)
    ok = (
        bool(np.all(errs <= 1e-3))
        and bool(np.all(np.diff(vals) > 0))
        and bool(np.all(hi_errs <= 1e-4))
    )
    _verdict(2, "excited states",
             ok, f"max err {errs.max():.3e}, oracle max err {hi_errs.max():.3e}, increasing")


def test_criterion_03_hilbert_form_cross_check():
    t0 = time.monotonic()
    grid = make_grid(512, 12.0)
    win = default_window(grid)
    win = scale(win, 1.0 / lp_weighted(win, 2.0))
    triple = AdmissibleTriple(grid.axis.astype(complex), grid.freq_axis.astype(complex), 1.0)
    lam_qf = smallest_eigen(build_forms(triple, win, grid), 1)[0].lam
    lam_fd = float(oscillator_modes(512, 12.0, 1)[0][0])
    elapsed = time.monotonic() - t0
    diff = abs(lam_qf - lam_fd)
    ok = diff <= 1e-3 and elapsed <= 60.0
    _verdict(3, "Hilbert-form cross-check", ok, f"|qf - fd| = {diff:.3e}, {elapsed:.2f}s")


def test_criterion_04_heisenberg_battery():
    t0 = time.monotonic()
    bat = run_battery("heisenberg", seeds=100)
    repg = certify_heisenberg(gaussian(make_grid(512, 12.0)))
    elapsed = time.monotonic() - t0
    ok = (
        bat.all_passed
        and len(bat.reports) == 100
        and bat.worst_slack >= -1e-8
        and abs(repg.slack) <= 1e-8
        and elapsed <= 5.0
    )
    _verdict(4, "Heisenberg battery",
             ok, f"worst slack {bat.worst_slack:.3e}, gauss gap {abs(repg.slack):.3e}, {elapsed:.2f}s")


def test_criterion_05_hausdorff_young_saturation():
    grid = make_grid(512, 12.0)
    f = gaussian(grid)
    worst = 0.0
    for r in (1.25, 1.5, 1.75):
        achieved = lp_weighted(fourier(f), holder_dual(r)) / lp_weighted(f, r)
        worst = max(worst, abs(achieved - babenko_beckner(r)))
    bat = run_battery("hausdorff_young", seeds=20)
    ok = worst <= 1e-6 and bat.all_passed
    _verdict(5, "Hausdorff-Young saturation",
             ok, f"worst ratio error {worst:.3e}, battery {len(bat.reports)} clean")


def test_criterion_06_young_leindler_saturation():
    grid = make_grid(512, 12.0)

    def extremals(m, n):
        mp, np_ = general_dual(m), general_dual(n)
        base = math.pi / max(abs(mp), abs(np_))
        return gaussian(grid, abs(mp) * base), gaussian(grid, abs(np_) * base)

    f, g = extremals(1.25, 1.25)
    rep_y = certify_young(f, g, 1.25, 1.25, _young_target(1.25, 1.25), tol=1e-5)
    f, g = extremals(0.8, 0.8)
    rep_l = certify_leindler(f, g, 0.8, 0.8, _young_target(0.8, 0.8), tol=1e-5)
    bat_y = run_battery("young", seeds=100)
    bat_l = run_battery("leindler", seeds=100)
    ok = (
        rep_y.passed and abs(rep_y.slack) <= 1e-5
        and rep_l.passed and abs(rep_l.slack) <= 1e-5
        and bat_y.all_passed and bat_l.all_passed
    )
    _verdict(6, "Young/Leindler saturation",
             ok, f"young gap {abs(rep_y.slack):.3e}, leindler gap {abs(rep_l.slack):.3e}, "
                 f"sweeps {len(bat_y.reports)}+{len(bat_l.reports)} clean")


def test_criterion_07_lieb_reverse():
    grid = make_grid(512, 12.0)
    worst_gap = 0.0
    for (r, s) in ((1.5, 1.5), (1.25, 1.75)):
        u = min(2.0, 0.5 * (1.0 + holder_dual(r)))
        v = solve_partner_exponent(s, r, u)
        mp, np_ = leindler_duals(u, v, r)
        width = math.pi / math.sqrt(abs(mp) * abs(np_))
        for order in ("x", "omega"):
            f, g = build_lieb_extremals(r, s, u, v, width * np.eye(1), None, grid, order)
            rep = certify_lieb_reverse(f, g, r, s, u, v, order, tol=1e-4)
            assert rep.passed
            worst_gap = max(worst_gap, abs(rep.slack))
    # closed-form identity B(r, r, p, p') = H(r, p)^(1/r) across 50 points
    rng = np.random.default_rng(7)
    worst_id = 0.0
    for _ in range(50):
        r = float(rng.uniform(1.05, 1.95))
        p = float(rng.uniform(r, holder_dual(r)))
        worst_id = max(worst_id, abs(sharp_B(r, r, p, holder_dual(p)) - lieb_H(r, p) ** (1.0 / r)))
    # two-dimensional extremal check
    grid2 = make_grid(128, 12.0, dim=2)
    r = s = 1.5
    u = min(2.0, 0.5 * (1.0 + holder_dual(r)))
    v = solve_partner_exponent(s, r, u)
    mp, np_ = leindler_duals(u, v, r)
    width = math.pi / math.sqrt(abs(mp) * abs(np_))
    f2, g2 = build_lieb_extremals(r, s, u, v, width * np.eye(2), None, grid2, "omega")
    rep2 = certify_lieb_reverse(f2, g2, r, s, u, v, "omega", tol=1e-3)
    ok = worst_gap <= 1e-4 and worst_id <= 1e-12 and rep2.passed and abs(rep2.slack) <= 1e-3
    _verdict(7, "reverse mixed-norm bound",
             ok, f"worst extremal gap {worst_gap:.3e}, identity {worst_id:.3e}, "
                 f"d=2 gap {abs(rep2.slack):.3e}")


def test_criterion_08_modulation_bound():
    bat = run_battery("modulation_bound", seeds=20)
    grid = make_grid(512, 12.0)
    f = random_smooth(RandomFunctionSpec(seed=3), grid)
    rep = certify_modulation_bound(f, default_window(grid), 2, 2, 2, 2, side="frequency")
    ok = bat.all_passed and abs(rep.slack) <= 1e-8
    _verdict(8, "modulation-norm bounds",
             ok, f"battery {len(bat.reports)} clean, Moyal gap {abs(rep.slack):.3e}")


def test_criterion_09_condition_checker_equivalence():
    ps = np.linspace(1.05, 6.0, 20)
    qs = np.linspace(1.05, 6.0, 20)
    avals = np.linspace(0.05, 3.0, 10)
    bvals = np.linspace(0.05, 3.0, 10)
    mismatches = 0
    for p, q, a, b in itertools.product(ps, qs, avals, bvals):
        cp = bool(check_cowling_price(float(p), float(q), float(a), float(b)))
        gg = bool(
            check_galperin_grochenig(
                ExponentSet(d=1, p=float(p), q=float(q), a=float(a), b=float(b),
                            r=2, s=2, alpha=0, beta=0)
            )
        )
        mismatches += cp != gg
    ok = mismatches == 0
    _verdict(9, "condition-checker equivalence", ok, f"40000 lattice points, {mismatches} mismatches")


def test_criterion_10_frechet_derivatives():
    grid = make_grid(256, 12.0)
    win = default_window(grid)
    terms = [
        XMomentTerm(2.5, 0.7),
        OmegaMomentTerm(2.2, 0.9),
        ModulationTerm(1.5, 1.8, 0.3, 0.2, win),
    ]

    def value(fn, term):
        if isinstance(term, XMomentTerm):
            return moment_seminorm(fn, term.p, term.a, "x")
        if isinstance(term, OmegaMomentTerm):
            return moment_seminorm(fn, term.q, term.b, "omega")
        return modulation_norm(fn, term.window, term.r, term.s, term.alpha, term.beta)

    step = 1e-4
    worst = 0.0
    for k in range(20):
        f = random_smooth(RandomFunctionSpec(seed=100 + k), grid)
        u = random_smooth(RandomFunctionSpec(seed=200 + k), grid)
        for term in terms:
            exact = frechet_directional(f, u, term)
            plus = value(f.with_values(f.values + step * u.values), term)
            minus = value(f.with_values(f.values - step * u.values), term)
            approx = (plus - minus) / (2.0 * step)
            worst = max(worst, abs(exact - approx) / max(abs(approx), 1e-12))
    ok = worst <= 1e-5
    _verdict(10, "Frechet derivatives", ok, f"worst relative error {worst:.3e} over 60 checks")


def test_criterion_11_banach_minimization():
    t0 = time.monotonic()
    code, out = run_cli(["minimize", "--preset", "heisenberg"])
    elapsed = time.monotonic() - t0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    starts, best = recs[:-1], recs[-1]["best"]
    # derived oracle: functional value of the normalized Gaussian minimizer
    grid = make_grid(256, 12.0)
    win = default_window(grid)
    f = gaussian(grid)
    f = scale(f, 1.0 / modulation_norm(f, win, 2, 2))
    oracle = moment_seminorm(f, 2, 1, "x") + moment_seminorm(f, 2, 1, "omega")
    lams = [rec["lambda"] for rec in starts]
    spread = max(lams) - min(lams)
    worst_vs_oracle = max(abs(lam - oracle) for lam in lams)
    ok = (
        code == 0
        and len(starts) == 5
        and all(rec["converged"] for rec in starts)
        and all(rec["el_residual"] <= 1e-4 for rec in starts)
        and spread <= 1e-3
        and worst_vs_oracle <= 1e-3
        and best["converged"]
        and elapsed <= 120.0
    )
    _verdict(11, "Banach minimization",
             ok, f"spread {spread:.3e}, vs oracle {worst_vs_oracle:.3e}, "
                 f"residuals <= {max(rec['el_residual'] for rec in starts):.2e}, {elapsed:.1f}s")
