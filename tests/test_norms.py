"""Weighted, mixed, and modulation norms against quadrature and closed forms."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from tfuncert import norms, transforms
from tfuncert.norms import (
    AdmissibleTriple,
    BracketWeight,
    MixedOrder,
    TabulatedWeight,
    default_window,
    lp_weighted,
    mixed_norm,
    modulation_norm,
    modulation_norm_m,
    moment_seminorm,
    psi_phi_norm,
    stft_mixed_norm,
)
from tfuncert.sampling import (
    GaussianSpec,
    RandomFunctionSpec,
    SampledFunction,
    make_grid,
    random_smooth,
    sample_gaussian,
)
from tfuncert.transforms import AliasingError, stft

from conftest import gaussian, lieb_extremals, rotated_gaussian


# ---------------------------------------------------------------------------
# function-side norms


def test_lp_gaussian_closed_form(grid512):
    # || e^(-pi x^2) ||_p = p^(-1/(2p))
    f = gaussian(grid512, math.pi)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert lp_weighted(f, p) == pytest.approx(p ** (-0.5 / p), rel=1e-13)
    assert lp_weighted(f, math.inf) == pytest.approx(1.0)


def test_lp_weighted_against_quadrature_oracle(grid512):
    # independent continuous quadrature; the |x| kink in the weight limits the
    # node sum to second order, so check the value and the convergence rate
    p, a, width = 1.7, 1.3, 2.0
    oracle = integrate.quad(
        lambda x: (math.exp(-width * x * x) * (1.0 + abs(x)) ** a) ** p, -6, 6
    )[0] ** (1.0 / p)
    coarse = abs(lp_weighted(gaussian(grid512, width), p, a) - oracle)
    fine = abs(lp_weighted(gaussian(make_grid(4096, 12.0), width), p, a) - oracle)
    assert coarse <= 3e-4 * oracle
    assert fine <= coarse / 16.0


def test_lp_power_sums_stay_in_range():
    # 50^200 overflows and (1e-3)^120 underflows, so these two totals are
    # taken again scaled by the peak, with no warning; a total in range keeps
    # the direct sum's bits
    grid = make_grid(256, 12.0)
    for amp, p in ((50.0, 200.0), (1e-3, 120.0)):
        mags = np.abs(gaussian(grid, math.pi, log_amp=math.log(amp)).values)
        peak = mags.max()
        scaled = peak * (np.sum((mags / peak) ** p) * grid.cell) ** (1.0 / p)
        got = lp_weighted(SampledFunction(grid, mags), p)
        assert got == pytest.approx(scaled, rel=1e-12, abs=0)
        # the continuous norm amp p^(-1/(2p)); 256 nodes resolve |.|^200 to 1e-5
        assert got == pytest.approx(amp * p ** (-0.5 / p), rel=1e-5)
    mags = np.abs(gaussian(grid, math.pi, log_amp=math.log(50.0)).values)
    assert lp_weighted(SampledFunction(grid, mags), 150.0) == (
        np.sum(mags**150.0) * grid.cell
    ) ** (1.0 / 150.0)


def test_lp_weighted_2d():
    grid = make_grid(64, 10.0, dim=2)
    f = gaussian(grid, math.pi)
    # separable squared Gaussian: each axis contributes p^(-1/(2p))
    assert lp_weighted(f, 2.0) == pytest.approx(2.0 ** (-0.5), rel=1e-12)


def test_moment_seminorm_sides(grid512):
    f = gaussian(grid512, math.pi)
    oracle = (2.0 * integrate.quad(lambda x: x * x * math.exp(-2 * math.pi * x * x), 0, 6)[0]) ** 0.5
    assert moment_seminorm(f, 2.0, 1.0, "x") == pytest.approx(oracle, rel=1e-12)
    # e^(-pi x^2) is invariant under the transform, so both sides agree
    assert moment_seminorm(f, 2.0, 1.0, "omega") == pytest.approx(
        moment_seminorm(f, 2.0, 1.0, "x"), rel=1e-12
    )
    with pytest.raises(ValueError):
        moment_seminorm(f, 2.0, -1.0)
    with pytest.raises(ValueError):
        moment_seminorm(f, 2.0, 1.0, "phase")


# ---------------------------------------------------------------------------
# weights


def test_weight_profiles(grid128):
    w = BracketWeight(1.5, 0.5)
    np.testing.assert_allclose(w.x_profile(grid128), (1 + grid128.radii()) ** 1.5)
    np.testing.assert_allclose(w.omega_profile(grid128), (1 + grid128.freq_radii()) ** 0.5)
    with pytest.raises(ValueError):
        BracketWeight(-0.1, 0.0)
    # an infinite exponent once made the profiles inf and the norm nan
    for alpha, beta in ((math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            BracketWeight(alpha, beta)
    g = default_window(grid128)
    with pytest.raises(ValueError, match="finite"):
        modulation_norm(g, g, 2, 2, alpha=math.inf)
    with pytest.raises(ValueError):
        TabulatedWeight(np.full((4, 4), -1.0))


def test_admissible_triple_validation(grid128):
    x = grid128.axis.astype(complex)
    w = grid128.freq_axis.astype(complex)
    AdmissibleTriple(x, w, 1.0)
    # psi and phi both vanish at the center node, so m0 = 0 leaves m zero there
    with pytest.raises(ValueError):
        AdmissibleTriple(x, w, 0.0)
    with pytest.raises(ValueError):
        AdmissibleTriple(x, w[:-1], 1.0)
    with pytest.raises(ValueError):
        AdmissibleTriple(x, w, np.ones(grid128.size))  # m0 tabulation must be square
    # a tabulated m0 may vanish only where psi or phi does not
    center = grid128.n // 2
    m0 = np.ones((grid128.size, grid128.size))
    m0[center, center] = 0.0
    with pytest.raises(ValueError, match="not admissible"):
        AdmissibleTriple(x, w, m0)
    m0 = np.ones((grid128.size, grid128.size))
    m0[0] = 0.0  # x_0 = -extent/2, so psi = x is nonzero on this row
    AdmissibleTriple(x, w, m0)
    # m = sqrt(m0^2 + |psi|^2 + |phi|^2) must stay finite when squared,
    # which a finite m0, psi and phi alone do not ensure
    m0[3, 5] = 1e155
    with pytest.raises(ValueError, match="composite weight"):
        AdmissibleTriple(x, w, m0)
    for psi, phi, const in ((x, w, 1e200), (x * 1e200, w, 1.0), (x, w * 1e154, 1e154)):
        with pytest.raises(ValueError, match="composite weight"):
            AdmissibleTriple(psi, phi, const)
    AdmissibleTriple(x, w, 1e150)


def test_admissible_triple_keeps_constant_m0_untabulated():
    # a scalar m0 stays 0-d: the triple holds psi, phi and O(size) temporaries,
    # not the size^2 tables (8 MiB each on 32^2) it once built
    grid = make_grid(32, 8.0, dim=2)
    psi, phi = grid.radii().astype(complex), grid.freq_radii().astype(complex)
    tracemalloc.start()
    try:
        triple = AdmissibleTriple(psi, phi, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triple.m0.ndim == 0
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# mixed norms


def test_mixed_norm_orders_and_inf(grid128):
    f = random_smooth(RandomFunctionSpec(seed=1), grid128)
    g = default_window(grid128)
    V = stft(f, g)
    mags = np.abs(V.values)
    # brute-force iterated sums as the oracle
    r, s = 1.5, 2.5
    inner = (np.sum(mags**r, axis=0) * grid128.cell) ** (1 / r)
    expected = (np.sum(inner**s) * grid128.freq_cell) ** (1 / s)
    assert mixed_norm(V, MixedOrder(r, s, "x")) == pytest.approx(expected, rel=1e-13)
    inner = (np.sum(mags**r, axis=1) * grid128.freq_cell) ** (1 / r)
    expected = (np.sum(inner**s) * grid128.cell) ** (1 / s)
    assert mixed_norm(V, MixedOrder(r, s, "omega")) == pytest.approx(expected, rel=1e-13)
    assert mixed_norm(V, MixedOrder(math.inf, math.inf, "x")) == pytest.approx(mags.max())
    with pytest.raises(ValueError):
        MixedOrder(1.5, 2.0, "t")


_ALL_ORDERS = (
    MixedOrder(1.5, 2.5, "x"),
    MixedOrder(2.5, 1.5, "omega"),
    MixedOrder(math.inf, 2.0, "x"),
    MixedOrder(2.0, math.inf, "omega"),
)


def test_streaming_matches_dense(grid128):
    f = random_smooth(RandomFunctionSpec(seed=2), grid128)
    g = default_window(grid128)
    V = stft(f, g)
    weight = BracketWeight(0.7, 1.1)
    for order in _ALL_ORDERS:
        dense = mixed_norm(V, order, weight)
        streamed = stft_mixed_norm(f, g, order, weight, chunk=29)
        assert streamed == pytest.approx(dense, rel=1e-12)
    # d = 2, with chunks that straddle rows of the first node axis; the
    # Gaussian window takes the factored route, the rotated one the general
    grid2 = make_grid(16, 9.0, dim=2)
    f2 = random_smooth(RandomFunctionSpec(seed=2, envelope_sigma=1.2), grid2)
    for g2 in (default_window(grid2), rotated_gaussian(grid2)):
        V2 = stft(f2, g2)
        for order in (MixedOrder(1.5, 2.5, "x"), MixedOrder(2.5, 1.5, "omega")):
            dense = mixed_norm(V2, order, weight)
            streamed = stft_mixed_norm(f2, g2, order, weight, chunk=37)
            assert streamed == pytest.approx(dense, rel=1e-12)
    tab = TabulatedWeight(np.outer(weight.x_profile(grid128), weight.omega_profile(grid128)))
    for order in (MixedOrder(1.5, 2.5, "x"), MixedOrder(2.5, 1.5, "omega")):
        dense = mixed_norm(V, order, tab)
        streamed = stft_mixed_norm(f, g, order, tab, chunk=29)
        assert streamed == pytest.approx(dense, rel=1e-12)
    # real f and g stream half-spectrum rows: the Lieb extremals and the real
    # part of an enveloped random function, against the dense full field; in
    # d = 2 also with the rotated window, on the general route
    for grid, chunk in ((grid128, 29), (grid2, 37)):
        real = random_smooth(RandomFunctionSpec(seed=2, envelope_sigma=1.2), grid)
        real = real.with_values(real.values.real)
        pairs = [lieb_extremals(grid), (real, default_window(grid))]
        if grid.dim == 2:
            pairs.append((real, rotated_gaussian(grid)))
        for f, g in pairs:
            V = stft(f, g)
            for order in _ALL_ORDERS:
                for w in (BracketWeight(), weight):
                    dense = mixed_norm(V, order, w)
                    streamed = stft_mixed_norm(f, g, order, w, chunk=chunk)
                    assert streamed == pytest.approx(dense, rel=1e-12)


def test_real_inputs_stream_half_rows(monkeypatch, grid128):
    # stft_mixed_norm asks for half rows exactly when f and g are real and
    # the weight is a bracket weight
    routes = []
    rows = transforms.stft_row_chunks

    def spy(f, g, chunk=None, *, half=False, **kwargs):
        routes.append(half)
        return rows(f, g, chunk, half=half, **kwargs)

    monkeypatch.setattr(norms, "stft_row_chunks", spy)
    f = random_smooth(RandomFunctionSpec(seed=4), grid128)
    real, g = f.with_values(f.values.real), default_window(grid128)
    tab = TabulatedWeight(np.ones((grid128.size, grid128.size)))
    order = MixedOrder(1.5, 2.5, "x")
    for args, half in (
        ((real, g, order), True),
        ((real, g, order, BracketWeight(0.5, 0.5)), True),
        ((real, g, order, tab), False),
        ((f, g, order), False),
        ((real, g.with_values(g.values * 1j), order), False),
    ):
        stft_mixed_norm(*args)
        assert routes.pop() is half


def _even_pairs(grid):
    """Real (f, g) pairs, each bit-equal to its mirror x -> -x: the Lieb
    extremals, a Gaussian with the default window and, summed with its
    mirror, the real part of a random function; in d = 2 also with the
    rotated window summed with its mirror (the general route)."""
    mirror = transforms._node_mirror(grid)
    h = random_smooth(RandomFunctionSpec(seed=6, envelope_sigma=1.2), grid).values.real
    even = SampledFunction(grid, h + h[mirror])
    pairs = [lieb_extremals(grid), (gaussian(grid, 2.0), default_window(grid))]
    pairs.append((even, default_window(grid)))
    if grid.dim == 2:
        w = rotated_gaussian(grid).values
        pairs.append((even, SampledFunction(grid, w + w[mirror])))
    for f, g in pairs:
        assert not np.any(f.values.imag) and not np.any(g.values.imag)
        assert all(transforms._mirror_even(h.reshaped(), range(grid.dim)) for h in (f, g))
    return pairs


def _gaussian_mixed_norm(A, B, order):
    """The mixed norm of V_g f for f = exp(-pi x.Ax) and g = exp(-pi x.Bx).

    With C = A + B and P = B C^-1 A, |V_g f(x, w)| = det(C)^(-1/2)
    exp(-pi [x.Px + w.C^-1 w]) separates, so each norm is a Gaussian
    integral: ||exp(-pi y.Qy)||_p = (p^(-d/2) det(Q)^(-1/2))^(1/p), and 1
    at p = inf."""
    C = A + B
    quads = {"x": B @ np.linalg.solve(C, A), "omega": np.linalg.inv(C)}
    outer = "omega" if order.inner == "x" else "x"

    def gaussian_norm(p, Q):
        if p == math.inf:
            return 1.0
        return (p ** (-len(Q) / 2) / math.sqrt(np.linalg.det(Q))) ** (1 / p)

    inner = gaussian_norm(order.r, quads[order.inner])
    return inner * gaussian_norm(order.s, quads[outer]) / math.sqrt(np.linalg.det(C))


def _spd(dim, low, high, angle):
    """diag(low, high) rotated by ``angle`` in d = 2 (not a tensor product), low in d = 1."""
    if dim == 1:
        return np.array([[low]])
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, -s], [s, c]])
    return turn @ np.diag([low, high]) @ turn.T


_GAUSS_EXPONENTS = st.one_of(st.floats(1.0, 4.0), st.just(math.inf))
# 256 nodes with L = 12, and 64^2 with L = 7.25: eigenvalues in [1, 1.4]
# keep both the x tails (P >= 1/2) and the w tails (C <= 2.8) below 1e-10
_GAUSS_GRIDS = {1: make_grid(256, 12.0), 2: make_grid(64, 7.25, dim=2)}


@pytest.mark.parametrize("dim", [1, 2])
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(
    eig=st.tuples(*[st.floats(1.0, 1.15), st.floats(1.25, 1.4)] * 2),
    angles=st.tuples(st.floats(0.3, 1.2), st.floats(0.3, 1.2)),
    r=_GAUSS_EXPONENTS,
    s=_GAUSS_EXPONENTS,
)
def test_gaussian_streamed_norms_match_the_closed_form(dim, eig, angles, r, s):
    # an outside value for the reducer at any (r, s) and both orders; in
    # d = 2 neither Gaussian is a tensor product, so the window takes the
    # general route
    grid = _GAUSS_GRIDS[dim]
    A, B = _spd(dim, *eig[:2], angles[0]), _spd(dim, *eig[2:], angles[1])
    f, g = (sample_gaussian(GaussianSpec(math.pi * Q), grid) for Q in (A, B))
    if dim == 2:
        assert transforms._tensor_factors(np.conj(g.reshaped())) is None
    for inner in ("x", "omega"):
        order = MixedOrder(r, s, inner)
        want = _gaussian_mixed_norm(A, B, order)
        assert stft_mixed_norm(f, g, order) == pytest.approx(want, rel=1e-9, abs=0)


@pytest.mark.parametrize("n, extent, dim", [(512, 12.0, 1), (32, 9.0, 2)])
def test_even_real_inputs_match_the_dense_norm(n, extent, dim):
    # the mirror route streams only the x rows whose first index is at most
    # n/2 and counts the others through their mirrors
    grid = make_grid(n, extent, dim=dim)
    exps = (1.5, 2.0, math.inf)
    for f, g in _even_pairs(grid):
        V = stft(f, g)
        for r, s, inner in itertools.product(exps, exps, ("x", "omega")):
            for weight in (BracketWeight(), BracketWeight(0.7, 1.1)):
                order = MixedOrder(r, s, inner)
                dense = mixed_norm(V, order, weight)
                for chunk in (None, 37):
                    streamed = stft_mixed_norm(f, g, order, weight, chunk)
                    assert streamed == pytest.approx(dense, rel=1e-13, abs=0)


def _filled_rows(monkeypatch) -> list:
    """Rows the engine fills, one entry per stft_mixed_norm call after each reset."""
    filled = []
    engine_rows = transforms._engine_rows

    def spy(*args, **kwargs):
        fill = engine_rows(*args, **kwargs)

        def counted(start, stop, out):
            filled.append(stop - start)
            fill(start, stop, out)

        return counted

    monkeypatch.setattr(transforms, "_engine_rows", spy)
    return filled


@pytest.mark.parametrize("n, extent, dim", [(512, 12.0, 1), (32, 9.0, 2)])
def test_only_even_real_inputs_stream_mirror_rows(monkeypatch, n, extent, dim):
    # (n/2 + 1) n^(d-1) rows for real even f and g with a bracket weight;
    # every row for a complex even input, a real input one node off even,
    # and a tabulated weight
    grid = make_grid(n, extent, dim=dim)
    filled = _filled_rows(monkeypatch)
    kept = (n // 2 + 1) * n ** (dim - 1)
    order = MixedOrder(1.5, 2.0, "x")
    f, g = lieb_extremals(grid)
    nudged = f.values.copy()
    nudged[1] = np.nextafter(nudged[1].real, 1.0)  # flat node 1 mirrors to node n - 1
    tab = TabulatedWeight(np.ones((grid.size, grid.size)))
    for args, rows in (
        ((f, g, order), kept),
        ((f, g, MixedOrder(2.0, 1.5, "omega"), BracketWeight(0.5, 0.5)), kept),
        ((gaussian(grid, 2.0, chirp=1.0), g, order), grid.size),
        ((f.with_values(nudged), g, order), grid.size),
        ((f, g, order, tab), grid.size),
    ):
        filled.clear()
        stft_mixed_norm(*args, chunk=37)
        assert sum(filled) == rows


def test_complex_inputs_make_no_mirror_comparison(monkeypatch):
    # the mirror rows need real f and g, so a complex f or g, or a tabulated
    # weight, decides no mirror; real even inputs compare f and g on the mirror
    grid = make_grid(64, 9.0)
    calls = []
    mirror_even = transforms._mirror_even
    monkeypatch.setattr(
        transforms, "_mirror_even", lambda *args: calls.append(args) or mirror_even(*args)
    )
    f, g = lieb_extremals(grid)
    chirped = gaussian(grid, 2.0, chirp=1.0)
    order = MixedOrder(2.0, 2.0, "x")
    tab = TabulatedWeight(np.ones((grid.size, grid.size)))
    for args in ((chirped, g, order), (f, chirped, order), (f, g, order, tab)):
        stft_mixed_norm(*args)
    assert calls == []
    stft_mixed_norm(f, g, order)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# modulation norms


def test_default_window_normalized():
    for dim in (1, 2):
        grid = make_grid(64, 10.0, dim=dim)
        assert lp_weighted(default_window(grid), 2.0) == pytest.approx(1.0, abs=1e-14)


def test_modulation_norm_moyal(grid512):
    f = random_smooth(RandomFunctionSpec(seed=3), grid512)
    g = default_window(grid512)
    assert modulation_norm(f, g, 2.0, 2.0) == pytest.approx(lp_weighted(f, 2.0), rel=1e-13)


def test_modulation_norm_gaussian_closed_form(grid512):
    # |V_g g| = e^(-pi(x^2+w^2)/2) gives (2/r)^(1/2r) (2/s)^(1/2s)
    g = default_window(grid512)
    for r, s in ((1.5, 1.5), (1.0, 2.0), (2.0, 3.0)):
        expected = (2.0 / r) ** (0.5 / r) * (2.0 / s) ** (0.5 / s)
        assert modulation_norm(g, g, r, s) == pytest.approx(expected, rel=1e-12)


def test_modulation_norm_weighted_monotone(grid512):
    f = random_smooth(RandomFunctionSpec(seed=4), grid512)
    g = default_window(grid512)
    base = modulation_norm(f, g, 2.0, 2.0)
    heavier = modulation_norm(f, g, 2.0, 2.0, alpha=1.0, beta=0.5)
    assert heavier > base


def test_modulation_norm_guards_every_route():
    # a non-decaying input wraps around the box; separable and tabulated
    # weights must refuse it alike
    grid = make_grid(128, 12.0)
    flat = SampledFunction(grid, np.ones(grid.size))
    g = default_window(grid)
    with pytest.raises(AliasingError):
        modulation_norm(flat, g, 2.0, 2.0)
    with pytest.raises(AliasingError):
        modulation_norm_m(flat, g, BracketWeight(0.5, 0.5))
    with pytest.raises(AliasingError):
        modulation_norm_m(flat, g, TabulatedWeight(np.ones((grid.size, grid.size))))
    with pytest.raises(ValueError, match="identically zero"):
        modulation_norm(g, g.with_values(np.zeros(grid.size)), 2.0, 2.0)
    with pytest.raises(ValueError, match="same grid"):
        modulation_norm(g, default_window(make_grid(128, 10.0)), 2.0, 2.0)
    # the streaming primitive stays unguarded
    assert math.isfinite(stft_mixed_norm(flat, g, MixedOrder(2.0, 2.0)))


def test_underflowed_streamed_norm_raises_but_zero_f_gives_zero():
    # |V_g f|^r of a unit Gaussian underflows to 0 at r = 1e308; a bracket
    # weight is at least 1 and V_g f of a nonzero f is nonzero, so the zero
    # is refused.  A zero f and a zero table are honest zeros
    grid = make_grid(64, 12.0)
    f, g = gaussian(grid), default_window(grid)
    with pytest.raises(ValueError, match=r"\(r, s\) = \(1e\+308, 2\).*underflowed"):
        modulation_norm(f, g, 1e308, 2.0)
    zero = f.with_values(np.zeros(grid.size))
    assert modulation_norm(zero, g, 1e308, 2.0) == 0.0
    assert modulation_norm(zero, g, 2.0, 2.0) == 0.0
    assert modulation_norm_m(f, g, TabulatedWeight(np.zeros((grid.size, grid.size)))) == 0.0


def test_modulation_norm_m_routes(grid128):
    f = random_smooth(RandomFunctionSpec(seed=5), grid128)
    g = default_window(grid128)
    # separable and tabulated weights both stream; they must agree
    sep = modulation_norm_m(f, g, BracketWeight(0.5, 0.5))
    w = BracketWeight(0.5, 0.5)
    tab = modulation_norm_m(
        f, g, TabulatedWeight(np.outer(w.x_profile(grid128), w.omega_profile(grid128)))
    )
    assert tab == pytest.approx(sep, rel=1e-12)


def test_tabulated_modulation_norm_streams(monkeypatch):
    grid = make_grid(32, 9.0, dim=2)
    f = random_smooth(RandomFunctionSpec(seed=5, envelope_sigma=1.2), grid)
    g = default_window(grid)
    x, w = grid.radii(), grid.freq_radii()
    m = TabulatedWeight(np.sqrt(1.0 + np.exp(-math.pi * np.add.outer(x**2, w**2))))
    dense = mixed_norm(stft(f, g), MixedOrder(2.0, 2.0, "x"), m)

    def refuse(*args, **kwargs):
        raise AssertionError("a norm materialized the phase-space field")

    monkeypatch.setattr(transforms, "_materialize", refuse)
    assert modulation_norm_m(f, g, m) == pytest.approx(dense, rel=1e-12)


def test_psi_phi_norm_components(grid128):
    f = random_smooth(RandomFunctionSpec(seed=6), grid128)
    g = default_window(grid128)
    x = grid128.axis.astype(complex)
    w = grid128.freq_axis.astype(complex)
    triple = AdmissibleTriple(x, w, 1.0)
    total = psi_phi_norm(f, g, triple)
    base = modulation_norm_m(f, g, BracketWeight())
    locx = moment_seminorm(f, 2.0, 1.0, "x")
    locw = moment_seminorm(f, 2.0, 1.0, "omega")
    assert total == pytest.approx(
        math.sqrt(base**2 + locx**2 + locw**2), rel=1e-12
    )
    # with m0 = 1 the base norm is the plain L2 norm by the Moyal identity
    assert base == pytest.approx(lp_weighted(f, 2.0), rel=1e-12)


def test_psi_phi_norm_keeps_constant_m0_untabulated(monkeypatch):
    # a scalar m0 scales the unweighted norm: the streamed chunks are all
    # psi_phi_norm holds, not a size^2 m0 table (8 MiB on 32^2), also when
    # the eight chunks of 32^2 run on the pool
    grid = make_grid(32, 12.0, dim=2)
    f = random_smooth(RandomFunctionSpec(seed=21, band_fraction=0.5, envelope_sigma=1.2), grid)
    g = default_window(grid)
    triple = AdmissibleTriple(grid.radii().astype(complex), grid.freq_radii().astype(complex), 1.0)
    psi_phi_norm(f, g, triple)  # first-call imports and caches
    for workers in (1, 8):
        monkeypatch.setattr(transforms, "_FFT_WORKERS", workers)
        tracemalloc.start()
        try:
            psi_phi_norm(f, g, triple)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20


def test_streamed_norm_holds_a_few_chunks(monkeypatch):
    # 64^2 streams 128 chunks of 2 MiB.  The row source keeps two chunks
    # computing ahead of the one being reduced, and each reduction holds
    # |rows| (1 MiB): a fourth chunk in flight would pass 9 MiB
    monkeypatch.setattr(transforms, "_FFT_WORKERS", 8)
    grid = make_grid(64, 12.0, dim=2)
    f = random_smooth(RandomFunctionSpec(seed=5), grid)
    chunk_bytes = transforms._CHUNK_ENTRIES * 16
    # the real part takes the half-spectrum route; the Gaussian window the
    # factored route, the rotated one the general route
    for h, g in itertools.product(
        (f, f.with_values(f.values.real)), (default_window(grid), rotated_gaussian(grid))
    ):
        for order in (MixedOrder(2.0, 2.0, "x"), MixedOrder(1.5, 1.5, "omega")):
            stft_mixed_norm(h, g, order)  # first-call imports and caches
            tracemalloc.start()
            try:
                stft_mixed_norm(h, g, order, BracketWeight(0.5, 0.5))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * chunk_bytes + (1 << 20)


def test_streamed_norms_share_one_pool(monkeypatch):
    # every threaded pass submits to one lazily built pool of two threads
    monkeypatch.setattr(transforms, "_FFT_WORKERS", 8)
    grid = make_grid(128, 10.0)
    f = random_smooth(RandomFunctionSpec(seed=8), grid)
    g = default_window(grid)
    order = MixedOrder(1.5, 2.5, "x")
    want = stft_mixed_norm(f, g, order, chunk=37)
    before = threading.active_count()
    for _ in range(200):
        assert stft_mixed_norm(f, g, order, chunk=37) == want
    assert threading.active_count() <= before + 2


def test_streamed_norms_from_concurrent_threads(monkeypatch):
    # more callers than cores share the pool; a lost or misordered part of
    # any reduction would change its bits
    monkeypatch.setattr(transforms, "_FFT_WORKERS", 8)
    grid = make_grid(32, 9.0, dim=2)
    f = random_smooth(RandomFunctionSpec(seed=2, envelope_sigma=1.2), grid)
    g = default_window(grid)
    orders = [MixedOrder(1.5, 2.5, "x"), MixedOrder(2.5, 1.5, "omega")]
    want = [stft_mixed_norm(f, g, order, chunk=37) for order in orders]
    got = {}

    def caller(k):
        got[k] = [stft_mixed_norm(f, g, order, chunk=37) for order in orders * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == {k: want * 3 for k in range(4)}
