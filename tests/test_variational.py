"""Eigenproblem assembly against brute-force matrices, gradients against
finite differences, and the Banach minimizer against the Gaussian minimizer
and the Hilbert-Banach bridge."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import tfuncert

from tfuncert.constants import DomainError, ExponentSet, check_galperin_grochenig
from tfuncert.norms import (
    AdmissibleTriple,
    BracketWeight,
    MixedOrder,
    _MixedReduction,
    default_window,
    lp_weighted,
    modulation_norm,
    moment_seminorm,
    psi_phi_norm,
)
from tfuncert.sampling import RandomFunctionSpec, _centered_ifftn, make_grid, random_smooth, scale
from tfuncert import transforms, variational
from tfuncert.transforms import _centered_fftn, stft, stft_adjoint
from tfuncert.variational import (
    MinimizeOptions,
    ModulationTerm,
    OmegaMomentTerm,
    XMomentTerm,
    _modulation_grad,
    _moment_preconditioner,
    _pairing,
    _stationarity_defect,
    build_forms,
    el_residual_banach,
    frechet_directional,
    hilbert_functional,
    minimize_banach,
    minimize_multistart,
    operator_A_apply,
    oscillator_modes,
    smallest_eigen,
)

from conftest import gaussian, rotated_gaussian


SMALL_SPEC = RandomFunctionSpec(seed=21, band_fraction=0.5, envelope_sigma=1.2)


def _unit_window(grid):
    win = default_window(grid)
    return scale(win, 1.0 / lp_weighted(win, 2.0))


def _brute_forms(triple, window, grid):
    """O(size^3) assembly straight from the defining quadrature sums."""
    size, n = grid.size, grid.n
    cell, fcell = grid.cell, grid.freq_cell
    x = grid.coords()
    w = grid.freq_coords()
    gp = window.values
    shape = grid.shape
    # S[(i, k), j] = cell * conj(g(x_j - x_i)) e^{-2 pi i x_j . w_k}
    S = np.empty((size * size, size), dtype=complex)
    ax = np.unravel_index(np.arange(size), shape)
    for i in range(size):
        ii = np.unravel_index(i, shape)
        shift = np.ravel_multi_index(
            tuple((a - o + n // 2) % n for a, o in zip(ax, ii)), shape
        )
        rows = cell * np.conj(gp[shift])[None, :] * np.exp(-2j * math.pi * (w @ x.T))
        S[i * size : (i + 1) * size] = rows
    m0sq = np.broadcast_to(triple.m0**2, (size, size)).reshape(size * size)
    Q0 = S.conj().T @ (m0sq[:, None] * cell * fcell * S)
    W = cell * np.exp(-2j * math.pi * (w @ x.T))
    Qphi = W.conj().T @ (np.abs(triple.phi[:, None]) ** 2 * fcell * W)
    Qpsi = np.diag(np.abs(triple.psi) ** 2 * cell)
    return Q0, Q0 + Qpsi + Qphi


def _assert_hermitian(pair):
    """Both forms equal their conjugate transposes bit for bit."""
    for form in (pair.form0, pair.form_full):
        assert np.array_equal(form, form.conj().T)


# ---------------------------------------------------------------------------
# form assembly


def test_build_forms_matches_brute_force_1d():
    grid = make_grid(16, 8.0)
    win = _unit_window(grid)
    x, w = grid.axis, grid.freq_axis
    m0 = 1.0 + np.exp(-np.add.outer(x**2, w**2))
    triple = AdmissibleTriple(x.astype(complex), w.astype(complex), m0)
    pair = build_forms(triple, win, grid)
    Q0, Qfull = _brute_forms(triple, win, grid)
    assert pair.form0.dtype == np.float64 and pair.form_full.dtype == np.float64
    np.testing.assert_allclose(pair.form0, Q0, atol=1e-13)
    np.testing.assert_allclose(pair.form_full, Qfull, atol=1e-13)
    _assert_hermitian(pair)


def test_build_forms_matches_brute_force_2d():
    grid = make_grid(8, 9.0, dim=2)
    win = _unit_window(grid)
    psi = grid.radii().astype(complex)
    phi = grid.freq_radii().astype(complex)
    m0 = 1.0 + 0.5 * np.cos(np.add.outer(grid.radii(), grid.freq_radii()))
    triple = AdmissibleTriple(psi, phi, m0)
    pair = build_forms(triple, win, grid)
    Q0, Qfull = _brute_forms(triple, win, grid)
    assert pair.form0.dtype == np.float64 and pair.form_full.dtype == np.float64
    np.testing.assert_allclose(pair.form0, Q0, atol=1e-13)
    np.testing.assert_allclose(pair.form_full, Qfull, atol=1e-13)
    _assert_hermitian(pair)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("dim", [1, 2])
def test_half_lags_lie_in_the_half_spectrum(n, dim):
    # m0^2's real-input transform keeps the lags l_1 = 0 .. n/2 on the first
    # w axis, (n/2 + 1) n^(d-1) rows in flat lag order; the lag loop reads rows
    # [a, b) of every run of lags l <= -l
    grid = make_grid(n, 8.0, dim=dim)
    runs, own = variational._half_lags(grid)
    rows = (n // 2 + 1) * n ** (dim - 1)
    assert runs.size and np.all(runs[:, 0] < runs[:, 1]) and np.all(runs[:, 1] <= rows)
    assert np.all(own < rows)
    # the rows are those of the full complex transform, which is how the form read them
    x, w = grid.coords()[:, 0], grid.freq_coords()[:, 0]
    m0sq = 1.0 + np.outer(np.exp(-(x**2)), 2.0 + np.tanh(w))  # not even in w or x
    parity = transforms._parity(grid).ravel()
    full = np.fft.fftn(m0sq.T.reshape(grid.shape * 2)).reshape(grid.size, grid.size)
    full *= np.multiply.outer(parity, parity * (grid.freq_cell * grid.cell**3))
    spectrum = variational._m0sq_spectrum(m0sq, grid)
    assert spectrum.shape == (rows, grid.size)
    np.testing.assert_allclose(spectrum, full[:rows], rtol=0, atol=1e-13 * np.max(np.abs(full)))


def _asymmetric_triple(case, grid):
    """(triple, window) with one of the three conjugation symmetries broken.

    Built from the first coordinate columns, so in d = 2 the window is
    modulated, m0 odd and phi shifted along x_1 and w_1.
    """
    x, w = grid.coords()[:, 0], grid.freq_coords()[:, 0]
    win = _unit_window(grid)
    m0 = 1.0 + np.exp(-np.add.outer(x**2, w**2))
    phi = w
    if case == "modulated_window":
        win = win.with_values(win.values * np.exp(2j * math.pi * 0.75 * x))
    elif case == "odd_m0":
        m0 = 1.0 + 0.5 * np.outer(np.exp(-(x**2)), np.tanh(w))
    elif case == "shifted_phi":
        phi = 1.0 + w
    return AdmissibleTriple(x.astype(complex), phi.astype(complex), m0), win


def _check_asymmetric_forms(case, grid, floor):
    triple, win = _asymmetric_triple(case, grid)
    pair = build_forms(triple, win, grid)
    Q0, Qfull = _brute_forms(triple, win, grid)
    assert pair.form0.dtype == np.complex128 and pair.form_full.dtype == np.complex128
    # the imaginary part is what a real route would drop
    assert np.max(np.abs(Qfull.imag)) > floor * np.max(np.abs(Qfull))
    np.testing.assert_allclose(pair.form0, Q0, atol=1e-13)
    np.testing.assert_allclose(pair.form_full, Qfull, atol=1e-13)
    _assert_hermitian(pair)
    nus = [sol.nu for sol in smallest_eigen(pair, 3)]
    expected = scipy.linalg.eigh(Qfull, Q0, eigvals_only=True, subset_by_index=[0, 2])
    np.testing.assert_allclose(nus, expected, atol=1e-10)


@pytest.mark.parametrize("case", ["modulated_window", "odd_m0", "shifted_phi"])
def test_build_forms_asymmetric_input_stays_complex(case):
    _check_asymmetric_forms(case, make_grid(16, 8.0), 1e-3)


@pytest.mark.parametrize("case", ["modulated_window", "odd_m0", "shifted_phi"])
def test_build_forms_asymmetric_input_stays_complex_2d(case):
    # the lag blocks cross first-index boundaries of the window bank.  On the
    # 8^2 grid (node spacing 9/8) neighbouring windows barely overlap and the
    # off-diagonal entries, which carry the imaginary part, are small, so its
    # floor is lower here
    _check_asymmetric_forms(case, make_grid(8, 9.0, dim=2), 1e-4)


def test_real_route_eigenvalues_match_complex_brute_force():
    grid = make_grid(32, 8.0)
    win = _unit_window(grid)
    x, w = grid.axis, grid.freq_axis
    m0 = 1.0 + np.exp(-np.add.outer(x**2, w**2))
    triple = AdmissibleTriple(x.astype(complex), w.astype(complex), m0)
    pair = build_forms(triple, win, grid)
    assert pair.form_full.dtype == np.float64
    Q0, Qfull = _brute_forms(triple, win, grid)
    # the brute-force pencil keeps its rounding-level imaginary parts
    expected = scipy.linalg.eigh(Qfull, Q0, eigvals_only=True, subset_by_index=[0, 3])
    sols = smallest_eigen(pair, 4)
    np.testing.assert_allclose([sol.nu for sol in sols], expected, atol=1e-10)
    assert all(sol.residual < 1e-10 for sol in sols)


@pytest.mark.parametrize("m0", ["tabulated", 1.3])
@pytest.mark.parametrize("shift, dtype", [(0.0, np.float64), (1.0, np.complex128)])
@pytest.mark.parametrize("n, dim", [(128, 1), (32, 2)])
def test_graph_norm_squared_is_the_full_form(n, dim, shift, dtype, m0):
    # psi_phi_norm streams ||u||_{M,m0}^2 + ||psi u||^2 + ||phi Fu||^2 from
    # V_g u; build_forms assembles the same quadratic form lag by lag, so
    # u^H form_full u must equal it on the real route and the complex one
    # (phi = 1 + w_1 is not even in w), for a tabulated and a constant m0
    grid = make_grid(n, 12.0, dim=dim)
    win = _unit_window(grid)
    if m0 == "tabulated":
        m0 = np.sqrt(np.outer(1.0 + grid.radii(), 1.0 + grid.freq_radii()))
    phi = grid.freq_coords()[:, 0] + shift
    triple = AdmissibleTriple(grid.radii().astype(complex), phi.astype(complex), m0)
    pair = build_forms(triple, win, grid)
    assert pair.form_full.dtype == dtype
    u = random_smooth(RandomFunctionSpec(seed=3), grid)
    form = float(np.real(np.vdot(u.values, pair.form_full @ u.values)))
    assert psi_phi_norm(u, win, triple) ** 2 == pytest.approx(form, rel=1e-12, abs=0)


def test_build_forms_constant_weight_tight_frame():
    # constant m0: the frame identity collapses form0 to m0^2 h^d I on every
    # route; phi = w + 1 is not even in w, so its forms are complex
    for grid in (make_grid(32, 10.0), make_grid(16, 8.0, dim=2)):
        win = _unit_window(grid)
        for shift, dtype in ((0.0, np.float64), (1.0, np.complex128)):
            phi = grid.freq_coords()[:, 0] + shift
            triple = AdmissibleTriple(grid.radii().astype(complex), phi.astype(complex), 2.0)
            pair = build_forms(triple, win, grid)
            assert pair.form0.dtype == dtype and pair.form_full.dtype == dtype
            np.testing.assert_allclose(
                pair.form0, 4.0 * grid.cell * np.eye(grid.size), atol=1e-14
            )
            _assert_hermitian(pair)


@pytest.mark.parametrize(
    "case, dim, budget_mib",
    [("tabulated", 1, 22), ("constant", 1, 17), ("complex", 1, 33), ("tabulated", 2, 22)],
    ids=["tabulated-1024", "constant-1024", "complex-1024", "tabulated-32^2"],
)
def test_build_forms_allocation_budget(case, dim, budget_mib):
    # 1024 nodes or 32^2: each dense form is 8 MiB, or 16 MiB when complex,
    # m0^2 is 8 MiB and its real-input half spectrum 8 MiB, and m0^2 is
    # released before the lag loop.  The lag products, the circulant and
    # the scatter nodes are views of the window bank, and the lags are
    # written in chunks, so no size^2 index table or dense psi form is
    # built.  The d = 2 node bank reshaped to one flat (size, size) index
    # table alone would add 8 MiB of int64
    grid = make_grid(1024, 12.0) if dim == 1 else make_grid(32, 6.5, dim=2)
    win = _unit_window(grid)
    x, w = grid.radii(), grid.freq_radii()
    m0 = 1.0 if case == "constant" else np.sqrt(np.outer(1.0 + x, 1.0 + w))
    # phi = 1 + w (signed) is not even in w: the complex route with a real window
    phi = 1.0 + grid.freq_axis if case == "complex" else w
    triple = AdmissibleTriple(x.astype(complex), phi.astype(complex), m0)
    build_forms(triple, win, grid)  # first-call imports and caches
    tracemalloc.start()
    try:
        build_forms(triple, win, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget_mib << 20


def test_tabulated_forms_independent_of_fft_workers(monkeypatch):
    # the lag assembly is a pass of the STFT engine: 1024 nodes and 32^2 are
    # eight 128-lag chunks and the complex 512-node pencil two 256-lag ones,
    # so with more than one worker the lags really run on the pool
    cases = []
    for grid in (make_grid(1024, 12.0), make_grid(32, 9.0, dim=2)):
        x, w = grid.radii(), grid.freq_radii()
        m0 = np.sqrt(np.outer(1.0 + x, 1.0 + w))
        cases.append((AdmissibleTriple(x.astype(complex), w.astype(complex), m0), _unit_window(grid)))
    cases.append(_asymmetric_triple("modulated_window", make_grid(512, 12.0)))
    threads = set()
    row_fftn = variational._row_fftn

    def spy(*args, **kwargs):
        threads.add(threading.get_ident())
        return row_fftn(*args, **kwargs)

    monkeypatch.setattr(variational, "_row_fftn", spy)
    first = None
    for workers in (1, 2, 8):
        monkeypatch.setattr(transforms, "_FFT_WORKERS", workers)
        threads.clear()
        pairs = [build_forms(triple, win, win.grid) for triple, win in cases]
        assert [pair.form0.dtype for pair in pairs] == [np.float64, np.float64, np.complex128]
        assert (threads == {threading.get_ident()}) == (workers == 1)
        for pair in pairs:
            _assert_hermitian(pair)
        got = [(pair.form0.tobytes(), pair.form_full.tobytes()) for pair in pairs]
        first = first or got
        assert got == first


@pytest.mark.parametrize("n, extent, dim", [(128, 12.0, 2), (8192, 24.0, 1)])
def test_build_forms_refuses_oversized_dense_forms(n, extent, dim):
    # 128^2 and 8192 nodes exceed 2^24 form entries; a constant m0 is refused
    # like a tabulated one, before any size^2 array is built
    grid = make_grid(n, extent, dim=dim)
    triple = AdmissibleTriple(grid.radii().astype(complex), grid.freq_radii().astype(complex), 1.0)
    with pytest.raises(ValueError, match="dense forms"):
        build_forms(triple, default_window(grid), grid)


def test_build_forms_requires_normalized_window():
    grid = make_grid(16, 8.0)
    win = default_window(grid)
    triple = AdmissibleTriple(grid.axis.astype(complex), grid.freq_axis.astype(complex), 1.0)
    with pytest.raises(ValueError):
        build_forms(triple, scale(win, 2.0), grid)
    with pytest.raises(ValueError):
        build_forms(triple, win, make_grid(32, 8.0))


# ---------------------------------------------------------------------------
# eigenproblem


def test_smallest_eigen_oscillator_triple():
    grid = make_grid(256, 10.0)
    win = _unit_window(grid)
    triple = AdmissibleTriple(grid.axis.astype(complex), grid.freq_axis.astype(complex), 1.0)
    pair = build_forms(triple, win, grid)
    sols = smallest_eigen(pair, 3)
    for k, sol in enumerate(sols):
        assert sol.lam == pytest.approx((2 * k + 1) / (2 * math.pi), abs=1e-6)
        assert sol.nu == pytest.approx(1.0 + sol.lam)
        assert sol.residual < 1e-10
        # vectors come back form0-orthonormal
        v = sol.vector.values
        assert np.vdot(v, pair.form0 @ v).real == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        smallest_eigen(pair, 0)


def _hermite_functions(x, count):
    """h_0 .. h_{count-1}, L2-normalized for the e^{-pi x^2} convention, sampled at x.

    Three-term recurrence in t = sqrt(2 pi) x:
    h_{k+1} = sqrt(2/(k+1)) t h_k - sqrt(k/(k+1)) h_{k-1}, h_0 = 2^{1/4} e^{-pi x^2}.
    """
    t = math.sqrt(2.0 * math.pi) * x
    h0 = 2.0**0.25 * np.exp(-math.pi * x**2)
    h = [h0, math.sqrt(2.0) * t * h0]
    for k in range(1, count - 1):
        h.append(math.sqrt(2.0 / (k + 1)) * t * h[k] - math.sqrt(k / (k + 1)) * h[k - 1])
    return h[:count]


@pytest.mark.parametrize(
    "n, extent, dim, a, count",
    [(128, 12.0, 1, 1.0, 6), (128, 12.0, 1, 2.0, 6), (256, 16.0, 1, 0.5, 6), (32, 6.5, 2, 1.0, 10)],
)
def test_smallest_eigen_matches_gaussian_localization_spectrum(n, extent, dim, a, count):
    # Daubechies (1988): with the Gaussian window the localization operator of
    # the symbol e^{-pi a (|x|^2 + |w|^2)} has the Hermite functions of total
    # degree k as eigenfunctions, eigenvalue (1 + a)^{-(k + d)} with
    # multiplicity k + 1 in d = 2.  With m0^2 = 1 + that symbol, psi = 0 and
    # phi = 1, form_full = form0 + h^d I, so lam_k = 1 / (1 + (1 + a)^{-(k + d)}).
    grid = make_grid(n, extent, dim=dim)
    x, w = grid.radii(), grid.freq_radii()
    m0 = np.sqrt(1.0 + np.exp(-math.pi * a * np.add.outer(x**2, w**2)))
    triple = AdmissibleTriple(np.zeros(grid.size, complex), np.ones(grid.size, complex), m0)
    sols = smallest_eigen(build_forms(triple, default_window(grid), grid), count)
    degrees = [k for k in range(count) for _ in range(k + 1 if dim == 2 else 1)][:count]
    want = [1.0 / (1.0 + (1.0 + a) ** -(k + dim)) for k in degrees]
    np.testing.assert_allclose([sol.lam for sol in sols], want, rtol=0, atol=1e-12)


def test_smallest_eigen_vectors_match_hermite_functions():
    # the same pencil in d = 1 (a = 1): eigenvector k is the Hermite function
    # h_k, which oscillator_modes approximates by finite differences; their
    # O(h^2) error, not the pencil, limits the agreement
    grid = make_grid(512, 12.0)
    x, w = grid.radii(), grid.freq_radii()
    m0 = np.sqrt(1.0 + np.exp(-math.pi * np.add.outer(x**2, w**2)))
    triple = AdmissibleTriple(np.zeros(grid.size, complex), np.ones(grid.size, complex), m0)
    sols = smallest_eigen(build_forms(triple, default_window(grid), grid), 6)
    _, modes = oscillator_modes(grid.n, grid.extent, 6)
    for sol, mode in zip(sols, modes):
        v = sol.vector.values / lp_weighted(sol.vector, 2.0)
        assert 1.0 - abs(np.vdot(v, mode.values) * grid.cell) <= 1e-5


def test_smallest_eigen_vectors_span_2d_hermite_products():
    # the same pencil in d = 2 (32^2, a = 1): the k + 1 eigenvectors of degree
    # k span the products h_j(x_1) h_{k-j}(x_2), sampled exactly
    grid = make_grid(32, 6.5, dim=2)
    x, w = grid.radii(), grid.freq_radii()
    m0 = np.sqrt(1.0 + np.exp(-math.pi * np.add.outer(x**2, w**2)))
    triple = AdmissibleTriple(np.zeros(grid.size, complex), np.ones(grid.size, complex), m0)
    sols = smallest_eigen(build_forms(triple, default_window(grid), grid), 10)
    coords = grid.coords()
    h1, h2 = _hermite_functions(coords[:, 0], 4), _hermite_functions(coords[:, 1], 4)
    start = 0
    for k in range(4):
        vecs = np.column_stack([sol.vector.values for sol in sols[start : start + k + 1]])
        products = np.column_stack([h1[j] * h2[k - j] for j in range(k + 1)])
        assert np.max(scipy.linalg.subspace_angles(vecs, products)) <= 1e-8
        start += k + 1


def test_smallest_eigen_refuses_degenerate_pencil():
    # m0 = 0 leaves form0 = 0; the eigensolver's factorization refuses it
    grid = make_grid(64, 8.0)
    ones = np.ones(grid.size, complex)
    pair = build_forms(AdmissibleTriple(ones, ones, 0.0), _unit_window(grid), grid)
    with pytest.raises(ValueError, match="form0 is not positive definite"):
        smallest_eigen(pair)


def _tabulated_triple(grid):
    """The benchmark's pencil: m0 = ((1+|x|)(1+|w|))^(1/2), psi = |x|, phi = |w|."""
    x, w = grid.radii(), grid.freq_radii()
    m0 = np.sqrt(np.multiply.outer(1.0 + x, 1.0 + w))
    return AdmissibleTriple(x.astype(complex), w.astype(complex), m0)


def _coord_triple(grid):
    """The README's pencil: psi = x, phi = w, m0 = 1."""
    return AdmissibleTriple(grid.axis.astype(complex), grid.freq_axis.astype(complex), 1.0)


def _parity_sizes(grid):
    """Sizes of the 2^d blocks of the per-axis mirrors, even first: each axis
    has n/2 + 1 even basis vectors (2 fixed nodes, the rest in pairs) and
    n/2 - 1 odd ones."""
    h = grid.n // 2
    return [math.prod(sizes) for sizes in itertools.product((h + 1, h - 1), repeat=grid.dim)]


def _solve_recording(pair, count, monkeypatch, record=lambda a: a.shape):
    """smallest_eigen(pair, count) and ``record(a)`` at each scipy.linalg.eigh
    call, ``a`` its first pencil form (by default, the pencils' shapes)."""
    seen = []
    eigh = scipy.linalg.eigh

    def spy(a, b=None, **kwargs):
        seen.append(record(a))
        return eigh(a, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh", spy)
        sols = smallest_eigen(pair, count)
    return sols, seen


def _check_matches_unsplit(pair, sols):
    count = len(sols)
    expected = scipy.linalg.eigh(
        pair.form_full, pair.form0, eigvals_only=True, subset_by_index=[0, count - 1]
    )
    np.testing.assert_allclose([sol.nu for sol in sols], expected, rtol=0, atol=1e-12)
    vecs = np.column_stack([sol.vector.values for sol in sols])
    gram = vecs.conj().T @ pair.form0 @ vecs
    np.testing.assert_allclose(gram, np.eye(count), rtol=0, atol=1e-12)


def _chirped_window(grid):
    """The unit Gaussian window times e^{i pi x^2}: complex, and even in x."""
    win = default_window(grid)
    win = win.with_values(win.values * np.exp(1j * math.pi * grid.radii() ** 2))
    return scale(win, 1.0 / lp_weighted(win, 2.0))


@pytest.mark.parametrize(
    "case, n, extent, dim, count",
    [
        ("readme", 512, 12.0, 1, 3),
        ("tabulated", 1024, 12.0, 1, 6),
        ("tabulated", 32, 6.5, 2, 6),
        ("complex", 128, 10.0, 1, 6),
        ("readme", 8, 9.0, 1, 5),
        ("tabulated", 8, 9.0, 2, 32),
    ],
)
def test_mirror_symmetric_pencil_splits_by_parity(case, n, extent, dim, count, monkeypatch):
    # every pencil here is even under the mirror of each axis: it is solved as
    # its 2^d per-axis parity blocks and must agree with one unsplit solve of
    # the same forms.  On the smallest grids (8 and 8^2 nodes) the odd block
    # (3 rows) and every 8^2 block (25, 15, 15 and 9 rows) is smaller than
    # count, so it is solved whole
    grid = make_grid(n, extent, dim=dim)
    triple = _coord_triple(grid) if case == "readme" else _tabulated_triple(grid)
    window = _chirped_window(grid) if case == "complex" else _unit_window(grid)
    pair = build_forms(triple, window, grid)
    assert pair.even_axes == tuple(range(dim))
    assert pair.form0.dtype == (np.complex128 if case == "complex" else np.float64)
    sols, shapes = _solve_recording(pair, count, monkeypatch)
    assert shapes == [(size, size) for size in _parity_sizes(grid)]
    _check_matches_unsplit(pair, sols)
    assert all(sol.residual <= 1e-10 for sol in sols)


def test_pencil_off_by_one_bit_takes_one_solve(monkeypatch):
    grid = make_grid(256, 10.0)
    triple = _coord_triple(grid)
    psi = triple.psi.real.copy()
    psi.view(np.int64)[5] ^= 1 << 20  # one mantissa bit of psi at one node
    tilted = AdmissibleTriple(psi.astype(complex), triple.phi, 1.0)
    pair = build_forms(tilted, _unit_window(grid), grid)
    assert pair.even_axes == ()
    sols, shapes = _solve_recording(pair, 3, monkeypatch)
    assert shapes == [(grid.size, grid.size)]
    mirrored = smallest_eigen(build_forms(triple, _unit_window(grid), grid), 3)
    np.testing.assert_allclose([s.nu for s in sols], [s.nu for s in mirrored], rtol=0, atol=1e-8)


def _test_pencil_2d(window, psi):
    """A 16^2 pencil with the tabulated m0 and phi = |w| (both even on each axis)."""
    grid = window.grid
    triple = _tabulated_triple(grid)
    return build_forms(AdmissibleTriple(psi.astype(complex), triple.phi, triple.m0), window, grid)


def test_pencil_even_on_one_axis_takes_two_solves(monkeypatch):
    # psi = |x - (0, 0.3)| is even in x_1 only: the pencil splits on axis 0
    # into an even and an odd block of 9 x 16 and 7 x 16 rows
    grid = make_grid(16, 8.0, dim=2)
    coords = grid.coords()
    psi = np.hypot(coords[:, 0], coords[:, 1] - 0.3)
    pair = _test_pencil_2d(_unit_window(grid), psi)
    assert pair.even_axes == (0,)
    sols, shapes = _solve_recording(pair, 6, monkeypatch)
    assert shapes == [(9 * 16, 9 * 16), (7 * 16, 7 * 16)]
    _check_matches_unsplit(pair, sols)


def test_pencil_even_only_jointly_takes_one_solve(monkeypatch):
    # the rotated Gaussian window, summed with its mirror to be bit-for-bit
    # even under x -> -x, is even under neither axis mirror alone, so the
    # pencil is one block
    grid = make_grid(16, 8.0, dim=2)
    window = rotated_gaussian(grid)
    window = window.with_values(window.values + window.values[variational._node_mirror(grid)])
    window = scale(window, 1.0 / lp_weighted(window, 2.0))
    assert variational._mirror_even(window.values.reshape(grid.shape), (0, 1))
    pair = _test_pencil_2d(window, grid.radii())
    assert pair.even_axes == ()
    sols, shapes = _solve_recording(pair, 6, monkeypatch)
    assert shapes == [(grid.size, grid.size)]
    _check_matches_unsplit(pair, sols)


def _column_parity_block(form, grid, bases):
    """The column-reading formula that variational._parity_block's row reads replaced."""
    dims = tuple(basis[-1][0].stop for basis in bases)
    cube = np.empty(dims * 2, dtype=form.dtype, order="F")
    nodes = form.reshape(grid.shape * 2)
    for rows, cols in itertools.product(itertools.product(*bases), repeat=2):
        out = cube[tuple(part for part, _ in rows + cols)]
        first = tuple(terms[0][0] for _, terms in rows)
        for k, terms in enumerate(itertools.product(*(terms for _, terms in cols))):
            src = nodes[first + tuple(node for node, _ in terms)]
            if k == 0:
                out[...] = src
            elif math.prod(sign for _, sign in terms) > 0:
                out += src
            else:
                out -= src
        lift = sum(len(terms) for _, terms in rows) - sum(len(terms) for _, terms in cols)
        if lift:
            out *= math.sqrt(2.0**lift)
    return cube.reshape((math.prod(dims),) * 2, order="F")


@pytest.mark.parametrize("window", ["real", "complex", "real 2d"])
def test_parity_blocks_read_rows_as_the_column_formula(window):
    # the forms are Hermitian, so each column is read as the conjugate of a
    # row.  Real blocks are byte-equal to the column reads.  A complex form's
    # diagonal holds zero imaginary parts, which conjugation turns from -0.0
    # to 0.0 (LAPACK never reads them), so complex blocks are equal in value,
    # and byte-equal once the sign of every zero is cleared
    grid = make_grid(32, 6.5, dim=2) if window == "real 2d" else make_grid(1024, 12.0)
    win = _chirped_window(grid) if window == "complex" else _unit_window(grid)
    pair = build_forms(_tabulated_triple(grid), win, grid)
    assert pair.form0.dtype == (np.complex128 if window == "complex" else np.float64)
    assert pair.even_axes == tuple(range(grid.dim))
    for parities in itertools.product((True, False), repeat=grid.dim):
        bases = [variational._axis_basis(grid.n, parity) for parity in parities]
        for form in (pair.form0, pair.form_full):
            got = variational._parity_block(form, grid, bases)
            want = _column_parity_block(form, grid, bases)
            assert got.flags.f_contiguous
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            if window != "complex":
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", ["real", "complex"])
def test_non_finite_forms_are_refused_before_any_solve(monkeypatch, window):
    # the pair checks its forms once, so the solver skips scipy's check
    grid = make_grid(64, 8.0)
    win = _chirped_window(grid) if window == "complex" else _unit_window(grid)
    pair = build_forms(_tabulated_triple(grid), win, grid)
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *args, **kwargs: pytest.fail("solved"))
    for name, bad in (("form0", np.inf), ("form_full", np.nan)):
        form = getattr(pair, name).copy()
        form[40, 7] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            smallest_eigen(dataclasses.replace(pair, **{name: form}))


def _axis_mirror(grid, axis):
    """Flat node numbers of the mirror x_axis -> -x_axis: node j goes to (-j) mod n on that axis."""
    nodes = np.arange(grid.size).reshape(grid.shape)
    return np.roll(np.flip(nodes, axis), 1, axis).ravel()


def _gather_symmetries(gp, psisq, phisq, m0sq, grid):
    """(real, even axes) from size^2 gathers of the mirrored tables, one mirror per axis."""
    joint = variational._node_mirror(grid)
    real = (
        np.array_equal(phisq, phisq[joint])
        and not np.any(gp.imag)
        and np.array_equal(m0sq, np.take(m0sq, joint, axis=1))
    )
    even_axes = []
    for axis in range(grid.dim):
        mirror = _axis_mirror(grid, axis)
        if all(np.array_equal(t, t[mirror]) for t in (gp, psisq, phisq)) and np.array_equal(
            m0sq, m0sq[np.ix_(mirror, mirror)]
        ):
            even_axes.append(axis)
    return real, tuple(even_axes)


@pytest.mark.parametrize("n, dim", [(16, 1), (8, 2)])
def test_symmetry_decisions_match_the_gather_oracle(n, dim):
    # one mantissa bit of m0 flipped at a node paired on the last axis only
    # (in d = 2) or on every axis, at w-index 0 and at w-index n/2 (both
    # fixed by the mirrors) or at a paired w node; the view-based checks must
    # decide as the gathers do, and see real and complex forms both split and
    # solved whole
    grid = make_grid(n, 8.0, dim=dim)
    mirror = variational._node_mirror(grid)
    paired = int(np.flatnonzero(mirror != np.arange(grid.size))[1])
    corner = int(np.ravel_multi_index((1,) * dim, grid.shape))
    middle = int(np.ravel_multi_index((n // 2,) * dim, grid.shape))
    x, w = grid.radii(), grid.freq_radii()
    even = np.sqrt(np.outer(1.0 + x, 1.0 + w))  # even in x and in w
    table = np.random.default_rng(5).uniform(0.5, 2.0, (grid.size, grid.size))
    joint = table + table[np.ix_(mirror, mirror)]  # even in (x, w) jointly only
    gp = _unit_window(grid).values
    seen = set()
    for base in (even, joint):
        for spot in (None, (paired, 0), (paired, middle), (paired, paired), (corner, 0)):
            m0 = base.copy()
            if spot is not None:
                m0.view(np.int64)[spot] ^= 1 << 20
            args = (gp, x**2, w**2, m0**2, grid)
            got = variational._input_symmetries(*args)
            assert got == _gather_symmetries(*args)
            seen.add(got)
    assert {(real, bool(axes)) for real, axes in seen} == set(
        itertools.product((True, False), repeat=2)
    )
    if dim == 2:
        assert (True, (0,)) in seen and (False, (0,)) in seen  # split on one axis only


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1))
def test_parity_split_matches_unsplit_on_random_even_tables(seed):
    # seeded random tables on 64 nodes and on 16^2, even under the mirror R_i
    # of each axis: m0^2 in (x_i, w_i), psi in x_i and phi in w_i.  A sum with
    # the mirror, s = t + t o R_0, then s + s o R_1, is bit-for-bit even
    rng = np.random.default_rng(seed)

    def even(t, mirrors, both):
        for mirror in mirrors:
            t = t + (t[np.ix_(mirror, mirror)] if both else t[mirror])
        return t

    for grid in (make_grid(64, 8.0), make_grid(16, 8.0, dim=2)):
        mirrors = [_axis_mirror(grid, axis) for axis in range(grid.dim)]
        m0 = np.sqrt(even(rng.uniform(0.5, 2.0, (grid.size, grid.size)), mirrors, True))
        psi, phi = (even(rng.uniform(0.0, 3.0, grid.size), mirrors, False) for _ in range(2))
        pair = build_forms(AdmissibleTriple(psi, phi, m0), _unit_window(grid), grid)
        assert pair.even_axes == tuple(range(grid.dim))
        _assert_hermitian(pair)
        _check_matches_unsplit(pair, smallest_eigen(pair, 6))


@pytest.mark.parametrize("dim", [1, 2])
def test_smallest_eigen_allocation_budget(dim):
    # the benchmark's tabulated pencil on 1024 nodes or 32^2: the blocks are
    # written in place, one (form_full, form0) block pair at a time, so the
    # even pair (514^2 or 17^4 entries) bounds the peak: 4.2 MiB in d = 1
    grid = make_grid(1024, 12.0) if dim == 1 else make_grid(32, 6.5, dim=2)
    pair = build_forms(_tabulated_triple(grid), _unit_window(grid), grid)
    smallest_eigen(pair, 6)  # first-call imports
    tracemalloc.start()
    try:
        smallest_eigen(pair, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 << 20


# ---------------------------------------------------------------------------
# the eigensolve's BLAS threads


@pytest.fixture
def blas_threads():
    """numpy's and scipy's bundled OpenBLAS (get, set) pairs, both set to a
    caller's count of 2 for the test and put back after it."""
    libs = variational._bundled_openblas()
    if not libs:
        pytest.skip("numpy's and scipy's bundled OpenBLAS builds are not loaded")
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield libs
    for (_, set_), threads in zip(libs, saved):
        set_(threads)


def _read_threads(libs):
    return [get() for get, _ in libs]


@pytest.fixture(scope="module")
def tabulated_pencil_2d():
    grid = make_grid(32, 6.5, dim=2)
    return build_forms(_tabulated_triple(grid), _unit_window(grid), grid)


def test_smallest_eigen_solves_on_one_blas_thread(blas_threads, tabulated_pencil_2d, monkeypatch):
    _, seen = _solve_recording(
        tabulated_pencil_2d, 6, monkeypatch, lambda a: _read_threads(blas_threads)
    )
    assert seen == [[1, 1]] * 4  # one solve per parity block
    assert _read_threads(blas_threads) == [2, 2]


def test_smallest_eigen_restores_blas_threads_after_an_error(blas_threads):
    grid = make_grid(64, 8.0)
    ones = np.ones(grid.size, complex)
    pair = build_forms(AdmissibleTriple(ones, ones, 0.0), _unit_window(grid), grid)
    with pytest.raises(ValueError, match="form0 is not positive definite"):
        smallest_eigen(pair)
    assert _read_threads(blas_threads) == [2, 2]


def test_concurrent_eigensolves_give_the_serial_bits(blas_threads, tabulated_pencil_2d):
    # each call saves, pins and restores the process-wide counts; without the
    # lock a second caller could save the first one's pin as its caller's count
    serial = smallest_eigen(tabulated_pencil_2d, 6)
    results = [None] * 8
    barrier = threading.Barrier(4)

    def solve(slot):
        barrier.wait(timeout=30)
        results[slot] = smallest_eigen(tabulated_pencil_2d, 6)
        results[slot + 4] = smallest_eigen(tabulated_pencil_2d, 6)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for sols in results:
        assert [sol.nu for sol in sols] == [sol.nu for sol in serial]
        for sol, ref in zip(sols, serial):
            assert np.array_equal(sol.vector.values, ref.vector.values)
    assert _read_threads(blas_threads) == [2, 2]


def test_smallest_eigen_without_the_libraries_runs_unpinned(
    blas_threads, tabulated_pencil_2d, monkeypatch
):
    pinned = smallest_eigen(tabulated_pencil_2d, 6)

    def not_loaded(*args, **kwargs):
        raise OSError("not loaded")

    # the lookup itself, uncached, with every library refused by the loader
    monkeypatch.setattr(variational.ctypes, "CDLL", not_loaded)
    monkeypatch.setattr(variational, "_bundled_openblas", variational._bundled_openblas.__wrapped__)
    assert variational._bundled_openblas() == ()
    unpinned, seen = _solve_recording(
        tabulated_pencil_2d, 6, monkeypatch, lambda a: _read_threads(blas_threads)
    )
    assert seen == [[2, 2]] * 4  # the caller's counts
    np.testing.assert_allclose(
        [sol.nu for sol in unpinned], [sol.nu for sol in pinned], rtol=0, atol=1e-12
    )


def test_operator_apply_and_functional():
    grid = make_grid(128, 10.0)
    win = _unit_window(grid)
    triple = AdmissibleTriple(grid.axis.astype(complex), grid.freq_axis.astype(complex), 1.0)
    pair = build_forms(triple, win, grid)
    sol = smallest_eigen(pair, 1)[0]
    # the localization operator acts as 1/nu on the eigenvector
    Av = operator_A_apply(pair, sol.vector)
    np.testing.assert_allclose(Av.values, sol.vector.values / sol.nu, atol=1e-10)
    assert hilbert_functional(pair, sol.vector) == pytest.approx(sol.lam, rel=1e-10)
    # Rayleigh principle: any other function lies above the bottom eigenvalue
    probe = random_smooth(RandomFunctionSpec(seed=3), grid)
    assert hilbert_functional(pair, probe) >= sol.lam - 1e-12


def test_hilbert_functional_on_a_complex_pencil():
    triple, win = _asymmetric_triple("modulated_window", make_grid(512, 12.0))
    pair = build_forms(triple, win, win.grid)
    assert pair.form0.dtype == np.complex128
    sol = smallest_eigen(pair, 1)[0]
    assert hilbert_functional(pair, sol.vector) == pytest.approx(sol.lam, rel=1e-10)
    probe = random_smooth(RandomFunctionSpec(seed=3), win.grid)
    assert hilbert_functional(pair, probe) >= sol.lam - 1e-12


def test_hilbert_functional_allocation_budget():
    # the README's real pencil (psi = x, phi = w, m0 = 1) at 1024 nodes: each
    # form is 8 MiB, and form @ v casts one to complex128 for a complex v
    # (16 MiB); the difference form_full - form0 is never built
    grid = make_grid(1024, 16.0)
    triple = AdmissibleTriple(grid.axis.astype(complex), grid.freq_axis.astype(complex), 1.0)
    pair = build_forms(triple, _unit_window(grid), grid)
    probe = random_smooth(RandomFunctionSpec(seed=3), grid)
    hilbert_functional(pair, probe)  # first-call imports and caches
    tracemalloc.start()
    try:
        hilbert_functional(pair, probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 << 20


def test_oscillator_spectrum_and_modes():
    vals = oscillator_modes(1024, 16.0, 6)[0]
    targets = [(2 * k + 1) / (2 * math.pi) for k in range(6)]
    np.testing.assert_allclose(vals, targets, atol=1e-3)
    mvals, modes = oscillator_modes(512, 12.0, 3)
    h = modes[0].grid.spacing
    gram = np.array(
        [[np.vdot(a.values, b.values).real * h for b in modes] for a in modes]
    )
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        oscillator_modes(512, 12.0, 11)


def test_import_defers_scipy_solvers_and_fft():
    src = str(Path(tfuncert.__file__).resolve().parents[1])
    probe = (
        "import sys, tfuncert, tfuncert.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.fft') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Frechet derivatives


def _term_value(f, term):
    if isinstance(term, XMomentTerm):
        return moment_seminorm(f, term.p, term.a, "x")
    if isinstance(term, OmegaMomentTerm):
        return moment_seminorm(f, term.q, term.b, "omega")
    return modulation_norm(f, term.window, term.r, term.s, term.alpha, term.beta)


def _central_diff(f, u, term, step=1e-4):
    plus = _term_value(f.with_values(f.values + step * u.values), term)
    minus = _term_value(f.with_values(f.values - step * u.values), term)
    return (plus - minus) / (2.0 * step)


def test_frechet_terms_match_central_differences(grid128):
    f = random_smooth(RandomFunctionSpec(seed=31), grid128)
    u = random_smooth(RandomFunctionSpec(seed=32), grid128)
    win = default_window(grid128)
    terms = [
        XMomentTerm(2.0, 1.0),
        XMomentTerm(2.5, 0.7),
        OmegaMomentTerm(2.0, 1.0),
        OmegaMomentTerm(2.2, 0.9),
        ModulationTerm(2.0, 2.0, 0.0, 0.0, win),
        ModulationTerm(1.5, 1.8, 0.3, 0.2, win),
    ]
    for term in terms:
        exact = frechet_directional(f, u, term)
        approx = _central_diff(f, u, term)
        assert exact == pytest.approx(approx, rel=1e-5, abs=1e-8)


def test_frechet_term_validation(grid128):
    with pytest.raises(DomainError):
        XMomentTerm(1.0, 1.0)  # p = 1 is not differentiable
    with pytest.raises(DomainError):
        OmegaMomentTerm(2.0, -0.5)
    with pytest.raises(DomainError):
        ModulationTerm(2.0, 2.0)  # window missing
    with pytest.raises(DomainError):
        ModulationTerm(math.inf, 2.0, window=default_window(grid128))


def test_frechet_homogeneity(grid128):
    # all three terms are 1-homogeneous: dF(f)[f] = F(f)
    f = random_smooth(RandomFunctionSpec(seed=33), grid128)
    win = default_window(grid128)
    for term in (XMomentTerm(2.5, 0.7), OmegaMomentTerm(2.2, 0.9), ModulationTerm(1.5, 1.8, 0.3, 0.2, win)):
        assert frechet_directional(f, f, term) == pytest.approx(_term_value(f, term), rel=1e-10)


def _modulation_grad_oracle(f, g, r, s, alpha, beta):
    """The gradient as the plain composition stft -> signed power -> adjoint."""
    grid = f.grid
    V = stft(f, g).values
    reduction = _MixedReduction(grid, MixedOrder(r, s, inner="x"), BracketWeight(alpha, beta))
    reduction.add(slice(None), V)
    inner = reduction.inner()
    value = reduction.value()
    wx, ww = reduction.inner_weight, reduction.outer_weight
    with np.errstate(divide="ignore", invalid="ignore"):
        col = np.where(inner > 0, inner ** (s - r), 0.0)
    coeff = value ** (1.0 - s) * (ww**s * col)[None, :] * (wx**r)[:, None]
    mags = np.abs(V)
    with np.errstate(divide="ignore", invalid="ignore"):
        signed = np.where(mags > 0, mags ** (r - 2.0), 0.0) * V
    return value, grid.freq_cell * stft_adjoint(coeff * signed, g)


@pytest.mark.parametrize("r, s, alpha, beta", [(2, 2, 0, 0), (1.5, 1.8, 0.3, 0.2), (2.5, 1.5, 0, 0)])
def test_modulation_grad_matches_oracle_bitwise(grid128, r, s, alpha, beta):
    f = random_smooth(SMALL_SPEC, grid128)
    g = default_window(grid128)
    value, grad = _modulation_grad(f, g, r, s, alpha, beta)
    want_value, want_grad = _modulation_grad_oracle(f, g, r, s, alpha, beta)
    assert value == want_value
    np.testing.assert_array_equal(grad, want_grad)


@pytest.mark.parametrize(
    "grid, window",
    [
        (make_grid(1024, 12.0), default_window),
        (make_grid(32, 9.0, dim=2), default_window),
        (make_grid(32, 9.0, dim=2), rotated_gaussian),
    ],
    ids=["1024", "32^2 factored", "32^2 general"],
)
@pytest.mark.parametrize("r, s, alpha, beta", [(1.5, 1.8, 0.3, 0.2), (2.5, 1.5, 0, 0)])
def test_multi_chunk_modulation_grad_matches_oracle(grid, window, r, s, alpha, beta):
    # eight chunks: pass 2 makes seven of them again and sums the adjoint
    # chunk by chunk, so the bits may differ from the oracle's in rounding
    f = random_smooth(SMALL_SPEC, grid)
    g = window(grid)
    value, grad = _modulation_grad(f, g, r, s, alpha, beta)
    want_value, want_grad = _modulation_grad_oracle(f, g, r, s, alpha, beta)
    assert abs(value - want_value) <= 1e-12 * want_value
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def test_modulation_grad_holds_no_field():
    # a 64^2 field is 4096^2 entries (256 MiB complex); the streamed passes
    # hold a few 2 MiB chunks of rows and their magnitudes
    small = make_grid(16, 9.0, dim=2)
    _modulation_grad(default_window(small), default_window(small), 1.5, 1.5, 0.0, 0.0)  # imports
    grid = make_grid(64, 9.0, dim=2)
    f = random_smooth(SMALL_SPEC, grid)
    g = default_window(grid)
    tracemalloc.start()
    try:
        _modulation_grad(f, g, 1.5, 1.5, 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_modulation_grad_allocation_budget():
    # 256 nodes are one chunk, made once: its rows and one real buffer for
    # |V|, its power and the coefficient.  Making the chunk again, or a
    # separate array for the power or the coefficient, crosses the bound
    grid = make_grid(256, 12.0)
    f = random_smooth(SMALL_SPEC, grid)
    g = default_window(grid)
    _modulation_grad(f, g, 1.5, 1.8, 0.3, 0.2)  # first-call imports and caches
    tracemalloc.start()
    try:
        _modulation_grad(f, g, 1.5, 1.8, 0.3, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * grid.size**2 * 16


@pytest.mark.parametrize("grid", [make_grid(256, 12.0), make_grid(32, 9.0, dim=2)], ids=["256", "32^2"])
def test_tight_frame_term_matches_the_field_gradient(grid):
    # a non-Gaussian window with ||g|| = 1.7, so a wrong power of ||g|| shows
    f = random_smooth(SMALL_SPEC, grid)
    g = random_smooth(RandomFunctionSpec(seed=22, band_fraction=0.5, envelope_sigma=1.2), grid)
    g = scale(g, 1.7)
    value, grad = ModulationTerm(2.0, 2.0, 0.0, 0.0, g)._value_and_grad(f)
    want_value, want_grad = _modulation_grad(f, g, 2.0, 2.0, 0.0, 0.0)
    assert abs(value - want_value) <= 1e-12 * want_value
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


@pytest.mark.parametrize("r, s, alpha, beta", [(1.5, 1.8, 0.3, 0.2), (2.0, 2.0, 0.3, 0.0)])
def test_other_modulation_terms_take_the_field_gradient(grid128, r, s, alpha, beta):
    f = random_smooth(SMALL_SPEC, grid128)
    g = default_window(grid128)
    value, grad = ModulationTerm(r, s, alpha, beta, g)._value_and_grad(f)
    want_value, want_grad = _modulation_grad(f, g, r, s, alpha, beta)
    assert value == want_value
    np.testing.assert_array_equal(grad, want_grad)


def _count_calls(monkeypatch, calls, owner, name):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_tight_frame_descent_takes_no_field(grid128, monkeypatch):
    # the M^{2,2} descent streams one norm per evaluation, which normalizes
    # the trial point, and nothing else: its gradient takes no phase-space
    # field, streamed or materialized.  The x-moment term counts evaluations
    def refuse(*args, **kwargs):
        raise AssertionError("phase-space field taken")

    calls = {"_value_and_grad": 0, "modulation_norm": 0}
    monkeypatch.setattr(variational, "_modulation_grad", refuse)
    _count_calls(monkeypatch, calls, XMomentTerm, "_value_and_grad")
    _count_calls(monkeypatch, calls, variational, "modulation_norm")
    init = random_smooth(RandomFunctionSpec(seed=50), grid128)
    sol = minimize_banach(HEISENBERG, default_window(grid128), grid128, init)
    assert sol.converged
    assert calls["modulation_norm"] == calls["_value_and_grad"] > sol.iterations
    e = ExponentSet(d=1, p=2, q=2, a=1, b=1, r=2, s=2, alpha=0.3, beta=0)
    with pytest.raises(AssertionError, match="phase-space field"):
        minimize_banach(e, default_window(grid128), grid128, init, MinimizeOptions(max_iter=1))


def test_field_route_descent_takes_one_modulation_pass_per_evaluation(grid128, monkeypatch):
    # M(Tu) comes from the gradient's pass 1; evaluations are counted by the
    # x-moment term, which every trial point takes once
    def refuse(*args, **kwargs):
        raise AssertionError("separate modulation norm taken")

    calls = {"_value_and_grad": 0, "_modulation_grad": 0}
    monkeypatch.setattr(variational, "modulation_norm", refuse)
    _count_calls(monkeypatch, calls, XMomentTerm, "_value_and_grad")
    _count_calls(monkeypatch, calls, variational, "_modulation_grad")
    e = ExponentSet(d=1, p=2, q=2, a=1, b=1, r=1.5, s=1.5)
    init = random_smooth(RandomFunctionSpec(seed=50), grid128)
    sol = minimize_banach(e, default_window(grid128), grid128, init, MinimizeOptions(max_iter=3))
    assert sol.iterations == 3
    assert calls["_modulation_grad"] == calls["_value_and_grad"] >= 4


@pytest.mark.parametrize(
    "grid", [make_grid(128, 10.0), make_grid(32, 9.0, dim=2)], ids=["128", "32^2"]
)
@pytest.mark.parametrize(
    "r, s, alpha, beta", [(2, 2, 0, 0), (1.5, 1.8, 0.3, 0.2)], ids=["tight frame", "field"]
)
def test_modulation_term_is_one_homogeneous(grid, r, s, alpha, beta):
    # the descent normalizes with the value that comes with the gradient: the
    # value scales with c and the gradient is the one at f, whatever c
    f = random_smooth(SMALL_SPEC, grid)
    term = ModulationTerm(r, s, alpha, beta, default_window(grid))
    value, grad = term._value_and_grad(f)

    @settings(derandomize=True, database=None, deadline=None, max_examples=6)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def check(c):
        value_c, grad_c = term._value_and_grad(scale(f, c))
        assert abs(value_c - c * value) <= 1e-12 * c * value
        assert np.max(np.abs(grad_c - grad)) <= 1e-12 * np.max(np.abs(grad))

    check()


# ---------------------------------------------------------------------------
# Banach minimization


HEISENBERG = ExponentSet(d=1, p=2, q=2, a=1, b=1, r=2, s=2, alpha=0, beta=0)


def test_stationarity_defect_keeps_a_nan():
    # max(0.0, nan) is 0.0, so a NaN gradient once read as a converged descent
    vec = np.ones(4)
    gf = np.array([np.nan, 0.0, 0.0, 0.0])
    assert math.isnan(_stationarity_defect(gf, np.zeros(4), 1.0, [vec], 1.0))
    assert math.isnan(_stationarity_defect(np.zeros(4), gf, 1.0, [vec, vec], 1.0))


def test_el_residual_gaussian_stationary(grid128):
    win = default_window(grid128)
    f = gaussian(grid128)
    f = scale(f, 1.0 / modulation_norm(f, win, 2, 2))
    lam = moment_seminorm(f, 2, 1, "x") + moment_seminorm(f, 2, 1, "omega")
    assert lam == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)
    dirs = [random_smooth(RandomFunctionSpec(seed=40 + k), grid128) for k in range(3)]
    assert el_residual_banach(f, lam, HEISENBERG, win, dirs) < 1e-10
    with pytest.raises(ValueError):
        el_residual_banach(scale(f, 2.0), lam, HEISENBERG, win, dirs)
    with pytest.raises(ValueError):
        el_residual_banach(f, lam, HEISENBERG, win, [])


def test_el_residual_matches_per_direction_derivatives(grid128):
    # the former formulation, three directional derivatives per direction
    win = default_window(grid128)
    e = ExponentSet(d=1, p=2.5, q=2.2, a=0.7, b=0.9, r=1.5, s=1.8, alpha=0.3, beta=0.2)
    f = random_smooth(RandomFunctionSpec(seed=33), grid128)
    f = scale(f, 1.0 / modulation_norm(f, win, e.r, e.s, e.alpha, e.beta))
    dirs = [random_smooth(RandomFunctionSpec(seed=70 + k), grid128) for k in range(4)]
    lam = 0.8
    x_term, w_term = XMomentTerm(e.p, e.a), OmegaMomentTerm(e.q, e.b)
    m_term = ModulationTerm(e.r, e.s, e.alpha, e.beta, win)
    expected = 0.0
    for u in dirs:
        lhs = frechet_directional(f, u, x_term) + frechet_directional(f, u, w_term)
        rhs = frechet_directional(f, u, m_term)
        expected = max(expected, abs(lhs - lam * rhs) / lp_weighted(u, 2.0))
    assert el_residual_banach(f, lam, e, win, dirs) == pytest.approx(expected, rel=1e-12)


def test_minimize_gaussian_init_is_fixed_point(grid128):
    win = default_window(grid128)
    sol = minimize_banach(HEISENBERG, win, grid128, init=gaussian(grid128))
    assert sol.converged and sol.iterations == 0
    assert sol.lam == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)
    assert not sol.exploratory


def test_minimize_random_start_reaches_gaussian_value(grid128):
    win = default_window(grid128)
    init = random_smooth(RandomFunctionSpec(seed=50), grid128)
    sol = minimize_banach(HEISENBERG, win, grid128, init=init)
    assert sol.converged
    assert sol.el_residual <= 1e-4
    assert sol.lam == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-5)
    # the minimizer stays clean enough for the guarded certificate route
    dirs = [random_smooth(RandomFunctionSpec(seed=60 + k), grid128) for k in range(3)]
    assert el_residual_banach(sol.minimizer, sol.lam, HEISENBERG, win, dirs) <= 1e-4


@pytest.mark.parametrize("seed", [3001, 2042])
def test_minimize_converges_from_hard_starts(seed):
    # the starts that `minimize --preset heisenberg --seed 1` and `--seed 42`
    # once left unconverged at the 400-iteration cap
    grid = make_grid(256, 12.0)
    init = random_smooth(RandomFunctionSpec(seed=seed), grid)
    sol = minimize_banach(HEISENBERG, default_window(grid), grid, init)
    assert sol.converged
    assert sol.el_residual <= 1e-4
    assert sol.lam == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-6)


def test_minimize_stops_on_the_largest_defect():
    # the descent takes its stationarity defect along the ratio gradient
    # alone; at every minimizer no smooth test direction sets a larger one
    grid = make_grid(256, 12.0)
    win = default_window(grid)
    dirs = [random_smooth(RandomFunctionSpec(seed=80 + k), grid) for k in range(8)]
    for sol in minimize_multistart(HEISENBERG, win, grid):
        assert sol.converged
        for u in dirs:
            assert el_residual_banach(sol.minimizer, sol.lam, HEISENBERG, win, [u]) <= sol.el_residual


@pytest.mark.parametrize(
    "grid, alpha, beta",
    [
        pytest.param(make_grid(256, 12.0), 0.5, 0.5, id="0.5-0.5"),
        pytest.param(make_grid(256, 12.0), 1.0, 0.25, id="1.0-0.25"),
        # the d = 2 field-route gradient, tabulated form0 and per-axis parity blocks
        pytest.param(make_grid(32, 9.0, dim=2), 0.5, 0.5, id="32^2-0.5-0.5"),
    ],
)
def test_minimize_matches_hilbert_banach_bridge(grid, alpha, beta):
    # For p = q = r = s = 2, Cauchy-Schwarz gives A + B = min_c (A^2/c + B^2/(1-c))^(1/2),
    # so the Banach minimum is sqrt(min_c lam_H(c)), lam_H(c) the smallest
    # eigenvalue of the pencil with psi = |x|/sqrt(c), phi = |w|/sqrt(1-c) and
    # m0 the bracket weight of the modulation norm.
    win = default_window(grid)
    x, w = grid.radii(), grid.freq_radii()
    m0 = np.outer((1.0 + x) ** alpha, (1.0 + w) ** beta)

    def ground(c):
        triple = AdmissibleTriple(x / math.sqrt(c), w / math.sqrt(1.0 - c), m0)
        return smallest_eigen(build_forms(triple, win, grid))[0]

    best = minimize_scalar(
        lambda c: ground(c).lam, bounds=(0.05, 0.95), method="bounded", options={"xatol": 1e-6}
    )
    oracle = math.sqrt(best.fun)
    # the Euler-Lagrange equations make the minimizer the ground eigenvector at c*
    v = ground(best.x).vector.values
    e = ExponentSet(d=grid.dim, p=2, q=2, a=1, b=1, r=2, s=2, alpha=alpha, beta=beta)
    for sol in minimize_multistart(e, win, grid, starts=2):
        assert sol.converged
        assert sol.lam == pytest.approx(oracle, abs=1e-6)
        f = sol.minimizer.values
        cos = abs(np.vdot(f, v)) / (np.linalg.norm(f) * np.linalg.norm(v))
        assert 1.0 - cos <= 1e-8


@pytest.mark.parametrize("grid", [make_grid(256, 12.0), make_grid(16, 6.0, dim=2)], ids=["256", "16^2"])
def test_moment_preconditioner_is_self_adjoint_and_positive(grid):
    apply = _moment_preconditioner(grid, 1.0, 2.0)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u, v = (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size) for _ in range(2))
        left, right = _pairing(apply(u), v, grid.cell), _pairing(u, apply(v), grid.cell)
        assert abs(left - right) <= 1e-12 * abs(left)
        assert _pairing(apply(u), u, grid.cell) > 0.0


@pytest.mark.parametrize("grid", [make_grid(256, 12.0), make_grid(32, 9.0, dim=2)], ids=["256", "32^2"])
def test_moment_preconditioner_is_the_centered_composition(grid):
    # the centering rolls folded into the diagonals change no bit
    apply = _moment_preconditioner(grid, 1.0, 2.0)
    xdiag = (1.0 / (1.0 + grid.radii() ** 2.0)).reshape(grid.shape)
    wdiag = ((1.0 + grid.freq_radii() ** 4.0) ** -0.5).reshape(grid.shape)

    def half(v):
        return _centered_ifftn(wdiag * _centered_fftn(v))

    rng = np.random.default_rng(6)
    for _ in range(5):
        u = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        np.testing.assert_array_equal(apply(u), half(xdiag * half(u.reshape(grid.shape))).ravel())


def test_preconditioned_descent_converges_on_quartic_symbols():
    # a = b = 2: the moment Hessians |x|^4 and |w|^4 are badly conditioned, and
    # L-BFGS from the identity stops at 400 iterations short of the minimum
    grid = make_grid(256, 12.0)
    e = ExponentSet(d=1, p=2, q=2, a=2, b=2, r=2, s=2)
    sols = minimize_multistart(e, default_window(grid), grid, starts=3)
    assert all(sol.converged for sol in sols)
    lams = [sol.lam for sol in sols]
    assert max(lams) - min(lams) <= 1e-8


def test_only_quadratic_moments_are_preconditioned(grid128, monkeypatch):
    def refuse(*args):
        raise AssertionError("preconditioner built for non-quadratic moments")

    monkeypatch.setattr(variational, "_moment_preconditioner", refuse)
    e = ExponentSet(d=1, p=3, q=2, a=1, b=1, r=2, s=2)
    sol = minimize_banach(e, default_window(grid128), grid128, options=MinimizeOptions(max_iter=3))
    assert sol.iterations >= 1
    with pytest.raises(AssertionError, match="preconditioner"):
        minimize_banach(HEISENBERG, default_window(grid128), grid128)


def test_minimize_results_independent_of_fft_workers(monkeypatch):
    # a 512-node field is two 256-row chunks, so with more than one worker the
    # streamed modulation norm runs on the pool; the M^{2,2} gradient takes
    # no field (the tight-frame identity)
    grid = make_grid(512, 12.0)
    win = default_window(grid)
    first = None
    for workers in (1, 2, 8):
        monkeypatch.setattr(transforms, "_FFT_WORKERS", workers)
        got = [
            (sol.lam, sol.el_residual, sol.iterations, sol.minimizer.values.tobytes())
            for sol in minimize_multistart(HEISENBERG, win, grid, starts=3)
        ]
        first = first or got
        assert got == first


def test_field_route_descent_independent_of_fft_workers(monkeypatch):
    # at r = s = 1.5 the modulation gradient streams V_g f twice and sums
    # the adjoint chunk by chunk, two 256-row chunks on the 512-node grid
    grid = make_grid(512, 12.0)
    win = default_window(grid)
    e = ExponentSet(d=1, p=2, q=2, a=1, b=1, r=1.5, s=1.5)
    first = None
    for workers in (1, 2, 8):
        monkeypatch.setattr(transforms, "_FFT_WORKERS", workers)
        got = [
            (sol.lam, sol.el_residual, sol.iterations, sol.minimizer.values.tobytes())
            for sol in minimize_multistart(
                e, win, grid, starts=2, options=MinimizeOptions(max_iter=10)
            )
        ]
        first = first or got
        assert got == first


def test_minimize_validation(grid128):
    win = default_window(grid128)
    with pytest.raises(DomainError):
        minimize_banach(ExponentSet(d=2, p=2, q=2, a=1, b=1, r=2, s=2), win, grid128)
    with pytest.raises(DomainError):
        minimize_banach(ExponentSet(d=1, p=2, q=2, a=1, b=1), win, grid128)
    with pytest.raises(ValueError):
        minimize_banach(HEISENBERG, win, grid128, init=scale(win, 0.0))
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            MinimizeOptions(tol=tol)
    with pytest.raises(ValueError, match="max_iter"):
        MinimizeOptions(max_iter=0)


def test_minimize_exploratory_flag(grid128):
    # moment orders too small for the positivity criterion: run proceeds flagged
    e = ExponentSet(d=1, p=2, q=2, a=0.05, b=0.05, r=1.5, s=1.5)
    assert not bool(check_galperin_grochenig(e))
    win = default_window(grid128)
    sol = minimize_banach(e, win, grid128, init=gaussian(grid128), options=MinimizeOptions(max_iter=5))
    assert sol.exploratory


def test_minimize_multistart_deterministic(grid128):
    win = default_window(grid128)
    opts = MinimizeOptions(max_iter=60)
    a = minimize_multistart(HEISENBERG, win, grid128, starts=2, options=opts, seed=7)
    b = minimize_multistart(HEISENBERG, win, grid128, starts=2, options=opts, seed=7)
    assert [s.lam for s in a] == [s.lam for s in b]
    with pytest.raises(ValueError):
        minimize_multistart(HEISENBERG, win, grid128, starts=0)
