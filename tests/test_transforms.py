"""Fourier machinery against closed forms and brute-force summation oracles."""

import math
import threading
import time
from collections import Counter
import tracemalloc

import numpy as np
import pytest

from tfuncert import transforms
from tfuncert.certifier import certify_lieb_forward, certify_lieb_reverse
from tfuncert.constants import solve_partner_exponent
from tfuncert.norms import (
    BracketWeight,
    MixedOrder,
    TabulatedWeight,
    default_window,
    lp_weighted,
    modulation_norm,
    modulation_norm_m,
    stft_mixed_norm,
)
from tfuncert.sampling import (
    RandomFunctionSpec,
    SampledFunction,
    make_grid,
    random_smooth,
    sample_closure,
    scale,
)
from tfuncert.transforms import (
    AliasingError,
    PhaseSpaceFunction,
    ambiguity,
    ambiguity_direct,
    convolve,
    fourier,
    inverse_fourier,
    stft,
    stft_adjoint,
    stft_row_chunks,
)
from tfuncert.variational import ModulationTerm, frechet_directional

from conftest import gaussian, lieb_extremals, rotated_gaussian


SMALL_SPEC = RandomFunctionSpec(seed=11, band_fraction=0.5, envelope_sigma=1.2)


# ---------------------------------------------------------------------------
# fourier transform


def test_fourier_gaussian_closed_form(grid512):
    # F[e^(-pi a x^2)](w) = a^(-1/2) e^(-pi w^2 / a)
    for a in (1.0, 2.5, 0.5):
        f = gaussian(grid512, math.pi * a)
        F = fourier(f)
        w = F.grid.axis
        expected = a**-0.5 * np.exp(-math.pi * w**2 / a)
        np.testing.assert_allclose(F.values, expected, atol=1e-13)
        assert F.grid.compatible(grid512.conjugate())


def test_fourier_unitary_and_invertible(grid512):
    f = random_smooth(RandomFunctionSpec(seed=2), grid512)
    F = fourier(f)
    # Parseval with the conjugate-grid quadrature weight
    assert lp_weighted(F, 2.0) == pytest.approx(lp_weighted(f, 2.0), rel=1e-13)
    back = inverse_fourier(F)
    np.testing.assert_allclose(back.values, f.values, atol=1e-14)


def test_fourier_twice_is_parity():
    grid = make_grid(64, 10.0)
    f = sample_closure(lambda x: np.exp(-(x**2)) * (x + 0.3), grid)
    # the double transform lives back on the original grid scaled by n/extent
    ff = fourier(fourier(f))
    flipped = np.concatenate(([f.values[0]], f.values[1:][::-1]))
    np.testing.assert_allclose(ff.values, flipped, atol=1e-12)


def test_fourier_shift_modulation(grid512):
    # F[e^(2 pi i w0 x) f](w) = F f(w - w0) for an on-grid shift w0
    f = gaussian(grid512, math.pi)
    w0 = 4 * grid512.freq_spacing
    mod = f.with_values(f.values * np.exp(2j * math.pi * w0 * grid512.axis))
    np.testing.assert_allclose(
        fourier(mod).values, np.roll(fourier(f).values, 4), atol=1e-13
    )


def test_fourier_2d_separable():
    grid = make_grid(32, 9.0, dim=2)
    fx = np.exp(-math.pi * grid.axis**2)
    fy = np.exp(-2.0 * grid.axis**2)
    f = SampledFunction(grid, np.outer(fx, fy).ravel())
    F2 = fourier(f).reshaped()
    g1 = make_grid(32, 9.0)
    Fx = fourier(SampledFunction(g1, fx)).values
    Fy = fourier(SampledFunction(g1, fy)).values
    np.testing.assert_allclose(F2, np.outer(Fx, Fy), atol=1e-13)


# ---------------------------------------------------------------------------
# convolution


def test_convolve_gaussian_closed_form(grid512):
    # e^(-pi a .) * e^(-pi b .) = (a+b)^(-1/2) e^(-pi ab/(a+b) x^2)
    a, b = 1.0, 2.0
    f = gaussian(grid512, math.pi * a)
    g = gaussian(grid512, math.pi * b)
    conv = convolve(f, g)
    x = grid512.axis
    expected = (a + b) ** -0.5 * np.exp(-math.pi * a * b / (a + b) * x**2)
    np.testing.assert_allclose(conv.values, expected, atol=1e-13)


def test_convolve_matches_direct_sum():
    grid = make_grid(32, 8.0)
    f = random_smooth(SMALL_SPEC, grid)
    g = random_smooth(RandomFunctionSpec(seed=12, band_fraction=0.5, envelope_sigma=1.2), grid)
    # direct circular quadrature sum, independent of the FFT route
    n = grid.n
    direct = np.empty(n, dtype=complex)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += f.values[(i - j + n // 2) % n] * g.values[j]
        direct[i] = acc * grid.spacing
    np.testing.assert_allclose(convolve(f, g).values, direct, atol=1e-13)


def test_convolve_rejects_non_decaying(grid512):
    flat = SampledFunction(grid512, np.ones(grid512.size))
    with pytest.raises(AliasingError):
        convolve(flat, gaussian(grid512))


# ---------------------------------------------------------------------------
# short-time Fourier transform


def _stft_direct(f, g):
    """O(n^3) defining sum with explicit circular window shifts."""
    grid = f.grid
    n = grid.n
    x, w = grid.axis, grid.freq_axis
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        shifted = g.values[(np.arange(n) - i + n // 2) % n]
        integrand = f.values * np.conj(shifted)
        out[i] = np.exp(-2j * math.pi * np.outer(w, x)) @ integrand * grid.spacing
    return out


def test_stft_matches_direct_sum():
    # n = 8 is the smallest grid, the edge case of the parity-folded shifts
    for grid in (make_grid(16, 8.0), make_grid(8, 8.0)):
        f = random_smooth(SMALL_SPEC, grid)
        g = default_window(grid)
        V = stft(f, g)
        np.testing.assert_allclose(V.values, _stft_direct(f, g), atol=1e-13)


def test_stft_gaussian_closed_form(grid512):
    # |V_g g| = e^(-pi(x^2+w^2)/2) for the normalized Gaussian window
    g = default_window(grid512)
    V = stft(g, g)
    x = grid512.coords()[:, 0]
    w = grid512.freq_coords()[:, 0]
    expected = np.exp(-0.5 * math.pi * (x[:, None] ** 2 + w[None, :] ** 2))
    np.testing.assert_allclose(np.abs(V.values), expected, atol=1e-12)


def test_stft_moyal_exact(grid512):
    f = random_smooth(RandomFunctionSpec(seed=4), grid512)
    g = default_window(grid512)
    V = stft(f, g)
    energy = float(np.sum(np.abs(V.values) ** 2)) * grid512.cell * grid512.freq_cell
    target = lp_weighted(f, 2.0) ** 2 * lp_weighted(g, 2.0) ** 2
    assert energy == pytest.approx(target, rel=1e-13)


def test_stft_row_chunks_agree(grid128):
    # in d = 2 a 37-row chunk straddles rows of the first node axis
    for grid, spec in (
        (grid128, RandomFunctionSpec(seed=5)),
        (make_grid(16, 9.0, dim=2), SMALL_SPEC),
    ):
        f = random_smooth(spec, grid)
        g = default_window(grid)
        V = stft(f, g).values
        seen = 0
        for idx, rows in stft_row_chunks(f, g, chunk=37):
            np.testing.assert_array_equal(rows, V[idx])
            seen += len(idx)
        assert seen == grid.size


def test_half_spectrum_rows(grid128):
    # real f and g: each half row is the full row's nodes with first index at
    # most n/2, and every other node holds the conjugate of its mirror
    for grid, spec in (
        (grid128, RandomFunctionSpec(seed=5)),
        (make_grid(16, 9.0, dim=2), SMALL_SPEC),
    ):
        f = random_smooth(spec, grid)
        real, g = f.with_values(f.values.real), default_window(grid)
        V = stft(real, g).values.reshape((grid.size,) + grid.shape)
        peak = np.abs(V).max()
        half = V[:, : grid.n // 2 + 1]
        mirror = (slice(None),) + np.ix_(*[-np.arange(grid.n) % grid.n] * grid.dim)
        assert np.max(np.abs(V - np.conj(V[mirror]))) <= 1e-13 * peak
        seen = 0
        for idx, rows in stft_row_chunks(real, g, chunk=37, half=True):
            assert rows.shape == (len(idx), half[0].size)
            assert np.max(np.abs(rows - half[idx].reshape(len(idx), -1))) <= 1e-13 * peak
            seen += len(idx)
        assert seen == grid.size
        for args in ((f, g), (real, g.with_values(g.values * 1j))):
            with pytest.raises(ValueError, match="real f and g"):
                stft_row_chunks(*args, half=True)


@pytest.mark.parametrize("n", [16, 32])
def test_factored_rows_match_the_general_route(monkeypatch, n):
    # the rows of a tensor window (full rows, half rows and the flipped bank
    # of ambiguity) against the node-product route's, to 1e-13 of the peak;
    # 37-row chunks straddle rows of the first node axis
    grid = make_grid(n, 9.0, dim=2)
    f = random_smooth(SMALL_SPEC, grid)
    real = f.with_values(f.values.real)
    lieb_f, lieb_g = lieb_extremals(grid)
    pairs = [(f, default_window(grid)), (f, lieb_g), (lieb_f, lieb_g)]
    real_pairs = [(real, default_window(grid)), (lieb_f, lieb_g)]

    def fields():
        full = [np.concatenate([rows for _, rows in stft_row_chunks(h, g, chunk=37)]) for h, g in pairs]
        half = [
            np.concatenate([rows for _, rows in stft_row_chunks(h, g, chunk=37, half=True)])
            for h, g in real_pairs
        ]
        return full + half + [ambiguity(h, g).values for h, g in pairs]

    factored = fields()
    monkeypatch.setattr(transforms, "_tensor_factors", lambda w: None)
    for want, got in zip(fields(), factored):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()


def test_reduced_rows_stay_valid_until_the_next_step(monkeypatch):
    # with reduce, the rows live in a ring of buffers that the chunks
    # computing ahead must not reuse: while the consumer holds a chunk, long
    # enough for those chunks to finish, its rows and part stay its own
    monkeypatch.setattr(transforms, "_FFT_WORKERS", 8)
    grid = make_grid(32, 9.0, dim=2)
    f = random_smooth(SMALL_SPEC, grid)
    for h, g, half in (
        (f, default_window(grid), False),
        (f, rotated_gaussian(grid), False),
        (f.with_values(f.values.real), default_window(grid), True),
    ):
        want = np.concatenate([rows for _, rows in stft_row_chunks(h, g, chunk=37, half=half)])
        seen = 0
        for idx, rows, part in stft_row_chunks(
            h, g, chunk=37, half=half, reduce=lambda idx, rows: rows.sum(axis=1)
        ):
            time.sleep(0.005)
            np.testing.assert_array_equal(rows, want[idx])
            np.testing.assert_array_equal(part, want[idx].sum(axis=1))
            seen += len(idx)
        assert seen == grid.size


def test_tensor_windows_take_the_factored_route(monkeypatch):
    # the Gaussian window and both Lieb extremals are tensor products to
    # rounding; the rotated Gaussian and a random window are not
    grid = make_grid(32, 9.0, dim=2)
    taken = []
    factored_fill = transforms._factored_fill

    def spy(*args, **kwargs):
        taken.append(True)
        return factored_fill(*args, **kwargs)

    monkeypatch.setattr(transforms, "_factored_fill", spy)
    f = random_smooth(SMALL_SPEC, grid)
    real = f.with_values(f.values.real)
    other = random_smooth(RandomFunctionSpec(seed=12, band_fraction=0.5, envelope_sigma=1.2), grid)
    for g, tensor in (
        (default_window(grid), True),
        *((g, True) for g in lieb_extremals(grid)),
        (rotated_gaussian(grid), False),
        (other, False),
        (other.with_values(other.values.real), False),
    ):
        for make in (
            lambda: stft(f, g),
            lambda: ambiguity(f, g),
            lambda: next(stft_row_chunks(real, g.with_values(g.values.real), half=True)),
        ):
            make()
            assert taken == [True] * tensor
            taken.clear()


def _record_fft_calls(monkeypatch) -> list:
    """Log ``(entries, workers, thread id)`` of every scipy.fft fft/fftn/ifftn/rfft/rfftn call from now on."""
    import scipy.fft

    calls = []
    for name in ("fft", "fftn", "ifftn", "rfft", "rfftn"):
        real = getattr(scipy.fft, name)

        def spy(x, *args, _real=real, **kwargs):
            calls.append((x.size, kwargs["workers"], threading.get_ident()))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    return calls


def test_stft_results_independent_of_fft_workers(monkeypatch):
    # 1024 nodes and 32^2 both have eight 128-row chunks, so with more than
    # one worker the chunks really run on the pool; the real part of f
    # streams half-spectrum rows (rfftn).  In d = 2 the Gaussian window takes
    # the factored route, and the norms of the rotated one the general route
    calls = _record_fft_calls(monkeypatch)
    rng = np.random.default_rng(12)
    for grid in (make_grid(1024, 12.0), make_grid(32, 9.0, dim=2)):
        f = random_smooth(SMALL_SPEC, grid)
        real = f.with_values(f.values.real)
        g = default_window(grid)
        extra_windows = [rotated_gaussian(grid)] if grid.dim == 2 else []
        size = grid.size
        Y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        first = None
        for workers in (1, 2, 8):
            monkeypatch.setattr(transforms, "_FFT_WORKERS", workers)
            results = [
                stft(f, g).values,
                ambiguity(f, g).values,
                stft_adjoint(Y, g),
                *(
                    stft_mixed_norm(f, g, MixedOrder(r, s, inner), chunk=chunk)
                    for r, s, inner in ((1.5, 2.5, "x"), (2.5, 1.5, "omega"))
                    for chunk in (None, 37)
                ),
                *(
                    stft_mixed_norm(real, g, MixedOrder(r, s, inner), BracketWeight(0.5, 0.5), chunk)
                    for r, s, inner in ((1.5, 2.5, "x"), (2.5, 1.5, "omega"))
                    for chunk in (None, 37)
                ),
                *(
                    stft_mixed_norm(f, window, MixedOrder(r, s, inner), chunk=37)
                    for window in extra_windows
                    for r, s, inner in ((1.5, 2.5, "x"), (2.5, 1.5, "omega"))
                ),
            ]
            if first is None:
                first = results
            for want, got in zip(first, results):
                np.testing.assert_array_equal(got, want)
    assert {workers for _, workers, _ in calls} == {1}
    assert {thread for _, _, thread in calls} - {threading.get_ident()}


def test_row_ffts_run_on_one_thread_per_chunk(monkeypatch, grid128):
    # every FFT call transforms one chunk of at most 2^17 entries on one
    # thread: a 128-node field is one chunk, run inline on the calling
    # thread, and a 64^2 field is 128 chunks of 32 rows.  Its tensor window
    # takes two FFTs per chunk: one over the first node axis of the 64^2
    # node product, shared by the chunk's rows, and one over the second axis
    # of its 32 rows (the two threads' calls interleave in the log)
    monkeypatch.setattr(transforms, "_FFT_WORKERS", 2)
    calls = _record_fft_calls(monkeypatch)
    stft(gaussian(grid128), default_window(grid128))
    assert calls == [(128 * 128, 1, threading.get_ident())]
    grid = make_grid(64, 10.0, dim=2)
    chunks = [len(idx) for idx, _ in stft_row_chunks(gaussian(grid), default_window(grid))]
    assert chunks == [32] * 128
    assert Counter((entries, workers) for entries, workers, _ in calls[1:]) == {
        (64**2, 1): 128,
        (32 * 64**2, 1): 128,
    }
    assert max(entries for entries, _, _ in calls) <= transforms._CHUNK_ENTRIES


def test_stft_guards(grid512):
    g = default_window(grid512)
    flat = SampledFunction(grid512, np.ones(grid512.size))
    with pytest.raises(AliasingError):
        stft(flat, g)
    with pytest.raises(ValueError):
        stft(g, g.with_values(np.zeros(grid512.size)))


_LIEB_REVERSE = (1.5, 1.5, 2.0, solve_partner_exponent(1.5, 1.5, 2.0))

# every public route to V_g f or to a norm of it, as (f, g) -> value
STFT_ROUTES = {
    "stft": stft,
    "ambiguity": ambiguity,
    "modulation_norm": lambda f, g: modulation_norm(f, g, 2.0, 2.0),
    "modulation_norm_m separable": lambda f, g: modulation_norm_m(f, g, BracketWeight(0.5, 0.5)),
    "modulation_norm_m tabulated": lambda f, g: modulation_norm_m(
        f, g, TabulatedWeight(np.ones((f.grid.size, f.grid.size)))
    ),
    "certify_lieb_forward": lambda f, g: certify_lieb_forward(f, g, 4.0, 2.0),
    "certify_lieb_reverse x": lambda f, g: certify_lieb_reverse(f, g, *_LIEB_REVERSE, "x"),
    "certify_lieb_reverse omega": lambda f, g: certify_lieb_reverse(f, g, *_LIEB_REVERSE, "omega"),
    "frechet_directional": lambda f, g: frechet_directional(f, f, ModulationTerm(2.0, 2.0, window=g)),
}


@pytest.mark.parametrize("route", sorted(STFT_ROUTES))
def test_every_stft_route_is_guarded(route):
    grid = make_grid(128, 12.0)
    call = STFT_ROUTES[route]
    f, g = gaussian(grid), default_window(grid)
    call(f, g)  # the guarded inputs are otherwise valid
    with pytest.raises(AliasingError):
        call(SampledFunction(grid, np.ones(grid.size)), g)
    with pytest.raises(ValueError, match="identically zero"):
        call(f, g.with_values(np.zeros(grid.size)))
    with pytest.raises(ValueError, match="same grid"):
        call(f, default_window(make_grid(128, 10.0)))


# ---------------------------------------------------------------------------
# ambiguity function


def test_ambiguity_matches_direct_lags(grid128):
    f = random_smooth(RandomFunctionSpec(seed=6), grid128)
    g = random_smooth(RandomFunctionSpec(seed=7), grid128)
    A = ambiguity(f, g)
    n = grid128.n
    for steps in (-6, -2, 0, 4, 10):
        row = ambiguity_direct(f, g, steps)
        np.testing.assert_allclose(A.values[n // 2 + steps], row, atol=1e-12)
    with pytest.raises(ValueError):
        ambiguity_direct(f, g, 3)  # odd lag has no node representation


def test_ambiguity_center_is_inner_product(grid128):
    f = random_smooth(RandomFunctionSpec(seed=8), grid128)
    g = random_smooth(RandomFunctionSpec(seed=9), grid128)
    A = ambiguity(f, g)
    n = grid128.n
    # A(0, 0) = <f, g> in L2 (complex in general)
    inner = complex(np.sum(f.values * np.conj(g.values))) * grid128.cell
    assert abs(A.values[n // 2, n // 2] - inner) < 1e-13


def test_ambiguity_2d_runs():
    grid = make_grid(16, 9.0, dim=2)
    g = default_window(grid)
    A = ambiguity(g, g)
    c = grid.size // 2 + grid.n // 2  # flat index of the origin node
    norm_sq = float(np.sum(np.abs(g.values) ** 2)) * grid.cell
    assert abs(A.values[c, c] - norm_sq) < 1e-12


def test_ambiguity_allocation_budget():
    # the phase multiplies the field half a chunk of rows at a time, so no
    # size^2 phase table exists: the peak is stft's plus at most one chunk
    grid = make_grid(1024, 12.0)
    f, g = random_smooth(SMALL_SPEC, grid), default_window(grid)
    peaks = []
    for transform in (stft, ambiguity):
        transform(f, g)  # the shared lattice tables are built outside the trace
        tracemalloc.start()
        try:
            transform(f, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + transforms._CHUNK_ENTRIES * 16


# ---------------------------------------------------------------------------
# adjoint


def test_stft_adjoint_pairing_identity(grid128):
    rng = np.random.default_rng(3)
    g = default_window(grid128)
    u = random_smooth(RandomFunctionSpec(seed=10), grid128)
    size = grid128.size
    Y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    lhs = np.vdot(Y, stft(u, g).values)
    rhs = np.vdot(stft_adjoint(Y, g), u.values)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError):
        stft_adjoint(Y[:-1], g)


@pytest.mark.parametrize("grid", [make_grid(256, 12.0), make_grid(32, 9.0, dim=2)], ids=["256", "32^2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_stft_is_a_tight_frame(grid, seed):
    # S^H S = ||g||^2 I with the phase-space quadrature folded in, for any
    # window: the identity the M^{2,2} gradient of the descent rests on
    u = random_smooth(RandomFunctionSpec(seed=seed, band_fraction=0.5, envelope_sigma=1.2), grid)
    # ||g|| = 1.7, so a wrong power of ||g|| shows
    g = random_smooth(RandomFunctionSpec(seed=seed + 100, band_fraction=0.5, envelope_sigma=1.2), grid)
    g = scale(g, 1.7)
    back = grid.freq_cell * stft_adjoint(stft(u, g).values, g)
    want = lp_weighted(g, 2.0) ** 2 * u.values
    assert np.max(np.abs(back - want)) <= 1e-12 * np.max(np.abs(want))


def test_phase_space_container_validation(grid128):
    with pytest.raises(ValueError):
        PhaseSpaceFunction(grid128, np.zeros((3, 3)))
    V = PhaseSpaceFunction(grid128, np.zeros((grid128.size, grid128.size)))
    assert V.freq_grid.compatible(grid128.conjugate())
