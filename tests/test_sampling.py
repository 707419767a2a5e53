"""Grid geometry, sampled-function containers, and seeded random inputs."""

import json
import math
import sys

import numpy as np
import pytest

from tfuncert.sampling import (
    GaussianSpec,
    Grid,
    RandomFunctionSpec,
    SampledFunction,
    make_grid,
    random_smooth,
    sample_gaussian,
    scale,
)

from conftest import gaussian


# ---------------------------------------------------------------------------
# grid geometry


def test_grid_axis_centering():
    grid = make_grid(16, 8.0)
    assert grid.spacing == 0.5
    assert grid.axis[grid.n // 2] == 0.0
    assert grid.axis[0] == -4.0
    assert grid.axis[-1] == 4.0 - 0.5
    # frequency nodes step by 1/extent and are centered the same way
    assert grid.freq_spacing == 0.125
    assert grid.freq_axis[grid.n // 2] == 0.0
    assert grid.nyquist == 1.0


def test_grid_cells_and_conjugate():
    grid = make_grid(32, 10.0, dim=2)
    assert grid.size == 32 * 32
    assert grid.cell == pytest.approx(grid.spacing**2)
    assert grid.freq_cell == pytest.approx(grid.freq_spacing**2)
    conj = grid.conjugate()
    assert conj.extent == pytest.approx(grid.n / grid.extent)
    # conjugating twice returns the original geometry
    assert conj.conjugate().compatible(grid)
    # spatial cell times frequency cell is always (1/n)^dim
    assert grid.cell * grid.freq_cell == pytest.approx((1.0 / grid.n) ** grid.dim)


def test_grid_coords_match_axis_tensor():
    grid = make_grid(8, 4.0, dim=2)
    coords = grid.coords()
    assert coords.shape == (64, 2)
    k = 3 * 8 + 5  # row-major flat index (3, 5)
    assert coords[k, 0] == grid.axis[3]
    assert coords[k, 1] == grid.axis[5]
    radii = grid.radii()
    assert radii[k] == pytest.approx(math.hypot(grid.axis[3], grid.axis[5]))
    assert grid.freq_coords()[k, 1] == grid.freq_axis[5]
    assert grid.freq_radii()[k] == pytest.approx(math.hypot(grid.freq_axis[3], grid.freq_axis[5]))
    # the tables are built once per geometry and shared, so they are read-only
    assert make_grid(8, 4.0, dim=2).coords() is coords
    assert not coords.flags.writeable and not radii.flags.writeable


def test_grid_boundary_mask():
    grid = make_grid(8, 4.0, dim=2)
    mask = grid.boundary_mask().reshape(8, 8)
    assert mask[0].all() and mask[-1].all()
    assert mask[:, 0].all() and mask[:, -1].all()
    assert not mask[1:-1, 1:-1].any()
    assert int(mask.sum()) == 8 * 8 - 6 * 6


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(12, 8.0)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(4, 8.0)  # below the minimum node count
    with pytest.raises(ValueError):
        make_grid(16, -1.0)
    with pytest.raises(ValueError):
        make_grid(16, 8.0, dim=3)
    with pytest.raises(ValueError):
        Grid(16.5, 8.0)  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "n, extent, dim",
    [(8, 1e-300, 1), (16, 1e160, 1), (8, 1e103, 1), (16, 1e-110, 1), (16, 1e60, 2), (16, 1e-60, 2)],
)
def test_grid_refuses_cells_whose_cube_is_not_a_normal_float(n, extent, dim):
    # the lag assembly takes cell**3 and the forms freq_cell * cell**2: on
    # these grids one of them, or spacing**2 in the oscillator, is 0 or
    # overflows; (8, 1e103) fails on the frequency side alone
    with pytest.raises(ValueError, match="spacing"):
        make_grid(n, extent, dim)


@pytest.mark.parametrize("dim", [1, 2])
def test_grids_next_to_the_guard_keep_every_cube_normal(dim):
    lo = sys.float_info.min ** (1.0 / (3 * dim))
    # the smallest spacing, then the smallest frequency spacing, just inside
    for extent in (8 * lo * (1 + 1e-9), (1 - 1e-9) / lo):
        grid = make_grid(8, extent, dim)
        for cell in (grid.cell, grid.freq_cell):
            assert sys.float_info.min <= cell**3 < math.inf


# ---------------------------------------------------------------------------
# sampled functions


def test_sampled_function_shape_and_immutability():
    grid = make_grid(8, 4.0)
    f = SampledFunction(grid, np.ones(8))
    assert f.values.dtype == np.complex128
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        SampledFunction(grid, np.ones(7))
    with pytest.raises(ValueError):
        SampledFunction(grid, np.array([np.nan] + [0.0] * 7))


def test_sampled_function_json_round_trip():
    grid = make_grid(8, 4.0)
    f = SampledFunction(grid, np.arange(8) * (1.0 + 2.0j))
    g = SampledFunction.from_json(f.to_json())
    assert g.grid.compatible(grid)
    np.testing.assert_array_equal(g.values, f.values)
    # dim defaults to 1 when omitted from the payload
    data = json.loads(f.to_json())
    del data["grid"]["dim"]
    assert SampledFunction.from_json_dict(data).grid.dim == 1
    with pytest.raises(ValueError):
        SampledFunction.from_json_dict({"grid": data["grid"], "values": [1.0, 2.0]})
    # integral floats and numpy integers are node counts and dimensions ...
    for n, dim in ((8.0, 1), (np.int64(8), np.int32(1)), (8, 1.0)):
        data["grid"].update(n=n, dim=dim)
        assert SampledFunction.from_json_dict(data).grid == grid
    # ... but fractions and booleans are refused, not truncated
    for key, value in (("n", 8.5), ("dim", 1.7), ("dim", True), ("n", True), ("extent", True)):
        bad = {**data, "grid": {"n": 8, "extent": 4.0, "dim": 1, key: value}}
        with pytest.raises(ValueError, match="must be"):
            SampledFunction.from_json_dict(bad)


def test_sampled_function_csv(tmp_path):
    grid = make_grid(8, 4.0)
    f = SampledFunction(grid, np.arange(8) + 1j)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    rows = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(rows["x1"], grid.axis)
    np.testing.assert_allclose(rows["re"], np.arange(8))
    np.testing.assert_allclose(rows["im"], np.ones(8))


def test_scale():
    grid = make_grid(8, 4.0)
    f = SampledFunction(grid, np.ones(8))
    np.testing.assert_allclose(scale(f, 2j).values, 2j * np.ones(8))


# ---------------------------------------------------------------------------
# gaussians


def test_gaussian_matches_closed_form(grid128):
    width, chirp = 2.0, 0.7
    f = gaussian(grid128, width, chirp)
    x = grid128.axis
    expected = np.exp(-(width + 1j * chirp) * x**2)
    np.testing.assert_allclose(f.values, expected, rtol=0, atol=1e-15)


def test_gaussian_linear_and_amplitude_terms(grid128):
    spec = GaussianSpec(np.array([[1.5]]), linear=np.array([0.3 + 0.2j]), log_amp=0.1 - 0.4j)
    f = sample_gaussian(spec, grid128)
    x = grid128.axis
    expected = np.exp(-1.5 * x**2 + (0.3 + 0.2j) * x + (0.1 - 0.4j))
    np.testing.assert_allclose(f.values, expected, rtol=1e-14)


def test_gaussian_validation():
    with pytest.raises(ValueError):
        GaussianSpec(np.array([[0.0]]))  # not positive definite
    with pytest.raises(ValueError):
        GaussianSpec(np.array([[1.0, 0.3], [0.2, 1.0]]))  # asymmetric
    grid = make_grid(16, 4.0)
    with pytest.raises(ValueError):
        sample_gaussian(GaussianSpec(np.array([[0.05]])), grid)  # too wide for the box
    with pytest.raises(ValueError):
        sample_gaussian(GaussianSpec(np.eye(2)), grid)  # dimension mismatch


# ---------------------------------------------------------------------------
# random inputs


def test_random_smooth_deterministic_and_normalized(grid512):
    f1 = random_smooth(RandomFunctionSpec(seed=5), grid512)
    f2 = random_smooth(RandomFunctionSpec(seed=5), grid512)
    np.testing.assert_array_equal(f1.values, f2.values)
    norm = math.sqrt(float(np.sum(np.abs(f1.values) ** 2)) * grid512.cell)
    assert norm == pytest.approx(1.0, abs=1e-12)
    f3 = random_smooth(RandomFunctionSpec(seed=6), grid512)
    assert not np.allclose(f1.values, f3.values)


def test_random_smooth_band_limited(grid512):
    spec = RandomFunctionSpec(seed=1, band_fraction=0.1, envelope_sigma=2.0)
    f = random_smooth(spec, grid512)
    # spectral content beyond the band comes only from the envelope taper
    spectrum = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f.values)))
    outside = np.abs(grid512.freq_axis) > 0.25 * grid512.nyquist
    assert np.max(np.abs(spectrum[outside])) < 1e-10 * np.max(np.abs(spectrum))


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomFunctionSpec(seed=0, band_fraction=0.0)
    with pytest.raises(ValueError):
        RandomFunctionSpec(seed=0, envelope_sigma=-1.0)
