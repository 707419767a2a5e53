"""Centered uniform grids and complex-valued functions sampled on them.

Everything downstream operates on plain numpy arrays holding node values of a
function on a :class:`Grid`.  Quadrature is the rectangle rule with cell
weight ``h**d``; for the rapidly decaying, effectively band-limited functions
used throughout, this rule is spectrally accurate.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "SampledFunction",
    "GaussianSpec",
    "RandomFunctionSpec",
    "make_grid",
    "sample_gaussian",
    "sample_closure",
    "random_smooth",
    "scale",
]

# Sampled Gaussians must fall below this fraction of their peak at the grid
# boundary, otherwise periodization error would contaminate every transform.
GAUSSIAN_DECAY_THRESHOLD = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``n`` nodes per axis covering ``[-extent/2, extent/2)``.

    Nodes sit at ``x_j = (j - n/2) * spacing`` so the node ``j = n/2`` is
    exactly 0.  The conjugate axis (the DFT-dual frequency grid) has spacing
    ``1/extent`` and nodes ``w_k = (k - n/2)/extent``.  Multi-dimensional
    grids are tensor products of one axis; flattened node order is row-major.
    """

    n: int
    extent: float
    dim: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"node count must be an integer, got {self.n!r}")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"node count must be a power of two >= 8, got {self.n}")
        if not (float(self.extent) > 0.0 and math.isfinite(self.extent)):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")

    # -- geometry -----------------------------------------------------------

    @property
    def spacing(self) -> float:
        return self.extent / self.n

    @property
    def freq_spacing(self) -> float:
        return 1.0 / self.extent

    @property
    def nyquist(self) -> float:
        """Largest resolvable frequency magnitude, n/(2*extent)."""
        return self.n / (2.0 * self.extent)

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def axis(self) -> np.ndarray:
        j = np.arange(self.n)
        return (j - self.n // 2) * self.spacing

    @property
    def freq_axis(self) -> np.ndarray:
        k = np.arange(self.n)
        return (k - self.n // 2) * self.freq_spacing

    # The node tables below are computed once per (n, spacing, dim) and shared:
    # they are read-only.

    def coords(self) -> np.ndarray:
        """Node coordinates, shape ``(size, dim)``."""
        return _lattice(self.n, self.spacing, self.dim)[0]

    def freq_coords(self) -> np.ndarray:
        return _lattice(self.n, self.freq_spacing, self.dim)[0]

    def radii(self) -> np.ndarray:
        """Euclidean node norms |x|, flat."""
        return _lattice(self.n, self.spacing, self.dim)[1]

    def freq_radii(self) -> np.ndarray:
        return _lattice(self.n, self.freq_spacing, self.dim)[1]

    @property
    def cell(self) -> float:
        """Quadrature weight of one spatial node, spacing**dim."""
        return self.spacing**self.dim

    @property
    def freq_cell(self) -> float:
        return self.freq_spacing**self.dim

    def conjugate(self) -> "Grid":
        """The DFT-dual grid: same node count, extent ``n/extent``."""
        return Grid(self.n, self.n / self.extent, self.dim)

    def boundary_mask(self) -> np.ndarray:
        """Flat boolean mask of nodes whose index is 0 or n-1 on any axis."""
        edge = np.zeros(self.n, dtype=bool)
        edge[0] = edge[-1] = True
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = edge
            mask[tuple(sl)] = True
        return mask.ravel()

    def compatible(self, other: "Grid", tol: float = 1e-12) -> bool:
        return (
            self.n == other.n
            and self.dim == other.dim
            and math.isclose(self.extent, other.extent, rel_tol=tol, abs_tol=0.0)
        )


@functools.lru_cache(maxsize=64)
def _lattice(n: int, step: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only coordinates ``(j - n/2) * step`` of the row-major node lattice and their norms."""
    axis = (np.arange(n) - n // 2) * step
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    radii = np.linalg.norm(coords, axis=-1)
    coords.setflags(write=False)
    radii.setflags(write=False)
    return coords, radii


def make_grid(n: int, extent: float, dim: int = 1) -> Grid:
    """Construct a Grid, validating node count, extent and dimension."""
    return Grid(int(n), float(extent), int(dim))


def _require_same_grid(a: "SampledFunction", b: "SampledFunction", what: str) -> None:
    if not a.grid.compatible(b.grid):
        raise ValueError(f"{what} requires both inputs on the same grid, got {a.grid} and {b.grid}")


@dataclass(frozen=True)
class SampledFunction:
    """Complex node values of a function on a grid.

    ``values`` is flat with length ``grid.size`` (row-major over axes) and is
    stored read-only, so instances can be shared freely across threads.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values must be flat with length {self.grid.size}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def reshaped(self) -> np.ndarray:
        """Values as an ``(n,)*dim`` array (a read-only view)."""
        return self.values.reshape(self.grid.shape)

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, values)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "grid": {"n": self.grid.n, "extent": self.grid.extent, "dim": self.grid.dim},
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "SampledFunction":
        """Inverse of :meth:`to_json_dict`; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"function JSON must be an object, got {type(data).__name__}")
        for key in ("grid", "values"):
            if key not in data:
                raise ValueError(f"function JSON lacks {key!r}")
        g = data["grid"]
        if not isinstance(g, dict) or "n" not in g or "extent" not in g:
            raise ValueError("function JSON 'grid' must be an object with 'n' and 'extent'")
        try:
            grid = make_grid(g["n"], g["extent"], g.get("dim", 1))
            pairs = np.asarray(data["values"], dtype=float)
        except TypeError as exc:
            raise ValueError(f"function JSON has a mistyped entry: {exc}") from exc
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("values must be a list of [re, im] pairs")
        return SampledFunction(grid, pairs[:, 0] + 1j * pairs[:, 1])

    @staticmethod
    def from_json(text: str) -> "SampledFunction":
        return SampledFunction.from_json_dict(json.loads(text))

    def to_csv(self, path) -> None:
        """Write one row per node: coordinates, real part, imaginary part."""
        coords = self.grid.coords()
        cols = [coords[:, ax] for ax in range(self.grid.dim)]
        cols += [self.values.real, self.values.imag]
        header = ",".join([f"x{ax + 1}" for ax in range(self.grid.dim)] + ["re", "im"])
        np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")


def scale(f: SampledFunction, c: complex) -> SampledFunction:
    return f.with_values(f.values * c)


@dataclass(frozen=True)
class GaussianSpec:
    """Generalized Gaussian exp(-x.(A + iB)x + c.x + gamma).

    ``quad_real`` (A) must be symmetric positive definite, ``quad_imag`` (B)
    symmetric; ``linear`` (c) is a complex vector and ``log_amp`` (gamma) a
    complex scalar.  Scalars are accepted in one dimension.
    """

    quad_real: np.ndarray
    quad_imag: np.ndarray = None  # type: ignore[assignment]
    linear: np.ndarray = None  # type: ignore[assignment]
    log_amp: complex = 0.0

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.quad_real, dtype=float))
        d = A.shape[0]
        if A.shape != (d, d):
            raise ValueError(f"quad_real must be square, got shape {A.shape}")
        B = self.quad_imag
        B = np.zeros((d, d)) if B is None else np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape != (d, d):
            raise ValueError("quad_imag must match quad_real in shape")
        c = self.linear
        c = np.zeros(d, dtype=complex) if c is None else np.atleast_1d(np.asarray(c, dtype=complex))
        if c.shape != (d,):
            raise ValueError("linear must be a length-d vector")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("quad_real must be symmetric")
        if not np.allclose(B, B.T, atol=1e-12):
            raise ValueError("quad_imag must be symmetric")
        if np.min(np.linalg.eigvalsh(A)) <= 0.0:
            raise ValueError("quad_real must be positive definite")
        object.__setattr__(self, "quad_real", A)
        object.__setattr__(self, "quad_imag", B)
        object.__setattr__(self, "linear", c)
        object.__setattr__(self, "log_amp", complex(self.log_amp))

    @property
    def dim(self) -> int:
        return self.quad_real.shape[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape ``(m, dim)`` (or ``(m,)`` when dim=1)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        M = self.quad_real + 1j * self.quad_imag
        quad = np.einsum("nd,de,ne->n", pts, M, pts)
        lin = pts @ self.linear
        return np.exp(-quad + lin + self.log_amp)


def sample_gaussian(spec: GaussianSpec, grid: Grid) -> SampledFunction:
    """Sample a generalized Gaussian, enforcing decay at the grid boundary.

    Raises ValueError when the boundary magnitude exceeds 1e-12 of the peak:
    the grid is too small for this Gaussian.
    """
    if spec.dim != grid.dim:
        raise ValueError(f"Gaussian dimension {spec.dim} does not match grid dimension {grid.dim}")
    vals = spec.evaluate(grid.coords())
    mags = np.abs(vals)
    peak = float(mags.max())
    edge = float(mags[grid.boundary_mask()].max())
    if peak == 0.0 or edge > GAUSSIAN_DECAY_THRESHOLD * peak:
        raise ValueError(
            "grid too small for this Gaussian: boundary magnitude "
            f"{edge:.3e} exceeds {GAUSSIAN_DECAY_THRESHOLD:g} of peak {peak:.3e}"
        )
    return SampledFunction(grid, vals)


def sample_closure(fn: Callable[..., np.ndarray], grid: Grid) -> SampledFunction:
    """Sample a vectorized rule on the grid nodes.

    ``fn`` receives the flat coordinate array for each axis (one argument per
    dimension) and must return an array of node values.  Non-finite values
    are rejected.
    """
    coords = grid.coords()
    args = [coords[:, ax] for ax in range(grid.dim)]
    vals = np.asarray(fn(*args), dtype=np.complex128)
    if vals.shape != (grid.size,):
        raise ValueError(f"closure returned shape {vals.shape}, expected ({grid.size},)")
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise ValueError("closure produced non-finite values")
    return SampledFunction(grid, vals)


@dataclass(frozen=True)
class RandomFunctionSpec:
    """Seeded recipe for a smooth random test function.

    Complex Gaussian spectral coefficients are drawn i.i.d. on frequencies
    with ``|w| <= band_fraction * nyquist`` and zero elsewhere, transformed to
    the spatial side, tapered by ``exp(-pi |x|^2 / envelope_sigma^2)``, and
    normalized to unit L2 norm.
    """

    seed: int
    band_fraction: float = 0.2
    envelope_sigma: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.band_fraction <= 1.0):
            raise ValueError(f"band_fraction must lie in (0, 1], got {self.band_fraction}")
        if not (self.envelope_sigma > 0.0):
            raise ValueError(f"envelope_sigma must be positive, got {self.envelope_sigma}")


def _centered_ifftn(arr: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(arr)))


def random_smooth(spec: RandomFunctionSpec, grid: Grid) -> SampledFunction:
    """Deterministic smooth random function with unit L2 norm."""
    rng = np.random.default_rng(spec.seed)
    shape = grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    band = (grid.freq_radii() <= spec.band_fraction * grid.nyquist).reshape(shape)
    coeffs = np.where(band, coeffs, 0.0)
    vals = _centered_ifftn(coeffs).ravel()
    vals = vals * np.exp(-math.pi * grid.radii() ** 2 / spec.envelope_sigma**2)
    norm = math.sqrt(float(np.sum(np.abs(vals) ** 2)) * grid.cell)
    if norm == 0.0:
        raise ValueError("random function degenerated to zero; widen the band")
    return SampledFunction(grid, vals / norm)
