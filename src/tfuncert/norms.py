"""Weighted Lebesgue, mixed, and modulation norms.

Exponents below 1 are quasi-norms and are computed by the same power-sum
formula; ``math.inf`` selects the essential supremum (grid maximum).  Mixed
norms iterate an inner norm over one phase-space variable and an outer norm
over the other, in either order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .sampling import Grid, SampledFunction, GaussianSpec, sample_gaussian, _require_same_grid
# stft is no longer called here; it stays importable from this module for
# code that binds it by module (the benchmark's span tracer does)
from .transforms import (  # noqa: F401
    PhaseSpaceFunction,
    _check_stft_inputs,
    _half_nodes,
    fourier,
    stft,
    stft_row_chunks,
)

__all__ = [
    "BracketWeight",
    "TabulatedWeight",
    "AdmissibleTriple",
    "MixedOrder",
    "default_window",
    "lp_weighted",
    "moment_seminorm",
    "mixed_norm",
    "stft_mixed_norm",
    "modulation_norm",
    "modulation_norm_m",
    "psi_phi_norm",
]


def _check_exponent(p: float, name: str = "p") -> float:
    p = float(p)
    if p == math.inf:
        return p
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"exponent {name} must be positive or inf, got {p}")
    return p


def _power_sum(mags: np.ndarray, p: float, cell: float, counts=None) -> float:
    """(sum |.|^p * cell)^(1/p), or the max when p = inf.

    With ``counts`` (broadcast against ``mags``) each term is taken that
    many times; the max ignores it.
    """
    if p == math.inf:
        return np.max(mags)
    powered = mags**p
    if counts is not None:
        powered *= counts
    return (np.sum(powered) * cell) ** (1.0 / p)


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class BracketWeight:
    """(1 + |x|)^alpha (1 + |w|)^beta with finite nonnegative exponents."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        # an infinite exponent makes the field inf * 0 = nan where V_g f vanishes
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("bracket weight exponents must be finite and nonnegative")

    def x_profile(self, grid: Grid) -> np.ndarray:
        return (1.0 + grid.radii()) ** self.alpha

    def omega_profile(self, grid: Grid) -> np.ndarray:
        return (1.0 + grid.freq_radii()) ** self.beta


class TabulatedWeight:
    """Arbitrary nonnegative weight tabulated on the phase-space lattice."""

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("tabulated weight must be a square (x node, w node) array")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("tabulated weight values must be finite and nonnegative")
        vals = vals.copy()
        vals.setflags(write=False)
        self.values = vals

    def field(self, grid: Grid) -> np.ndarray:
        if self.values.shape != (grid.size, grid.size):
            raise ValueError(
                f"tabulated weight shape {self.values.shape} does not match grid size {grid.size}"
            )
        return self.values


# a phase-space weight: separable bracket profiles or a full table
Weight = Union[BracketWeight, TabulatedWeight]


class AdmissibleTriple:
    """Localization triple (psi on the x grid, phi on the w grid, m0 on phase space).

    The composite weight m = sqrt(m0^2 + |psi|^2 + |phi|^2) must be finite and
    strictly positive everywhere.  ``m0`` is one read-only float array: 0-d
    for a constant m0, which is never tabulated, or a (size, size) table.
    """

    def __init__(self, psi: np.ndarray, phi: np.ndarray, m0: Union[float, np.ndarray]):
        psi = np.asarray(psi, dtype=np.complex128).copy()
        phi = np.asarray(phi, dtype=np.complex128).copy()
        if psi.ndim != 1 or phi.ndim != 1 or psi.shape != phi.shape:
            raise ValueError("psi and phi must be flat arrays of equal length")
        size = psi.shape[0]
        m0 = np.array(m0, dtype=float)
        if m0.ndim != 0 and m0.shape != (size, size):
            raise ValueError("tabulated m0 must have shape (size, size)")
        if not np.all(np.isfinite(m0)) or np.any(m0 < 0):
            raise ValueError("m0 must be finite and nonnegative")
        for arr in (psi, phi):
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError("psi and phi must be finite")
        # the forms hold m^2's terms: hypot bounds m by the peaks without squaring them
        peaks = [float(np.max(arr, initial=0.0)) for arr in (np.abs(psi), np.abs(phi), m0)]
        if not math.hypot(*peaks) < math.sqrt(np.finfo(np.float64).max):
            raise ValueError("composite weight m = sqrt(m0^2 + |psi|^2 + |phi|^2) overflows")
        for arr in (psi, phi, m0):
            arr.setflags(write=False)
        self.psi, self.phi, self.m0 = psi, phi, m0
        # m^2 is a sum of nonnegative terms, so it vanishes exactly where m0^2,
        # |psi|^2 and |phi|^2 all do; a constant m0 is read once, not tabulated
        zero_x, zero_w = np.abs(psi) ** 2 == 0, np.abs(phi) ** 2 == 0
        m0sq = m0**2 if m0.ndim == 0 else m0[np.ix_(zero_x, zero_w)] ** 2
        if np.any(zero_x) and np.any(zero_w) and not np.all(m0sq > 0):
            raise ValueError("composite weight m vanishes somewhere; the triple is not admissible")


_UNIT_WEIGHT = BracketWeight(0.0, 0.0)


@dataclass(frozen=True)
class MixedOrder:
    """Inner/outer exponents and which variable the inner norm runs over."""

    r: float
    s: float
    inner: str = "x"

    def __post_init__(self) -> None:
        _check_exponent(self.r, "r")
        _check_exponent(self.s, "s")
        if self.inner not in ("x", "omega"):
            raise ValueError(f"inner must be 'x' or 'omega', got {self.inner!r}")


def default_window(grid: Grid) -> SampledFunction:
    """The L2-normalized Gaussian window 2^(d/4) exp(-pi |x|^2)."""
    d = grid.dim
    spec = GaussianSpec(
        quad_real=math.pi * np.eye(d),
        log_amp=0.25 * d * math.log(2.0),
    )
    return sample_gaussian(spec, grid)


# ---------------------------------------------------------------------------
# function-side norms


def lp_weighted(f: SampledFunction, p: float, a: float = 0.0) -> float:
    """Weighted norm (sum |f|^p (1+|x|)^(a p) h^d)^(1/p); max norm when p=inf."""
    p = _check_exponent(p)
    mags = np.abs(f.values)
    if a != 0.0:
        mags = mags * (1.0 + f.grid.radii()) ** a
    return float(_power_sum(mags, p, f.grid.cell))


def moment_seminorm(f: SampledFunction, p: float, a: float, side: str = "x") -> float:
    """Moment seminorm || |x|^a f ||_p, or || |w|^a F f ||_p when side='omega'."""
    p = _check_exponent(p)
    if a < 0:
        raise ValueError(f"moment order must be nonnegative, got {a}")
    if side == "x":
        target, radii, cell = f, f.grid.radii(), f.grid.cell
    elif side == "omega":
        target = fourier(f)
        radii, cell = target.grid.radii(), target.grid.cell
    else:
        raise ValueError(f"side must be 'x' or 'omega', got {side!r}")
    mags = np.abs(target.values) * radii**a
    return float(_power_sum(mags, p, cell))


# ---------------------------------------------------------------------------
# phase-space norms


class _MixedReduction:
    """The mixed (r, s) norm of a weighted |field|, fed (x rows, w columns) chunk by chunk.

    With inner='x' the inner norm integrates over x at fixed w with exponent
    r and cell h^d, and the outer norm over w with exponent s and cell
    (1/L)^d; inner='omega' swaps the roles.  A bracket weight is split: the
    profile of the inner variable multiplies the field, the profile of the
    outer variable multiplies the inner norms (equal, since it is constant
    along each inner sum).  A tabulated weight multiplies the field.

    With ``half`` the columns are the kept nodes of the half-spectrum
    layout (``transforms._half_nodes``) and the weight must be a bracket
    weight, whose w profile is even, so each column stands for itself and
    its mirror: every power sum over w, the inner one and the outer one
    after an x-inner pass, takes each column ``counts`` times.  A maximum
    (r or s infinite) ignores it.  For full rows ``counts`` is None.
    """

    def __init__(self, grid: Grid, order: MixedOrder, weight: Weight, half: bool = False):
        self.grid, self.order = grid, order
        self.over_x = order.inner == "x"
        self.counts = None
        columns = grid.size
        if isinstance(weight, TabulatedWeight):
            self.field = weight.field(grid)
            self.inner_weight = self.outer_weight = None
        else:
            wx, ww = weight.x_profile(grid), weight.omega_profile(grid)
            if half:
                self.counts = _half_nodes(grid)
                columns = self.counts.size
                ww = ww[:columns]
            self.field = None
            self.inner_weight, self.outer_weight = (wx, ww) if self.over_x else (ww, wx)
        self.acc = np.zeros(columns if self.over_x else grid.size)

    def stream(self, f: SampledFunction, g: SampledFunction, chunk: int | None = None):
        """Fold in V_g f, half rows for a half reduction; returns the last chunk's rows.

        Each chunk is reduced in the pool task that makes it and folded in
        chunk order, so the result does not depend on the worker count.  The
        returned rows stay valid in the engine's ring.  Inputs are not checked.
        """
        chunks = stft_row_chunks(f, g, chunk, half=self.counts is not None,
                                 reduce=lambda idx, rows: self.reduce(idx, np.abs(rows)))
        for idx, rows, part in chunks:
            self.fold(idx, part)
        return rows

    def add(self, idx, rows: np.ndarray) -> None:
        """Fold in the rows of x nodes ``idx`` (an index array or slice)."""
        self.fold(idx, self.reduce(idx, np.abs(rows)))

    def reduce(self, idx, mags: np.ndarray) -> np.ndarray:
        """This chunk's part of the reduction from ``|rows|`` of x nodes ``idx``; ``mags`` is overwritten.

        Reads no state that :meth:`fold` writes, so chunks may be reduced on
        any thread.
        """
        if self.field is not None:
            mags *= self.field[idx]
        elif self.over_x:
            mags *= self.inner_weight[idx, None]
        else:
            mags *= self.inner_weight[None, :]
        r = self.order.r
        axis = 0 if self.over_x else 1
        if r == math.inf:
            return np.max(mags, axis=axis)
        mags **= r
        if self.over_x:
            return np.sum(mags, axis=0)
        # the inner omega norm is complete per x row: (sum |.|^r cell)^(1/r)
        if self.counts is not None:
            mags *= self.counts
        return (np.sum(mags, axis=1) * self.grid.freq_cell) ** (1.0 / r)

    def fold(self, idx, part: np.ndarray) -> None:
        """Fold in the :meth:`reduce` result of x nodes ``idx``; call in chunk order."""
        if not self.over_x:
            self.acc[idx] = part
        elif self.order.r == math.inf:
            np.maximum(self.acc, part, out=self.acc)
        else:
            self.acc += part

    def inner(self) -> np.ndarray:
        """Inner norms along the outer variable, before the outer weight."""
        r = self.order.r
        if not self.over_x or r == math.inf:
            return self.acc
        return (self.acc * self.grid.cell) ** (1.0 / r)

    def value(self) -> float:
        inner = self.inner()
        if self.outer_weight is not None:
            inner = inner * self.outer_weight
        outer_cell = self.grid.freq_cell if self.over_x else self.grid.cell
        counts = self.counts if self.over_x else None
        return float(_power_sum(inner, self.order.s, outer_cell, counts=counts))


def mixed_norm(
    F: PhaseSpaceFunction, order: MixedOrder, weight: Weight = _UNIT_WEIGHT
) -> float:
    """Iterated norm of a phase-space field.

    With inner='x' the inner norm integrates over x at fixed w with exponent
    r and cell h^d, and the outer norm integrates over w with exponent s and
    cell (1/L)^d; inner='omega' swaps the roles.  The weight multiplies the
    field values before either norm is taken.
    """
    reduction = _MixedReduction(F.grid, order, weight)
    reduction.add(slice(None), F.values)
    return reduction.value()


def stft_mixed_norm(
    f: SampledFunction,
    g: SampledFunction,
    order: MixedOrder,
    weight: Weight = _UNIT_WEIGHT,
    chunk: int | None = None,
) -> float:
    """Mixed norm of m V_g f computed row by row without materializing V_g f.

    Either weight is accepted: a bracket weight is split into its x and w
    profiles, a tabulated one multiplies each chunk by its rows.  When f and
    g are real (zero imaginary parts, tested exactly) and the weight is a
    bracket weight, the rows are half spectra: V_g f(x, -w) = conj V_g f(x, w)
    and the w profile is even, so each mirrored frequency column is counted
    twice instead of computed.  Complex inputs and tabulated weights take the
    full rows.  The inner='x' order accumulates power sums over x per
    frequency node, the inner='omega' order reduces each x row.  ``chunk``
    rows are taken per step, by default the engine's 2^17-entry rule, and
    reduced by :meth:`_MixedReduction.stream` in the pool task that makes
    them, while later chunks may already be computing.  Like
    :func:`~tfuncert.transforms.stft_row_chunks` it does not check its
    inputs; :func:`modulation_norm` and :func:`modulation_norm_m` do.
    """
    half = (
        isinstance(weight, BracketWeight)
        and not np.any(f.values.imag)
        and not np.any(g.values.imag)
    )
    reduction = _MixedReduction(f.grid, order, weight, half)
    reduction.stream(f, g, chunk)
    return reduction.value()


def _guarded_stft_norm(
    f: SampledFunction, g: SampledFunction, order: MixedOrder, weight: Weight = _UNIT_WEIGHT
) -> float:
    """Streamed mixed norm of m V_g f behind the guards of :func:`stft`."""
    _check_stft_inputs(f, g)
    return stft_mixed_norm(f, g, order, weight)


def modulation_norm(
    f: SampledFunction,
    g: SampledFunction,
    r: float,
    s: float,
    alpha: float = 0.0,
    beta: float = 0.0,
) -> float:
    """Weighted modulation norm: mixed (r, s) norm of V_g f, inner over x,
    with bracket weight (1+|x|)^alpha (1+|w|)^beta."""
    order = MixedOrder(r, s, inner="x")
    return _guarded_stft_norm(f, g, order, BracketWeight(alpha, beta))


def modulation_norm_m(f: SampledFunction, g: SampledFunction, m: Weight) -> float:
    """Hilbertian modulation norm (integral of m^2 |V_g f|^2 over phase space)^(1/2).

    Streamed like :func:`modulation_norm` whatever the weight: a tabulated m
    is applied to each chunk of rows, so V_g f is never materialized.
    """
    return _guarded_stft_norm(f, g, MixedOrder(2.0, 2.0, inner="x"), m)


def psi_phi_norm(f: SampledFunction, g: SampledFunction, w: AdmissibleTriple) -> float:
    """Graph norm sqrt(||f||_{M, m0}^2 + ||psi f||_2^2 + ||phi Ff||_2^2)."""
    _require_same_grid(f, g, "psi_phi_norm")
    if w.psi.shape[0] != f.grid.size:
        raise ValueError("triple tabulation does not match the grid")
    if w.m0.ndim == 0:
        # a constant m0 is never tabulated: ||m0 V_g f||_2 = m0 ||V_g f||_2
        base = float(w.m0) * modulation_norm_m(f, g, _UNIT_WEIGHT)
    else:
        base = modulation_norm_m(f, g, TabulatedWeight(w.m0))
    loc_x = float(np.sum(np.abs(w.psi * f.values) ** 2) * f.grid.cell)
    F = fourier(f)
    loc_w = float(np.sum(np.abs(w.phi * F.values) ** 2) * F.grid.cell)
    return math.sqrt(base**2 + loc_x + loc_w)
