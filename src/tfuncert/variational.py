"""Variational problems: a generalized Hermitian eigenproblem for the
quadratic (Hilbert) uncertainty functional, and the Banach moment functional
minimized on the modulation-norm unit sphere by L-BFGS on the scale-invariant
ratio of the two.

The quadratic forms live in the sample basis: a coefficient vector u holds
node values, and u^H Q u approximates the continuous sesquilinear form via
cell-weighted quadrature.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
# scipy.linalg is imported on first use, inside the functions that solve: it
# adds about 0.4 s to process start, which commands that never solve an
# eigenproblem or a linear system should not pay

from .sampling import (
    Grid,
    RandomFunctionSpec,
    SampledFunction,
    make_grid,
    random_smooth,
    scale,
    _require_same_grid,
)
# stft and stft_adjoint are no longer called here; they stay importable from
# this module for code that binds them by module (the benchmark's span tracer does)
from .transforms import (  # noqa: F401
    _MAX_MATERIALIZED,
    _adjoint_in_place,
    _bank_segments,
    _check_stft_inputs,
    _field_buffer,
    _materialize,
    _parity,
    _window_bank,
    fourier,
    inverse_fourier,
    stft,
    stft_adjoint,
)
from .norms import (
    AdmissibleTriple,
    BracketWeight,
    MixedOrder,
    _MixedReduction,
    default_window,
    lp_weighted,
    modulation_norm,
    moment_seminorm,
)
from .constants import DomainError, ExponentSet, check_galperin_grochenig

__all__ = [
    "QuadraticFormPair",
    "EigenSolution",
    "BanachSolution",
    "MinimizeOptions",
    "XMomentTerm",
    "OmegaMomentTerm",
    "ModulationTerm",
    "build_forms",
    "smallest_eigen",
    "oscillator_spectrum",
    "oscillator_modes",
    "operator_A_apply",
    "hilbert_functional",
    "frechet_directional",
    "el_residual_banach",
    "minimize_banach",
    "minimize_multistart",
    "EIGEN_RESIDUAL_TOL",
]

EIGEN_RESIDUAL_TOL = 1e-8
_WINDOW_NORM_TOL = 1e-6
_ARMIJO_SLOPE = 1e-4
_LBFGS_PAIRS = 10  # (s, y) pairs the descent keeps
_MIN_STEP = 1e-12  # the line search gives up below this step


# ---------------------------------------------------------------------------
# quadratic forms


@dataclass(frozen=True)
class QuadraticFormPair:
    """Sesquilinear forms of the weighted phase-space inner products.

    ``form0`` represents (u,v) through the m0-weighted STFT energy; ``form_full``
    adds the |psi(x)|^2 and |phi(w)|^2 moment terms.  Both are Hermitian, the
    recorded defects are the relative asymmetry removed by symmetrization.
    For conjugation-symmetric input (a real window, m0^2 and |phi|^2 even in
    w) both forms are real symmetric and stored as ``float64``; otherwise they
    are complex Hermitian ``complex128``.
    """

    grid: Grid
    form0: np.ndarray
    form_full: np.ndarray
    herm_defect0: float
    herm_defect_full: float
    window: SampledFunction

    def __post_init__(self) -> None:
        size = self.grid.size
        for name in ("form0", "form_full"):
            mat = getattr(self, name)
            if mat.shape != (size, size):
                raise ValueError(f"{name} must be {size}x{size}")
            mat.setflags(write=False)

    def moment_form(self) -> np.ndarray:
        """The positive semi-definite difference form_full - form0."""
        return self.form_full - self.form0


def _node_bank(grid: Grid) -> np.ndarray:
    """Window bank of the flat node numbers: ``bank[l][m]`` is the node (m - l) mod n per axis."""
    return _window_bank(np.arange(grid.size).reshape(grid.shape))


def _assemble_form0_general(
    m0sq: np.ndarray, window: SampledFunction, grid: Grid, real: bool
) -> np.ndarray:
    """Dense form0 for tabulated m0, via per-lag circular convolutions.

    Writing V_g u in terms of periodized window shifts turns the double
    phase-space sum into, for each node lag l, a circular convolution between
    the window autocorrelation at that lag and the frequency transform of the
    m0^2 rows; cost O(size^2 log size) instead of O(size^3).  ``real`` keeps
    only the real part, for conjugation-symmetric input.  The lag products
    conj(g[m]) g[(m - l) mod n] and the nodes each block is scattered to are
    strided views of the STFT engine's window bank, taken one block of lags at
    a time, so no size^2 index table is built.
    """
    size, d = grid.size, grid.dim
    shape = grid.shape
    axes = tuple(range(1, d + 1))
    parity = _parity(grid)
    # Dhat[i, l] = parity[l] * sum_k m0^2(x_i, w_k) e^{-2 pi i l k / n} * freq_cell
    dhat = np.fft.fftn(m0sq.reshape((size,) + shape), axes=axes).reshape(size, size)
    dhat *= parity.ravel() * grid.freq_cell
    g = window.reshaped()
    conj_g = np.conj(g)
    lags = _window_bank(g)  # lags[l][m] = g[(m - l) mod n]
    nodes = _node_bank(grid)
    cols = np.arange(size)
    form0 = np.empty((size, size), dtype=np.float64 if real else np.complex128)
    # blocks of 2^18 entries (4 MiB complex) bound the temporaries per block
    step = max(1, (1 << 18) // size)
    for start in range(0, size, step):
        stop = min(start + step, size)
        w = np.empty((stop - start,) + shape, dtype=np.complex128)
        for lo, hi, windows in _bank_segments(lags, start, stop):
            np.multiply(conj_g, windows, out=w[lo:hi])
        c = np.ascontiguousarray(dhat.T[start:stop]).reshape((-1,) + shape)
        spec = np.fft.fftn(w, axes=axes)
        spec *= np.fft.fftn(c, axes=axes)
        # parity on the spectrum shifts each circular convolution by n/2 on every axis
        spec *= parity
        block = np.fft.ifftn(spec, axes=axes).reshape(-1, size)
        # two cell powers from |V|^2 and one from the phase-space x quadrature
        block *= grid.cell**3
        vals = block.real if real else block
        # the convolution at lag l and node m is form0[(m - l) mod n, m]
        for lo, hi, idx in _bank_segments(nodes, start, stop):
            form0[idx.reshape(hi - lo, size), cols] = vals[lo:hi]
    return form0


def _form_phi_bank(phisq: np.ndarray, grid: Grid, real: bool) -> np.ndarray:
    """Matrix of u -> sum_k |phi(w_k)|^2 |u_hat(w_k)|^2 freq_cell, circulant in the lag.

    Returned as the window bank of its lag spectrum, a read-only view with
    node-shaped axes: ``bank[l][m]`` is the entry of row l, column m.
    """
    t = np.fft.fftn(phisq.reshape(grid.shape))
    t = t * _parity(grid) * grid.freq_cell * grid.cell**2
    return _window_bank(t.real if real else t)


def _conjugation_symmetric(
    gp: np.ndarray, m0sq: np.ndarray, phisq: np.ndarray, grid: Grid
) -> bool:
    """Whether both forms are real: g real, m0^2 and |phi|^2 even in w.

    For real g, conj(V_g u(x, w)) = V_g conj(u)(x, -w), so an m0^2 weight even
    in w makes form0 real; likewise for the |phi|^2 term.  On the centered
    grid the node of -w is (0 - l) mod n, and the mirrored tables are
    bit-equal, so the comparison is exact.  A 0-d ``m0sq`` is a constant m0.
    """
    mirror = _node_bank(grid)[(...,) + (0,) * grid.dim].reshape(grid.size)
    return (
        not np.any(gp.imag)
        and (m0sq.ndim == 0 or np.array_equal(m0sq, np.take(m0sq, mirror, axis=1)))
        and np.array_equal(phisq, phisq[mirror])
    )


def _hermitize(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """(mat + mat^H) / 2 and the defect max|mat - mat^H| / max|mat|.

    Taken one block of rows at a time: the adjoint rows are written straight
    into the output, and the scale and the defect are maxima over blocks,
    which are exact, so only one block of scratch is held besides the output.
    """
    size = mat.shape[0]
    out = np.empty_like(mat)
    step = min(size, max(1, (1 << 16) // size))  # 2^16 entries, 0.5 or 1 MiB
    diff = np.empty((step, size), dtype=mat.dtype)
    mags = np.empty((step, size))
    scale_ = defect = 0.0
    for start in range(0, size, step):
        rows = slice(start, start + step)
        block, adj = mat[rows], out[rows]
        k = block.shape[0]
        np.conjugate(mat[:, rows].T, out=adj)
        scale_ = max(scale_, float(np.max(np.abs(block, out=mags[:k]))))
        np.subtract(block, adj, out=diff[:k])
        defect = max(defect, float(np.max(np.abs(diff[:k], out=mags[:k]))))
        adj += block
        adj *= 0.5
    return out, defect / (scale_ or 1.0)


def build_forms(
    triple: AdmissibleTriple, window: SampledFunction, grid: Grid
) -> QuadraticFormPair:
    """Assemble the weighted-STFT form and its moment-augmented companion.

    Both forms are dense size x size matrices, so a grid with more than
    ``_MAX_MATERIALIZED`` such entries (a 64^2 or 4096-node grid at most) is
    refused before any of them is allocated, whatever m0.  The window must be
    L2-normalized; with m0 constant the assembly reduces exactly to the
    tight-frame identity form0 = m0^2 ||g||^2 h^d I, which is what the general
    path produces up to rounding.  Conjugation-symmetric input gives real
    symmetric forms, which the eigensolver then handles in real arithmetic.
    Definiteness of form0 is not checked here: the eigensolver's factorization
    of form0 checks it (see :func:`smallest_eigen`).

    Every lag index comes from the STFT engine: the lag products, the
    circulant |phi|^2 form and the scatter nodes are views of its window
    bank, and the parity is its own, so no size^2 index table is built.
    form_full is summed in place in form0's raw buffer, and each form is
    hermitized one block of rows at a time.  On 1024 nodes the tracemalloc
    peak is 52 MiB with a tabulated m0 (the lag assembly's), 25 MiB with a
    constant one and 60 MiB for a complex pencil with a tabulated m0.
    """
    size = grid.size
    if size * size > _MAX_MATERIALIZED:
        raise ValueError(
            f"dense forms on {size} nodes have {size}x{size} entries, "
            f"above the cap of {_MAX_MATERIALIZED}"
        )
    if triple.psi.shape[0] != size:
        raise ValueError("triple tabulation does not match grid size")
    if not grid.compatible(window.grid):
        raise ValueError("window sampled on a different grid")
    gnorm = lp_weighted(window, 2.0)
    if abs(gnorm - 1.0) > _WINDOW_NORM_TOL:
        raise ValueError(f"window must be L2-normalized, got norm {gnorm!r}")
    gp = window.values
    m0sq = triple.m0**2  # 0-d for a constant m0
    phisq = np.abs(triple.phi) ** 2
    real = _conjugation_symmetric(gp, m0sq, phisq, grid)
    dtype = np.float64 if real else np.complex128
    if m0sq.ndim == 0:
        # constant-table specialization of the lag path: only lag zero survives
        base = float(m0sq) * float(np.sum(np.abs(gp) ** 2)) * grid.cell**2
        raw = base * np.eye(size, dtype=dtype)
    else:
        raw = _assemble_form0_general(m0sq, window, grid, real)
    form0, defect0 = _hermitize(raw)
    # form_full is summed in the raw buffer, which form0 no longer needs:
    # the |psi|^2 diagonal first, then the |phi|^2 circulant
    raw.reshape(-1)[:: size + 1] += np.abs(triple.psi) ** 2 * grid.cell
    full = raw.reshape(grid.shape * 2)  # full[l][m]: row l, column m as node multi-indices
    full += _form_phi_bank(phisq, grid, real)
    form_full, defect_full = _hermitize(raw)
    return QuadraticFormPair(grid, form0, form_full, defect0, defect_full, window)


# ---------------------------------------------------------------------------
# eigenproblem


@dataclass(frozen=True)
class EigenSolution:
    """Generalized eigenpair form_full v = nu form0 v with lam = nu - 1 >= 0."""

    nu: float
    lam: float
    vector: SampledFunction
    residual: float
    index: int


def smallest_eigen(pair: QuadraticFormPair, count: int = 1) -> list[EigenSolution]:
    """The ``count`` smallest generalized eigenpairs, ascending.

    Eigenvectors come back form0-orthonormal, i.e. normalized in the weighted
    phase-space norm the pencil encodes.  A form0 that is not positive
    definite raises ``ValueError``.
    """
    import scipy.linalg

    size = pair.grid.size
    if not (1 <= count <= size):
        raise ValueError(f"count must be in 1..{size}, got {count}")
    try:
        vals, vecs = scipy.linalg.eigh(
            pair.form_full, pair.form0, subset_by_index=[0, count - 1]
        )
    except np.linalg.LinAlgError as exc:
        # the solver's Cholesky factorization of form0 is the definiteness check
        raise ValueError(
            "form0 is not positive definite; the weight/grid combination is degenerate"
        ) from exc
    lead = pair.form_full @ vecs
    residuals = np.linalg.norm(lead - vals * (pair.form0 @ vecs), axis=0)
    residuals /= np.linalg.norm(lead, axis=0)
    solutions = []
    for idx in range(count):
        nu = float(vals[idx])
        v = vecs[:, idx]
        residual = float(residuals[idx])
        if residual > EIGEN_RESIDUAL_TOL:
            raise ValueError(
                f"eigensolver residual {residual:.3e} exceeds {EIGEN_RESIDUAL_TOL} at index {idx}"
            )
        if nu < 1.0 - 1e-8:
            raise ValueError(
                f"generalized eigenvalue {nu} below 1; the moment form is not PSD"
            )
        solutions.append(
            EigenSolution(nu, max(nu - 1.0, 0.0), SampledFunction(pair.grid, v), residual, idx)
        )
    return solutions


def operator_A_apply(pair: QuadraticFormPair, u: SampledFunction) -> SampledFunction:
    """Apply the localization operator by solving form_full w = form0 u."""
    import scipy.linalg

    if not pair.grid.compatible(u.grid):
        raise ValueError("input sampled on a different grid")
    w = scipy.linalg.solve(pair.form_full, pair.form0 @ u.values, assume_a="pos")
    return u.with_values(w)


def hilbert_functional(pair: QuadraticFormPair, u: SampledFunction) -> float:
    """Rayleigh quotient of the moment form against the weighted norm."""
    if not pair.grid.compatible(u.grid):
        raise ValueError("input sampled on a different grid")
    v = u.values
    den = float(np.real(np.vdot(v, pair.form0 @ v)))
    if den <= 0.0:
        raise ValueError("input has zero weighted norm")
    num = float(np.real(np.vdot(v, pair.moment_form() @ v)))
    return num / den


def oscillator_spectrum(n: int, extent: float, count: int = 6) -> np.ndarray:
    """Eigenvalues of -(1/4 pi^2) f'' + x^2 f by three-point finite differences.

    Dirichlet truncation at the grid ends; valid because the eigenfunctions
    decay super-exponentially.  Serves as the discretization-independent
    cross-check for the quadratic-form eigenproblem.
    """
    return oscillator_modes(n, extent, count)[0]


def oscillator_modes(
    n: int, extent: float, count: int = 6
) -> tuple[np.ndarray, list[SampledFunction]]:
    """Finite-difference oscillator eigenvalues plus L2-normalized eigenvectors."""
    import scipy.linalg

    if not (1 <= count <= 10):
        raise ValueError(f"count must be in 1..10, got {count}")
    grid = make_grid(n, extent)
    h = grid.spacing
    c = 1.0 / (4.0 * math.pi**2 * h**2)
    diag = grid.axis**2 + 2.0 * c
    off = np.full(n - 1, -c)
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1)
    )
    modes = []
    for idx in range(count):
        v = vecs[:, idx]
        v = v * (np.sign(v[int(np.argmax(np.abs(v)))]) or 1.0)
        v = v / (np.linalg.norm(v) * math.sqrt(h))
        modes.append(SampledFunction(grid, v.astype(np.complex128)))
    return vals, modes


# ---------------------------------------------------------------------------
# Frechet derivatives of the Banach functional pieces


@dataclass(frozen=True)
class XMomentTerm:
    """The term || |x|^a f ||_p."""

    p: float
    a: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(f"differentiable moment term needs finite p > 1, got {self.p}")
        if self.a < 0:
            raise DomainError(f"moment order must be nonnegative, got {self.a}")

    def _value_and_grad(self, f: SampledFunction) -> tuple[float, np.ndarray]:
        return _moment_grad(f, self.p, self.a, "x-moment")


@dataclass(frozen=True)
class OmegaMomentTerm:
    """The term || |w|^b Ff ||_q."""

    q: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise DomainError(f"differentiable moment term needs finite q > 1, got {self.q}")
        if self.b < 0:
            raise DomainError(f"moment order must be nonnegative, got {self.b}")

    def _value_and_grad(self, f: SampledFunction) -> tuple[float, np.ndarray]:
        # the x moment of Ff on the conjugate grid is the w moment of f; the
        # transform is unitary, so the gradient pulls back through its inverse
        F = fourier(f)
        value, ghat = _moment_grad(F, self.q, self.b, "frequency-moment")
        return value, inverse_fourier(F.with_values(ghat)).values


@dataclass(frozen=True)
class ModulationTerm:
    """The modulation norm with bracket weights and fixed window."""

    r: float
    s: float
    alpha: float = 0.0
    beta: float = 0.0
    window: Optional[SampledFunction] = None

    def __post_init__(self) -> None:
        for name in ("r", "s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 1.0):
                raise DomainError(
                    f"differentiable modulation term needs finite {name} > 1, got {value}"
                )
        if self.window is None:
            raise DomainError("modulation term requires a window")

    def _value_and_grad(self, f: SampledFunction, work=None) -> tuple[float, np.ndarray]:
        return _modulation_grad(f, self.window, self.r, self.s, self.alpha, self.beta, work)


FrechetTerm = Union[XMomentTerm, OmegaMomentTerm, ModulationTerm]


def _moment_grad(f: SampledFunction, p: float, a: float, what: str) -> tuple[float, np.ndarray]:
    """|| |x|^a f ||_p and its gradient value^(1-p) |x|^(ap) |f|^(p-2) f.

    The f = 0 nodes of |f|^(p-2) f are set to 0 (the pairing's limit value);
    ``what`` names the moment in the zero-norm error.
    """
    value = moment_seminorm(f, p, a, "x")
    if value == 0.0:
        raise ValueError(f"zero {what} norm; the derivative is undefined")
    mags = np.abs(f.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(mags > 0, mags ** (p - 2.0), 0.0)
    return value, value ** (1.0 - p) * f.grid.radii() ** (a * p) * (power * f.values)


def _modulation_grad(
    f: SampledFunction,
    g: SampledFunction,
    r: float,
    s: float,
    alpha: float,
    beta: float,
    work: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> tuple[float, np.ndarray]:
    """Modulation norm of f and its gradient S^H(coeff |V|^(r-2) V) * freq_cell.

    V is materialized once and overwritten by the adjoint's input; |V| is
    taken once, for the power and the reducer.  ``work`` holds the V, |V|
    and scratch fields (see :func:`_grad_workspace`); without it they are
    allocated for this call.
    """
    grid = f.grid
    _check_stft_inputs(f, g)
    V, mags, scratch = work or _grad_workspace(grid)
    _materialize(f, g, out=V)
    np.abs(V, out=mags)
    # |V|^(r-2) V with the V = 0 nodes set to 0 (the pairing's limit value)
    scratch.fill(0.0)
    np.power(mags, r - 2.0, out=scratch, where=mags > 0)
    V *= scratch
    reduction = _MixedReduction(grid, MixedOrder(r, s, inner="x"), BracketWeight(alpha, beta))
    reduction.add_magnitudes(slice(None), mags)
    inner = reduction.inner()
    value = reduction.value()
    wx, ww = reduction.inner_weight, reduction.outer_weight
    if value == 0.0:
        raise ValueError("zero modulation norm; the derivative is undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        col = np.where(inner > 0, inner ** (s - r), 0.0)
    coeff = np.multiply(value ** (1.0 - s) * (ww**s * col)[None, :], (wx**r)[:, None], out=scratch)
    V *= coeff
    grad = grid.freq_cell * _adjoint_in_place(V, g)
    return value, grad


def _grad_workspace(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialized V, |V| and scratch fields for :func:`_modulation_grad` on ``grid``.

    A descent allocates them once per run instead of once per gradient, so
    the size^2 fields are not mapped and unmapped on every step.
    """
    V = _field_buffer(grid.size)
    return V, np.empty(V.shape), np.empty(V.shape)


def _pairing(grad: np.ndarray, u: np.ndarray, cell: float) -> float:
    return float(np.real(np.vdot(grad, u)) * cell)


def frechet_directional(f: SampledFunction, u: SampledFunction, term: FrechetTerm) -> float:
    """First-order coefficient of t in the term evaluated at f + t u.

    Nodes where f vanishes contribute 0 (the limit of the pairing integrand),
    so sub-quadratic exponents stay evaluable.
    """
    _require_same_grid(f, u, "frechet_directional")
    if not isinstance(term, FrechetTerm):
        raise TypeError(f"unknown term {term!r}")
    return _pairing(term._value_and_grad(f)[1], u.values, f.grid.cell)


# ---------------------------------------------------------------------------
# Banach minimization


@dataclass(frozen=True)
class MinimizeOptions:
    tol: float = 1e-4
    max_iter: int = 400
    probe_seed: int = 0

    def __post_init__(self) -> None:
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("options out of range")


@dataclass(frozen=True)
class BanachSolution:
    """Constrained minimizer candidate with its certificate-grade diagnostics."""

    minimizer: SampledFunction
    lam: float
    el_residual: float
    iterations: int
    converged: bool
    exploratory: bool = False


def _banach_terms(
    e: ExponentSet, g: SampledFunction
) -> tuple[XMomentTerm, OmegaMomentTerm, ModulationTerm]:
    """The x-moment, w-moment and modulation terms of the Banach problem for e."""
    needed = {"p": e.p, "q": e.q, "a": e.a, "b": e.b, "r": e.r, "s": e.s}
    for name, value in needed.items():
        if value is None:
            raise DomainError(f"exponent {name} is required for the Banach problem")
    # the terms' constructors check finite p, q, r, s > 1
    if e.a <= 0 or e.b <= 0:
        raise DomainError("moment orders a, b must be positive")
    return (
        XMomentTerm(e.p, e.a),
        OmegaMomentTerm(e.q, e.b),
        ModulationTerm(e.r, e.s, e.alpha, e.beta, g),
    )


def _banach_value_and_grads(
    terms: tuple[XMomentTerm, OmegaMomentTerm, ModulationTerm], f: SampledFunction, work=None
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """F(f) (the sum of the two moment norms), its gradient, M(f) and its gradient.

    ``work`` is the modulation gradient's workspace (see :func:`_grad_workspace`).
    """
    x_term, w_term, m_term = terms
    m, gm = m_term._value_and_grad(f, work)
    xval, gx = x_term._value_and_grad(f)
    wval, gw = w_term._value_and_grad(f)
    return xval + wval, gx + gw, m, gm


def _stationarity_defect(
    gf: np.ndarray, gm: np.ndarray, lam: float, vectors: Sequence[np.ndarray], cell: float
) -> float:
    """Worst |<gf, u> - lam <gm, u>| / ||u||_2 over the vectors u; zero vectors are skipped."""
    worst = 0.0
    for vec in vectors:
        nrm = math.sqrt(_pairing(vec, vec, cell))
        if nrm:
            defect = abs(_pairing(gf, vec, cell) - lam * _pairing(gm, vec, cell))
            worst = max(worst, defect / nrm)
    return worst


def el_residual_banach(
    f: SampledFunction,
    lam: float,
    e: ExponentSet,
    g: SampledFunction,
    directions: Sequence[SampledFunction],
) -> float:
    """Worst stationarity defect |dF[u] - lam dM[u]| / ||u||_2 over directions."""
    _, gf, constraint, gm = _banach_value_and_grads(_banach_terms(e, g), f)
    if abs(constraint - 1.0) > 1e-8:
        raise ValueError(f"constraint norm is {constraint!r}, expected 1")
    if not directions:
        raise ValueError("at least one test direction is required")
    for u in directions:
        _require_same_grid(f, u, "el_residual_banach")
        if not np.any(u.values):
            raise ValueError("test direction with zero norm")
    return _stationarity_defect(gf, gm, lam, [u.values for u in directions], f.grid.cell)


def minimize_banach(
    e: ExponentSet,
    g: SampledFunction,
    grid: Grid,
    init: Optional[SampledFunction] = None,
    options: Optional[MinimizeOptions] = None,
) -> BanachSolution:
    """Minimize the two-moment functional on the modulation-norm unit sphere.

    F (the sum of the two moment norms) and M (the modulation norm) are both
    1-homogeneous, so the ratio R(u) = F(Tu)/M(Tu) is constant on rays and
    its infimum is the infimum of F on M = 1, attained at f = Tu/M(Tu); T is
    a fixed super-Gaussian taper.  R is minimized without constraint by
    L-BFGS: the two-loop recursion over at most ``_LBFGS_PAIRS`` (s, y) pairs
    in the real pairing Re<u, v> h^d, then a monotone Armijo search halving
    from the unit step.  Convergence is declared when the stationarity defect
    over the ratio gradient, f itself, and three seeded probes drops below
    options.tol.  If the admissibility check fails the run proceeds but is
    flagged exploratory (the infimum may be zero).
    """
    opts = options or MinimizeOptions()
    terms = _banach_terms(e, g)
    if e.d != grid.dim:
        raise DomainError(f"exponent set is for d={e.d} but the grid is d={grid.dim}")
    exploratory = not bool(check_galperin_grochenig(e))
    if init is None:
        init = default_window(grid)
    if not grid.compatible(init.grid) or not grid.compatible(g.grid):
        raise ValueError("init/window sampled on a different grid")
    if not np.any(init.values):
        raise ValueError("init must be nonzero")
    cell = grid.cell
    # super-Gaussian envelope: deviates from 1 by < 1e-8 inside half the box
    # radius and kills the outermost nodes by e^-40 per axis; the moment
    # weights amplify edge-band content every step and this shaves it back
    # faster than steps regrow it, without touching a decaying minimizer
    taper = np.exp(-40.0 * np.sum(np.abs(2.0 * grid.coords() / grid.extent) ** 32, axis=-1))

    probes = [
        random_smooth(RandomFunctionSpec(seed=opts.probe_seed + 17 * k + 1), grid).values
        for k in range(3)
    ]
    work = _grad_workspace(grid)

    def evaluate(u: np.ndarray):
        """f = Tu/M(Tu), lam = F(f) = R(u), the gradient of R at u, the defect."""
        tu = SampledFunction(grid, u * taper)
        nm = modulation_norm(tu, g, e.r, e.s, e.alpha, e.beta)
        if nm == 0.0:
            raise ValueError("cannot normalize a function with zero modulation norm")
        fn = scale(tu, 1.0 / nm)
        lam, gf, _, gm = _banach_value_and_grads(terms, fn, work)
        # F and M have 0-homogeneous gradients, so those at Tu are those at f
        grad = taper * (gf - lam * gm) / nm
        return fn, lam, grad, _stationarity_defect(gf, gm, lam, [grad, fn.values, *probes], cell)

    u = init.values
    f, lam, grad, resid = evaluate(u)
    pairs: deque = deque(maxlen=_LBFGS_PAIRS)  # (s, y, 1/<y, s>), oldest first
    gamma = 1.0  # initial inverse Hessian over the identity: <s, y>/<y, y> of the newest pair
    iterations = 0
    converged = resid <= opts.tol
    while not converged and iterations < opts.max_iter:
        iterations += 1
        # two-loop recursion: direction = -H grad
        direction = -grad
        coefs = []
        for sv, yv, rho in reversed(pairs):
            coefs.append(rho * _pairing(sv, direction, cell))
            direction -= coefs[-1] * yv
        direction *= gamma
        for (sv, yv, rho), coef in zip(pairs, reversed(coefs)):
            direction += (coef - rho * _pairing(yv, direction, cell)) * sv
        slope = _pairing(grad, direction, cell)
        if slope >= 0.0:
            break
        t = 1.0
        while t >= _MIN_STEP:
            cand = u + t * direction
            f_t, lam_t, grad_t, resid_t = evaluate(cand)
            if lam_t <= lam + _ARMIJO_SLOPE * t * slope:
                break
            t *= 0.5
        else:
            break  # no step down to _MIN_STEP decreased R
        sv, yv = cand - u, grad_t - grad
        sy = _pairing(yv, sv, cell)
        # a pair without positive curvature would make the inverse Hessian indefinite
        if sy > 0.0:
            pairs.append((sv, yv, 1.0 / sy))
            gamma = sy / _pairing(yv, yv, cell)
        u, f, lam, grad, resid = cand, f_t, lam_t, grad_t, resid_t
        converged = resid <= opts.tol
    return BanachSolution(f, lam, resid, iterations, converged, exploratory)


def minimize_multistart(
    e: ExponentSet,
    g: SampledFunction,
    grid: Grid,
    starts: int = 5,
    options: Optional[MinimizeOptions] = None,
    seed: int = 0,
) -> list[BanachSolution]:
    """Independent seeded random starts; all solutions returned in start order."""
    if starts < 1:
        raise ValueError("starts must be >= 1")
    solutions = []
    for k in range(starts):
        init = random_smooth(RandomFunctionSpec(seed=seed + 1000 * k), grid)
        solutions.append(minimize_banach(e, g, grid, init, options))
    return solutions
