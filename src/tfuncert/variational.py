"""Variational problems: a generalized Hermitian eigenproblem for the
quadratic (Hilbert) uncertainty functional, and projected-gradient descent
for the Banach moment functional on the modulation-norm unit sphere.

The quadratic forms live in the sample basis: a coefficient vector u holds
node values, and u^H Q u approximates the continuous sesquilinear form via
cell-weighted quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg

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
    _adjoint_in_place,
    _check_stft_inputs,
    _materialize,
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
_ARMIJO_FACTOR = 0.5
_ARMIJO_SLOPE = 1e-4
_D2_FORM_CAP = 64  # per-axis cap for dense two-dimensional form assembly


# ---------------------------------------------------------------------------
# quadratic forms


@dataclass(frozen=True)
class QuadraticFormPair:
    """Sesquilinear forms of the weighted phase-space inner products.

    ``form0`` represents (u,v) through the m0-weighted STFT energy; ``form_full``
    adds the |psi(x)|^2 and |phi(w)|^2 moment terms.  Both are Hermitian, the
    recorded defects are the relative asymmetry removed by symmetrization.
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


def _lag_tables(grid: Grid):
    """Index plumbing for circulant-in-lag assembly on the periodized grid.

    Returns ``flat`` with flat[l, m] = flat index of the per-axis difference
    (m - l) mod n, the per-node parity (-1)^(sum of axis indices), and the
    flat indices of nodes shifted by n/2 along every axis.
    """
    n, size = grid.n, grid.size
    ax = np.unravel_index(np.arange(size), grid.shape)
    diff = tuple((a[None, :] - a[:, None]) % n for a in ax)
    flat = np.ravel_multi_index(diff, grid.shape)
    parity = (-1.0) ** (sum(ax) % 2)
    shifted = np.ravel_multi_index(tuple((a + n // 2) % n for a in ax), grid.shape)
    return flat, parity, shifted


def _assemble_form0_general(m0sq: np.ndarray, gp: np.ndarray, grid: Grid) -> np.ndarray:
    """Dense form0 for tabulated m0, via per-lag circular convolutions.

    Writing V_g u in terms of periodized window shifts turns the double
    phase-space sum into, for each node lag l, a circular convolution between
    the window autocorrelation at that lag and the frequency transform of the
    m0^2 rows; cost O(size^2 log size) instead of O(size^3).
    """
    size, d = grid.size, grid.dim
    axes = tuple(range(1, d + 1))
    flat, parity, shifted = _lag_tables(grid)
    # Dhat[i, l] = parity[l] * sum_k m0^2(x_i, w_k) e^{-2 pi i l k / n} * freq_cell
    dhat = np.fft.fftn(m0sq.reshape((size,) + grid.shape), axes=axes).reshape(size, size)
    dhat *= parity[None, :] * grid.freq_cell
    lagged = gp[flat]  # lagged[l, m] = gp[(m - l) mod n]
    conj_gp = np.conj(gp)[None, :]
    out = np.empty((size, size), dtype=np.complex128)
    step = max(1, (1 << 22) // size)
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        w = (conj_gp * lagged[rows]).reshape((-1,) + grid.shape)
        c = np.ascontiguousarray(dhat.T[rows]).reshape((-1,) + grid.shape)
        conv = np.fft.ifftn(np.fft.fftn(w, axes=axes) * np.fft.fftn(c, axes=axes), axes=axes)
        out[rows] = conv.reshape(-1, size)[:, shifted]
    # two cell powers from |V|^2 and one from the phase-space x quadrature
    out *= grid.cell**3
    form0 = np.empty((size, size), dtype=np.complex128)
    cols = np.broadcast_to(np.arange(size)[None, :], (size, size))
    form0[flat, cols] = out
    return form0


def _assemble_form_phi(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """Matrix of u -> sum_k |phi(w_k)|^2 |u_hat(w_k)|^2 freq_cell; circulant in the lag."""
    flat, parity, _ = _lag_tables(grid)
    t = np.fft.fftn((np.abs(phi) ** 2).reshape(grid.shape)).reshape(grid.size)
    t = t * parity * grid.freq_cell * grid.cell**2
    return t[flat]


def _hermitize(mat: np.ndarray) -> tuple[np.ndarray, float]:
    scale_ = float(np.max(np.abs(mat)))
    defect = float(np.max(np.abs(mat - mat.conj().T))) / (scale_ or 1.0)
    return 0.5 * (mat + mat.conj().T), defect


def build_forms(
    triple: AdmissibleTriple, window: SampledFunction, grid: Grid
) -> QuadraticFormPair:
    """Assemble the weighted-STFT form and its moment-augmented companion.

    The window must be L2-normalized; with m0 constant the assembly reduces
    exactly to the tight-frame identity form0 = m0^2 ||g||^2 h^d I, which is
    what the general path produces up to rounding.
    """
    if triple.psi.shape[0] != grid.size:
        raise ValueError("triple tabulation does not match grid size")
    if not grid.compatible(window.grid):
        raise ValueError("window sampled on a different grid")
    gnorm = lp_weighted(window, 2.0)
    if abs(gnorm - 1.0) > _WINDOW_NORM_TOL:
        raise ValueError(f"window must be L2-normalized, got norm {gnorm!r}")
    gp = window.values
    if np.ndim(triple.m0) == 0:
        # constant-table specialization of the lag path: only lag zero survives
        base = float(triple.m0) ** 2 * float(np.sum(np.abs(gp) ** 2)) * grid.cell**2
        form0_raw = base * np.eye(grid.size, dtype=np.complex128)
    else:
        if grid.dim == 2 and grid.n > _D2_FORM_CAP:
            raise ValueError(
                f"dense two-dimensional assembly with tabulated m0 is capped at "
                f"n = {_D2_FORM_CAP} per axis, got n = {grid.n}"
            )
        form0_raw = _assemble_form0_general(triple._m0_squared(), gp, grid)
    form_psi = np.diag(np.abs(triple.psi) ** 2 * grid.cell).astype(np.complex128)
    form_phi = _assemble_form_phi(triple.phi, grid)
    form0, defect0 = _hermitize(form0_raw)
    form_full, defect_full = _hermitize(form0_raw + form_psi + form_phi)
    try:
        np.linalg.cholesky(form0)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "form0 is not positive definite; the weight/grid combination is degenerate"
        ) from exc
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
    phase-space norm the pencil encodes.
    """
    size = pair.grid.size
    if not (1 <= count <= size):
        raise ValueError(f"count must be in 1..{size}, got {count}")
    vals, vecs = scipy.linalg.eigh(
        pair.form_full, pair.form0, subset_by_index=[0, count - 1]
    )
    solutions = []
    for idx in range(count):
        nu = float(vals[idx])
        v = vecs[:, idx]
        lead = pair.form_full @ v
        residual = float(
            np.linalg.norm(lead - nu * (pair.form0 @ v)) / np.linalg.norm(lead)
        )
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
    if not (1 <= count <= 10):
        raise ValueError(f"count must be in 1..10, got {count}")
    grid = make_grid(n, extent)
    h = grid.spacing
    c = 1.0 / (4.0 * math.pi**2 * h**2)
    diag = grid.axis**2 + 2.0 * c
    off = np.full(n - 1, -c)
    return scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
    )


def oscillator_modes(
    n: int, extent: float, count: int = 6
) -> tuple[np.ndarray, list[SampledFunction]]:
    """Finite-difference oscillator eigenvalues plus L2-normalized eigenvectors."""
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


FrechetTerm = Union[XMomentTerm, OmegaMomentTerm, ModulationTerm]


def _signed_power(values: np.ndarray, expo: float) -> np.ndarray:
    """|f|^expo * f with the f = 0 nodes set to 0 (the pairing's limit value)."""
    mags = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(mags > 0, mags**expo, 0.0)
    return p * values


def _x_moment_grad(f: SampledFunction, p: float, a: float) -> tuple[float, np.ndarray]:
    value = moment_seminorm(f, p, a, "x")
    if value == 0.0:
        raise ValueError("zero x-moment norm; the derivative is undefined")
    wts = f.grid.radii() ** (a * p)
    grad = value ** (1.0 - p) * wts * _signed_power(f.values, p - 2.0)
    return value, grad


def _omega_moment_grad(f: SampledFunction, q: float, b: float) -> tuple[float, np.ndarray]:
    value = moment_seminorm(f, q, b, "omega")
    if value == 0.0:
        raise ValueError("zero frequency-moment norm; the derivative is undefined")
    F = fourier(f)
    wts = F.grid.radii() ** (b * q)
    ghat = value ** (1.0 - q) * wts * _signed_power(F.values, q - 2.0)
    return value, inverse_fourier(F.with_values(ghat)).values


def _modulation_grad(
    f: SampledFunction,
    g: SampledFunction,
    r: float,
    s: float,
    alpha: float,
    beta: float,
    check: bool = True,
) -> tuple[float, np.ndarray]:
    """Modulation norm of f and its gradient S^H(coeff |V|^(r-2) V) * freq_cell.

    ``check=False`` skips the decay guard, as in :func:`stft`.  V is
    materialized once and overwritten by the adjoint's input; |V| is taken
    once, for the power and the reducer.
    """
    grid = f.grid
    _require_same_grid(f, g, "stft")
    _check_stft_inputs(f, g, decay=check)
    V = _materialize(f, g)
    mags = np.abs(V)
    # |V|^(r-2) V with the V = 0 nodes set to 0 (the pairing's limit value)
    scratch = np.zeros_like(mags)
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


def _pairing(grad: np.ndarray, u: np.ndarray, cell: float) -> float:
    return float(np.real(np.vdot(grad, u)) * cell)


def frechet_directional(f: SampledFunction, u: SampledFunction, term: FrechetTerm) -> float:
    """First-order coefficient of t in the term evaluated at f + t u.

    Nodes where f vanishes contribute 0 (the limit of the pairing integrand),
    so sub-quadratic exponents stay evaluable.
    """
    _require_same_grid(f, u, "frechet_directional")
    if isinstance(term, XMomentTerm):
        _, grad = _x_moment_grad(f, term.p, term.a)
    elif isinstance(term, OmegaMomentTerm):
        _, grad = _omega_moment_grad(f, term.q, term.b)
    elif isinstance(term, ModulationTerm):
        _require_same_grid(f, term.window, "frechet_directional")
        _, grad = _modulation_grad(f, term.window, term.r, term.s, term.alpha, term.beta)
    else:
        raise TypeError(f"unknown term {term!r}")
    return _pairing(grad, u.values, f.grid.cell)


# ---------------------------------------------------------------------------
# Banach minimization


@dataclass(frozen=True)
class MinimizeOptions:
    tol: float = 1e-4
    max_iter: int = 400
    probe_seed: int = 0
    step0: float = 1.0
    min_step: float = 1e-12

    def __post_init__(self) -> None:
        if self.tol <= 0 or self.max_iter < 1 or self.step0 <= 0 or self.min_step <= 0:
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


def _banach_exponents(e: ExponentSet) -> tuple[float, float, float, float, float, float, float, float]:
    needed = {"p": e.p, "q": e.q, "a": e.a, "b": e.b, "r": e.r, "s": e.s}
    for name, value in needed.items():
        if value is None:
            raise DomainError(f"exponent {name} is required for the Banach problem")
    for name in ("p", "q", "r", "s"):
        value = needed[name]
        if not (math.isfinite(value) and value > 1.0):
            raise DomainError(
                f"gradient formulas need finite {name} > 1, got {value}"
            )
    if e.a <= 0 or e.b <= 0:
        raise DomainError("moment orders a, b must be positive")
    return e.p, e.q, e.a, e.b, e.r, e.s, e.alpha, e.beta


def el_residual_banach(
    f: SampledFunction,
    lam: float,
    e: ExponentSet,
    g: SampledFunction,
    directions: Sequence[SampledFunction],
) -> float:
    """Worst stationarity defect |dF[u] - lam dM[u]| / ||u||_2 over directions."""
    p, q, a, b, r, s, alpha, beta = _banach_exponents(e)
    constraint = modulation_norm(f, g, r, s, alpha, beta)
    if abs(constraint - 1.0) > 1e-8:
        raise ValueError(f"constraint norm is {constraint!r}, expected 1")
    if not directions:
        raise ValueError("at least one test direction is required")
    x_term = XMomentTerm(p, a)
    w_term = OmegaMomentTerm(q, b)
    m_term = ModulationTerm(r, s, alpha, beta, g)
    worst = 0.0
    for u in directions:
        scale_ = lp_weighted(u, 2.0)
        if scale_ == 0.0:
            raise ValueError("test direction with zero norm")
        lhs = frechet_directional(f, u, x_term) + frechet_directional(f, u, w_term)
        rhs = frechet_directional(f, u, m_term)
        worst = max(worst, abs(lhs - lam * rhs) / scale_)
    return worst


def minimize_banach(
    e: ExponentSet,
    g: SampledFunction,
    grid: Grid,
    init: Optional[SampledFunction] = None,
    options: Optional[MinimizeOptions] = None,
) -> BanachSolution:
    """Projected gradient descent for the two-moment functional on the
    modulation-norm unit sphere.

    Each step removes the constraint-gradient component from the objective
    gradient, backtracks with Armijo halving from unit step, and renormalizes.
    Convergence is declared when the stationarity defect over the projected
    direction, f itself, and three seeded probes drops below options.tol.
    If the admissibility check fails the run proceeds but is flagged
    exploratory (the infimum may be zero).
    """
    opts = options or MinimizeOptions()
    p, q, a, b, r, s, alpha, beta = _banach_exponents(e)
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

    def normalized(fn: SampledFunction) -> SampledFunction:
        fn = fn.with_values(fn.values * taper)
        nm = modulation_norm(fn, g, r, s, alpha, beta)
        if nm == 0.0:
            raise ValueError("cannot normalize a function with zero modulation norm")
        return scale(fn, 1.0 / nm)

    def objective(fn: SampledFunction) -> float:
        return moment_seminorm(fn, p, a, "x") + moment_seminorm(fn, q, b, "omega")

    probes = [
        random_smooth(RandomFunctionSpec(seed=opts.probe_seed + 17 * k + 1), grid)
        for k in range(3)
    ]
    probe_norms = [lp_weighted(u, 2.0) for u in probes]

    def state(fn: SampledFunction):
        xval, gx = _x_moment_grad(fn, p, a)
        wval, gw = _omega_moment_grad(fn, q, b)
        # iterates mid-descent transiently cancel bulk mass, which inflates
        # relative boundary content; skip the decay guard here and rely on
        # the envelope in normalized() to keep the returned minimizer clean
        _, gm = _modulation_grad(fn, g, r, s, alpha, beta, check=False)
        lam = xval + wval
        gf = gx + gw
        coef = _pairing(gm, gf, cell) / _pairing(gm, gm, cell)
        direction = gf - coef * gm
        dir_norm = math.sqrt(_pairing(direction, direction, cell))
        # stationarity defect over the projected direction, f, and the probes
        tests = [
            (direction, dir_norm if dir_norm > 0 else None),
            (fn.values, lp_weighted(fn, 2.0)),
        ] + [(u.values, nu) for u, nu in zip(probes, probe_norms)]
        resid = 0.0
        for vec, nrm in tests:
            if not nrm:
                continue
            defect = abs(_pairing(gf, vec, cell) - lam * _pairing(gm, vec, cell))
            resid = max(resid, defect / nrm)
        return lam, direction, resid

    f = normalized(init)
    lam, direction, resid = state(f)
    iterations = 0
    converged = resid <= opts.tol
    # Barzilai-Borwein step seeding with a non-monotone Armijo safeguard:
    # the moment weights make the Hessian stiff (curvatures spread over two
    # to three decades here), where fixed-step descent crawls and BB's
    # alternating step lengths converge at conjugate-gradient-like rates.
    t_bb = opts.step0
    prev_vals: Optional[tuple[np.ndarray, np.ndarray]] = None
    recent = [lam]
    while not converged and iterations < opts.max_iter:
        iterations += 1
        descent = _pairing(direction, direction, cell)
        if descent <= 0.0:
            break
        if prev_vals is not None:
            sv = f.values - prev_vals[0]
            yv = direction - prev_vals[1]
            sy = _pairing(yv, sv, cell)
            yy = _pairing(yv, yv, cell)
            if sy > 0.0 and yy > 0.0:
                t_bb = min(max(sy / yy, opts.min_step), 10.0 * opts.step0)
        prev_vals = (f.values.copy(), direction.copy())
        t = t_bb
        ref = max(recent)
        accepted = False
        while t >= opts.min_step:
            cand = normalized(f.with_values(f.values - t * direction))
            if objective(cand) <= ref - _ARMIJO_SLOPE * t * descent:
                f = cand
                accepted = True
                break
            t *= _ARMIJO_FACTOR
        if not accepted:
            break
        lam, direction, resid = state(f)
        recent.append(lam)
        if len(recent) > 8:
            recent.pop(0)
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
