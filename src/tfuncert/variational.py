"""Variational problems: a generalized Hermitian eigenproblem for the
quadratic (Hilbert) uncertainty functional, and the Banach moment functional
minimized on the modulation-norm unit sphere by L-BFGS on the scale-invariant
ratio of the two.

The quadratic forms live in the sample basis: a coefficient vector u holds
node values, and u^H Q u approximates the continuous sesquilinear form via
cell-weighted quadrature.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
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
    _adjoint_sum,
    _bank_segments,
    _check_stft_inputs,
    _chunk_map,
    _engine_rows,
    _mirror_even,
    _parity,
    _row_fftn,
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
    adds the |psi(x)|^2 and |phi(w)|^2 moment terms.  Both are Hermitian by
    construction, bit for bit: each equals its conjugate transpose exactly.
    For conjugation-symmetric input (a real window, m0^2 and |phi|^2 even in
    w) both forms are real symmetric and stored as ``float64``; otherwise they
    are complex Hermitian ``complex128``.

    ``even_axes``, derived by :func:`build_forms` from the input tables, are
    the grid axes i on which the pencil commutes with the mirror x_i -> -x_i:
    :func:`smallest_eigen` solves its even and odd parts on each apart.

    A form with a non-finite entry raises ``ValueError`` here, so the solver
    need not check its blocks again; the check reads 2^16 entries at a time,
    with no size x size temporary.
    """

    grid: Grid
    form0: np.ndarray
    form_full: np.ndarray
    even_axes: tuple[int, ...]

    def __post_init__(self) -> None:
        size = self.grid.size
        step = max(1, (1 << 16) // size)
        for name in ("form0", "form_full"):
            mat = getattr(self, name)
            if mat.shape != (size, size):
                raise ValueError(f"{name} must be {size}x{size}")
            if not all(np.isfinite(mat[i : i + step]).all() for i in range(0, size, step)):
                raise ValueError(f"{name} must be finite")
            mat.setflags(write=False)


def _node_bank(grid: Grid) -> np.ndarray:
    """Window bank of the flat node numbers: ``bank[l][m]`` is the node (m - l) mod n per axis."""
    return _window_bank(np.arange(grid.size).reshape(grid.shape))


def _half_lags(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """[a, b) runs of the flat lags l <= -l (one in d = 1, two in d = 2), and the 2^d lags l = -l."""
    lags, neg = np.arange(grid.size), _node_mirror(grid)  # neg[l] is the flat number of -l
    runs = np.flatnonzero(np.diff(lags <= neg, prepend=False, append=False)).reshape(-1, 2)
    return runs, np.flatnonzero(lags == neg)


def _m0sq_spectrum(m0sq: np.ndarray, grid: Grid) -> np.ndarray:
    """The rows of m0^2's spectrum that the lag loop reads: ``mhat[l, k]``.

    m0^2 is transformed over w (lag l), then x (frequency k).  It is real, so
    its spectrum is Hermitian, and one real-input transform that halves the
    first w axis keeps the lags with l_1 = 0 .. n/2 on that axis: (n/2 + 1)
    n^(d-1) rows in flat lag order, which hold every lag l <= -l.  The
    parities shift each convolution by n/2 per axis, and cell^3 is |V|^2's
    two and the x quadrature's one.
    """
    # m0sq.T's axes are (w, x); the last of the axes is the halved one
    axes = tuple(range(1, 2 * grid.dim)) + (0,)
    mhat = _row_fftn(m0sq.T.reshape(grid.shape * 2), axes, real=True).reshape(-1, grid.size)
    parity = _parity(grid).ravel()
    mhat *= parity[: len(mhat), None]
    mhat *= parity * (grid.freq_cell * grid.cell**3)
    return mhat


def _assemble_form0_general(
    mhat: np.ndarray, window: SampledFunction, grid: Grid, real: bool
) -> np.ndarray:
    """Dense form0 for tabulated m0, via per-lag circular convolutions.

    Writing V_g u in terms of periodized window shifts turns the double
    phase-space sum into, for each node lag l, a circular convolution between
    the window autocorrelation at that lag and the w-transform of m0^2; cost
    O(size^2 log size) instead of O(size^3).  ``mhat`` is m0^2's half
    spectrum (see :func:`_m0sq_spectrum`), and the lags are a pass of the
    STFT engine: its chunks, pool and row FFTs, with products and scatter
    nodes that are views of its window bank.  ``real`` keeps only the real
    part, for conjugation-symmetric input.

    Lag l at node m is form0[(m - l) mod n, m], and lag -l holds the
    conjugates of lag l, so only the lags with l <= -l in flat order are
    transformed.  Each is written with its conjugate mirror form0[m, (m - l)
    mod n].  The 2^d self-conjugate lags (l = -l) are their own mirror: each
    is averaged with it first, (v[m] + conj(v[(m - l) mod n])) / 2, which
    makes the diagonal real, so its mirror write repeats the same bits.
    form0 is Hermitian bit for bit, and each entry is written by one chunk.
    """
    size, shape, axes = grid.size, grid.shape, tuple(range(1, grid.dim + 1))
    runs, own = _half_lags(grid)
    conj_g = np.conj(window.reshaped())
    lags = _window_bank(window.reshaped())  # lags[l][m] = g[(m - l) mod n]
    nodes = _node_bank(grid)
    cols = np.arange(size)
    form0 = np.empty((size, size), dtype=np.float64 if real else np.complex128)

    def transform(start: int, stop: int) -> None:
        w = np.empty((stop - start,) + shape, dtype=np.complex128)
        for lo, hi, windows in _bank_segments(lags, start, stop):
            np.multiply(conj_g, windows, out=w[lo:hi])
        spec = _row_fftn(w, axes)
        spec *= mhat[start:stop].reshape(spec.shape)
        block = _row_fftn(spec, axes, inverse=True).reshape(-1, size)
        vals = block.real if real else block
        for lo, hi, idx in _bank_segments(nodes, start, stop):
            idx, part, first = idx.reshape(hi - lo, size), vals[lo:hi], start + lo
            for k in own[(first <= own) & (own < start + hi)] - first:  # rows of lags l = -l
                part[k] = 0.5 * (part[k] + np.conj(part[k][idx[k]]))
            form0[idx, cols] = part
            form0[cols, idx] = np.conjugate(part, out=part)

    def task(start: int, stop: int) -> None:
        for a, b in runs:
            if max(a, start) < min(b, stop):
                transform(max(a, start), min(b, stop))

    deque(_chunk_map(task, size), maxlen=0)
    return form0


def _form_phi_bank(phisq: np.ndarray, grid: Grid, real: bool) -> np.ndarray:
    """Matrix of u -> sum_k |phi(w_k)|^2 |u_hat(w_k)|^2 freq_cell, circulant in the lag.

    Returned as the window bank of its lag spectrum, a read-only view with
    node-shaped axes: ``bank[l][m]`` is the entry of row l, column m.  The
    spectrum t is averaged with its conjugate mirror, (t[k] + conj(t[-k])) / 2,
    so the matrix is Hermitian bit for bit.
    """
    t = np.fft.fftn(phisq.reshape(grid.shape)).ravel()
    t = t * _parity(grid).ravel() * grid.freq_cell * grid.cell**2
    t = t.real if real else t
    t = 0.5 * (t + np.conj(t[_node_mirror(grid)]))
    return _window_bank(t.reshape(grid.shape))


def _node_mirror(grid: Grid) -> np.ndarray:
    """Flat node numbers of the mirror x -> -x: node j goes to (-j) mod n per axis.

    On the centered grid node j sits at (j - n/2) h, so the mirror maps each
    node to the node of its negated coordinate; node 0 (the edge -L/2, equal
    to +L/2 on the period) and node n/2 (the origin) are fixed per axis.
    """
    return _node_bank(grid)[(...,) + (0,) * grid.dim].reshape(grid.size)


def _input_symmetries(
    gp: np.ndarray, psisq: np.ndarray, phisq: np.ndarray, m0sq: np.ndarray, grid: Grid
) -> tuple[bool, tuple[int, ...]]:
    """(conjugation symmetric, even axes) by exact comparison of the input tables.

    For real g, conj(V_g u(x, w)) = V_g conj(u)(x, -w), so an m0^2 weight even
    in w makes form0 real; likewise for the |phi|^2 term.  If R mirrors axis
    i and g is even on it, V_g(u o R)(x, w) = V_g u(Rx, Rw), so an m0^2 even
    in (x_i, w_i) and |psi|^2 and |phi|^2 even in x_i and w_i make both forms
    commute with R.  On the centered grid the node of -w is (0 - l) mod n, so
    the mirrored tables are bit-equal and the view comparisons (see
    :func:`~tfuncert.transforms._mirror_even`) exact.  A 0-d ``m0sq`` is a constant m0.
    """
    d = grid.dim
    scalar = m0sq.ndim == 0
    table = None if scalar else m0sq.reshape(grid.shape * 2)  # axes (x, w)
    g, psisq, phisq = (t.reshape(grid.shape) for t in (gp, psisq, phisq))
    real = (
        _mirror_even(phisq, range(d))
        and not np.any(gp.imag)
        and (scalar or _mirror_even(table, range(d, 2 * d)))
    )
    even_axes = tuple(
        axis
        for axis in range(d)
        if all(_mirror_even(t, (axis,)) for t in (g, psisq, phisq))
        and (scalar or _mirror_even(table, (axis, d + axis)))
    )
    return real, even_axes


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
    symmetric forms, which the eigensolver then handles in real arithmetic;
    it splits by parity on the pair's ``even_axes`` (see :func:`_input_symmetries`).
    Definiteness of form0 is not checked here: the eigensolver's factorization
    of form0 checks it (see :func:`smallest_eigen`).

    A tabulated m0 takes one real-input transform of m0^2, whose half
    spectrum holds every lag the form reads (see :func:`_m0sq_spectrum`), and
    m0^2 is released before one more pass of the STFT engine over half the
    lags, each written with its conjugate mirror (see
    :func:`_assemble_form0_general`).  The circulant |phi|^2 form is a view
    of its window bank, with a conjugate-symmetric lag spectrum.  So both
    forms are Hermitian by construction and nothing symmetrizes them
    afterwards.  On 1024 nodes the tracemalloc peak is 20.6 MiB with a
    tabulated m0, 16.1 MiB with a constant one and 32.2 MiB for a complex
    pencil with a tabulated m0; on 32^2 with a tabulated m0 it is 21.3 MiB.
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
    psisq = np.abs(triple.psi) ** 2
    phisq = np.abs(triple.phi) ** 2
    real, even_axes = _input_symmetries(gp, psisq, phisq, m0sq, grid)
    dtype = np.float64 if real else np.complex128
    if m0sq.ndim == 0:
        # constant-table specialization of the lag path: only lag zero survives
        # ||g||^2 h^2d first: m0^2 times the bare sum may overflow where form0 does not
        base = float(m0sq) * (float(np.sum(np.abs(gp) ** 2)) * grid.cell**2)
        form0 = base * np.eye(size, dtype=dtype)
    else:
        # the lag loop reads only m0^2's spectrum, and form_full only form0, so
        # each is released once read: 8 MiB apiece on 1024 nodes
        mhat = _m0sq_spectrum(m0sq, grid)
        del m0sq
        form0 = _assemble_form0_general(mhat, window, grid, real)
        del mhat
    # form_full is form0 plus the |psi|^2 diagonal, then the |phi|^2 circulant:
    # Hermitian terms, so the sum is Hermitian bit for bit too
    form_full = form0.copy()
    form_full.reshape(-1)[:: size + 1] += psisq * grid.cell
    full = form_full.reshape(grid.shape * 2)  # full[l][m]: row l, column m as node multi-indices
    full += _form_phi_bank(phisq, grid, real)
    return QuadraticFormPair(grid, form0, form_full, even_axes)


# ---------------------------------------------------------------------------
# eigenproblem


@dataclass(frozen=True)
class EigenSolution:
    """Generalized eigenpair form_full v = nu form0 v with lam = nu - 1 >= 0."""

    nu: float
    lam: float
    vector: SampledFunction
    residual: float


def _axis_basis(n: int, parity: Optional[bool]) -> list:
    """One axis's orthonormal basis of one mirror parity, as ``(coordinates, terms)`` parts.

    Block coordinates in the slice ``coordinates`` are the vectors sum sign e_j
    over the ``(node slice, sign)`` terms, over sqrt(len(terms)).  Even is e_0,
    e_{n/2} (the fixed nodes), then (e_j + e_{n-j})/sqrt 2 for j = 1 .. n/2 - 1;
    odd is (e_j - e_{n-j})/sqrt 2; ``None`` is the nodes.  The last stop is the size.
    """
    h = n // 2
    pairs = ((slice(1, h), 1), (slice(n - 1, h, -1), 1 if parity else -1))
    if parity is None:
        return [(slice(0, n), ((slice(None), 1),))]
    if parity:
        return [(slice(0, 2), ((slice(0, None, h), 1),)), (slice(2, h + 1), pairs)]
    return [(slice(0, h - 1), pairs)]


def _parity_block(form: np.ndarray, grid: Grid, bases: list) -> np.ndarray:
    """``form`` on the tensor product of the per-axis ``bases`` (see :func:`_axis_basis`).

    The form commutes with the mirror R of each split axis, so the row of
    (e_j +- R e_j)/sqrt 2 is sqrt 2 times that of e_j: only the first node of
    each vector is read as a row, the columns fold on views, [1:n/2] +-
    [n-1:n/2:-1], and a part with k more terms in its rows than in its
    columns is scaled by sqrt(2)^k.  The form is Hermitian bit for bit, so
    each of those columns is read as the conjugate of a row, and the block
    is written in place, through its transposed view, into a preallocated
    Fortran array (coordinates in Fortran order, for LAPACK), which a
    complex form then conjugates once.
    """
    d = grid.dim
    dims = tuple(basis[-1][0].stop for basis in bases)
    cube = np.empty(dims * 2, dtype=form.dtype, order="F")
    transposed = cube.transpose(tuple(range(d, 2 * d)) + tuple(range(d)))
    nodes = form.reshape(grid.shape * 2)  # nodes[l][m]: row l, column m as node multi-indices
    for rows, cols in itertools.product(itertools.product(*bases), repeat=2):
        out = transposed[tuple(part for part, _ in cols + rows)]
        first = tuple(terms[0][0] for _, terms in rows)
        for k, terms in enumerate(itertools.product(*(terms for _, terms in cols))):
            src = nodes[tuple(node for node, _ in terms) + first]
            if k == 0:
                out[...] = src
            elif math.prod(sign for _, sign in terms) > 0:
                out += src
            else:
                out -= src
        lift = sum(len(terms) for _, terms in rows) - sum(len(terms) for _, terms in cols)
        if lift:
            out *= math.sqrt(2.0**lift)
    if np.iscomplexobj(cube):
        np.conjugate(cube, out=cube)
    return cube.reshape((math.prod(dims),) * 2, order="F")


def _embed(x: np.ndarray, grid: Grid, bases: list) -> np.ndarray:
    """Node values of the block vectors in the columns of ``x``: the basis change undone."""
    coords = x.reshape(tuple(basis[-1][0].stop for basis in bases) + x.shape[1:], order="F")
    v = np.zeros(grid.shape + x.shape[1:], dtype=x.dtype)
    for parts in itertools.product(*bases):
        piece = coords[tuple(part for part, _ in parts)]
        lift = sum(len(terms) - 1 for _, terms in parts)
        piece = piece * math.sqrt(2.0**-lift) if lift else piece
        for terms in itertools.product(*(terms for _, terms in parts)):
            even = math.prod(sign for _, sign in terms) > 0
            v[tuple(node for node, _ in terms)] = piece if even else -piece
    return v.reshape(grid.size, -1)


_BLAS_LOCK = threading.Lock()  # one pinned region at a time: the counts are process-wide


@functools.cache
def _bundled_openblas() -> tuple:
    """``(get, set)`` thread-count functions of numpy's and scipy's bundled
    OpenBLAS builds, as already loaded; ``()`` if either is not found.

    numpy's ``numpy.libs/libscipy_openblas64_-*.so`` serves the residual
    products, scipy's ``scipy.libs/libscipy_openblas-*.so`` the LAPACK solves.
    ``RTLD_NOLOAD`` opens only a library the process has loaded already.
    """
    import scipy.linalg  # loads scipy's OpenBLAS

    if not hasattr(os, "RTLD_NOLOAD"):
        return ()
    found = []
    for module, pattern, suffix in (
        (np, "numpy.libs/libscipy_openblas64_-*.so", "64_"),
        (scipy, "scipy.libs/libscipy_openblas-*.so", ""),
    ):
        for path in sorted(Path(module.__file__).parent.parent.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
            break
    return tuple(found) if len(found) == 2 else ()


@contextlib.contextmanager
def _one_blas_thread():
    """Both bundled OpenBLAS libraries on one thread for the body, each
    library's previous count restored after it, on error too.

    One thread gives the same bits on every machine and starts no worker
    threads that spin after the call.  Without the libraries (see
    :func:`_bundled_openblas`) the body runs at the default counts.
    """
    with _BLAS_LOCK:
        libs = _bundled_openblas()
        saved = [get() for get, _ in libs]
        for _, set_ in libs:
            set_(1)
        try:
            yield
        finally:
            for (_, set_), threads in zip(libs, saved):
                set_(threads)


@_one_blas_thread()
def smallest_eigen(pair: QuadraticFormPair, count: int = 1) -> list[EigenSolution]:
    """The ``count`` smallest generalized eigenpairs, ascending.

    Eigenvectors come back form0-orthonormal, i.e. normalized in the weighted
    phase-space norm the pencil encodes.  A form0 that is not positive
    definite raises ``ValueError``.

    The pencil is solved as its parity blocks (:func:`_parity_block`), one
    per choice of even or odd on each axis in ``pair.even_axes``, as the
    Hermite functions are products of even and odd ones: k axes give 2^k
    blocks, a 4^k-th of the O(size^3) flops of one solve.  Each block is
    solved for min(count, block size) pairs, even before odd on ties.  A
    pencil with no even axis, such as a d = 2 one even only under the joint
    mirror x -> -x (a rotated Gaussian window), is one block, the whole
    pencil.  Residuals and the nu >= 1 check use the full forms.

    The solves and the residual products run with numpy's and scipy's
    bundled OpenBLAS pinned to one thread (:func:`_one_blas_thread`), so the
    bits do not depend on ``OPENBLAS_NUM_THREADS`` or the CPU count; calls
    from several threads take turns.  Where those libraries are not found,
    the default thread counts apply and the last bits may move with them.
    """
    import scipy.linalg

    grid = pair.grid
    if not (1 <= count <= grid.size):
        raise ValueError(f"count must be in 1..{grid.size}, got {count}")
    vals, vecs = [], []
    for parities in itertools.product((True, False), repeat=len(pair.even_axes)):
        split = dict(zip(pair.even_axes, parities))
        bases = [_axis_basis(grid.n, split.get(axis)) for axis in range(grid.dim)]
        block_size = math.prod(basis[-1][0].stop for basis in bases)
        try:  # the pair of blocks lives for this call only, and LAPACK overwrites it
            w, x = scipy.linalg.eigh(
                *(_parity_block(form, grid, bases) for form in (pair.form_full, pair.form0)),
                subset_by_index=[0, min(count, block_size) - 1], overwrite_a=True, overwrite_b=True,
                check_finite=False,  # the pair checked its forms
            )
        except np.linalg.LinAlgError as exc:
            # the solver's Cholesky factorization of form0 is the definiteness check
            raise ValueError(
                "form0 is not positive definite; the weight/grid combination is degenerate"
            ) from exc
        vals.append(w)
        vecs.append(_embed(x, grid, bases))
    merged = np.concatenate(vals)
    order = np.argsort(merged, kind="stable")[:count]
    vals, vecs = merged[order], np.concatenate(vecs, axis=1)[:, order]
    lead = pair.form_full @ vecs
    residuals = np.linalg.norm(lead - vals * (pair.form0 @ vecs), axis=0)
    residuals /= np.linalg.norm(lead, axis=0)
    solutions = []
    for idx, (nu, residual) in enumerate(zip(vals.tolist(), residuals.tolist())):
        if residual > EIGEN_RESIDUAL_TOL:
            raise ValueError(
                f"eigensolver residual {residual:.3e} exceeds {EIGEN_RESIDUAL_TOL} at index {idx}"
            )
        if nu < 1.0 - 1e-8:
            raise ValueError(f"generalized eigenvalue {nu} below 1; the moment form is not PSD")
        vector = SampledFunction(grid, vecs[:, idx])
        solutions.append(EigenSolution(nu, max(nu - 1.0, 0.0), vector, residual))
    return solutions


def operator_A_apply(pair: QuadraticFormPair, u: SampledFunction) -> SampledFunction:
    """Apply the localization operator by solving form_full w = form0 u."""
    import scipy.linalg

    if not pair.grid.compatible(u.grid):
        raise ValueError("input sampled on a different grid")
    w = scipy.linalg.solve(pair.form_full, pair.form0 @ u.values, assume_a="pos")
    return u.with_values(w)


def hilbert_functional(pair: QuadraticFormPair, u: SampledFunction) -> float:
    """Rayleigh quotient of the moment form form_full - form0 against the weighted norm."""
    if not pair.grid.compatible(u.grid):
        raise ValueError("input sampled on a different grid")
    v = u.values
    den = float(np.real(np.vdot(v, pair.form0 @ v)))
    if den <= 0.0:
        raise ValueError("input has zero weighted norm")
    return float(np.real(np.vdot(v, pair.form_full @ v))) / den - 1.0


def oscillator_modes(
    n: int, extent: float, count: int = 6
) -> tuple[np.ndarray, list[SampledFunction]]:
    """Eigenvalues of -(1/4 pi^2) f'' + x^2 f by three-point finite differences.

    Returns the ``count`` lowest eigenvalues and their L2-normalized
    eigenvectors.  Dirichlet truncation at the grid ends; valid because the
    eigenfunctions decay super-exponentially.  Serves as the
    discretization-independent cross-check for the quadratic-form
    eigenproblem.
    """
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


def _check_moment_term(p: float, a: float, name: str) -> None:
    """Refuse a non-differentiable moment term: exponent ``name`` finite and > 1, order >= 0."""
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"differentiable moment term needs finite {name} > 1, got {p}")
    if a < 0:
        raise DomainError(f"moment order must be nonnegative, got {a}")


@dataclass(frozen=True)
class XMomentTerm:
    """The term || |x|^a f ||_p."""

    p: float
    a: float

    def __post_init__(self) -> None:
        _check_moment_term(self.p, self.a, "p")

    def _value_and_grad(self, f: SampledFunction) -> tuple[float, np.ndarray]:
        return _moment_grad(f, self.p, self.a, "x-moment")


@dataclass(frozen=True)
class OmegaMomentTerm:
    """The term || |w|^b Ff ||_q."""

    q: float
    b: float

    def __post_init__(self) -> None:
        _check_moment_term(self.q, self.b, "q")

    def _value_and_grad(self, f: SampledFunction) -> tuple[float, np.ndarray]:
        # the x moment of Ff on the conjugate grid is the w moment of f; the
        # transform is unitary, so the gradient pulls back through its inverse
        F = fourier(f)
        value, ghat = _moment_grad(F, self.q, self.b, "frequency-moment")
        return value, inverse_fourier(F.with_values(ghat)).values


@dataclass(frozen=True)
class ModulationTerm:
    """The modulation norm with bracket weights and fixed window.

    ``_value_and_grad(f)`` gives M(f) and its gradient from one pass over
    V_g f; the gradient is 0-homogeneous, so the descent normalizes with that M.
    """

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

    @property
    def _tight_frame(self) -> bool:
        """Whether the term is the unweighted M^{2,2} norm, taken by :func:`_tight_frame_grad`."""
        return self.r == 2 and self.s == 2 and self.alpha == 0 and self.beta == 0

    def _value_and_grad(self, f: SampledFunction) -> tuple[float, np.ndarray]:
        if self._tight_frame:
            return _tight_frame_grad(f, self.window)
        return _modulation_grad(f, self.window, self.r, self.s, self.alpha, self.beta)


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
    f: SampledFunction, g: SampledFunction, r: float, s: float, alpha: float, beta: float
) -> tuple[float, np.ndarray]:
    """Modulation norm M of f and its gradient S^H(coeff |V|^(r-2) V) * freq_cell, streamed.

    Pass 1 (:meth:`_MixedReduction.stream`) reduces the row chunks of
    V = V_g f to M and the column norms, which coeff = wx^r ww^s col^(s-r)
    M^(1-s) needs before any row can be scaled; the descent normalizes with
    this M.  Pass 2 makes each chunk's rows again, scales them in place
    through one real buffer (|V|, then its power, then coeff) and folds them
    into the adjoint sum in chunk order.  The last chunk is not made again:
    it is still in pass 1's buffer, so a one-chunk field is made once.
    """
    grid = f.grid
    _check_stft_inputs(f, g)
    reduction = _MixedReduction(grid, MixedOrder(r, s, inner="x"), BracketWeight(alpha, beta))
    last_rows = reduction.stream(f, g)
    value = reduction.value()
    if value == 0.0:
        raise ValueError("zero modulation norm; the derivative is undefined")
    inner = reduction.inner()
    with np.errstate(divide="ignore", invalid="ignore"):
        col = np.where(inner > 0, inner ** (s - r), 0.0)
    col_coeff = value ** (1.0 - s) * (reduction.outer_weight**s * col)
    row_coeff = reduction.inner_weight**r
    fill = _engine_rows(f, g)

    def scaled(start: int, stop: int) -> np.ndarray:
        if stop == grid.size:
            rows = last_rows
        else:
            rows = np.empty((stop - start, grid.size), dtype=np.complex128)
            fill(start, stop, rows)
        # |V|^(r-2) V with the V = 0 nodes left at 0 (the pairing's limit value)
        mags = np.abs(rows)
        np.power(mags, r - 2.0, out=mags, where=mags > 0)
        rows *= mags
        rows *= np.multiply(col_coeff[None, :], row_coeff[start:stop, None], out=mags)
        return rows

    return value, grid.freq_cell * _adjoint_sum(scaled, g)


def _tight_frame_grad(f: SampledFunction, g: SampledFunction) -> tuple[float, np.ndarray]:
    """The unweighted M^{2,2} norm M of f and its gradient, by Moyal's identity.

    M is the one guarded, streamed :func:`modulation_norm` call, which the
    descent normalizes with.  On the periodic grid the STFT is a tight
    frame, S^H S = ||g||^2 I with the phase-space quadrature folded in, so
    :func:`_modulation_grad` at r = s = 2 without weight reduces to
    (||g||_2 / ||f/M||_2) f/M, up to rounding: no field, reducer or adjoint.
    """
    value = modulation_norm(f, g, 2, 2)
    if value == 0.0:
        raise ValueError("zero modulation norm; the derivative is undefined")
    unit = scale(f, 1.0 / value)
    return value, (lp_weighted(g, 2.0) / lp_weighted(unit, 2.0)) * unit.values


def _pairing(grad: np.ndarray, u: np.ndarray, cell: float) -> float:
    return float(np.real(np.vdot(grad, u)) * cell)


def _moment_preconditioner(grid: Grid, a: float, b: float):
    """u -> W X W u, the inverse-Hessian model of the quadratic moment terms.

    X = diag(1/(1 + |x|^(2a))) on the nodes and W = F^-1 diag((1 +
    |w|^(2b))^(-1/2)) F on the centered unitary transform: the moment
    Hessians |x|^(2a) and |w|^(2b) split symmetrically.  Both factors are
    Hermitian and positive, so the map is self-adjoint and positive definite
    in :func:`_pairing`.  One apply costs four FFTs and two centering rolls.
    """
    shape = grid.shape
    xdiag = (1.0 / (1.0 + grid.radii() ** (2.0 * a))).reshape(shape)
    wdiag = ((1.0 + grid.freq_radii() ** (2.0 * b)) ** -0.5).reshape(shape)
    # the centering shifts are permutations, which commute with the diagonal
    # products: folded into the diagonals, the inner six cancel, and the
    # apply is bit for bit the two centered halves with two rolls instead of eight
    xs, ws = np.fft.ifftshift(xdiag), np.fft.ifftshift(wdiag)

    def apply(u: np.ndarray) -> np.ndarray:
        inner = xs * np.fft.ifftn(ws * np.fft.fftn(np.fft.ifftshift(u.reshape(shape))))
        return np.fft.fftshift(np.fft.ifftn(ws * np.fft.fftn(inner))).ravel()

    return apply


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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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
    if e.a <= 0 or e.b <= 0:
        raise DomainError("moment orders a, b must be positive")
    # the constructors check finite p, q, r, s > 1; the gradients' and preconditioner's
    # weights |x|^(a p) and |w|^(b q) are refused in log space if they overflow on the grid
    terms = XMomentTerm(e.p, e.a), OmegaMomentTerm(e.q, e.b)
    grid = g.grid
    for var, order, radii in (("x", e.a * e.p, grid.radii()), ("w", e.b * e.q, grid.freq_radii())):
        if order * math.log(np.max(radii)) > math.log(np.finfo(np.float64).max):
            raise DomainError(f"moment weight |{var}|^{order:g} overflows on the grid")
    return (*terms, ModulationTerm(e.r, e.s, e.alpha, e.beta, g))


def _stationarity_defect(
    gf: np.ndarray, gm: np.ndarray, lam: float, vectors: Sequence[np.ndarray], cell: float
) -> float:
    """Worst |<gf, u> - lam <gm, u>| / ||u||_2 over the vectors u; zero vectors are skipped."""
    worst = 0.0
    for vec in vectors:
        nrm = math.sqrt(_pairing(vec, vec, cell))
        if nrm:
            defect = abs(_pairing(gf, vec, cell) - lam * _pairing(gm, vec, cell))
            # np.maximum keeps a NaN defect, which then never reads as converged
            worst = float(np.maximum(worst, defect / nrm))
    return worst


def el_residual_banach(
    f: SampledFunction,
    lam: float,
    e: ExponentSet,
    g: SampledFunction,
    directions: Sequence[SampledFunction],
) -> float:
    """Worst stationarity defect |dF[u] - lam dM[u]| / ||u||_2 over directions."""
    x_term, w_term, m_term = _banach_terms(e, g)
    constraint, gm = m_term._value_and_grad(f)
    gf = x_term._value_and_grad(f)[1] + w_term._value_and_grad(f)[1]
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
    from the unit step.  The recursion starts from H0 = gamma P, with
    gamma = <s, y>/<y, P y> of the newest stored pair (1 before the first).
    When both moment terms are quadratic (p = q = 2), P is
    :func:`_moment_preconditioner`: there the moment Hessians are the
    symbols |x|^(2a) and |w|^(2b), and P removes their conditioning (the
    heisenberg preset converges in about 15 instead of about 110 iterations
    per start).  Otherwise P is the identity: for p, q != 2 the moment
    Hessians scale with |f|^(p-2), which the fixed symbols do not model, and
    there P slows the descent down (p = q = 3 and 4 fail to converge in 400
    iterations where the identity converges).

    Each trial point takes M(Tu) and the modulation gradient from one call
    of the modulation term and normalizes with that M: at r = s = 2 without
    weight one streamed :func:`modulation_norm` and the tight-frame identity
    (see :func:`_tight_frame_grad`), otherwise the two streamed passes over
    the rows of V_g f (see :func:`_modulation_grad`), so no grid size cap
    applies.

    Convergence is declared when the unpreconditioned stationarity defect
    along the ratio gradient, |<v, grad>| / ||grad||_2 with v = gf - lam gm
    and grad = T v / M(Tu), drops below options.tol.  No other direction can
    set a larger defect: along f it is |F(f) - lam M(f)|, which is 0 by
    Euler's identity since F and M are 1-homogeneous, and along grad it is
    at least ||T v||, which a decaying test direction can exceed only through
    content where T < 1, i.e. at the box edge, where such directions are
    negligible.  If the admissibility check fails the run proceeds but is
    flagged exploratory (the infimum may be zero).
    """
    opts = options or MinimizeOptions()
    x_term, w_term, m_term = _banach_terms(e, g)
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
    # radius and kills both end nodes of every axis by e^-40; the moment
    # weights amplify edge-band content every step and this shaves it back
    # faster than steps regrow it, without touching a decaying minimizer.  It
    # is centered on the grid's midpoint -h/2, not on the origin node, so the
    # last node is damped as hard as the first
    h = grid.spacing
    edge = (grid.coords() + 0.5 * h) / (0.5 * (grid.extent - h))
    taper = np.exp(-40.0 * np.sum(np.abs(edge) ** 32, axis=-1))

    quadratic = e.p == 2 and e.q == 2
    precondition = _moment_preconditioner(grid, e.a, e.b) if quadratic else (lambda v: v)

    def evaluate(u: np.ndarray):
        """f = Tu/M(Tu), lam = F(f) = R(u), the gradient of R at u, the defect."""
        tu = SampledFunction(grid, u * taper)
        nm, gm = m_term._value_and_grad(tu)
        fn = scale(tu, 1.0 / nm)
        (xval, gx), (wval, gw) = x_term._value_and_grad(fn), w_term._value_and_grad(fn)
        lam, gf = xval + wval, gx + gw
        # F and M have 0-homogeneous gradients, so those at Tu are those at f
        grad = taper * (gf - lam * gm) / nm
        return fn, lam, grad, _stationarity_defect(gf, gm, lam, [grad], cell)

    u = init.values
    f, lam, grad, resid = evaluate(u)
    pairs: deque = deque(maxlen=_LBFGS_PAIRS)  # (s, y, 1/<y, s>), oldest first
    gamma = 1.0  # H0 = gamma P: <s, y>/<y, P y> of the newest pair
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
        direction = precondition(gamma * direction)
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
            gamma = sy / _pairing(yv, precondition(yv), cell)
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
