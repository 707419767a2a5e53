"""Fourier transform, convolution, and time-frequency transforms on grids.

The Fourier transform uses the convention F(w) = \\int f(x) e^{-2 pi i x.w} dx,
realized as a centered DFT scaled by the quadrature cell: with nodes
x_j = (j - n/2) h and frequencies w_k = (k - n/2)/extent, the map is exactly
unitary from the h-weighted to the (1/extent)-weighted inner product.

Circular wrap-around stands in for the real line, so convolution and
windowed transforms guard that their inputs decay at the grid boundary.
"""
from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice, product, starmap
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sampling import Grid, SampledFunction, _centered_ifftn, _integral, _require_same_grid

__all__ = [
    "AliasingError",
    "PhaseSpaceFunction",
    "fourier",
    "inverse_fourier",
    "convolve",
    "stft",
    "ambiguity",
    "stft_adjoint",
    "stft_row_chunks",
]

# Relative boundary decay required of convolution and STFT inputs.
# loose enough that optimizer iterates with ~1e-9 boundary mass pass, strict
# enough that genuinely non-decaying inputs are still rejected
ALIASING_THRESHOLD = 1e-8

# Largest dense size x size array the library builds: the phase-space field
# held by stft and ambiguity, and the quadratic forms of
# variational.build_forms.  Norms and the descent's modulation gradient
# stream row chunks instead, so no cap applies to them.
_MAX_MATERIALIZED = 1 << 24

# CPUs this process may run on.  The pool that makes and reduces row chunks
# has min(_FFT_WORKERS, 2) threads; with one CPU every chunk runs inline.
_FFT_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# Complex entries per row chunk (2 MiB), i.e. max(1, 2^17 // size) rows: 256
# rows up to 512 nodes, 128 rows of 32^2, 32 rows of 64^2.  Chunk bounds
# depend on the grid size alone, so results do not depend on worker counts.
# Up to four chunks are alive in a streamed norm: with 2^19-entry chunks a
# 32^2 psi_phi_norm peaked at 20 MiB of tracemalloc'd memory, with 2^17 at 7.
_CHUNK_ENTRIES = 1 << 17

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


class AliasingError(ValueError):
    """Input does not decay at the grid boundary; wrap-around would alias."""


def _centered_fftn(arr: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(arr)))


def fourier(f: SampledFunction) -> SampledFunction:
    """Forward transform; the result lives on the conjugate grid."""
    g = f.grid
    out = _centered_fftn(f.reshaped()) * g.cell
    return SampledFunction(g.conjugate(), out.ravel())


def inverse_fourier(F: SampledFunction) -> SampledFunction:
    """Inverse transform; exact two-sided inverse of :func:`fourier`."""
    g = F.grid
    out = _centered_ifftn(F.reshaped()) * g.extent**g.dim
    return SampledFunction(g.conjugate(), out.ravel())


def _check_decay(f: SampledFunction, what: str) -> None:
    mags = np.abs(f.values)
    peak = float(mags.max())
    if peak == 0.0:
        return
    edge = float(mags[f.grid.boundary_mask()].max())
    if edge > ALIASING_THRESHOLD * peak:
        raise AliasingError(
            f"{what}: boundary magnitude {edge:.3e} exceeds "
            f"{ALIASING_THRESHOLD:g} of peak {peak:.3e}; aliasing risk"
        )


def _check_stft_inputs(f: SampledFunction, g: SampledFunction) -> None:
    """Guards of every STFT route: one grid, a nonzero window and decaying inputs."""
    _require_same_grid(f, g, "stft")
    if not np.any(g.values):
        raise ValueError("stft window is identically zero")
    _check_decay(f, "stft: function")
    _check_decay(g, "stft: window")


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Continuous convolution (f*g)(x) = \\int f(x-y) g(y) dy via DFT product."""
    _require_same_grid(f, g, "convolve")
    _check_decay(f, "convolve: first input")
    _check_decay(g, "convolve: second input")
    F = fourier(f)
    G = fourier(g)
    return inverse_fourier(F.with_values(F.values * G.values))


@dataclass(frozen=True)
class PhaseSpaceFunction:
    """Complex values on the phase-space lattice (x node, w node).

    ``values[i, k]`` is the value at spatial node i (flat, row-major) and
    frequency node k of the conjugate grid.  One phase-space cell carries
    quadrature weight ``grid.cell * grid.freq_cell``.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.array(self.values, dtype=np.complex128))
        self._freeze()

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "PhaseSpaceFunction":
        """Wrap ``values``, a complex array no one else holds, without copying it."""
        out = cls.__new__(cls)
        object.__setattr__(out, "grid", grid)
        object.__setattr__(out, "values", values)
        out._freeze()
        return out

    def _freeze(self) -> None:
        vals, size = self.values, self.grid.size
        if vals.shape != (size, size):
            raise ValueError(f"values must have shape ({size}, {size}), got {vals.shape}")
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("values must be finite")
        vals.setflags(write=False)


# ---------------------------------------------------------------------------
# STFT engine
#
# Row i of V_g f is the centered DFT fftshift . fft . ifftshift of the node
# product p_i[t] = f[t] conj(g[(t - i + n/2) mod n]).  For even n,
# fftshift . fft = fft . diag((-1)^j), and ifftshift(p_i)[j] =
# f[(j + n/2) mod n] conj(g[(j - i) mod n]), so the row is the plain DFT of
#     (-1)^j f[(j + n/2) mod n]  *  conj(g)[(j - i) mod n].
# The first factor fs is the same for every row and is computed once, with
# the quadrature cell folded in; no output factor is left.  The second is a
# contiguous slice of conj(g) tiled twice, so the whole window bank is one
# strided view: no index arrays, no gathered copies.  Both hold per axis in
# d = 2.
#
# Every d = 2 window the library builds is a tensor product conj(g) = a (x) b
# (the Gaussians of default_window and of the Lieb extremals).  Each call
# tests this once, against a residual of _RANK_ONE_ULPS ulp of the peak; there
# is no setting.  For such a window the row of x node (i1, i2) is
#     FFT over j2 of  Q_i1[k1, j2] b[j2 - i2],   Q_i1 = FFT over j1 of fs a[j1 - i1],
# so a chunk takes one FFT over the first node axis per distinct i1 and one
# FFT over the second axis per row: half the 1-D FFTs of a row's fftn.  Any
# other window takes the node product and fftn.
#
# For real f and g both factors are real, and the streamed rows may be taken
# as half spectra: V_g f(x, -w) = conj V_g f(x, w).  _half_nodes is the one
# statement of their layout: the halved axis is the first node axis.  Both
# d = 2 routes take their rfft over j1, so both write that layout.  When f
# and g are also even (_input_symmetries' ``even``), V_g f(-x, w) =
# V_g f(x, -w), so |V_g f| is even in x as well, and a streamed norm takes
# only the x rows of that same layout: the first counts.size rows.
#
# Every FFT is one 1-D numpy.fft transform per axis, in the order the axes
# are listed, in place (out=); a real input takes its rfft over the last
# listed axis first.  That is the order of scipy's fftn, ifftn and rfftn,
# whose bits it gives on power-of-two grids (a test checks this);
# np.fft.fftn takes the axes in reverse and rounds differently.
#
# Every route, full or half, factored or general, is one
# fill(start, stop, out) that writes a chunk's rows into the block it is
# given: a fresh one, a slice of the materialized field, or a reused buffer.
#
# Every pass over the field (making rows, filling the materialized field, the
# adjoint, the streamed reductions, build_forms' lag assembly) works in row
# chunks of _CHUNK_ENTRIES entries.  A field of several chunks is processed on
# a shared two-thread pool, each chunk's FFT on one thread, and the results are
# folded in chunk order by the calling thread, so the bits do not depend on the
# worker count.  A one-chunk field, or _FFT_WORKERS == 1, runs inline.
# A streamed norm reduces each chunk in the pool task that made it, so its
# rows never pass between threads and live in a ring of reused buffers.

# Largest rank-one residual max|w - a (x) b| of a d = 2 window that takes the
# factored route, in ulp (eps times the peak magnitude).  Sampled Gaussians
# stay below one ulp; a rotated Gaussian is at 0.13 of the peak.
_RANK_ONE_ULPS = 4.0

# Chunks a threaded pass keeps computing ahead of the one being consumed.
_AHEAD = 2


def _chunk_rows(size: int, chunk: int | None = None) -> int:
    """Rows per chunk of a field with ``size`` x nodes: ``chunk``, or ``_CHUNK_ENTRIES`` entries.

    A ``chunk`` that is not a positive integer raises ``ValueError``.
    """
    if chunk is None:
        return max(1, _CHUNK_ENTRIES // size)
    rows = _integral(chunk, "chunk")
    if rows < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    return rows


def _chunk_bounds(size: int, rows: int):
    """``(start, stop)`` of each ``rows``-row chunk of [0, size), in order."""
    return ((start, min(start + rows, size)) for start in range(0, size, rows))


def _pool() -> ThreadPoolExecutor:
    """The shared pool, built on first use so that importing starts no thread."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(min(_FFT_WORKERS, 2), thread_name_prefix="tfuncert-rows")
        return _POOL


def _ordered_map(task, items, threaded: bool):
    """Yield ``task(*item)`` for each of ``items``, in order.

    Threaded, the tasks run on the shared pool with at most ``_AHEAD``
    outstanding: the next item is drawn (on the calling thread) and submitted
    as each result is taken, so at most ``_AHEAD + 1`` results are alive at
    once.  Tasks must not wait on the pool.  Inline when not ``threaded`` or
    ``_FFT_WORKERS`` is 1.
    """
    if not threaded or _FFT_WORKERS == 1:
        yield from starmap(task, items)
        return
    pool = _pool()
    items = iter(items)
    pending = deque(pool.submit(task, *item) for item in islice(items, _AHEAD))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(task, *item) for item in islice(items, 1))
            yield result
            del result  # the consumer may free it while the next one is awaited
    finally:
        for future in pending:
            future.cancel()


def _chunk_map(task, size: int):
    """:func:`_ordered_map` of ``task(start, stop)`` over the default row chunks of [0, size)."""
    rows = _chunk_rows(size)
    return _ordered_map(task, _chunk_bounds(size, rows), threaded=rows < size)


def _row_fftn(
    block: np.ndarray, axes: tuple[int, ...], inverse: bool = False, real: bool = False, out=None
) -> np.ndarray:
    """DFT (or inverse DFT) over ``axes`` of ``block`` on the calling thread, in place.

    One 1-D transform per axis, in the order of ``axes``.  With ``real`` the
    block is real: its rfft over the last of ``axes`` (cut to n/2 + 1) goes
    into ``out`` (a new array if None), where the other axes are transformed.
    """
    if real:
        block = np.fft.rfft(block, axis=axes[-1], out=out)
        axes = axes[:-1]
    transform = np.fft.ifft if inverse else np.fft.fft
    for axis in axes:
        transform(block, axis=axis, out=block)
    return block


def _parity(grid: Grid) -> np.ndarray:
    """(-1)^(j_1 + ... + j_d) on the node array."""
    sign = 1.0 - 2.0 * (np.arange(grid.n) % 2)
    out = sign
    for _ in range(grid.dim - 1):
        out = np.multiply.outer(out, sign)
    return out


def _window_bank(w: np.ndarray, flip: bool = False) -> np.ndarray:
    """View with ``bank[i][j] = w[(j - i) mod n]`` per axis, or ``w[(j + i) mod n]`` if flipped.

    ``w`` has the node shape; ``bank[i]`` is indexed by the multi-index of x
    node i and is a read-only view of ``w`` tiled twice per axis.
    """
    d, n = w.ndim, w.shape[0]
    view = sliding_window_view(np.tile(w, (2,) * d), w.shape)
    rows = slice(0, n) if flip else slice(n, 0, -1)
    return view[(rows,) * d]


def _node_runs(n: int, start: int, stop: int):
    """Yield ``(lo, hi, i1, i2)`` covering the flat d = 2 x nodes [start, stop).

    Flat nodes [start + lo, start + hi) are (i1, i2), ..., (i1, i2 + hi - lo - 1):
    the range is cut where the first node index changes.
    """
    p = start
    while p < stop:
        i1, i2 = divmod(p, n)
        q = min(stop, (i1 + 1) * n)
        yield p - start, q - start, i1, i2
        p = q


def _bank_segments(bank: np.ndarray, start: int, stop: int):
    """Yield ``(lo, hi, windows)`` covering flat x nodes [start, stop).

    ``windows`` stacks ``bank[x node p]`` for p in [start + lo, start + hi);
    the range is cut where the first node index changes, so every stack is a
    strided view of the bank.
    """
    if bank.ndim == 2:
        yield 0, stop - start, bank[start:stop]
        return
    for lo, hi, i1, i2 in _node_runs(bank.shape[0], start, stop):
        yield lo, hi, bank[i1, i2 : i2 + hi - lo]


def _tensor_factors(w: np.ndarray):
    """``(a, b)`` with ``w[j1, j2] = a[j1] b[j2]`` to rounding, or None.

    Only d = 2 windows are factored.  ``a`` is the column through the peak
    and ``b`` the row through it divided by the peak value; ``w`` counts as
    rank one when max|w - a (x) b| is at most ``_RANK_ONE_ULPS`` ulp of the
    peak magnitude.
    """
    if w.ndim != 2:
        return None
    mags = np.abs(w)
    p1, p2 = np.unravel_index(np.argmax(mags), w.shape)
    peak = mags[p1, p2]
    if peak == 0.0:
        return None
    a, b = w[:, p2], w[p1] / w[p1, p2]
    residual = np.max(np.abs(w - np.multiply.outer(a, b)))
    if residual > _RANK_ONE_ULPS * np.finfo(np.float64).eps * peak:
        return None
    return a, b


def _factored_fill(fs: np.ndarray, a: np.ndarray, b: np.ndarray, flip: bool, half: bool):
    """The ``fill`` of :func:`_engine_rows` for a d = 2 window conj(g) = a (x) b.

    With ``half`` (real fs, a and b) the first FFT is an rfft, which halves
    the first node axis.
    """
    n = fs.shape[0]
    bank_a, bank_b = _window_bank(a, flip), _window_bank(b, flip)

    def fill(start: int, stop: int, out: np.ndarray) -> None:
        block = out.reshape(stop - start, -1, n)
        for lo, hi, i1, i2 in _node_runs(n, start, stop):
            # shared by the rows of i1: Q[k1, j2] = FFT over j1 of fs[j1, j2] a[j1 - i1]
            q = _row_fftn(fs * bank_a[i1][:, None], (0,), real=half)
            np.multiply(q, bank_b[i2 : i2 + hi - lo, None], out=block[lo:hi])
        _row_fftn(block, (2,))

    return fill


def _half_nodes(grid: Grid) -> np.ndarray:
    """``counts``: the layout of half-spectrum rows on ``grid``.

    The kept frequency nodes, those whose first index is at most n/2, are
    the first ``counts.size`` nodes of the frequency lattice in flat order.
    Every other node is the mirror (-k mod n per axis) of a kept one, where
    V_g f(x, -w) = conj V_g f(x, w) for real f and g.  ``counts`` is the
    number of lattice nodes each kept node stands for: 1 where the first
    index is 0 or n/2 (its mirror is kept, or is itself), 2 elsewhere.  The
    same prefix and counts serve the x nodes of a streamed norm whose |V_g f|
    is even in x (see the engine comment above).
    """
    cut = grid.n // 2 + 1
    counts = np.full((cut,) + grid.shape[1:], 2.0)
    counts[[0, -1]] = 1.0
    return counts.ravel()


def _node_mirror(grid: Grid) -> np.ndarray:
    """Flat node numbers of the mirror x -> -x: node j goes to (-j) mod n per axis.

    Node j sits at (j - n/2) h, so node 0 (the edge -L/2, equal to +L/2 on
    the period) and node n/2 (the origin) are fixed on each axis.
    """
    nodes = np.arange(grid.size).reshape(grid.shape)
    return np.roll(np.flip(nodes), 1, tuple(range(grid.dim))).ravel()


def _mirror_even(table: np.ndarray, axes: Sequence[int]) -> bool:
    """Whether ``table`` equals itself under j -> (-j) mod n on ``axes`` jointly, bit for bit.

    The mirror fixes index 0 and reverses [1:] on each axis, so the table is
    compared with reversed views of itself, one block per choice of index 0
    or [1:] on each axis, and nothing is gathered.
    """
    for tails in product((False, True), repeat=len(axes)):
        here, there = [slice(None)] * table.ndim, [slice(None)] * table.ndim
        for axis, tail in zip(axes, tails):
            here[axis], there[axis] = (slice(1, None), slice(None, 0, -1)) if tail else (0, 0)
        if not np.array_equal(table[tuple(here)], table[tuple(there)]):
            return False
    return True


def _input_symmetries(grid: Grid, x_tables, w_tables=(), xw_table=None, real_only=False):
    """``(real, even_axes, even)`` of input tables of x, of w and of (x, w), by exact comparison.

    The x tables are f, g or |psi|^2; the w tables |phi|^2 and the (x, w)
    table m0^2 (flat (size, size), or 0-d for a constant) are real.  ``real``:
    every table is real and even in w; for real g, conj V_g u(x, w) =
    V_g conj(u)(x, -w), so a norm's half spectra are exact and the forms
    real.  ``even_axes``: the axes i on whose mirror R, (x_i, w_i) ->
    (-x_i, -w_i), every table is even; for g even on axis i, V_g(u o R) =
    (V_g u) o R, so the forms commute with R.  ``even``: every table is even
    under the joint mirror, as when ``even_axes`` holds every axis; for real
    f and g, |V_g f| is then even in x.  The node of -x is (-j) mod n, so
    :func:`_mirror_even` compares reversed views, exactly.  With
    ``real_only`` complex tables make no comparison and read ``((), False)``.
    """
    d = grid.dim
    tables = [t.reshape(grid.shape + (1,) * d) for t in x_tables]
    tables += [t.reshape((1,) * d + grid.shape) for t in w_tables]
    if xw_table is not None:
        tables.append(xw_table.reshape(grid.shape * 2 if xw_table.ndim else (1,) * (2 * d)))

    def even_on(axes) -> bool:  # a table is even on an axis of length 1
        return all(_mirror_even(t, a) for t in tables if (a := [i for i in axes if t.shape[i] > 1]))

    real = not any(np.any(t.imag) for t in x_tables) and even_on(range(d, 2 * d))
    if real_only and not real:
        return False, (), False
    even_axes = tuple(axis for axis in range(d) if even_on((axis, d + axis)))
    return real, even_axes, len(even_axes) == d or (d > 1 and even_on(range(2 * d)))


def _engine_rows(f: SampledFunction, g: SampledFunction, flip: bool = False, half: bool = False):
    """Return ``fill(start, stop, out)`` writing V_g f rows of x nodes [start, stop) into out.

    ``out`` is a C-contiguous complex block of shape ``(stop - start, width)``:
    ``width = size`` for full rows.  With ``flip`` the row of node i is that
    of node -i (periodically), as the ambiguity function needs.  With
    ``half`` f and g must be real (a ``ValueError`` otherwise); the node
    product is then real, and each row holds only the kept nodes of
    :func:`_half_nodes`, ``width = counts.size``.  A d = 2 tensor window takes
    the factored route.
    """
    grid = f.grid
    values, w = f.reshaped(), np.conj(g.reshaped())
    if half:
        if np.any(values.imag) or np.any(w.imag):
            raise ValueError("half-spectrum STFT rows need real f and g")
        values, w = values.real, w.real
    fs = np.fft.ifftshift(values) * (_parity(grid) * grid.cell)
    factors = _tensor_factors(w)
    if factors is not None:
        return _factored_fill(fs, *factors, flip, half)
    # the last of the axes is the halved one, so half rows take them reversed
    axes = tuple(range(grid.dim, 0, -1)) if half else tuple(range(1, grid.dim + 1))
    bank = _window_bank(w, flip)
    cut = grid.n // 2 + 1 if half else grid.n

    def fill(start: int, stop: int, out: np.ndarray) -> None:
        rows = out.reshape((stop - start, cut) + grid.shape[1:])
        # a real node product has its own block, whose rfft writes into out
        block = np.empty((stop - start,) + grid.shape) if half else rows
        for lo, hi, windows in _bank_segments(bank, start, stop):
            np.multiply(fs, windows, out=block[lo:hi])
        _row_fftn(block, axes, real=half, out=rows)

    return fill


def stft_row_chunks(
    f: SampledFunction,
    g: SampledFunction,
    chunk: int | None = None,
    *,
    half: bool = False,
    reduce=None,
    _stop: int | None = None,
):
    """Iterate ``(flat_x_indices, V rows)`` of the short-time Fourier transform.

    Rows arrive in increasing x-node order, ``chunk`` per step, by default
    ``max(1, 2^17 // size)`` (2 MiB of rows); each row holds V_g f(x_i, .)
    over the full frequency lattice, bit-identical to the same row of
    :func:`stft` whatever the chunk size.  While a chunk is handed out the
    next two may already be computing on the engine's pool, so at most three
    chunks are alive: this is the memory-bounded route that every mixed norm
    of V_g f takes.  Each chunk's rows are a new array.  Inputs are not
    checked here; a ``chunk`` that is not a positive integer raises
    ``ValueError``.

    With ``half`` f and g must be real (a ``ValueError`` otherwise), and each
    row holds only the frequency nodes whose first index is at most n/2, in
    node order: ``size // n * (n // 2 + 1)`` entries, equal to those columns
    of :func:`stft` to rounding.  The other nodes are their mirrors, with
    conjugate values.  The chunk rule is unchanged.

    With ``reduce`` each step yields ``(flat_x_indices, V rows, part)``,
    where ``part = reduce(flat_x_indices, V rows)`` was computed in the same
    pool task as the rows, so rows never pass between threads.  The rows then
    live in a ring of reused buffers, one per chunk alive (allocated on first
    use, never more than there are chunks), and stay valid only until the
    next step: neither ``reduce`` nor the consumer may keep them, except
    that the last chunk's rows stay valid once the iteration has ended.
    ``reduce`` runs on the pool's threads and must not wait on the pool.

    ``_stop``, for the streamed norms of :mod:`tfuncert.norms` only, ends the
    rows at x node ``_stop`` (by default every row); the chunks are those of
    the whole field, cut there.
    """
    size = f.grid.size
    nodes = size if _stop is None else _stop
    rows = _chunk_rows(size, chunk)
    fill = _engine_rows(f, g, half=half)
    width = _half_nodes(f.grid).size if half else size
    threaded = rows < nodes and _FFT_WORKERS > 1
    # with reduce, chunk k is alive from its task until the consumer's next
    # step, and at most _AHEAD later chunks compute meanwhile: ring slot
    # k mod (_AHEAD + 1) is free when chunk k starts
    slots = min(_AHEAD + 1, -(-nodes // rows)) if threaded else 1
    ring = [None] * slots

    def task(start: int, stop: int):
        if reduce is None:
            out = np.empty((stop - start, width), dtype=np.complex128)
        else:
            slot = (start // rows) % slots
            if ring[slot] is None:
                ring[slot] = np.empty((min(rows, nodes), width), dtype=np.complex128)
            out = ring[slot][: stop - start]
        fill(start, stop, out)
        idx = np.arange(start, stop)
        return (idx, out) if reduce is None else (idx, out, reduce(idx, out))

    return _ordered_map(task, _chunk_bounds(nodes, rows), threaded)


def _materialize(f: SampledFunction, g: SampledFunction, flip: bool = False) -> np.ndarray:
    """V_g f (or its x-flip) as a size x size array, refused above the dense size cap."""
    size = f.grid.size
    if size * size > _MAX_MATERIALIZED:
        raise ValueError(
            f"phase-space field with {size}x{size} entries is too large to materialize; "
            "use stft_row_chunks / the streaming mixed norm instead"
        )
    out = np.empty((size, size), dtype=np.complex128)
    fill = _engine_rows(f, g, flip)
    for _ in _chunk_map(lambda start, stop: fill(start, stop, out[start:stop]), size):
        pass
    return out


def stft(f: SampledFunction, g: SampledFunction) -> PhaseSpaceFunction:
    """Short-time Fourier transform V_g f(x, w) with window g, materialized.

    V_g f(x, w) = \\int f(t) conj(g(t - x)) e^{-2 pi i t.w} dt; the window
    shift is realized by circular shift, guarded by boundary decay of both
    inputs.  Norms of V_g f need not materialize it: they stream its rows
    through :func:`~tfuncert.norms.stft_mixed_norm`.
    """
    _check_stft_inputs(f, g)
    return PhaseSpaceFunction._adopt(f.grid, _materialize(f, g))


def ambiguity(f: SampledFunction, g: SampledFunction) -> PhaseSpaceFunction:
    """Cross-ambiguity A(f,g)(x,w) = \\int f(t - x/2) conj(g(t + x/2)) e^{-2 pi i w.t} dt.

    Computed from the STFT through A(f,g)(x,w) = e^{-i pi w.x} V_g f(-x, w),
    which avoids half-node shifts; the flip x -> -x is a flipped window bank.
    The field is materialized first, so an oversized grid is refused before
    any phase is computed; the phase then multiplies it in place, half a row
    chunk at a time, so no size x size phase table is built.
    """
    _check_stft_inputs(f, g)
    grid = f.grid
    out = _materialize(f, g, flip=True)
    coords, freqs = grid.coords(), grid.freq_coords().T
    # half a chunk of rows: its angles and their complex phase take 1.5 MiB
    rows = max(1, _CHUNK_ENTRIES // (2 * grid.size))
    for start in range(0, grid.size, rows):
        phase = -1j * math.pi * (coords[start : start + rows] @ freqs)
        out[start : start + rows] *= np.exp(phase, out=phase)
    return PhaseSpaceFunction._adopt(grid, out)


def stft_adjoint(Y: np.ndarray, g: SampledFunction) -> np.ndarray:
    """Adjoint of the STFT under flat (unweighted) inner products.

    For the linear map u -> stft(u, g).values, returns S^H Y so that
    ``vdot(Y, stft(u, g).values) == vdot(stft_adjoint(Y, g), u.values)``.
    Fold any quadrature or weight factors into Y before calling.
    """
    size = g.grid.size
    Y = np.array(Y, dtype=np.complex128, order="C")
    if Y.shape != (size, size):
        raise ValueError(f"Y must have shape ({size}, {size})")
    return _adjoint_sum(lambda start, stop: Y[start:stop], g)


def _adjoint_sum(rows, g: SampledFunction) -> np.ndarray:
    """S^H Y for the window ``g``, where ``rows(start, stop)`` returns rows [start, stop) of Y.

    Each chunk's rows are a C-contiguous complex block of shape
    (stop - start, size), which the sum overwrites.  ``rows`` is called in the
    pool task of its chunk; the chunks are summed in chunk order, so the bits
    do not depend on the worker count.
    """
    grid = g.grid
    axes = tuple(range(1, grid.dim + 1))
    # The engine transposed: with U_i = ifft(Y_i) and j the node index of
    # ifftshift(u), S^H Y = cell n^d fftshift((-1)^j sum_i g[(j - i) mod n] U_i[j]).
    bank = _window_bank(g.reshaped())

    def windowed(start: int, stop: int) -> np.ndarray:
        block = rows(start, stop).reshape((stop - start,) + grid.shape)
        U = _row_fftn(block, axes, inverse=True)
        for lo, hi, windows in _bank_segments(bank, start, stop):
            U[lo:hi] *= windows
        return U

    acc = None
    for U in _chunk_map(windowed, grid.size):
        if acc is not None:
            # carry the running sum into the chunk's first row: the rows are
            # added one after another, exactly as one sum over all rows would
            U[0] += acc
        acc = U.sum(axis=0)
    acc *= _parity(grid) * (grid.cell * grid.n**grid.dim)
    return np.fft.fftshift(acc).ravel()
