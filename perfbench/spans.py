"""Span recorder that sees the tfuncert layers from outside.

``traced(tracer)`` replaces every binding of the public functions of the
layer modules (``sampling``, ``transforms``, ``norms``, ``certifier``,
``variational`` and ``cli.main``) with a wrapper that records a span, then
puts every original object back.  A binding is any module attribute that
holds the function, so names re-imported into other modules (for example
``certifier.stft`` or ``variational.modulation_norm``) are wrapped too.
No library code changes; with the patch removed the library runs exactly
as before.

Spans are kept in memory as (name, start ns, end ns, parent index).  A
span's self time is its duration minus the time covered by its children.
``transforms.stft_row_chunks`` returns a generator, so its spans cover each
step of the iteration, not the call that creates the generator.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("sampling", "transforms", "norms", "certifier", "variational", "cli")

# Functions that produce or consume a short-time Fourier transform for a
# (grid, window) pair; the window is their second argument.
STFT_FAMILY = frozenset(
    {"transforms.stft", "transforms.stft_row_chunks", "transforms.stft_adjoint", "transforms.ambiguity"}
)

# Functions whose per-layer counts and self shares are reported by name.
REPORTED = (
    "sampling.random_smooth",
    "sampling.sample_gaussian",
    "transforms.fourier",
    "transforms.inverse_fourier",
    "transforms.convolve",
    "transforms.stft",
    "transforms.ambiguity",
    "transforms.stft_adjoint",
    "transforms.stft_row_chunks",
    "norms.lp_weighted",
    "norms.moment_seminorm",
    "norms.mixed_norm",
    "norms.stft_mixed_norm",
    "norms.modulation_norm",
    "variational.minimize_banach",
    "variational.build_forms",
    "variational.smallest_eigen",
    "variational.oscillator_modes",
    "cli.main",
)


class Tracer:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._seen_windows: set = set()
        self._stft_depth = 0
        self._minimize_depth = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def begin_pass(self) -> None:
        """Start a new pass: (grid, window) reuse is counted within one pass."""
        self._seen_windows.clear()

    # -- counters ------------------------------------------------------------

    def _note_window(self, args, kwargs) -> None:
        g = kwargs.get("g", args[1] if len(args) > 1 else None)
        if g is None or not hasattr(g, "grid"):
            return
        digest = hashlib.blake2b(g.values.tobytes(), digest_size=16).digest()
        key = (g.grid.n, g.grid.extent, g.grid.dim, digest)
        self.counts["stft_family_calls"] += 1
        if key in self._seen_windows:
            self.counts["stft_family_reused"] += 1
        self._seen_windows.add(key)

    # -- derived -------------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        """Per span: duration minus the duration of its direct children."""
        dur = self.durations()
        child = [0] * len(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[idx]
        return [d - c for d, c in zip(dur, child)]

    def self_by_name(self) -> Counter:
        out: Counter = Counter()
        for name, st in zip(self.names, self.self_times()):
            out[name] += st
        return out

    def root_ns(self) -> int:
        return sum(d for d, p in zip(self.durations(), self.parents) if p < 0)

    def total_ns(self, name: str) -> int:
        return sum(d for n, d in zip(self.names, self.durations()) if n == name)

    def spans(self):
        for idx, name in enumerate(self.names):
            yield {"i": idx, "name": name, "start_ns": self.starts[idx], "end_ns": self.ends[idx],
                   "parent": self.parents[idx]}


# ---------------------------------------------------------------------------
# wrappers


def _wrap_function(tracer: Tracer, name: str, fn, binding_module: str):
    in_stft_family = name in STFT_FAMILY
    is_certify = name.startswith("certifier.certify_")
    is_minimize = name == "variational.minimize_banach"
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        if in_stft_family:
            if tracer._stft_depth == 0:
                tracer._note_window(args, kwargs)
            tracer._stft_depth += 1
        if name == "transforms.stft" and binding_module == "tfuncert.variational":
            # the descent gradient reduces a materialized STFT in place
            counts["materialized_reductions"] += 1
        if name == "norms.modulation_norm" and tracer._minimize_depth:
            counts["minimize_modulation_calls"] += 1
        if is_minimize:
            tracer._minimize_depth += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            if in_stft_family:
                tracer._stft_depth -= 1
            if is_minimize:
                tracer._minimize_depth -= 1
        if is_certify:
            counts["certs"] += 1
            counts["certs_passed"] += bool(result.passed)
        if is_minimize:
            counts["descent_iters"] += result.iterations
            counts["starts"] += 1
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    """Spans over each step of the returned iterator; counts rows yielded."""
    counts = tracer.counts

    def steps(gen):
        while True:
            idx = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            rows = len(item[0])
            counts["rows"] += rows
            counts["entries_computed"] += rows * item[1].shape[1]
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        if tracer._stft_depth == 0:
            tracer._note_window(args, kwargs)
        return steps(fn(*args, **kwargs))

    return wrapper


def layer_functions() -> dict:
    """{span name: function} for the public functions of every layer module."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"tfuncert.{layer}")
        names = ["main"] if layer == "cli" else list(mod.__all__)
        for attr in names:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


def bindings() -> list[tuple[object, str, str, object]]:
    """Every (module, attribute, span name, original) that holds a layer function."""
    funcs = {id(fn): (name, fn) for name, fn in layer_functions().items()}
    mods = [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "tfuncert" or key.startswith("tfuncert."))]
    out = []
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            hit = funcs.get(id(value))
            if hit is not None and hit[1] is value:
                out.append((mod, attr, hit[0], value))
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every layer binding for the duration of the block, then restore."""
    patched = bindings()
    try:
        for mod, attr, name, fn in patched:
            if name == "transforms.stft_row_chunks":
                wrapper = _wrap_generator(tracer, name, fn)
            else:
                wrapper = _wrap_function(tracer, name, fn, mod.__name__)
            setattr(mod, attr, wrapper)
        yield patched
    finally:
        for mod, attr, _, fn in patched:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_ns: int) -> dict:
    """Per-layer metrics per traced pass; self times as shares of the traced time."""
    by_name = tracer.self_by_name()
    calls, counts = tracer.calls, tracer.counts
    out = {}
    for name in REPORTED:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_share"] = _ratio(by_name[name], traced_ns)
    for layer in LAYERS:
        own = sum(ns for name, ns in by_name.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_share"] = _ratio(own, traced_ns)
    out["transforms.stft_row_chunks.rows"] = counts["rows"] / passes
    out["transforms.stft_row_chunks.entries_computed"] = counts["entries_computed"] / passes
    out["transforms.window_reuse_share"] = _ratio(
        counts["stft_family_reused"], counts["stft_family_calls"])
    streamed = calls["norms.stft_mixed_norm"]
    out["norms.stream_share"] = _ratio(
        streamed, streamed + calls["norms.mixed_norm"] + counts["materialized_reductions"])
    certify = sum(ns for name, ns in by_name.items() if name.startswith("certifier.certify_"))
    out["certifier.certify.self_share"] = _ratio(certify, traced_ns)
    out["certifier.certs"] = counts["certs"] / passes
    out["certifier.pass_ratio"] = _ratio(counts["certs_passed"], counts["certs"])
    iters = counts["descent_iters"]
    candidates = counts["minimize_modulation_calls"] - counts["starts"]
    out["variational.descent_iters"] = iters / passes
    out["variational.candidates"] = candidates / passes
    out["variational.accept_ratio"] = _ratio(iters, candidates)
    out["variational.iters_per_s"] = _ratio(
        iters, tracer.total_ns("variational.minimize_banach") / 1e9)
    return out
