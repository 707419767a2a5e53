"""Certify sharp inequalities against concrete inputs and random batteries.

Every certificate normalizes its inputs to unit relevant norms, evaluates
both sides of the inequality, and reports lhs (the side that must dominate),
rhs, their ratio, the saturation gap |ratio - 1|, and a pass flag that is a
pure function of slack = lhs - rhs and the tolerance.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .sampling import (
    Grid,
    GaussianSpec,
    RandomFunctionSpec,
    SampledFunction,
    make_grid,
    random_smooth,
    sample_gaussian,
    scale,
    _require_same_grid,
)
# ambiguity and stft are no longer called here; they stay importable from this
# module for code that binds them by module (the benchmark's span tracer does)
from .transforms import (  # noqa: F401
    _check_stft_inputs,
    ambiguity,
    convolve,
    fourier,
    inverse_fourier,
    stft,
)
from .norms import (
    BracketWeight,
    MixedOrder,
    default_window,
    lp_weighted,
    modulation_norm,
    moment_seminorm,
    stft_mixed_norm,
)
from .constants import (
    DomainError,
    RELATION_TOL,
    as_exponent,
    babenko_beckner,
    check_lieb_domain,
    holder_dual,
    leindler_duals,
    lieb_H,
    sharp_B,
    solve_partner_exponent,
    _inv,
)

__all__ = [
    "CertificateReport",
    "BatteryResult",
    "verdict",
    "certify_hausdorff_young",
    "certify_young",
    "certify_leindler",
    "certify_lieb_forward",
    "certify_lieb_reverse",
    "certify_heisenberg",
    "certify_modulation_bound",
    "certify_cowling_functional",
    "evaluate_banach_functional",
    "build_lieb_extremals",
    "run_battery",
    "default_lattice",
    "INEQUALITY_IDS",
    "DEFAULT_TOL",
    "HEISENBERG_SHARP_K",
]

DEFAULT_TOL = 1e-8

INEQUALITY_IDS = (
    "hausdorff_young",
    "young",
    "leindler",
    "lieb_forward",
    "lieb_reverse_xw",
    "lieb_reverse_wx",
    "heisenberg",
    "cowling_price_functional",
    "modulation_bound",
)

# Sharp constant of ||x f||_2 + ||w Ff||_2 >= K ||f||_2 in one dimension:
# combine the arithmetic-geometric mean bound with the product uncertainty
# inequality; the Gaussian 2^(1/4) e^(-pi x^2) attains it.
HEISENBERG_SHARP_K = 1.0 / math.sqrt(math.pi)


def verdict(lhs: float, rhs: float, tol: float) -> bool:
    """Pass iff the dominating side exceeds the other up to tolerance."""
    return (lhs - rhs) >= -tol


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 1.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one inequality evaluation on one input."""

    inequality: str
    exponents: dict
    lhs: float
    rhs: float
    constant: float
    tol: float
    grid: dict
    seed: Optional[int] = None
    note: str = ""

    def __post_init__(self) -> None:
        for name in ("lhs", "rhs", "constant"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def ratio(self) -> float:
        return _ratio(self.lhs, self.rhs)

    @property
    def gap(self) -> float:
        r = self.ratio
        return math.inf if r == math.inf else abs(r - 1.0)

    @property
    def passed(self) -> bool:
        return verdict(self.lhs, self.rhs, self.tol)

    def to_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "exponents": dict(sorted(self.exponents.items())),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "ratio": None if self.ratio == math.inf else self.ratio,
            "slack": self.slack,
            "gap": None if self.gap == math.inf else self.gap,
            "passed": self.passed,
            "tol": self.tol,
            "grid": self.grid,
            "seed": self.seed,
            "note": self.note,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict())


def _grid_meta(grid: Grid) -> dict:
    return {"n": grid.n, "extent": grid.extent, "dim": grid.dim}


def _unit(f: SampledFunction, norm: float) -> SampledFunction:
    return f if norm == 0.0 else scale(f, 1.0 / norm)


def _expdict(**kw) -> dict:
    return {k: v for k, v in kw.items() if v is not None}


# ---------------------------------------------------------------------------
# individual certificates


def certify_hausdorff_young(
    f: SampledFunction, r: float, tol: float = DEFAULT_TOL, seed: Optional[int] = None
) -> CertificateReport:
    """||Ff||_{r'} <= C_r^d ||f||_r for 1 <= r <= 2."""
    r = as_exponent(r, "r")
    if not (1.0 <= r <= 2.0):
        raise DomainError(f"hausdorff_young requires 1 <= r <= 2, got r={r}")
    d = f.grid.dim
    f = _unit(f, lp_weighted(f, r))
    const = babenko_beckner(r) ** d
    lhs = const * lp_weighted(f, r)
    rhs = lp_weighted(fourier(f), holder_dual(r))
    return CertificateReport(
        "hausdorff_young", _expdict(r=r), lhs, rhs, const, tol, _grid_meta(f.grid), seed
    )


def _young_relation(m: float, n: float, r: float, what: str) -> None:
    if abs(_inv(m) + _inv(n) - 1.0 - _inv(r)) > RELATION_TOL:
        raise DomainError(f"{what}: exponents must satisfy 1/m + 1/n = 1 + 1/r")


def certify_young(
    f: SampledFunction,
    g: SampledFunction,
    m: float,
    n: float,
    r: float,
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> CertificateReport:
    """||f*g||_r <= (C_m C_n / C_r)^d ||f||_m ||g||_n for 1 <= m, n, r <= inf."""
    m, n, r = (as_exponent(x, nm) for x, nm in ((m, "m"), (n, "n"), (r, "r")))
    if min(m, n, r) < 1.0:
        raise DomainError(f"young requires m, n, r >= 1, got ({m}, {n}, {r})")
    _young_relation(m, n, r, "young")
    _require_same_grid(f, g, "certify_young")
    d = f.grid.dim
    f = _unit(f, lp_weighted(f, m))
    g = _unit(g, lp_weighted(g, n))
    const = (babenko_beckner(m) * babenko_beckner(n) / babenko_beckner(r)) ** d
    lhs = const * lp_weighted(f, m) * lp_weighted(g, n)
    rhs = lp_weighted(convolve(f, g), r)
    return CertificateReport(
        "young", _expdict(m=m, n=n, r=r), lhs, rhs, const, tol, _grid_meta(f.grid), seed
    )


def _require_nonnegative(f: SampledFunction, what: str) -> None:
    peak = float(np.abs(f.values).max())
    atol = 1e-13 * max(peak, 1.0)
    if float(np.abs(f.values.imag).max()) > atol or float(f.values.real.min()) < -atol:
        raise DomainError(f"{what} requires nonnegative real inputs")


def certify_leindler(
    f: SampledFunction,
    g: SampledFunction,
    m: float,
    n: float,
    r: float,
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> CertificateReport:
    """Reverse Young: ||f*g||_r >= (C_m C_n / C_r)^d ||f||_m ||g||_n
    for nonnegative f, g and 0 < m, n <= 1."""
    m, n, r = (as_exponent(x, nm) for x, nm in ((m, "m"), (n, "n"), (r, "r")))
    if not (0.0 < m <= 1.0 and 0.0 < n <= 1.0):
        raise DomainError(f"leindler requires 0 < m, n <= 1, got ({m}, {n})")
    _young_relation(m, n, r, "leindler")
    _require_same_grid(f, g, "certify_leindler")
    _require_nonnegative(f, "leindler")
    _require_nonnegative(g, "leindler")
    d = f.grid.dim
    f = _unit(f, lp_weighted(f, m))
    g = _unit(g, lp_weighted(g, n))
    const = (babenko_beckner(m) * babenko_beckner(n) / babenko_beckner(r)) ** d
    lhs = lp_weighted(convolve(f, g), r)
    rhs = const * lp_weighted(f, m) * lp_weighted(g, n)
    return CertificateReport(
        "leindler", _expdict(m=m, n=n, r=r), lhs, rhs, const, tol, _grid_meta(f.grid), seed
    )


def certify_lieb_forward(
    f: SampledFunction,
    g: SampledFunction,
    r: float,
    p: float,
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> CertificateReport:
    """||A(f,g)||_{L^r} <= H(r,p)^{1/r} ||f||_p ||g||_{p'} for r > 2, one dimension."""
    r = as_exponent(r, "r")
    p = as_exponent(p, "p")
    if f.grid.dim != 1:
        raise DomainError("lieb_forward is certified in one dimension only")
    if not (r > 2.0):
        raise DomainError(f"lieb_forward requires r > 2, got r={r}")
    _require_same_grid(f, g, "certify_lieb_forward")
    pp = holder_dual(p)
    const = lieb_H(r, p) ** (1.0 / r)
    f = _unit(f, lp_weighted(f, p))
    g = _unit(g, lp_weighted(g, pp))
    lhs = const * lp_weighted(f, p) * lp_weighted(g, pp)
    rhs = _ambiguity_mixed_norm(f, g, MixedOrder(r, r, inner="x"))
    return CertificateReport(
        "lieb_forward", _expdict(r=r, p=p), lhs, rhs, const, tol, _grid_meta(f.grid), seed
    )


def _ambiguity_mixed_norm(
    f: SampledFunction, g: SampledFunction, order: MixedOrder
) -> float:
    """Unweighted mixed norm of A(f,g), streamed, with the guards of :func:`stft`.

    |A(f,g)(x,w)| = |V_g f(-x,w)| and the periodic flip x -> -x permutes the
    node set, so unweighted mixed norms of the ambiguity function and of the
    STFT coincide, and the field is never materialized.
    """
    _check_stft_inputs(f, g)
    return stft_mixed_norm(f, g, order)


def certify_lieb_reverse(
    f: SampledFunction,
    g: SampledFunction,
    r: float,
    s: float,
    u: float,
    v: float,
    order: str = "x",
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> CertificateReport:
    """Reverse mixed-norm bound on the ambiguity function.

    order='x' (inner integral over x): ||A(f,g)||_{r,s} >= B ||Ff||_u ||Fg||_v.
    order='omega' (inner over w):       ||A(f,g)||_{r,s} >= B ||f||_u ||g||_v.
    """
    r, s, u, v = (as_exponent(x, nm) for x, nm in ((r, "r"), (s, "s"), (u, "u"), (v, "v")))
    if order not in ("x", "omega"):
        raise DomainError(f"order must be 'x' or 'omega', got {order!r}")
    if not check_lieb_domain(r, s, u, v):
        raise DomainError(
            f"(r={r}, s={s}, u={u}, v={v}) violates the reverse-bound exponent domain"
        )
    _require_same_grid(f, g, "certify_lieb_reverse")
    d = f.grid.dim
    const = sharp_B(r, s, u, v, d)
    if order == "x":
        f = _unit(f, lp_weighted(fourier(f), u))
        g = _unit(g, lp_weighted(fourier(g), v))
        rhs = const * lp_weighted(fourier(f), u) * lp_weighted(fourier(g), v)
    else:
        f = _unit(f, lp_weighted(f, u))
        g = _unit(g, lp_weighted(g, v))
        rhs = const * lp_weighted(f, u) * lp_weighted(g, v)
    lhs = _ambiguity_mixed_norm(f, g, MixedOrder(r, s, inner=order))
    ineq_id = "lieb_reverse_xw" if order == "x" else "lieb_reverse_wx"
    return CertificateReport(
        ineq_id,
        _expdict(r=r, s=s, u=u, v=v, order=order),
        lhs,
        rhs,
        const,
        tol,
        _grid_meta(f.grid),
        seed,
    )


def certify_heisenberg(
    f: SampledFunction, tol: float = DEFAULT_TOL, seed: Optional[int] = None
) -> CertificateReport:
    """||x f||_2^2 + ||w Ff||_2^2 >= ||f||_2^2 / (2 pi) in one dimension."""
    if f.grid.dim != 1:
        raise DomainError("heisenberg certificate is one-dimensional")
    f = _unit(f, lp_weighted(f, 2.0))
    lhs = moment_seminorm(f, 2.0, 1.0, "x") ** 2 + moment_seminorm(f, 2.0, 1.0, "omega") ** 2
    const = 1.0 / (2.0 * math.pi)
    rhs = const * lp_weighted(f, 2.0) ** 2
    return CertificateReport(
        "heisenberg", {}, lhs, rhs, const, tol, _grid_meta(f.grid), seed
    )


def certify_modulation_bound(
    f: SampledFunction,
    g: SampledFunction,
    r: float,
    s: float,
    u: float,
    v: float,
    side: str = "frequency",
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> CertificateReport:
    """Lebesgue norms controlled by the modulation norm.

    side='frequency': ||Ff||_u <= ||f||_{g,M^{r,s}} / (B ||Fg||_v).
    side='time':      ||f||_u  <= ||f||_{g,M^{r,s}} / (B ||g||_v).
    """
    r, s, u, v = (as_exponent(x, nm) for x, nm in ((r, "r"), (s, "s"), (u, "u"), (v, "v")))
    if side not in ("frequency", "time"):
        raise DomainError(f"side must be 'frequency' or 'time', got {side!r}")
    if not check_lieb_domain(r, s, u, v):
        raise DomainError(
            f"(r={r}, s={s}, u={u}, v={v}) violates the reverse-bound exponent domain"
        )
    _require_same_grid(f, g, "certify_modulation_bound")
    const = sharp_B(r, s, u, v, f.grid.dim)
    mod = modulation_norm(f, g, r, s)
    f_unit = _unit(f, mod)
    mod_unit = modulation_norm(f_unit, g, r, s)
    if side == "frequency":
        gn = lp_weighted(fourier(g), v)
        rhs = lp_weighted(fourier(f_unit), u)
    else:
        gn = lp_weighted(g, v)
        rhs = lp_weighted(f_unit, u)
    if gn == 0.0:
        raise DomainError("window has zero norm; the bound is vacuous")
    lhs = mod_unit / (const * gn)
    return CertificateReport(
        "modulation_bound",
        _expdict(r=r, s=s, u=u, v=v, side=side),
        lhs,
        rhs,
        const,
        tol,
        _grid_meta(f.grid),
        seed,
    )


def evaluate_banach_functional(
    f: SampledFunction, p: float, q: float, a: float, b: float
) -> float:
    """The two-moment objective || |x|^a f ||_p + || |w|^b Ff ||_q."""
    return moment_seminorm(f, p, a, "x") + moment_seminorm(f, q, b, "omega")


def certify_cowling_functional(
    f: SampledFunction,
    p: float,
    q: float,
    a: float,
    b: float,
    r: float = 2.0,
    s: float = 2.0,
    alpha: float = 0.0,
    beta: float = 0.0,
    K: float = HEISENBERG_SHARP_K,
    g: Optional[SampledFunction] = None,
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> CertificateReport:
    """Moment functional dominates K times the modulation norm.

    K is the certified constant; the default is the sharp one-dimensional
    value for p = q = 2, a = b = 1, r = s = 2 with unweighted modulation norm.
    """
    if g is None:
        g = default_window(f.grid)
    mod = modulation_norm(f, g, r, s, alpha, beta)
    f = _unit(f, mod)
    lhs = evaluate_banach_functional(f, p, q, a, b)
    rhs = K * modulation_norm(f, g, r, s, alpha, beta)
    return CertificateReport(
        "cowling_price_functional",
        _expdict(p=p, q=q, a=a, b=b, r=r, s=s, alpha=alpha, beta=beta, K=K),
        lhs,
        rhs,
        K,
        tol,
        _grid_meta(f.grid),
        seed,
    )


# ---------------------------------------------------------------------------
# extremal inputs


def build_lieb_extremals(
    r: float,
    s: float,
    u: float,
    v: float,
    A: np.ndarray,
    B: Optional[np.ndarray] = None,
    grid: Optional[Grid] = None,
    order: str = "x",
) -> tuple[SampledFunction, SampledFunction]:
    """Gaussian pair saturating the reverse mixed-norm bound.

    For order='x' the transforms of the pair are exp(-w.(|m'| A + i B) w) and
    exp(-w.(|n'| A + i B) w) sampled on the conjugate grid and pulled back;
    for order='omega' the same profiles are placed directly on the spatial
    side.  Both members carry the same chirp B: the conjugation inside the
    ambiguity product then cancels the quadratic phase, which is what the
    equality case of the Hausdorff-Young step needs.  Requires the strict
    ranges where the equality case holds (1 < r < 2 for order='x',
    1 < s < 2 for order='omega'; 0 < u, v < r').
    """
    r, s, u, v = (as_exponent(x, nm) for x, nm in ((r, "r"), (s, "s"), (u, "u"), (v, "v")))
    if grid is None:
        raise DomainError("build_lieb_extremals requires a grid")
    if order not in ("x", "omega"):
        raise DomainError(f"order must be 'x' or 'omega', got {order!r}")
    if not check_lieb_domain(r, s, u, v):
        raise DomainError("exponents violate the reverse-bound domain")
    strict = r if order == "x" else s
    if not (1.0 < strict < 2.0):
        raise DomainError(
            f"equality requires the strict range 1 < {'r' if order == 'x' else 's'} < 2"
        )
    rp = holder_dual(r)
    if not (0.0 < u < rp and 0.0 < v < rp):
        raise DomainError(f"equality requires 0 < u, v < r' strictly, got u={u}, v={v}")
    mp, np_ = leindler_duals(u, v, r)
    d = grid.dim
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B_arr = np.zeros((d, d)) if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    spec_f = GaussianSpec(abs(mp) * A, B_arr)
    spec_g = GaussianSpec(abs(np_) * A, B_arr)
    if order == "x":
        conj = grid.conjugate()
        f = inverse_fourier(sample_gaussian(spec_f, conj))
        g = inverse_fourier(sample_gaussian(spec_g, conj))
    else:
        f = sample_gaussian(spec_f, grid)
        g = sample_gaussian(spec_g, grid)
    return f, g


# ---------------------------------------------------------------------------
# batteries


def _young_target(m: float, n: float) -> float:
    """r with 1/m + 1/n = 1 + 1/r; inf at the m = n' corner."""
    inv = 1.0 / m + 1.0 / n - 1.0
    return math.inf if inv == 0.0 else 1.0 / inv


def default_lattice(inequality: str) -> list[dict]:
    """A small built-in exponent lattice for each certifiable inequality."""
    if inequality == "hausdorff_young":
        return [{"r": r} for r in (1.0, 1.25, 1.5, 1.75, 2.0)]
    if inequality == "young":
        pts = [(1.25, 1.25), (1.5, 1.2), (2.0, 2.0), (1.0, 1.0)]
        return [{"m": m, "n": n, "r": _young_target(m, n)} for m, n in pts]
    if inequality == "leindler":
        pts = [(0.8, 0.8), (0.9, 0.7), (1.0, 1.0)]
        return [{"m": m, "n": n, "r": _young_target(m, n)} for m, n in pts]
    if inequality == "lieb_forward":
        return [{"r": 4.0, "p": 2.0}, {"r": 3.0, "p": 2.0}, {"r": 4.0, "p": 4.0 / 3.0}]
    if inequality in ("lieb_reverse_xw", "lieb_reverse_wx"):
        out = []
        for r, s in ((1.5, 1.5), (1.25, 1.75), (2.0, 2.0), (1.75, 1.25)):
            u = min(2.0, holder_dual(r))
            v = solve_partner_exponent(s, r, u)
            out.append({"r": r, "s": s, "u": u, "v": v})
        return out
    if inequality == "heisenberg":
        return [{}]
    if inequality == "modulation_bound":
        out = []
        for r, s, side in ((2.0, 2.0, "frequency"), (2.0, 2.0, "time"), (1.5, 1.5, "frequency")):
            u = min(2.0, holder_dual(r))
            v = solve_partner_exponent(s, r, u)
            out.append({"r": r, "s": s, "u": u, "v": v, "side": side})
        return out
    if inequality == "cowling_price_functional":
        return [{"p": 2.0, "q": 2.0, "a": 1.0, "b": 1.0}]
    raise DomainError(f"unknown inequality id {inequality!r}; known: {INEQUALITY_IDS}")


def _battery_inputs(
    inequality: str, point: dict, seed: int, grid: Grid
) -> tuple:
    """Deterministic inputs for one battery evaluation."""
    f = random_smooth(RandomFunctionSpec(seed=seed), grid)
    if inequality in ("young", "lieb_forward", "lieb_reverse_xw", "lieb_reverse_wx"):
        g = random_smooth(RandomFunctionSpec(seed=seed + 500_000), grid)
        return f, g
    if inequality == "leindler":
        g = random_smooth(RandomFunctionSpec(seed=seed + 500_000), grid)
        fsq = f.with_values(np.abs(f.values) ** 2)
        gsq = g.with_values(np.abs(g.values) ** 2)
        return fsq, gsq
    if inequality == "modulation_bound":
        return f, default_window(grid)
    return (f,)


def _certify_point(
    inequality: str, point: dict, seed: int, grid: Grid, tol: float
) -> CertificateReport:
    inputs = _battery_inputs(inequality, point, seed, grid)
    if inequality == "hausdorff_young":
        return certify_hausdorff_young(inputs[0], point["r"], tol, seed)
    if inequality == "young":
        return certify_young(*inputs, point["m"], point["n"], point["r"], tol, seed)
    if inequality == "leindler":
        return certify_leindler(*inputs, point["m"], point["n"], point["r"], tol, seed)
    if inequality == "lieb_forward":
        return certify_lieb_forward(*inputs, point["r"], point["p"], tol, seed)
    if inequality in ("lieb_reverse_xw", "lieb_reverse_wx"):
        order = "x" if inequality == "lieb_reverse_xw" else "omega"
        return certify_lieb_reverse(
            *inputs, point["r"], point["s"], point["u"], point["v"], order, tol, seed
        )
    if inequality == "heisenberg":
        return certify_heisenberg(inputs[0], tol, seed)
    if inequality == "modulation_bound":
        return certify_modulation_bound(
            *inputs,
            point["r"],
            point["s"],
            point["u"],
            point["v"],
            point.get("side", "frequency"),
            tol,
            seed,
        )
    if inequality == "cowling_price_functional":
        return certify_cowling_functional(
            inputs[0],
            point["p"],
            point["q"],
            point["a"],
            point["b"],
            K=point.get("K", HEISENBERG_SHARP_K),
            tol=tol,
            seed=seed,
        )
    raise DomainError(f"unknown inequality id {inequality!r}")


@dataclass
class BatteryResult:
    """All reports of one sweep plus any per-point errors (never aborts)."""

    inequality: str
    reports: list[CertificateReport] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.errors and all(rep.passed for rep in self.reports)

    @property
    def worst_slack(self) -> float:
        return min((rep.slack for rep in self.reports), default=math.inf)


def _thread_count() -> int:
    raw = os.environ.get("TFUNCERT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_battery(
    inequality: str,
    lattice: Optional[Sequence[dict]] = None,
    seeds: int = 20,
    grid: Optional[Grid] = None,
    tol: float = DEFAULT_TOL,
) -> BatteryResult:
    """Sweep an inequality over an exponent lattice and seeded random inputs.

    Evaluation order is (lattice index, seed); per-point domain errors are
    collected instead of aborting.  TFUNCERT_THREADS > 1 parallelizes the
    independent evaluations without changing their order in the result.
    """
    if inequality not in INEQUALITY_IDS:
        raise DomainError(f"unknown inequality id {inequality!r}; known: {INEQUALITY_IDS}")
    if lattice is None:
        lattice = default_lattice(inequality)
    if grid is None:
        grid = make_grid(512, 12.0)
    tasks = [(pi, point, seed) for pi, point in enumerate(lattice) for seed in range(seeds)]
    result = BatteryResult(inequality)

    def job(task):
        _, point, seed = task
        try:
            return _certify_point(inequality, dict(point), seed, grid, tol)
        except (DomainError, ValueError) as exc:
            return {"point": dict(point), "seed": seed, "error": str(exc)}

    workers = _thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(job, tasks))
    else:
        outcomes = [job(t) for t in tasks]
    for outcome in outcomes:
        if isinstance(outcome, CertificateReport):
            result.reports.append(outcome)
        else:
            result.errors.append(outcome)
    return result
