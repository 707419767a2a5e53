"""Certify sharp inequalities against concrete inputs and random batteries.

Every certificate normalizes its inputs to unit relevant norms, so the side
that is the constant times those norms is the constant itself, and refuses an
identically zero input with a DomainError.  It evaluates both sides of the
inequality and reports lhs (the side that must dominate), rhs, their ratio,
the saturation gap |ratio - 1|, and a pass flag that is a pure function of
slack = lhs - rhs and the tolerance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    ambiguity,
    convolve,
    fourier,
    inverse_fourier,
    stft,
)
from .norms import (
    MixedOrder,
    _guarded_stft_norm,
    default_window,
    lp_weighted,
    modulation_norm,
    moment_seminorm,
)
from .constants import (
    DomainError,
    RELATION_TOL,
    as_exponent,
    babenko_beckner,
    check_lieb_domain,
    general_dual,
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
            "note": "",
        }

    def to_json_line(self) -> str:
        return _json_line(self.to_dict())


def _strict_json(obj):
    """``obj`` with each non-finite float replaced by the string "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    return obj


def _json_line(obj: dict) -> str:
    """``obj`` as one line of strict JSON: every line the library and the CLI print."""
    return json.dumps(_strict_json(obj), allow_nan=False)


def _unit(f: SampledFunction, norm: float, what: str) -> SampledFunction:
    """f scaled to unit norm; the inequalities bound nonzero functions only."""
    if norm == 0.0:
        raise DomainError(f"{what} is identically zero")
    return scale(f, 1.0 / norm)


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
    f = _unit(f, lp_weighted(f, r), "hausdorff_young input f")
    const = babenko_beckner(r) ** d
    rhs = lp_weighted(fourier(f), holder_dual(r))
    return CertificateReport(
        "hausdorff_young", dict(r=r), const, rhs, const, tol, f.grid.to_json_dict(), seed
    )


def _require_nonnegative(f: SampledFunction, what: str) -> None:
    peak = float(np.abs(f.values).max())
    atol = 1e-13 * max(peak, 1.0)
    if float(np.abs(f.values.imag).max()) > atol or float(f.values.real.min()) < -atol:
        raise DomainError(f"{what} requires nonnegative real inputs")


def _convolution_sides(
    f: SampledFunction, g: SampledFunction, m: float, n: float, r: float, what: str,
    nonnegative: bool = False,
) -> tuple[float, float]:
    """(C_m C_n / C_r)^d and ||f*g||_r on the unit inputs, after the relation,
    same-grid and (with ``nonnegative``) sign checks."""
    if abs(_inv(m) + _inv(n) - 1.0 - _inv(r)) > RELATION_TOL:
        raise DomainError(f"{what}: exponents must satisfy 1/m + 1/n = 1 + 1/r")
    _require_same_grid(f, g, f"certify_{what}")
    if nonnegative:
        _require_nonnegative(f, what)
        _require_nonnegative(g, what)
    f = _unit(f, lp_weighted(f, m), f"{what} input f")
    g = _unit(g, lp_weighted(g, n), f"{what} input g")
    const = (babenko_beckner(m) * babenko_beckner(n) / babenko_beckner(r)) ** f.grid.dim
    return const, lp_weighted(convolve(f, g), r)


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
    const, rhs = _convolution_sides(f, g, m, n, r, "young")
    return CertificateReport(
        "young", dict(m=m, n=n, r=r), const, rhs, const, tol, f.grid.to_json_dict(), seed
    )


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
    const, lhs = _convolution_sides(f, g, m, n, r, "leindler", nonnegative=True)
    return CertificateReport(
        "leindler", dict(m=m, n=n, r=r), lhs, const, const, tol, f.grid.to_json_dict(), seed
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
    f = _unit(f, lp_weighted(f, p), "lieb_forward input f")
    g = _unit(g, lp_weighted(g, pp), "lieb_forward input g")
    # |A(f,g)(x,w)| = |V_g f(-x,w)| and the periodic flip x -> -x permutes the
    # nodes, so unweighted mixed norms of A(f,g) and V_g f coincide
    rhs = _guarded_stft_norm(f, g, MixedOrder(r, r, inner="x"))
    return CertificateReport(
        "lieb_forward", dict(r=r, p=p), const, rhs, const, tol, f.grid.to_json_dict(), seed
    )


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
    const = sharp_B(r, s, u, v, f.grid.dim)
    _require_same_grid(f, g, "certify_lieb_reverse")
    if order == "x":
        f = _unit(f, lp_weighted(fourier(f), u), "lieb_reverse input f")
        g = _unit(g, lp_weighted(fourier(g), v), "lieb_reverse input g")
    else:
        f = _unit(f, lp_weighted(f, u), "lieb_reverse input f")
        g = _unit(g, lp_weighted(g, v), "lieb_reverse input g")
    lhs = _guarded_stft_norm(f, g, MixedOrder(r, s, inner=order))  # as in lieb_forward
    ineq_id = "lieb_reverse_xw" if order == "x" else "lieb_reverse_wx"
    return CertificateReport(
        ineq_id,
        dict(r=r, s=s, u=u, v=v, order=order),
        lhs,
        const,
        const,
        tol,
        f.grid.to_json_dict(),
        seed,
    )


def certify_heisenberg(
    f: SampledFunction, tol: float = DEFAULT_TOL, seed: Optional[int] = None
) -> CertificateReport:
    """||x f||_2^2 + ||w Ff||_2^2 >= ||f||_2^2 / (2 pi) in one dimension."""
    if f.grid.dim != 1:
        raise DomainError("heisenberg certificate is one-dimensional")
    f = _unit(f, lp_weighted(f, 2.0), "heisenberg input f")
    lhs = moment_seminorm(f, 2.0, 1.0, "x") ** 2 + moment_seminorm(f, 2.0, 1.0, "omega") ** 2
    const = 1.0 / (2.0 * math.pi)
    return CertificateReport(
        "heisenberg", {}, lhs, const, const, tol, f.grid.to_json_dict(), seed
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
    const = sharp_B(r, s, u, v, f.grid.dim)
    _require_same_grid(f, g, "certify_modulation_bound")
    f = _unit(f, modulation_norm(f, g, r, s), "modulation_bound input f")
    if side == "frequency":
        gn = lp_weighted(fourier(g), v)
        rhs = lp_weighted(fourier(f), u)
    else:
        gn = lp_weighted(g, v)
        rhs = lp_weighted(f, u)
    if gn == 0.0:
        raise DomainError("window has zero norm; the bound is vacuous")
    lhs = 1.0 / (const * gn)
    return CertificateReport(
        "modulation_bound",
        dict(r=r, s=s, u=u, v=v, side=side),
        lhs,
        rhs,
        const,
        tol,
        f.grid.to_json_dict(),
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
    K: float = HEISENBERG_SHARP_K,
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> CertificateReport:
    """Moment functional >= K times the default window's unweighted M^{2,2} norm.

    K is the certified constant; the default is the sharp one-dimensional
    value for p = q = 2, a = b = 1.
    """
    g = default_window(f.grid)
    f = _unit(f, modulation_norm(f, g, 2.0, 2.0), "cowling_price_functional input f")
    lhs = evaluate_banach_functional(f, p, q, a, b)
    exponents = dict(p=p, q=q, a=a, b=b, r=2.0, s=2.0, alpha=0.0, beta=0.0, K=K)
    return CertificateReport(
        "cowling_price_functional", exponents, lhs, K, K, tol, f.grid.to_json_dict(), seed
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
# the inequality table and batteries


def _young_target(m: float, n: float) -> float:
    """r with 1/m + 1/n = 1 + 1/r; inf at the m = n' corner."""
    inv = 1.0 / m + 1.0 / n - 1.0
    return math.inf if inv == 0.0 else 1.0 / inv


def _convolution_lattice(*pairs: tuple[float, float]) -> list[dict]:
    return [{"m": m, "n": n, "r": _young_target(m, n)} for m, n in pairs]


def _partner_point(r: float, s: float, **extra) -> dict:
    """(r, s) with u = min(2, r') and v solving the reverse-bound relation."""
    u = min(2.0, holder_dual(r))
    return {"r": r, "s": s, "u": u, "v": solve_partner_exponent(s, r, u), **extra}


def _centered_gaussian(grid: Grid, width: float = math.pi) -> SampledFunction:
    """exp(-width |x|^2) sampled on the grid."""
    return sample_gaussian(GaussianSpec(width * np.eye(grid.dim)), grid)


def _one_gaussian(grid: Grid, **exponents) -> tuple:
    return (_centered_gaussian(grid),)


def _convolution_pair(grid: Grid, m: float, n: float, r: float) -> tuple:
    if m == 1.0 and n == 1.0:
        # the r = 1 corner: mass factorizes, any decaying pair is extremal
        widths = (math.pi, math.pi)
    elif m == 1.0 or n == 1.0:
        raise DomainError(
            "no grid extremal when exactly one exponent is 1 (the dual degenerates)"
        )
    else:
        mp, np_ = general_dual(m), general_dual(n)
        base = math.pi / max(abs(mp), abs(np_))
        widths = (abs(mp) * base, abs(np_) * base)
    return tuple(_centered_gaussian(grid, w) for w in widths)


def _lieb_reverse_pair(grid: Grid, order: str, r: float, s: float, u: float, v: float):
    mp, np_ = leindler_duals(u, v, r)
    # geometric-mean normalization keeps both widths within sqrt(|m'/n'|) of pi
    width = math.pi / math.sqrt(abs(mp) * abs(np_))
    return build_lieb_extremals(r, s, u, v, width * np.eye(grid.dim), None, grid, order)


def _partner_v(e: dict) -> float:
    return solve_partner_exponent(e["s"], e["r"], e["u"])


def _young_mass_corner(inputs: tuple, point: dict) -> None:
    # the r=1 corner is an equality check (mass factorizes), which only holds
    # for nonnegative inputs
    if point["m"] == 1.0 and point["n"] == 1.0 and point["r"] == 1.0:
        for h in inputs:
            _require_nonnegative(h, "young at m=n=r=1")


@dataclass(frozen=True)
class _Inequality:
    """Everything the battery, the default lattice and the CLI know of one id.

    ``certify`` calls the certifier by its module-global name, so a rebinding
    of ``certify_*`` on this module is what runs.
    """

    certify: Callable[..., CertificateReport]
    exponents: tuple[str, ...]  # positional exponents, in the certifier's order
    lattice: Callable[[], list[dict]]
    extremal: Callable[..., tuple]  # (grid, **exponents) -> saturating inputs
    # extremal exponents that may be omitted: a value, or a function of the
    # exponents before it
    defaults: dict = field(default_factory=dict)
    # second input: None (one input), "seeded" (a second seeded input),
    # "squared" (seeded pair, squared magnitudes) or "window" (default_window
    # unless one is given)
    second: Optional[str] = None
    keywords: dict = field(default_factory=dict)  # point keys passed by name, with defaults
    check_input: Optional[Callable[[tuple, dict], None]] = None  # stored inputs only


def _lieb_reverse_entry(order: str) -> _Inequality:
    return _Inequality(
        lambda *a, **k: certify_lieb_reverse(*a, order=order, **k),
        ("r", "s", "u", "v"),
        lambda: [_partner_point(r, s) for r, s in ((1.5, 1.5), (1.25, 1.75), (2.0, 2.0), (1.75, 1.25))],
        lambda grid, **e: _lieb_reverse_pair(grid, order, **e),
        {"u": lambda e: min(2.0, 0.5 * (1.0 + holder_dual(e["r"]))), "v": _partner_v},
        second="seeded",
    )


_INEQUALITIES = {
    "hausdorff_young": _Inequality(
        lambda *a, **k: certify_hausdorff_young(*a, **k),
        ("r",),
        lambda: [{"r": r} for r in (1.0, 1.25, 1.5, 1.75, 2.0)],
        _one_gaussian,
    ),
    "young": _Inequality(
        lambda *a, **k: certify_young(*a, **k),
        ("m", "n", "r"),
        lambda: _convolution_lattice((1.25, 1.25), (1.5, 1.2), (2.0, 2.0), (1.0, 1.0)),
        _convolution_pair,
        {"r": lambda e: _young_target(e["m"], e["n"])},
        second="seeded",
        check_input=_young_mass_corner,
    ),
    "leindler": _Inequality(
        lambda *a, **k: certify_leindler(*a, **k),
        ("m", "n", "r"),
        lambda: _convolution_lattice((0.8, 0.8), (0.9, 0.7), (1.0, 1.0)),
        _convolution_pair,
        {"r": lambda e: _young_target(e["m"], e["n"])},
        second="squared",
    ),
    "lieb_forward": _Inequality(
        lambda *a, **k: certify_lieb_forward(*a, **k),
        ("r", "p"),
        lambda: [{"r": 4.0, "p": 2.0}, {"r": 3.0, "p": 2.0}, {"r": 4.0, "p": 4.0 / 3.0}],
        lambda grid, **e: (_centered_gaussian(grid),) * 2,
        {"p": 2.0},
        second="seeded",
    ),
    "lieb_reverse_xw": _lieb_reverse_entry("x"),
    "lieb_reverse_wx": _lieb_reverse_entry("omega"),
    "heisenberg": _Inequality(
        lambda *a, **k: certify_heisenberg(*a, **k),
        (),
        lambda: [{}],
        _one_gaussian,
    ),
    "cowling_price_functional": _Inequality(
        lambda *a, **k: certify_cowling_functional(*a, **k),
        ("p", "q", "a", "b"),
        lambda: [{"p": 2.0, "q": 2.0, "a": 1.0, "b": 1.0}],
        _one_gaussian,
        {"p": 2.0, "q": 2.0, "a": 1.0, "b": 1.0},
        keywords={"K": HEISENBERG_SHARP_K},
    ),
    "modulation_bound": _Inequality(
        lambda *a, **k: certify_modulation_bound(*a, **k),
        ("r", "s", "u", "v"),
        lambda: [
            _partner_point(r, s, side=side)
            for r, s, side in ((2.0, 2.0, "frequency"), (2.0, 2.0, "time"), (1.5, 1.5, "frequency"))
        ],
        lambda grid, **e: (_centered_gaussian(grid), default_window(grid)),
        {"r": 2.0, "s": 2.0, "u": lambda e: min(2.0, holder_dual(e["r"])), "v": _partner_v},
        second="window",
        keywords={"side": "frequency"},
    ),
}

INEQUALITY_IDS = tuple(_INEQUALITIES)


def _inequality(inequality: str) -> _Inequality:
    try:
        return _INEQUALITIES[inequality]
    except KeyError:
        raise DomainError(
            f"unknown inequality id {inequality!r}; known: {INEQUALITY_IDS}"
        ) from None


def _certify(
    inequality: str, inputs: tuple, point: dict, tol: float, seed: Optional[int] = None
) -> CertificateReport:
    """Certify one exponent point on the inputs; keys the id does not use are ignored."""
    entry = _INEQUALITIES[inequality]
    for key in entry.exponents:
        if key not in point:
            raise DomainError(f"{inequality} point lacks exponent {key!r}")
    keywords = {key: point.get(key, default) for key, default in entry.keywords.items()}
    exponents = (point[key] for key in entry.exponents)
    return entry.certify(*inputs, *exponents, tol=tol, seed=seed, **keywords)


def default_lattice(inequality: str) -> list[dict]:
    """A small built-in exponent lattice for each certifiable inequality."""
    return _inequality(inequality).lattice()


def _battery_inputs(second: Optional[str], seed: int, grid: Grid) -> tuple:
    """Deterministic inputs for one battery evaluation."""
    f = random_smooth(RandomFunctionSpec(seed=seed), grid)
    if second is None:
        return (f,)
    if second == "window":
        return f, default_window(grid)
    g = random_smooth(RandomFunctionSpec(seed=seed + 500_000), grid)
    if second == "squared":
        return f.with_values(np.abs(f.values) ** 2), g.with_values(np.abs(g.values) ** 2)
    return f, g


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


def run_battery(
    inequality: str,
    lattice: Optional[Sequence[dict]] = None,
    seeds: int = 20,
    grid: Optional[Grid] = None,
    tol: float = DEFAULT_TOL,
) -> BatteryResult:
    """Sweep an inequality over an exponent lattice and seeded random inputs.

    Evaluations run in (lattice point, seed) order on the caller's thread;
    per-point domain errors are collected instead of aborting.  The STFT
    engine's pool of min(CPUs, 2) threads, used for multi-chunk fields only,
    is the only threading in the library.
    """
    entry = _inequality(inequality)
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if lattice is None:
        lattice = entry.lattice()
    if grid is None:
        grid = make_grid(512, 12.0)
    result = BatteryResult(inequality)

    # the inputs depend on the seed only: build each seed's once
    built = []
    for seed in range(seeds):
        try:
            built.append((_battery_inputs(entry.second, seed, grid), None))
        except (DomainError, ValueError) as exc:
            built.append((None, str(exc)))

    for point in lattice:
        for seed, (inputs, error) in enumerate(built):
            if error is None:
                try:
                    result.reports.append(_certify(inequality, inputs, point, tol, seed))
                    continue
                except (DomainError, ValueError) as exc:
                    error = str(exc)
            result.errors.append({"point": dict(point), "seed": seed, "error": error})
    return result
