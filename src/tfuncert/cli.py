"""Command-line surface: constants tables, condition checks, certification
batteries, oscillator/Hilbert spectra, and Banach minimization.

All machine output is JSON lines on stdout (one object per line, buffered and
emitted in declared order); CSV export is reserved for function samples.
A non-finite number is written as the string "inf", "-inf" or "nan", so
every line is strict JSON.  Exit codes: 0 all passed, 1 certified inequality
failure, 2 domain error, 64 malformed invocation, 141 stdout closed before all
output was written.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from .sampling import Grid, SampledFunction, _write_csv, make_grid, scale
from .transforms import AliasingError
from .norms import AdmissibleTriple, default_window, lp_weighted
from .constants import (
    DomainError,
    ExponentSet,
    as_exponent,
    babenko_beckner,
    check_cowling_price,
    check_galperin_grochenig,
    check_lieb_domain,
    general_dual,
    holder_dual,
    leindler_duals,
    lieb_H,
    sharp_B,
    solve_partner_exponent,
)
from .certifier import DEFAULT_TOL, _certify, _inequality, _json_line, run_battery
# minimize_banach is no longer called here; it stays importable from this
# module for code that binds it by module (the benchmark's span tracer does)
from .variational import (  # noqa: F401
    MinimizeOptions,
    build_forms,
    minimize_banach,
    minimize_multistart,
    oscillator_modes,
    smallest_eigen,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64
# as a shell reports a process ended by SIGPIPE (128 + 13)
EXIT_PIPE = 141

_PRESET_GRIDS = {
    "certify": (512, 12.0, 1),
    "spectrum": (1024, 16.0, 1),
    "minimize": (256, 12.0, 1),
}


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit for malformed invocations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Emitter:
    """Buffer JSON lines, then emit in order to stdout and optionally a file."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.lines: list[str] = []

    def emit(self, obj: dict) -> None:
        self.lines.append(_json_line(obj))

    def flush(self) -> None:
        """Print the lines, then write the file; the file is written even if stdout fails."""
        text = "\n".join(self.lines)
        try:
            if text:
                print(text, flush=True)
        finally:
            if self.path:
                with open(self.path, "w", encoding="utf-8") as fh:
                    fh.write(text + ("\n" if text else ""))


def _parse_grid(text: Optional[str], default: tuple[int, float, int]) -> Grid:
    if text is None:
        n, extent, dim = default
    else:
        parts = text.split(",")
        if len(parts) not in (2, 3):
            raise DomainError(f"--grid expects N,L or N,L,d, got {text!r}")
        n = int(parts[0])
        extent = float(parts[1])
        dim = int(parts[2]) if len(parts) == 3 else 1
    return make_grid(n, extent, dim)


def _parse_kv(pairs: list[str], what: str) -> dict:
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise DomainError(f"{what} expects key=value tokens, got {item!r}")
        out[key] = as_exponent(value, key)
    return out


def _load_function(path: str) -> SampledFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return SampledFunction.from_json(fh.read())


# ---------------------------------------------------------------------------
# constants


# One row per exponent quantity: flag, argument names (parsed and emitted in
# this order), "quantity" string, output fields, and the function of the
# arguments giving them.  Lines come out in table order, whatever the argv order.
_QUANTITIES = (
    ("--Cp", ("p",), "Cp", ("value",), babenko_beckner),
    ("--dual", ("p",), "holder_dual", ("value",), holder_dual),
    ("--general-dual", ("p",), "general_dual", ("value",), general_dual),
    ("--H", ("r", "p"), "H", ("value",), lieb_H),
    ("--B", ("r", "s", "u", "v"), "B", ("value",), sharp_B),  # and --dim
    ("--leindler-duals", ("u", "v", "r"), "leindler_duals", ("m_prime", "n_prime"), leindler_duals),
    ("--solve-partner", ("s", "r", "u"), "partner_exponent", ("v",), solve_partner_exponent),
    ("--check-lieb", ("r", "s", "u", "v"), "lieb_domain", ("ok",), check_lieb_domain),
)


def cmd_constants(args, out: _Emitter) -> int:
    for flag, names, quantity, fields, compute in _QUANTITIES:
        tokens = getattr(args, flag[2:].replace("-", "_"))
        if tokens is None:
            continue
        point = {name: as_exponent(token, name) for name, token in zip(names, tokens)}
        value = compute(*point.values(), *((args.dim,) if flag == "--B" else ()))
        values = value if len(fields) > 1 else (value,)
        out.emit({"quantity": quantity, **point, **dict(zip(fields, values))})
    if args.check_cp is not None:
        kv = _parse_kv(args.check_cp, "--check-cp")
        missing = [k for k in ("p", "q", "a", "b") if k not in kv]
        if missing:
            raise DomainError(f"--check-cp is missing {', '.join(missing)}")
        point = {k: kv[k] for k in ("p", "q", "a", "b")}
        witness = check_cowling_price(*point.values())
        out.emit({"quantity": "cowling_price", **point, **asdict(witness)})
    if args.check_gg is not None:
        kv = _parse_kv(args.check_gg, "--check-gg")
        witness = check_galperin_grochenig(ExponentSet.from_dict(kv))
        exponents = dict(sorted(kv.items()))
        out.emit({"quantity": "galperin_grochenig", "exponents": exponents, **asdict(witness)})
    if not out.lines:
        raise DomainError("constants: nothing requested; pass at least one quantity flag")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# certify


def _extremal_inputs(ineq: str, entry, args, grid: Grid) -> tuple[tuple, dict]:
    """The saturating inputs and exponents of one extremal certificate.

    Each exponent comes from --extremal K=V, else --K, else the id's default.
    """
    kv = _parse_kv(args.extremal, "--extremal")
    point = {}
    for key in entry.exponents:
        fallback = entry.defaults.get(key)
        fallback = fallback(point) if callable(fallback) else fallback
        if key in kv:
            point[key] = kv[key]
        elif getattr(args, key) is not None:
            point[key] = as_exponent(getattr(args, key), key)
        elif fallback is not None:
            point[key] = fallback
        else:
            raise DomainError(f"extremal {ineq} requires exponent {key}")
    return entry.extremal(grid, **point), point


def _stored_inputs(ineq: str, entry, args) -> tuple[tuple, dict]:
    """The --input/--input2 functions and the exponent flags of one certificate."""
    f = _load_function(args.input)
    g = _load_function(args.input2) if args.input2 else None
    if entry.second is None:
        inputs = (f,)
    elif g is not None:
        inputs = (f, g)
    elif entry.second == "window":
        inputs = (f, default_window(f.grid))
    else:
        raise DomainError(f"certify {args.inequality} requires --input2")
    point = {}
    for key in entry.exponents:
        flag = getattr(args, key)
        if flag is None:
            raise DomainError(f"certify {ineq} with --input requires --{key}")
        point[key] = as_exponent(flag, key)
    if entry.check_input is not None:
        entry.check_input(inputs, point)
    return inputs, point


def cmd_certify(args, out: _Emitter) -> int:
    ineq = args.inequality
    if ineq == "lieb_reverse":
        ineq = "lieb_reverse_xw" if args.order == "x" else "lieb_reverse_wx"
    entry = _inequality(ineq)
    grid = _parse_grid(args.grid, _PRESET_GRIDS["certify"])
    tol = args.tol
    # a negative tol forces a failure; nan would fail and inf pass every certificate
    if not math.isfinite(tol):
        raise DomainError(f"--tol must be finite, got {tol}")
    if args.extremal is not None or args.input:
        if args.extremal is not None:
            inputs, point = _extremal_inputs(ineq, entry, args, grid)
        else:
            inputs, point = _stored_inputs(ineq, entry, args)
        report = _certify(ineq, inputs, {**point, "side": args.side}, tol)
        out.emit(report.to_dict())
        return EXIT_PASS if report.passed else EXIT_FAIL
    lattice = None
    if args.lattice:
        with open(args.lattice, "r", encoding="utf-8") as fh:
            lattice = json.load(fh)
        if not isinstance(lattice, list) or not all(isinstance(p, dict) for p in lattice):
            raise DomainError("--lattice file must hold a JSON list of exponent objects")
        if not lattice:
            raise DomainError("--lattice file holds no exponent points")
    result = run_battery(ineq, lattice, seeds=args.seeds, grid=grid, tol=tol)
    for report in result.reports:
        out.emit(report.to_dict())
    for err in result.errors:
        out.emit({"inequality": ineq, **err})
    if any(not report.passed for report in result.reports):
        return EXIT_FAIL
    if result.errors:
        return EXIT_DOMAIN
    return EXIT_PASS


# ---------------------------------------------------------------------------
# spectrum


def _profile(expr: str, base: np.ndarray, what: str) -> np.ndarray:
    """Tiny weight-profile language: zero | coord | abs | <float> | poly:c0,c1,..."""
    expr = expr.strip()
    if expr == "zero":
        return np.zeros_like(base)
    if expr == "coord":
        return base.copy()
    if expr == "abs":
        return np.abs(base)
    if expr.startswith("poly:"):
        try:
            coeffs = [float(tok) for tok in expr[5:].split(",")]
        except ValueError as exc:
            raise DomainError(f"{what}: bad polynomial {expr!r}") from exc
        return np.polynomial.polynomial.polyval(base, coeffs)
    try:
        return np.full_like(base, float(expr))
    except ValueError as exc:
        raise DomainError(
            f"{what}: unknown profile {expr!r} (use zero|coord|abs|<float>|poly:c0,c1,...)"
        ) from exc


def _herm_defect(form: np.ndarray) -> float:
    """max|A - A^H| / max|A|, 2^16 entries at a time: no size x size temporary."""
    step = max(1, (1 << 16) // len(form))
    starts = range(0, len(form), step)
    defect = max(np.max(np.abs(form[i : i + step] - form[:, i : i + step].conj().T)) for i in starts)
    return float(defect) / max(float(np.max(np.abs(form[i : i + step]))) for i in starts)


def cmd_spectrum(args, out: _Emitter) -> int:
    grid = _parse_grid(args.grid, _PRESET_GRIDS["spectrum"])
    count = args.count
    if args.oscillator:
        if grid.dim != 1:
            raise DomainError(f"spectrum --oscillator is one-dimensional, got d={grid.dim}")
        vals, modes = oscillator_modes(grid.n, grid.extent, count)
        record = {"method": "finite_difference", "eigenvalues": [float(v) for v in vals]}
    elif not (args.psi and args.phi and args.m0):
        raise DomainError("spectrum needs either --oscillator or all of --psi/--phi/--m0")
    else:
        coord = grid.axis if grid.dim == 1 else grid.radii()
        fcoord = grid.freq_axis if grid.dim == 1 else grid.freq_radii()
        psi = _profile(args.psi, coord, "--psi")
        phi = _profile(args.phi, fcoord, "--phi")
        try:
            m0 = float(args.m0)
        except ValueError as exc:
            raise DomainError("--m0 must be a scalar constant") from exc
        triple = AdmissibleTriple(psi.astype(complex), phi.astype(complex), m0)
        window = default_window(grid)
        window = scale(window, 1.0 / lp_weighted(window, 2.0))
        pair = build_forms(triple, window, grid)
        solutions = smallest_eigen(pair, count)
        modes = [sol.vector for sol in solutions]
        record = {
            "method": "quadratic_form",
            "eigenvalues": [sol.lam for sol in solutions],
            "nu": [sol.nu for sol in solutions],
            "residuals": [sol.residual for sol in solutions],
            "herm_defects": [_herm_defect(pair.form0), _herm_defect(pair.form_full)],
        }
    out.emit({**record, "grid": grid.to_json_dict()})
    if args.csv:
        columns = {}
        for k, mode in enumerate(modes):
            columns.update({f"mode_{k}_re": mode.values.real, f"mode_{k}_im": mode.values.imag})
        _write_csv(args.csv, grid, columns)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# minimize


_MINIMIZE_PRESETS = {
    "heisenberg": {"d": 1, "p": 2, "q": 2, "a": 1, "b": 1, "r": 2, "s": 2, "alpha": 0, "beta": 0},
}


def cmd_minimize(args, out: _Emitter) -> int:
    if args.preset:
        exponents = ExponentSet.from_dict(_MINIMIZE_PRESETS[args.preset])
    elif args.exponents:
        with open(args.exponents, "r", encoding="utf-8") as fh:
            exponents = ExponentSet.from_dict(json.load(fh))
    else:
        raise DomainError("minimize needs --preset or --exponents")
    grid = _parse_grid(args.grid, _PRESET_GRIDS["minimize"])
    options = MinimizeOptions(tol=args.tol, max_iter=args.max_iter)
    solutions = minimize_multistart(
        exponents, default_window(grid), grid, args.starts, options, args.seed
    )
    records = [
        {
            "start": k,
            "lambda": sol.lam,
            "el_residual": sol.el_residual,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "exploratory": sol.exploratory,
        }
        for k, sol in enumerate(solutions)
    ]
    for record in records:
        out.emit(record)
    best_idx = min(
        range(len(solutions)), key=lambda k: (not solutions[k].converged, solutions[k].lam)
    )
    out.emit({"best": records[best_idx]})
    if args.csv:
        solutions[best_idx].minimizer.to_csv(args.csv)
    return EXIT_PASS if solutions[best_idx].converged else EXIT_FAIL


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="tfuncert", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    c = sub.add_parser("constants", help="sharp constants, duals, and condition checks")
    for flag, names, *_ in _QUANTITIES:
        c.add_argument(flag, nargs=len(names), metavar=tuple(n.upper() for n in names))
    c.add_argument("--dim", type=int, default=1, help="dimension for --B")
    c.add_argument("--check-cp", dest="check_cp", nargs="+", metavar="K=V")
    c.add_argument("--check-gg", dest="check_gg", nargs="+", metavar="K=V")
    c.add_argument("--json", dest="json_out")
    c.set_defaults(handler=cmd_constants)

    f = sub.add_parser("certify", help="run an inequality battery or a single certificate")
    f.add_argument("inequality", metavar="ID")
    f.add_argument("--seeds", type=int, default=20)
    f.add_argument("--grid")
    f.add_argument("--tol", type=float, default=DEFAULT_TOL)
    f.add_argument("--lattice", help="JSON file with a list of exponent objects")
    f.add_argument("--order", choices=("x", "omega"), default="x")
    f.add_argument("--side", choices=("frequency", "time"), default="frequency")
    f.add_argument("--extremal", nargs="*", metavar="K=V")
    f.add_argument("--input", help="JSON file with the sampled input function")
    f.add_argument("--input2", help="JSON file with the second input")
    for flag in ("m", "n", "r", "s", "p", "q", "u", "v", "a", "b"):
        f.add_argument(f"--{flag}")
    f.add_argument("--json", dest="json_out")
    f.set_defaults(handler=cmd_certify)

    e = sub.add_parser("spectrum", help="oscillator or quadratic-form eigenvalues")
    e.add_argument("--oscillator", action="store_true")
    e.add_argument("--psi")
    e.add_argument("--phi")
    e.add_argument("--m0")
    e.add_argument("--grid")
    e.add_argument("--count", type=int, default=1)
    e.add_argument("--csv")
    e.add_argument("--json", dest="json_out")
    e.set_defaults(handler=cmd_spectrum)

    m = sub.add_parser("minimize", help="constrained minimization of the moment functional")
    m.add_argument("--preset", choices=sorted(_MINIMIZE_PRESETS))
    m.add_argument("--exponents", help="JSON file with the exponent set")
    m.add_argument("--grid")
    m.add_argument("--starts", type=int, default=5)
    m.add_argument("--tol", type=float, default=1e-4)
    m.add_argument("--max-iter", dest="max_iter", type=int, default=400)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--csv")
    m.add_argument("--json", dest="json_out")
    m.set_defaults(handler=cmd_minimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Emitter(getattr(args, "json_out", None))
    try:
        try:
            status = args.handler(args, out)
        except (DomainError, AliasingError, ValueError, OSError) as exc:
            status = EXIT_DOMAIN
            out.flush()
            print(f"tfuncert: {exc}", file=sys.stderr)
        else:
            out.flush()
    except BrokenPipeError:
        # the reader has gone (e.g. `| head`): what stdout still buffers goes
        # to devnull, so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except OSError as exc:  # the --json file cannot be written
        print(f"tfuncert: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return status


if __name__ == "__main__":
    sys.exit(main())
