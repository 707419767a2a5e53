"""The STFT engine's bits on every row route: the cases and their regeneration.

``engine_bits.txt`` in this directory holds one line ``<case> <float.hex>``
per streamed mixed norm below, per sum of a materialized ``ambiguity``
field of a complex f, and per value and probe pairing of the descent's
modulation gradient.  ``tests/test_golden.py`` recomputes every value and compares the
text byte for byte.  The cases reach each route of the engine:

- d = 1 (128 nodes) and d = 2 (32^2);
- full rows (complex f) and half rows (real f and g);
- in d = 2, the factored route (the tensor-product Gaussian window) and the
  general one (a rotated Gaussian and a random window);
- the default chunk and 37-row chunks, which straddle the rows of the first
  node axis in d = 2;
- inner x and inner omega orders, with r or s infinite among them;
- the unit and a bracket weight, each order with both across the chunk rules;
- a seeded, positive tabulated weight, read by row range on full rows, with
  every order and both chunk rules, for the complex f and the Gaussian window;
- the flipped window bank of ``ambiguity``;
- the modulation gradient of a complex f off the tight-frame route: one
  chunk at 128 nodes, eight at 32^2 with the factored and the general
  window.

A change that moves these bits on purpose regenerates the file from a
checkout with

    PYTHONPATH=src python tests/golden/engine_bits.py

and says in CHANGES.md which lines moved and why.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from tfuncert.norms import BracketWeight, MixedOrder, TabulatedWeight, default_window, stft_mixed_norm
from tfuncert.sampling import GaussianSpec, RandomFunctionSpec, make_grid, random_smooth, sample_gaussian
from tfuncert.transforms import ambiguity
from tfuncert.variational import _modulation_grad

PATH = Path(__file__).resolve().parent / "engine_bits.txt"

ORDERS = (
    MixedOrder(2.0, 2.0, "x"),
    MixedOrder(math.inf, 1.5, "x"),
    MixedOrder(1.5, math.inf, "omega"),
    MixedOrder(2.5, 1.5, "omega"),
)
WEIGHTS = {"unit": BracketWeight(0.0, 0.0), "bracket": BracketWeight(0.5, 1.0)}
CHUNKS = (None, 37)
# (r, s, alpha, beta) of the gradient cases
GRAD_EXPONENTS = (1.5, 1.8, 0.3, 0.2)


def _spec(seed: int) -> RandomFunctionSpec:
    return RandomFunctionSpec(seed=seed, band_fraction=0.5, envelope_sigma=1.2)


def _windows(grid) -> dict:
    """The Gaussian window, and in d = 2 a rotated one that takes the general route."""
    windows = {"gaussian": default_window(grid)}
    if grid.dim == 2:
        quad = math.pi * np.array([[1.0, 0.3], [0.3, 1.0]])
        windows["rotated"] = sample_gaussian(GaussianSpec(quad), grid)
    return windows


def _pairs(grid):
    """``(name, f, g)`` of the inputs on ``grid``: complex f takes full rows,
    real f with a real window half rows."""
    f = random_smooth(_spec(11), grid)
    real = f.with_values(f.values.real)
    other = random_smooth(_spec(12), grid)
    for name, g in _windows(grid).items():
        yield f"complex-f {name}", f, g
        yield f"real-f {name}", real, g
    yield "complex-f random", f, other
    yield "real-f random", real, other.with_values(other.values.real)


def compute() -> dict[str, str]:
    """Case name -> ``float.hex`` of its value, in a fixed order."""
    bits = {}
    for grid in (make_grid(128, 10.0), make_grid(32, 9.0, dim=2)):
        prefix = f"d={grid.dim} n={grid.n}"
        for pair, f, g in _pairs(grid):
            # each order meets both weights, one per chunk rule
            for c, chunk in enumerate(CHUNKS):
                for k, order in enumerate(ORDERS):
                    wname, weight = list(WEIGHTS.items())[(c + k) % 2]
                    case = (
                        f"{prefix} {pair} chunk={chunk} r={order.r:g} s={order.s:g} "
                        f"inner={order.inner} {wname}"
                    )
                    bits[case] = stft_mixed_norm(f, g, order, weight, chunk).hex()
            if pair.startswith("complex-f"):  # ambiguity takes full rows only
                total = ambiguity(f, g).values.sum()
                bits[f"{prefix} {pair} ambiguity sum.real"] = total.real.hex()
                bits[f"{prefix} {pair} ambiguity sum.imag"] = total.imag.hex()
    r, s, alpha, beta = GRAD_EXPONENTS
    for grid in (make_grid(128, 10.0), make_grid(32, 9.0, dim=2)):
        prefix = f"d={grid.dim} n={grid.n}"
        f, probe = random_smooth(_spec(11), grid), random_smooth(_spec(13), grid).values
        for name, g in _windows(grid).items():
            value, grad = _modulation_grad(f, g, r, s, alpha, beta)
            pairing = np.vdot(grad, probe)
            case = f"{prefix} complex-f {name} modulation_grad r={r:g} s={s:g} alpha={alpha:g} beta={beta:g}"
            bits[f"{case} value"] = value.hex()
            bits[f"{case} vdot(grad, probe).real"] = pairing.real.hex()
            bits[f"{case} vdot(grad, probe).imag"] = pairing.imag.hex()
    for grid in (make_grid(128, 10.0), make_grid(32, 9.0, dim=2)):
        prefix = f"d={grid.dim} n={grid.n}"
        f, g = random_smooth(_spec(11), grid), default_window(grid)
        table = TabulatedWeight(np.random.default_rng(17).uniform(0.5, 2.0, (grid.size, grid.size)))
        for chunk in CHUNKS:
            for order in ORDERS:
                case = (
                    f"{prefix} complex-f gaussian chunk={chunk} r={order.r:g} s={order.s:g} "
                    f"inner={order.inner} tabulated"
                )
                bits[case] = stft_mixed_norm(f, g, order, table, chunk).hex()
    return bits


def render(bits: dict[str, str]) -> str:
    return "".join(f"{case} {value}\n" for case, value in bits.items())


if __name__ == "__main__":
    PATH.write_text(render(compute()), encoding="utf-8")
