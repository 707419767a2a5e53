"""Shared helpers: canonical grids, Gaussian samplers and windows, the Lieb
extremals, a strict JSON parser, in-process CLI runner."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from tfuncert.certifier import build_lieb_extremals
from tfuncert.cli import main
from tfuncert.constants import holder_dual, leindler_duals, solve_partner_exponent
from tfuncert.sampling import GaussianSpec, make_grid, sample_gaussian


@pytest.fixture(scope="session")
def grid512():
    return make_grid(512, 12.0)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(128, 10.0)


def gaussian(grid, width=math.pi, chirp=0.0, log_amp=0.0):
    """Centered Gaussian exp(-width |x|^2 - i chirp |x|^2) on the grid."""
    d = grid.dim
    spec = GaussianSpec(width * np.eye(d), chirp * np.eye(d), log_amp=log_amp)
    return sample_gaussian(spec, grid)


def rotated_gaussian(grid):
    """exp(-pi x.Mx) with M = [[1, .3], [.3, 1]] on a d = 2 grid: not a tensor
    product (its rank-one residual is 0.13 of the peak)."""
    return sample_gaussian(GaussianSpec(math.pi * np.array([[1.0, 0.3], [0.3, 1.0]])), grid)


def lieb_extremals(grid):
    """The real Gaussian pair of the reverse Lieb bound at r = s = 1.5, inner over w."""
    r = s = 1.5
    u = min(2.0, 0.5 * (1.0 + holder_dual(r)))
    v = solve_partner_exponent(s, r, u)
    mp, np_ = leindler_duals(u, v, r)
    width = math.pi / math.sqrt(abs(mp) * abs(np_))
    return build_lieb_extremals(r, s, u, v, width * np.eye(grid.dim), None, grid, "omega")


def strict_json(line):
    """``json.loads`` that refuses the non-standard tokens Infinity, -Infinity and NaN."""

    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(line, parse_constant=refuse)


def run_cli(argv):
    """Invoke the CLI entry point, capturing stdout; returns (exit code, text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:  # argparse usage failures carry their own code
        code = exc.code
    return code, buf.getvalue()
