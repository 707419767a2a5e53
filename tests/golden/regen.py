"""The golden stdout contract: the commands, their input files and the replay.

Each command's file ``<name>.txt`` in this directory holds ``exit N`` on its
first line and the command's stdout, byte for byte, after it.
``tests/test_golden.py`` replays every command in-process through
``tfuncert.cli.main`` and compares.  A change that moves output on purpose
regenerates the files from a checkout with

    PYTHONPATH=src python tests/golden/regen.py

and lists in CHANGES.md which files moved and why.  It leaves
``engine_bits.txt`` alone: that file pins the STFT engine's bits, not a
command's stdout, and is regenerated with

    PYTHONPATH=src python tests/golden/engine_bits.py

It leaves the ``*.csv`` files alone too: they pin the CSV writers' bytes and
are regenerated with

    PYTHONPATH=src python tests/golden/csv_layout.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from tfuncert.cli import main
from tfuncert.certifier import INEQUALITY_IDS
from tfuncert.sampling import GaussianSpec, SampledFunction, make_grid, sample_gaussian

GOLDEN = Path(__file__).resolve().parent

# name -> argv; "{inputs}" is the directory that write_inputs filled
COMMANDS = {
    # the README's commands
    "readme_constants": "constants --Cp 4/3 --H 4 4/3 --B 1.5 1.5 2 2",
    "readme_constants_check_gg": "constants --check-gg p=2 q=2 a=1 b=1 r=2 s=2",
    "readme_certify_extremal": "certify hausdorff_young --extremal r=1.5",
    "readme_certify_young_seeds100": "certify young --seeds 100",
    "readme_certify_input": "certify heisenberg --input {inputs}/gaussian.json",
    "readme_spectrum_oscillator": "spectrum --oscillator --count 3",
    "readme_spectrum_forms": "spectrum --psi coord --phi coord --m0 1.0 --count 3 --grid 512,12",
    "readme_minimize": "minimize --preset heisenberg",
    # every constants flag, alone and all at once (argv order does not set
    # the emission order), and the refused requests
    "constants_Cp": "constants --Cp 1.5",
    "constants_dual": "constants --dual 3",
    "constants_general_dual": "constants --general-dual 0.5",
    "constants_H": "constants --H 3 2",
    "constants_B": "constants --B 1.5 1.5 2 2",
    "constants_B_outside": "constants --B 1.25 1.75 2 2",
    "constants_B_dim2": "constants --B 1.5 1.5 2 2 --dim 2",
    "constants_B_dim0": "constants --B 1.5 1.5 2 2 --dim 0",
    "constants_B_dim_negative": "constants --B 1.5 1.5 2 2 --dim -1",
    "constants_leindler_duals": "constants --leindler-duals 2 2 1.5",
    "constants_solve_partner": "constants --solve-partner 1.5 1.5 2",
    "constants_check_lieb": "constants --check-lieb 1.5 1.5 2 2",
    "constants_check_lieb_outside": "constants --check-lieb 3 1.5 2 2",
    "constants_check_cp": "constants --check-cp p=2 q=2 a=1 b=1",
    "constants_all": (
        "constants --check-gg p=2 q=2 a=1 b=1 r=2 s=2 --check-cp p=2 q=2 a=1 b=1"
        " --check-lieb 1.5 1.5 2 2 --solve-partner 1.5 1.5 2 --leindler-duals 2 2 1.5"
        " --B 1.5 1.5 2 2 --dim 2 --H 4 4/3 --general-dual 0.8 --dual 4 --Cp 4/3"
    ),
    "constants_nothing_requested": "constants",
    "constants_check_cp_missing": "constants --check-cp p=2",
    "constants_refused_after_output": "constants --Cp 1.5 --dual 0.5",
    # batteries, the descent and the error exits
    **{f"certify_{ineq}_seeds20": f"certify {ineq} --seeds 20" for ineq in INEQUALITY_IDS},
    "minimize_seed0": "minimize --preset heisenberg --seed 0",
    "certify_lattice_breaks_relation": "certify young --lattice {inputs}/bad_lattice.json --seeds 2",
    "certify_forced_failure": "certify heisenberg --seeds 2 --tol -10",
    # an identically zero input
    "zero_heisenberg": "certify heisenberg --input {inputs}/zero.json",
    "zero_hausdorff_young": "certify hausdorff_young --r 1.5 --input {inputs}/zero.json",
    "zero_cowling_price_functional": (
        "certify cowling_price_functional --p 2 --q 2 --a 1 --b 1 --input {inputs}/zero.json"
    ),
    # exponents at the edges of their ranges (u = r' for r = 1.5)
    "edge_hausdorff_young_r1": "certify hausdorff_young --extremal r=1",
    "edge_hausdorff_young_r2": "certify hausdorff_young --extremal r=2",
    "edge_lieb_reverse_xw_u_dual": "certify lieb_reverse_xw --extremal r=1.5 s=1.5 u=3",
    "edge_lieb_reverse_wx_u_dual": "certify lieb_reverse_wx --extremal r=1.5 s=1.5 u=3",
    "edge_modulation_bound_u_dual": "certify modulation_bound --extremal r=1.5 s=1.5 u=3",
    "edge_young_m1_n1": "certify young --extremal m=1 n=1",
    "edge_leindler_m1_n1": "certify leindler --extremal m=1 n=1",
    # real extremals: the streamed norm reduces half-spectrum rows, in d = 1 and d = 2
    "real_lieb_reverse_wx": "certify lieb_reverse_wx --extremal r=1.5 s=1.5",
    "real_lieb_reverse_wx_2d": (
        "certify lieb_reverse_wx --extremal r=1.5 s=1.5 --grid 32,9,2 --tol 1e-3"
    ),
    # complex random inputs and the Gaussian window in d = 2: full rows on the
    # engine's factored route for tensor-product windows
    "factored_modulation_bound_2d": "certify modulation_bound --seeds 2 --grid 32,12,2",
}


def write_inputs(directory: Path) -> None:
    """The files the commands read: the README's Gaussian on the default
    certify grid, a zero function, and a lattice whose one point breaks
    1/m + 1/n = 1 + 1/r."""
    grid = make_grid(512, 12.0)
    gaussian = sample_gaussian(GaussianSpec(np.pi * np.eye(1)), grid)
    (directory / "gaussian.json").write_text(gaussian.to_json())
    small = make_grid(128, 10.0)
    (directory / "zero.json").write_text(SampledFunction(small, np.zeros(small.size)).to_json())
    (directory / "bad_lattice.json").write_text(json.dumps([{"m": 1.5, "n": 1.5, "r": 2.0}]))


def replay(name: str, inputs: Path) -> tuple[int, str, str]:
    """Run one command through the CLI entry point: (exit code, stdout, stderr)."""
    argv = COMMANDS[name].format(inputs=inputs).split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures carry their own code
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def render(code: int, stdout: str) -> str:
    return f"exit {code}\n{stdout}"


def regenerate() -> None:
    for stale in GOLDEN.glob("*.txt"):
        if stale.name != "engine_bits.txt":
            stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        write_inputs(inputs)
        for name in COMMANDS:
            code, stdout, _ = replay(name, inputs)
            (GOLDEN / f"{name}.txt").write_text(render(code, stdout), encoding="utf-8")
            print(f"{name}: exit {code}, {len(stdout.splitlines())} lines", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
