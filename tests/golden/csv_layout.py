"""The CSV layouts, byte for byte: the cases and their regeneration.

Each ``<case>.csv`` in this directory holds the file one writer of the
library leaves behind:

- ``spectrum_modes_1d.csv``: ``spectrum --oscillator --count 2 --grid 64,8
  --csv FILE``, the modes layout (coordinate column, then ``mode_k_re``,
  ``mode_k_im`` per mode) in d = 1;
- ``sampled_function_2d.csv``: ``SampledFunction.to_csv`` of
  ``random_smooth(RandomFunctionSpec(seed=1), make_grid(16, 6.0, 2))``, the
  ``x1,x2,re,im`` layout in d = 2.

``tests/test_golden.py`` writes each case into a temporary directory and
compares the bytes, so a changed header, column order or number format
shows.  A change that moves these bytes on purpose regenerates the files
from a checkout with

    PYTHONPATH=src python tests/golden/csv_layout.py

and says in CHANGES.md which file moved and why.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

from tfuncert.cli import main
from tfuncert.sampling import RandomFunctionSpec, make_grid, random_smooth

GOLDEN = Path(__file__).resolve().parent


def _spectrum_modes(path: Path) -> None:
    argv = ["spectrum", "--oscillator", "--count", "2", "--grid", "64,8", "--csv", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def _sampled_function(path: Path) -> None:
    random_smooth(RandomFunctionSpec(seed=1), make_grid(16, 6.0, 2)).to_csv(path)


CASES = {
    "spectrum_modes_1d.csv": _spectrum_modes,
    "sampled_function_2d.csv": _sampled_function,
}


if __name__ == "__main__":
    for name, writer in CASES.items():
        writer(GOLDEN / name)
