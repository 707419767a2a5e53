"""End-to-end exercises of the command surface: JSON line output, exit codes,
extremal and battery certification, spectra, and the minimization driver."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tfuncert
from tfuncert.constants import babenko_beckner, lieb_H
from tfuncert.sampling import SampledFunction, make_grid

from conftest import gaussian, run_cli, strict_json


def lines_of(text):
    return [json.loads(line) for line in text.strip().splitlines() if line]


# ---------------------------------------------------------------------------
# constants


def test_constants_quantities():
    code, out = run_cli(
        [
            "constants",
            "--Cp", "4/3",
            "--dual", "4",
            "--general-dual", "0.8",
            "--H", "4", "4/3",
            "--B", "1.5", "1.5", "2", "2",
            "--leindler-duals", "2", "2", "1.5",
            "--solve-partner", "1.5", "1.5", "2",
        ]
    )
    assert code == 0
    recs = {rec["quantity"]: rec for rec in lines_of(out)}
    assert recs["Cp"]["value"] == pytest.approx(babenko_beckner(4 / 3), rel=1e-15)
    assert recs["holder_dual"]["value"] == pytest.approx(4 / 3)
    assert recs["general_dual"]["value"] == pytest.approx(-4.0)
    assert recs["H"]["value"] == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-14)
    assert recs["B"]["value"] == pytest.approx(lieb_H(1.5, 2.0) ** (1 / 1.5), rel=1e-14)
    # m' = dual of u/r' = dual of 2/3
    assert recs["leindler_duals"]["m_prime"] == pytest.approx(-2.0)
    assert recs["partner_exponent"]["v"] == pytest.approx(2.0)


def test_constants_condition_checks():
    code, out = run_cli(
        [
            "constants",
            "--check-lieb", "1.5", "1.5", "2", "2",
            "--check-cp", "p=2", "q=2", "a=1", "b=1",
            "--check-gg", "p=2", "q=2", "a=1", "b=1", "r=2", "s=2",
        ]
    )
    assert code == 0
    recs = {rec["quantity"]: rec for rec in lines_of(out)}
    assert recs["lieb_domain"]["ok"] is True
    assert recs["cowling_price"]["ok"] is True
    assert recs["cowling_price"]["margin_x"] == pytest.approx(1.0)
    assert recs["galperin_grochenig"]["ok"] is True
    assert recs["galperin_grochenig"]["left_factor_x"] == pytest.approx(1.0)


def test_constants_check_cp_missing_keys_exit_2(capsys):
    assert run_cli(["constants", "--check-cp", "p=2"]) == (2, "")
    assert capsys.readouterr().err == "tfuncert: --check-cp is missing q, a, b\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--Cp", "1/0"], "cannot parse p from '1/0'"),
        (["constants", "--Cp", "0/0"], "cannot parse p from '0/0'"),
        (["constants", "--Cp", "1e999"], "p is too large for a float"),
        (["constants", "--check-cp", "p=1/0", "q=2", "a=1", "b=1"], "cannot parse p from '1/0'"),
        (["certify", "hausdorff_young", "--extremal", "r=1/0"], "cannot parse r from '1/0'"),
    ],
    ids=["one over zero", "zero over zero", "overflowing decimal", "check-cp", "extremal"],
)
def test_zero_denominators_and_overflowing_decimals_exit_2(capsys, argv, message):
    # Fraction raised ZeroDivisionError, and numerator / denominator an
    # OverflowError: each command once ended in a traceback
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"tfuncert: {message}\n"


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        # H ~ sqrt(p p')/r: the powers overflowed on their own, and H was refused
        (["--H", "1e300", "1.5"], 0,
         '{"quantity": "H", "r": 1e+300, "p": 1.5, "value": 2.1213203435596423e-300}', ""),
        (["--H", "1e308", "2"], 0, '{"quantity": "H", "r": 1e+308, "p": 2.0, "value": 2e-308}', ""),
        (["--B", "1.5", "1.5", "2", "2", "--dim", "100000000"], 2, "",
         "B at r=1.5, s=1.5, u=2.0, v=2.0, d=100000000 overflows a float"),
        # each factor is finite and their product is not: this printed "inf"
        (["--B", "1.5", "1.5", "2", "2", "--dim", "3701"], 2, "",
         "B at r=1.5, s=1.5, u=2.0, v=2.0, d=3701 overflows a float"),
        # |p'|^(1/p') overflows, and the exact C_p rounds to 0.0
        (["--Cp", "1e-300"], 0, '{"quantity": "Cp", "p": 1e-300, "value": 0.0}', ""),
    ],
    ids=["H r=1e300", "H r=1e308", "B d=1e8", "B d=3701", "Cp p=1e-300"],
)
def test_constants_overflowing_a_float_ends_without_a_traceback(capsys, argv, code, stdout, stderr):
    # r**2, a power or a product overflowed: each command once exited 1 with
    # an OverflowError traceback, or printed "inf"
    assert run_cli(["constants", *argv]) == (code, stdout + "\n" if stdout else "")
    assert capsys.readouterr().err == (f"tfuncert: {stderr}\n" if stderr else "")


@pytest.mark.parametrize(
    "argv, value",
    [(["--H", "200", "1.5"], 0.010613), (["--B", "1.01", "1", "1", "101"], 1.0181)],
    ids=["H r=200", "B r=1.01"],
)
def test_constants_underflowing_factors_print_the_value(capsys, argv, value):
    # a factor underflowed: H printed "value": 0.0 and B ended in a
    # ZeroDivisionError traceback; both are taken in log space now
    code, stdout = run_cli(["constants", *argv])
    assert code == 0 and capsys.readouterr().err == ""
    assert json.loads(stdout)["value"] == pytest.approx(value, abs=5e-5)


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_constants_B_refuses_a_dimension_below_one(capsys, dim):
    assert run_cli(["constants", "--B", "1.5", "1.5", "2", "2", "--dim", dim]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tfuncert: ") and "dimension" in err[0]


def test_python_m_tfuncert_runs_the_cli():
    # the checkout entry point: no warning (-W error), the in-process output
    src = str(Path(tfuncert.__file__).resolve().parents[1])
    argv = ["constants", "--Cp", "2"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tfuncert", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(argv)[1]


@pytest.mark.parametrize(
    "argv, linalg",
    [
        (["certify", "lieb_reverse_wx", "--seeds", "2"], False),
        (["certify", "modulation_bound", "--seeds", "1", "--grid", "32,12,2"], False),
        (["minimize", "--preset", "heisenberg", "--starts", "1"], False),
        (["spectrum", "--oscillator", "--count", "2"], True),
    ],
    ids=["certify-1d", "certify-2d", "minimize", "spectrum"],
)
def test_stft_commands_load_no_scipy(argv, linalg):
    # the STFT engine runs on numpy.fft: only the eigensolves import scipy,
    # and they do not import scipy.fft
    src = str(Path(tfuncert.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, sys\n"
        "from tfuncert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    code, *modules = proc.stdout.split()
    assert code == "0" and "scipy.fft" not in modules
    assert "scipy.linalg" in modules if linalg else modules == []


def test_closed_pipe_exits_quietly(tmp_path):
    # `certify young --seeds 100 | head -n 1`: the reader takes one line and
    # closes the pipe while most of the 130 kB of output is unwritten, beyond
    # what the pipe buffers.  No traceback, exit 141, and the --json file
    # still gets every line
    src = str(Path(tfuncert.__file__).resolve().parents[1])
    mirror = tmp_path / "out.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "tfuncert", "certify", "young", "--seeds", "100", "--json", str(mirror)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert json.loads(first)["inequality"] == "young"
    assert len(mirror.read_text().splitlines()) == 400


def test_unwritable_json_file_exits_2(tmp_path, capsys):
    code, out = run_cli(["constants", "--Cp", "2", "--json", str(tmp_path / "missing" / "out.jsonl")])
    assert code == 2 and len(lines_of(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tfuncert: ")


def test_infinite_exponents_are_strings():
    # strict JSON has no Infinity token
    code, out = run_cli(["constants", "--Cp", "inf"])
    assert code == 0
    assert strict_json(out)["p"] == "inf"


def test_constants_json_file_mirrors_stdout(tmp_path):
    path = tmp_path / "out.jsonl"
    code, out = run_cli(["constants", "--Cp", "4/3", "--json", str(path)])
    assert code == 0
    assert path.read_text() == out


def test_constants_requires_a_request():
    code, _ = run_cli(["constants"])
    assert code == 2


def test_usage_errors_exit_64():
    assert run_cli([])[0] == 64
    assert run_cli(["certify"])[0] == 64
    assert run_cli(["constants", "--no-such-flag"])[0] == 64


# ---------------------------------------------------------------------------
# certify


EXTREMAL_CASES = [
    (["hausdorff_young", "--extremal", "r=1.5"], 1e-12),
    (["young", "--extremal", "m=4/3", "n=4/3"], 1e-10),
    (["leindler", "--extremal", "m=0.8", "n=0.8"], 1e-7),
    (["lieb_forward", "--extremal", "r=4"], 1e-11),
    (["lieb_reverse_xw", "--extremal", "r=1.5", "s=1.5"], 1e-10),
    (["lieb_reverse", "--order", "omega", "--extremal", "r=1.5", "s=1.5"], 1e-10),
    (["heisenberg", "--extremal"], 1e-12),
    (["modulation_bound", "--extremal"], 1e-9),
    (["cowling_price_functional", "--extremal"], 1e-10),
]


@pytest.mark.parametrize("argv,slack_cap", EXTREMAL_CASES)
def test_certify_extremal_saturates(argv, slack_cap):
    code, out = run_cli(["certify", *argv, "--grid", "256,10"])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["passed"] is True
    assert abs(rec["slack"]) <= slack_cap
    assert rec["lhs"] > 0 and rec["rhs"] > 0


def test_certify_extremal_young_corner():
    code, out = run_cli(["certify", "young", "--extremal", "m=1", "n=1", "--grid", "128,10"])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["passed"] and abs(rec["slack"]) < 1e-12
    # one exponent at 1: the dual construction degenerates
    code, _ = run_cli(["certify", "young", "--extremal", "m=1", "n=2", "--grid", "128,10"])
    assert code == 2


def test_certify_forced_failure_exits_1():
    code, out = run_cli(
        ["certify", "hausdorff_young", "--extremal", "r=1.5", "--tol", "-1.0", "--grid", "256,10"]
    )
    assert code == 1
    (rec,) = lines_of(out)
    assert rec["passed"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [["certify", "heisenberg", "--seeds", "1", "--grid", "128,10"], ["minimize", "--preset", "heisenberg"]],
    ids=["certify", "minimize"],
)
def test_non_finite_tol_exits_2(capsys, argv, tol):
    # nan once failed every certificate and ran every descent to --max-iter;
    # inf passed every certificate and declared descents converged at once
    assert run_cli([*argv, f"--tol={tol}"]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tfuncert: ") and "tol must be finite" in err[0]


def test_certify_domain_errors_exit_2():
    # exponent outside the admissible window
    assert run_cli(["certify", "hausdorff_young", "--extremal", "r=2.5"])[0] == 2
    # unknown inequality id
    assert run_cli(["certify", "no_such_inequality", "--extremal"])[0] == 2
    # extremal construction without the required exponent
    assert run_cli(["certify", "hausdorff_young", "--extremal"])[0] == 2


def test_certify_single_input(tmp_path):
    grid = make_grid(256, 10.0)
    f = gaussian(grid)
    path = tmp_path / "f.json"
    path.write_text(f.to_json())
    code, out = run_cli(["certify", "heisenberg", "--input", str(path)])
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["passed"] and abs(rec["slack"]) < 1e-12
    code, out = run_cli(["certify", "hausdorff_young", "--input", str(path), "--r", "1.5"])
    assert code == 0
    assert lines_of(out)[0]["passed"]
    # missing required exponent flag
    assert run_cli(["certify", "hausdorff_young", "--input", str(path)])[0] == 2
    # missing second factor
    assert run_cli(
        ["certify", "young", "--input", str(path), "--m", "1", "--n", "1", "--r", "1"]
    )[0] == 2


def test_certify_malformed_input_json_exits_2(tmp_path, capsys):
    for name, data in (
        ("empty", {}),
        ("no_values", {"grid": {"n": 64, "extent": 8.0}}),
        ("list", [1, 2]),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert run_cli(["certify", "heisenberg", "--input", str(path)]) == (2, ""), name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tfuncert: "), (name, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["heisenberg"],
        ["hausdorff_young", "--r", "1.5"],
        ["cowling_price_functional", "--p", "2", "--q", "2", "--a", "1", "--b", "1"],
    ],
)
def test_certify_refuses_an_identically_zero_input(tmp_path, capsys, argv):
    grid = make_grid(128, 10.0)
    path = tmp_path / "zero.json"
    path.write_text(SampledFunction(grid, np.zeros(grid.size)).to_json())
    assert run_cli(["certify", *argv, "--input", str(path)]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tfuncert: ") and "identically zero" in err[0]


# a value for every exponent flag of each id that takes exponents
INPUT_FLAGS = {
    "hausdorff_young": {"r": "1.5"},
    "young": {"m": "4/3", "n": "4/3", "r": "2"},
    "leindler": {"m": "0.8", "n": "0.8", "r": "2/3"},
    "lieb_forward": {"r": "4", "p": "2"},
    "lieb_reverse_xw": {"r": "2", "s": "2", "u": "2", "v": "2"},
    "lieb_reverse_wx": {"r": "2", "s": "2", "u": "2", "v": "2"},
    "cowling_price_functional": {"p": "2", "q": "2", "a": "1", "b": "1"},
    "modulation_bound": {"r": "2", "s": "2", "u": "2", "v": "2"},
}


@pytest.mark.parametrize("ineq", sorted(INPUT_FLAGS))
def test_certify_input_requires_every_exponent_flag(tmp_path, capsys, ineq):
    path = tmp_path / "f.json"
    path.write_text(gaussian(make_grid(128, 10.0)).to_json())
    flags = INPUT_FLAGS[ineq]
    base = ["certify", ineq, "--input", str(path), "--input2", str(path)]
    code, out = run_cli([*base, *(tok for k, v in flags.items() for tok in (f"--{k}", v))])
    assert code == 0 and lines_of(out)[0]["inequality"] == ineq
    for missing in flags:
        given = [tok for k, v in flags.items() if k != missing for tok in (f"--{k}", v)]
        assert run_cli([*base, *given]) == (2, "")
        assert f"certify {ineq} with --input requires --{missing}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "typed, ineq",
    [(ineq, ineq) for ineq in ("young", "leindler", "lieb_forward", "lieb_reverse_wx")]
    + [("lieb_reverse", "lieb_reverse_xw")],
)
def test_certify_missing_input2_names_the_id_as_typed(tmp_path, capsys, typed, ineq):
    path = tmp_path / "f.json"
    path.write_text(gaussian(make_grid(128, 10.0)).to_json())
    flags = [tok for k, v in INPUT_FLAGS[ineq].items() for tok in (f"--{k}", v)]
    assert run_cli(["certify", typed, "--input", str(path), *flags]) == (2, "")
    assert capsys.readouterr().err == f"tfuncert: certify {typed} requires --input2\n"


def test_certify_refuses_non_decaying_modulation_input(tmp_path):
    grid = make_grid(128, 12.0)
    flat = tmp_path / "flat.json"
    flat.write_text(SampledFunction(grid, np.ones(grid.size)).to_json())
    argv = ["certify", "cowling_price_functional", "--input", str(flat)]
    assert run_cli([*argv, "--p", "2", "--q", "2", "--a", "1", "--b", "1"]) == (2, "")


def test_certify_young_mass_corner_requires_nonnegative(tmp_path):
    grid = make_grid(128, 10.0)
    pos = tmp_path / "pos.json"
    pos.write_text(gaussian(grid).to_json())
    chirped = tmp_path / "chirp.json"
    chirped.write_text(gaussian(grid, chirp=0.5).to_json())
    base = ["certify", "young", "--m", "1", "--n", "1", "--r", "1"]
    code, out = run_cli([*base, "--input", str(pos), "--input2", str(pos)])
    assert code == 0
    assert abs(lines_of(out)[0]["slack"]) < 1e-12
    assert run_cli([*base, "--input", str(chirped), "--input2", str(pos)])[0] == 2


def test_certify_battery_cli_deterministic():
    argv = ["certify", "young", "--seeds", "2", "--grid", "128,12"]
    code, out = run_cli(argv)
    assert code == 0
    recs = lines_of(out)
    assert len(recs) == 8  # 2 seeds x 4 lattice points
    assert all(rec["passed"] for rec in recs)
    assert {rec["seed"] for rec in recs} == {0, 1}
    assert run_cli(argv)[1] == out


def test_certify_battery_needs_a_seed(capsys):
    for seeds in ("0", "-1"):
        assert run_cli(["certify", "young", "--seeds", seeds, "--grid", "128,12"]) == (2, "")
        assert capsys.readouterr().err == "tfuncert: seeds must be >= 1\n"


def test_certify_lattice_file(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps([{"m": 1.5, "n": 1.5, "r": 3.0}]))
    code, out = run_cli(
        ["certify", "young", "--lattice", str(lattice), "--seeds", "1", "--grid", "128,12"]
    )
    assert code == 0
    assert len(lines_of(out)) == 1
    # a point missing an exponent is reported on its own line and exits 2
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"m": 1.5}]))
    code, out = run_cli(
        ["certify", "young", "--lattice", str(partial), "--seeds", "1", "--grid", "128,12"]
    )
    assert code == 2
    (rec,) = lines_of(out)
    assert rec["point"] == {"m": 1.5} and "'n'" in rec["error"]
    # a non-numeric exponent is reported the same way
    for value in (None, [1], True):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps([{"r": value}]))
        code, out = run_cli(
            ["certify", "hausdorff_young", "--lattice", str(typed), "--seeds", "1",
             "--grid", "64,8"]
        )
        assert code == 2
        (rec,) = lines_of(out)
        assert rec["point"] == {"r": value} and rec["error"] == f"r must be a number, got {value!r}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 1.5}))
    assert run_cli(["certify", "young", "--lattice", str(bad), "--seeds", "1"])[0] == 2
    # an empty lattice certifies nothing, so it cannot pass
    bad.write_text("[]")
    capsys.readouterr()
    assert run_cli(["certify", "young", "--lattice", str(bad), "--seeds", "1"]) == (2, "")
    assert capsys.readouterr().err == "tfuncert: --lattice file holds no exponent points\n"


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_oscillator(tmp_path):
    csv = tmp_path / "modes.csv"
    code, out = run_cli(
        ["spectrum", "--oscillator", "--count", "3", "--grid", "512,12", "--csv", str(csv)]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["method"] == "finite_difference"
    targets = [(2 * k + 1) / (2 * math.pi) for k in range(3)]
    np.testing.assert_allclose(rec["eigenvalues"], targets, atol=1e-3)
    table = np.genfromtxt(csv, delimiter=",", names=True)
    assert table.dtype.names == ("x1", "mode_0_re", "mode_0_im", "mode_1_re", "mode_1_im", "mode_2_re", "mode_2_im")
    assert table.shape == (512,)


def test_spectrum_quadratic_form():
    code, out = run_cli(
        ["spectrum", "--psi", "poly:0,1", "--phi", "coord", "--m0", "1.0",
         "--count", "2", "--grid", "256,10"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["method"] == "quadratic_form"
    assert rec["eigenvalues"][0] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)
    assert rec["eigenvalues"][1] == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-5)
    assert all(res < 1e-8 for res in rec["residuals"])
    # both forms are Hermitian by construction, so the defects are exact zeros
    assert rec["herm_defects"] == [0.0, 0.0]


def test_spectrum_symmetric_triple_modes_are_real(tmp_path):
    # a real window with coord profiles is conjugation-symmetric: the pencil
    # is solved in real arithmetic and the exported modes have zero imaginary parts
    csv = tmp_path / "modes.csv"
    code, _ = run_cli(
        ["spectrum", "--psi", "coord", "--phi", "coord", "--m0", "1.0",
         "--count", "2", "--grid", "128,10", "--csv", str(csv)]
    )
    assert code == 0
    table = np.genfromtxt(csv, delimiter=",", names=True)
    assert np.any(table["mode_0_re"] != 0.0)
    assert np.all(table["mode_0_im"] == 0.0) and np.all(table["mode_1_im"] == 0.0)


@pytest.mark.parametrize("psi, phi", [("coord", "abs"), ("abs", "coord")])
def test_spectrum_abs_profile_prints_the_coord_bytes(psi, phi):
    # the forms read |psi|^2 and |phi|^2 only, so |x| and x give the same bytes
    argv = ["spectrum", "--m0", "1", "--grid", "128,12", "--count", "3"]
    want = run_cli(argv + ["--psi", "coord", "--phi", "coord"])
    assert want[0] == 0
    assert run_cli(argv + ["--psi", psi, "--phi", phi]) == want


def test_spectrum_zero_psi_leaves_the_frequency_multiplier():
    # with psi = 0 and m0 = 1 the pencil is 1 + |w|^2 on the conjugate grid:
    # its two smallest lam are w = 0 and the first node 1/L = 1/8, squared
    code, out = run_cli(
        ["spectrum", "--psi", "zero", "--phi", "abs", "--m0", "1", "--grid", "64,8", "--count", "2"]
    )
    assert code == 0
    (rec,) = lines_of(out)
    np.testing.assert_allclose(rec["eigenvalues"], [0.0, 1.0 / 64.0], rtol=0, atol=1e-12)


def test_spectrum_errors(capsys):
    assert run_cli(["spectrum"])[0] == 2  # neither oscillator nor a triple
    assert run_cli(["spectrum", "--psi", "bogus", "--phi", "coord", "--m0", "1"])[0] == 2
    assert run_cli(["spectrum", "--psi", "coord", "--phi", "coord", "--m0", "coord"])[0] == 2
    assert run_cli(["spectrum", "--oscillator", "--count", "11"])[0] == 2
    capsys.readouterr()
    # the finite-difference oscillator is one-dimensional; a d = 2 grid is refused
    assert run_cli(["spectrum", "--oscillator", "--grid", "64,8,2"]) == (2, "")
    assert capsys.readouterr().err == "tfuncert: spectrum --oscillator is one-dimensional, got d=2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--oscillator", "--count", "3", "--grid", "8,1e-300"],
        ["--oscillator", "--count", "3", "--grid", "16,1e160"],
        ["--psi", "coord", "--phi", "coord", "--m0", "1", "--count", "1", "--grid", "16,1e160"],
    ],
    ids=["oscillator tiny", "oscillator huge", "forms huge"],
)
def test_spectrum_absurd_grid_extents_exit_2(capsys, argv):
    # h**2 once underflowed to 0 or overflowed, and the command ended in a traceback
    assert run_cli(["spectrum", *argv]) == (2, "")
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("tfuncert: grid spacing ")


@pytest.mark.parametrize("psi, m0", [("coord", "1e200"), ("poly:0,1e200", "1")])
def test_spectrum_overflowing_composite_weight_exits_2(capsys, psi, m0):
    # m0^2 or |psi|^2 overflowed: four RuntimeWarnings, then scipy's "array
    # must not contain infs or NaNs"
    argv = ["spectrum", "--psi", psi, "--phi", "coord", "--m0", m0, "--count", "1", "--grid", "64,8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == (
        "tfuncert: composite weight m = sqrt(m0^2 + |psi|^2 + |phi|^2) overflows\n"
    )


def test_spectrum_huge_admissible_m0_gives_finite_forms():
    # m0^2 = 1e308 times the bare window sum once overflowed form0 to inf, and
    # scipy refused the pencil, although form0 = m0^2 h I is a finite float
    argv = ["spectrum", "--psi", "coord", "--phi", "coord", "--m0", "1e154", "--count", "2",
            "--grid", "64,8"]
    code, out = run_cli(argv)
    assert code == 0
    (rec,) = lines_of(out)
    assert rec["eigenvalues"] == [0.0, 0.0]
    np.testing.assert_allclose(rec["nu"], 1.0, rtol=0, atol=1e-14)
    assert all(res < 1e-12 for res in rec["residuals"])


def test_spectrum_degenerate_pencil_exits_2(capsys):
    code, out = run_cli(["spectrum", "--psi", "1", "--phi", "1", "--m0", "0", "--grid", "64,8"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "tfuncert: form0 is not positive definite; the weight/grid combination is degenerate\n"
    )


def test_spectrum_oversized_dense_forms_exit_2(capsys):
    # 128^2 nodes would need 2 GiB per dense form; a constant m0 is refused
    # before any size^2 array is built, like a tabulated one
    code, out = run_cli(
        ["spectrum", "--psi", "coord", "--phi", "coord", "--m0", "1", "--grid", "128,12,2"]
    )
    assert code == 2 and out == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("tfuncert: dense forms on 16384 nodes")


# ---------------------------------------------------------------------------
# minimize


def test_minimize_preset_cli(tmp_path):
    csv = tmp_path / "minimizer.csv"
    code, out = run_cli(
        ["minimize", "--preset", "heisenberg", "--starts", "2", "--grid", "128,10",
         "--csv", str(csv)]
    )
    assert code == 0
    recs = lines_of(out)
    assert len(recs) == 3  # one per start plus the best summary
    for rec in recs[:2]:
        assert rec["converged"] and not rec["exploratory"]
        assert rec["lambda"] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-4)
    assert recs[2]["best"]["converged"]
    table = np.genfromtxt(csv, delimiter=",", names=True)
    assert table.dtype.names == ("x1", "re", "im")
    assert table.shape == (128,)


def test_minimize_runs_in_2d(tmp_path):
    # the descent's taper damps both end nodes of each axis alike, so the
    # guarded norm accepts every trial point on a coarse 32^2 grid; the
    # d-dimensional Heisenberg minimum || |x| f ||_2 + || |w| Ff ||_2 is sqrt(d/pi)
    spec = tmp_path / "exponents.json"
    spec.write_text(json.dumps({"d": 2, "p": 2, "q": 2, "a": 1, "b": 1, "r": 2, "s": 2}))
    code, out = run_cli(["minimize", "--exponents", str(spec), "--grid", "32,9,2", "--starts", "1"])
    assert code == 0
    best = lines_of(out)[1]["best"]
    assert best["converged"]
    assert best["lambda"] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-6)


def test_minimize_exponents_file_and_failure_exit(tmp_path, capsys):
    spec = tmp_path / "exponents.json"
    spec.write_text(json.dumps({"d": 1, "p": 2, "q": 2, "a": 1, "b": 1, "r": 2, "s": 2}))
    code, out = run_cli(
        ["minimize", "--exponents", str(spec), "--starts", "1", "--max-iter", "2",
         "--grid", "128,10"]
    )
    assert code == 1
    recs = lines_of(out)
    assert recs[0]["converged"] is False
    assert recs[1]["best"]["converged"] is False
    # a non-numeric exponent (a JSON boolean too, or a null weight exponent,
    # although alpha and beta default to 0), a fractional dimension, and a
    # zero denominator or a number beyond the float range (which once ended
    # in a traceback) are domain errors
    for key, value in (
        ("p", [1]), ("d", 1.5), ("d", True), ("alpha", None), ("beta", None),
        ("r", "1/0"), ("r", "1e999"), ("r", 10**400),
    ):
        spec.write_text(json.dumps({"d": 1, "p": 2, "q": 2, "a": 1, "b": 1, "r": 2, "s": 2, key: value}))
        assert run_cli(["minimize", "--exponents", str(spec), "--starts", "1"]) == (2, "")
    capsys.readouterr()
    # an infinite weight exponent once read as a NaN norm behind a RuntimeWarning
    spec.write_text(json.dumps({"d": 1, "p": 2, "q": 2, "a": 1, "b": 1, "r": 2, "s": 2, "alpha": "inf"}))
    assert run_cli(["minimize", "--exponents", str(spec), "--starts", "1"]) == (2, "")
    assert capsys.readouterr().err == (
        "tfuncert: bracket weight exponents must be finite and nonnegative\n"
    )
    # p = 1 is refused by the x-moment term, which has no gradient there
    spec.write_text(json.dumps({"d": 1, "p": 1, "q": 2, "a": 1, "b": 1, "r": 2, "s": 2}))
    assert run_cli(["minimize", "--exponents", str(spec), "--starts", "1"]) == (2, "")
    assert capsys.readouterr().err == (
        "tfuncert: differentiable moment term needs finite p > 1, got 1.0\n"
    )
    spec.write_text("[1]")
    assert run_cli(["minimize", "--exponents", str(spec), "--starts", "1"]) == (2, "")


@pytest.mark.parametrize("key, value, weight", [("a", 200, "|x|^400"), ("b", 300, "|w|^600")])
def test_minimize_refuses_an_overflowing_moment_weight(tmp_path, capsys, key, value, weight):
    # on the default grid (256 nodes, L = 12) the largest |x| is 6 and the
    # largest |w| 10.7, and 6^400 overflows.  The gradient was NaN, its
    # defect read max(0.0, nan) = 0.0, and the run printed "converged": true
    spec = tmp_path / "exponents.json"
    spec.write_text(json.dumps({"d": 1, "p": 2, "q": 2, "a": 1, "b": 1, "r": 2, "s": 2, key: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["minimize", "--exponents", str(spec), "--starts", "1"]) == (2, "")
    assert capsys.readouterr().err == f"tfuncert: moment weight {weight} overflows on the grid\n"


def test_minimize_requires_exponent_source(capsys):
    assert run_cli(["minimize", "--starts", "1"])[0] == 2
    assert run_cli(["minimize", "--preset", "heisenberg", "--starts", "0"]) == (2, "")
    assert "starts must be >= 1" in capsys.readouterr().err
