"""The output contract: each command in tests/golden/regen.py prints the
stdout and exits with the code stored in its golden file, byte for byte."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfuncert

from conftest import strict_json
from golden import csv_layout, engine_bits
from golden.regen import COMMANDS, GOLDEN, render, replay, write_inputs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


def _first_difference(expected, actual, path=""):
    """(path, expected value, actual value) of the first differing JSON value,
    walking dicts in key order and lists by index; None if the values agree."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in [*expected, *(k for k in actual if k not in expected)]:
            where = f"{path}.{key}" if path else key
            if key not in expected or key not in actual:
                return where, expected.get(key, "<absent>"), actual.get(key, "<absent>")
            found = _first_difference(expected[key], actual[key], where)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        for k, (e, a) in enumerate(zip(expected, actual)):
            found = _first_difference(e, a, f"{path}[{k}]")
            if found:
                return found
        return None
    if expected != actual or type(expected) is not type(actual):
        return path or "<line>", expected, actual
    return None


def _mismatch(expected: str, actual: str) -> str:
    """Where the first differing line of two golden texts differs."""
    exp_lines, act_lines = expected.split("\n"), actual.split("\n")
    for k, (e, a) in enumerate(zip(exp_lines, act_lines)):
        if e == a:
            continue
        try:
            found = _first_difference(json.loads(e), json.loads(a))
        except json.JSONDecodeError:
            found = None
        if found:
            key, e_val, a_val = found
            return f"line {k + 1}: key {key!r} expected {e_val!r}, got {a_val!r}"
        return f"line {k + 1}: expected {e!r}, got {a!r}"
    return f"expected {len(exp_lines)} lines, got {len(act_lines)}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout_and_exit_code(name, inputs):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    code, stdout, _ = replay(name, inputs)
    actual = render(code, stdout)
    assert actual == expected, f"{COMMANDS[name]}: {_mismatch(expected, actual)}"


def test_golden_stdout_is_strict_json():
    # no Infinity or NaN tokens: a non-finite number is a string
    for name in COMMANDS:
        lines = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            assert isinstance(strict_json(line), dict), name


def test_mismatch_names_the_first_differing_key():
    line = {"inequality": "young", "exponents": {"m": 1.5}, "lhs": 0.1, "ratio": 1.0}
    moved = {**line, "lhs": 0.10000000000000002}
    expected = render(0, json.dumps(line) + "\n")
    actual = render(0, json.dumps(moved) + "\n")
    assert _mismatch(expected, actual) == (
        "line 2: key 'lhs' expected 0.1, got 0.10000000000000002"
    )
    assert _mismatch(render(0, ""), render(2, "")) == "line 1: expected 'exit 0', got 'exit 2'"


@pytest.mark.parametrize("name", sorted(n for n in COMMANDS if n.startswith("edge_")))
def test_edge_exponents_pass_or_are_refused(name, inputs):
    code, stdout, stderr = replay(name, inputs)
    if code == 0:
        assert [json.loads(line)["passed"] for line in stdout.splitlines()] == [True]
        assert stderr == ""
    else:
        assert code == 2 and stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith("tfuncert: ")


def test_engine_bits_on_every_route():
    # streamed norms and ambiguity sums keep their float.hex on every route
    # of the STFT engine (the cases are listed in golden/engine_bits.py)
    expected = engine_bits.PATH.read_text(encoding="utf-8")
    want = dict(line.rsplit(" ", 1) for line in expected.splitlines())
    got = engine_bits.compute()
    moved = [case for case in want if got.get(case) != want[case]]
    assert engine_bits.render(got) == expected, f"{len(moved)} cases moved, first {moved[:3]}"


@pytest.mark.parametrize("name", sorted(csv_layout.CASES))
def test_csv_layout_byte_for_byte(name, tmp_path):
    # header, column order and number format of each CSV writer (the cases
    # are listed in golden/csv_layout.py)
    csv_layout.CASES[name](tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_spectrum_stdout_does_not_depend_on_the_blas_thread_count():
    # the eigensolve pins numpy's and scipy's OpenBLAS to one thread, so a
    # child at either OPENBLAS_NUM_THREADS, or on one CPU, prints the golden bits
    name = "readme_spectrum_forms"
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    argv = [sys.executable, "-m", "tfuncert", *COMMANDS[name].split()]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(tfuncert.__file__).resolve().parents[1])
    cpu = min(os.sched_getaffinity(0))
    settings = {
        "OPENBLAS_NUM_THREADS=1": dict(env={**env, "OPENBLAS_NUM_THREADS": "1"}),
        "OPENBLAS_NUM_THREADS=2": dict(env={**env, "OPENBLAS_NUM_THREADS": "2"}),
        f"on CPU {cpu} alone": dict(env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})),
    }
    children = {
        label: subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8", **kwargs
        )
        for label, kwargs in settings.items()
    }
    outputs = {label: child.communicate(timeout=120) for label, child in children.items()}
    for label, (stdout, stderr) in outputs.items():
        actual = render(children[label].returncode, stdout)
        assert actual == expected, f"{label}: {_mismatch(expected, actual)}; stderr {stderr!r}"
