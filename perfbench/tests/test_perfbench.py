"""Tests of the benchmark itself: tracing is transparent, spans are sound,
inputs follow the seed, and the correctness gate catches a wrong reference.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""
import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tfuncert import certifier, cli, constants, norms, sampling, transforms, variational  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def _small_inputs():
    grid = sampling.make_grid(64, 12.0)
    f = sampling.random_smooth(sampling.RandomFunctionSpec(seed=5), grid)
    g = norms.default_window(grid)
    return grid, f, g


def _mixed_calls():
    """A little of every layer; returns every number it produced."""
    grid, f, g = _small_inputs()
    h = sampling.random_smooth(sampling.RandomFunctionSpec(seed=6), grid)
    out = [
        transforms.stft(f, g).values,
        transforms.ambiguity(f, h).values,
        transforms.stft_adjoint(transforms.stft(f, g).values, g),
        transforms.convolve(f, h).values,
        np.array([norms.modulation_norm(f, g, 1.5, 2.0, 0.5, 0.5)]),
        np.array([norms.stft_mixed_norm(f, g, norms.MixedOrder(2.0, 1.5, "omega"), chunk=24)]),
    ]
    for rep in (certifier.certify_lieb_forward(f, h, 4.0, 2.0),
                certifier.certify_modulation_bound(f, g, 2.0, 2.0, 2.0, 2.0),
                certifier.certify_young(f, h, 1.25, 1.25, 5.0 / 3.0)):
        out.append(np.array([rep.lhs, rep.rhs]))
    small = sampling.make_grid(64, 8.0)
    win = norms.default_window(small)
    win = sampling.scale(win, 1.0 / norms.lp_weighted(win, 2.0))
    pair = variational.build_forms(workloads.tabulated_triple(small), win, small)
    out.append(np.array([sol.lam for sol in variational.smallest_eigen(pair, 3)]))
    code, text = workloads._run_cli(["spectrum", "--oscillator", "--count", "3", "--grid", "256,12"])
    out.append(np.array([code]))
    out.append(np.frombuffer(text.encode(), dtype=np.uint8))
    return out


def _snapshot():
    return [(mod, attr, fn) for mod, attr, _, fn in spans.bindings()]


# ---------------------------------------------------------------------------
# wrappers are transparent


def test_traced_results_are_bit_identical():
    plain = _mixed_calls()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = _mixed_calls()
    assert len(tracer.names) > 0
    for a, b in zip(plain, traced, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_exceptions_pass_through_and_close_their_span():
    grid, f, _ = _small_inputs()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        with pytest.raises(constants.DomainError):
            certifier.certify_hausdorff_young(f, 3.0)
        with pytest.raises(ValueError):
            transforms.stft(f, f.with_values(np.zeros(grid.size)))
    assert tracer._stack == []
    assert all(end >= start > 0 for start, end in zip(tracer.starts, tracer.ends))
    assert tracer.calls["certifier.certify_hausdorff_young"] == 1
    assert tracer.counts["certs"] == 0


def test_every_patched_binding_is_restored():
    before = _snapshot()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.traced(tracer) as patched:
            assert all(getattr(mod, attr) is not fn for mod, attr, _, fn in patched)
            raise RuntimeError("leave the block by an exception")
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)
    with spans.traced(tracer):
        _small_inputs()
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)
    assert _snapshot() == before


def test_re_imported_names_are_wrapped():
    found = {(mod.__name__, attr): name for mod, attr, name, _ in spans.bindings()}
    for binding, name in {
        ("tfuncert.certifier", "stft"): "transforms.stft",
        ("tfuncert.certifier", "ambiguity"): "transforms.ambiguity",
        ("tfuncert.norms", "stft_row_chunks"): "transforms.stft_row_chunks",
        ("tfuncert.norms", "stft"): "transforms.stft",
        ("tfuncert.variational", "stft"): "transforms.stft",
        ("tfuncert.variational", "stft_adjoint"): "transforms.stft_adjoint",
        ("tfuncert.variational", "modulation_norm"): "norms.modulation_norm",
        ("tfuncert.cli", "minimize_banach"): "variational.minimize_banach",
        ("tfuncert", "main"): "cli.main",
    }.items():
        assert found.get(binding) == name, binding


# ---------------------------------------------------------------------------
# spans are sound


def test_self_times_are_nonnegative_and_children_fit_in_parents():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        _mixed_calls()
    dur = tracer.durations()
    assert all(st >= 0 for st in tracer.self_times())
    child_sum = [0] * len(dur)
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[idx] <= tracer.ends[idx] <= tracer.ends[parent]
            child_sum[parent] += dur[idx]
    assert all(c <= d for c, d in zip(child_sum, dur))
    assert sum(tracer.self_times()) == tracer.root_ns()


def test_row_chunk_spans_count_the_rows_yielded():
    grid = sampling.make_grid(16, 8.0, dim=2)
    f = sampling.random_smooth(sampling.RandomFunctionSpec(seed=1), grid)
    g = norms.default_window(grid)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        yielded = sum(len(idx) for idx, _ in transforms.stft_row_chunks(f, g, chunk=100))
        norms.stft_mixed_norm(f, g, norms.MixedOrder(1.5, 1.5, "x"), chunk=100)
    assert yielded == grid.size
    assert tracer.counts["rows"] == 2 * grid.size
    assert tracer.counts["entries_computed"] == 2 * grid.size * grid.size
    assert tracer.calls["transforms.stft_row_chunks"] == 2
    # three chunks per generator, plus the step that ends each iteration
    assert tracer.names.count("transforms.stft_row_chunks") == 2 * (3 + 1)


def test_layer_metrics_for_a_descent():
    grid = sampling.make_grid(64, 10.0)
    g = norms.default_window(grid)
    e = constants.ExponentSet.from_dict(cli._MINIMIZE_PRESETS["heisenberg"])
    init = sampling.random_smooth(sampling.RandomFunctionSpec(seed=3), grid)
    opts = variational.MinimizeOptions(max_iter=15)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        sol = variational.minimize_banach(e, g, grid, init, opts)
    m = spans.layer_metrics(tracer, 1, sum(tracer.durations()[i] for i, p in
                                           enumerate(tracer.parents) if p < 0))
    assert m["variational.descent_iters"] == sol.iterations
    assert m["variational.minimize_banach.calls"] == 1
    assert m["variational.candidates"] >= sol.iterations
    assert m["transforms.window_reuse_share"] > 0.9
    assert set(m) >= {f"{name}.self_share" for name in spans.REPORTED}
    assert math.isclose(sum(m[f"{layer}.self_share"] for layer in spans.LAYERS), 1.0, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# inputs follow the seed


def _battery_values(seed):
    wl = workloads.Battery()
    wl.build(seed)
    return [np.concatenate([x.values for x in case[4]]) for case in wl.state["blocks"][3]]


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, b, c = _battery_values(4), _battery_values(4), _battery_values(5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c, strict=True))
    s1, s2, s3 = workloads.Stream2d(), workloads.Stream2d(), workloads.Stream2d()
    s1.build(4), s2.build(4), s3.build(5)
    assert np.array_equal(s1.state["f"].values, s2.state["f"].values)
    assert not np.array_equal(s1.state["f"].values, s3.state["f"].values)


def test_seed_zero_battery_matches_the_cli_battery():
    wl = workloads.Battery()
    wl.build(0)
    per_block = {i: workloads.battery_seed_count(i) // workloads.BATTERY_BLOCKS
                 for i in certifier.INEQUALITY_IDS}
    for ineq in ("hausdorff_young", "young", "leindler", "heisenberg"):
        bat = certifier.run_battery(ineq, seeds=2 * per_block[ineq])
        mine = {(c[0], c[1], c[3]): c for block in wl.state["blocks"][:2] for c in block}
        for rep in bat.reports:
            point = next(pi for pi, p in enumerate(certifier.default_lattice(ineq))
                         if all(rep.exponents[k] == v for k, v in p.items()))
            oc = workloads._run_case(mine[(ineq, point, rep.seed)])
            assert oc.value == (rep.lhs, rep.rhs)


# ---------------------------------------------------------------------------
# the gate


def test_gate_passes_on_the_reference_and_fails_when_it_is_perturbed(ref):
    wl = workloads.Battery()
    wl.build(0)
    assert all(o.ok for o in wl.reference_outcomes(ref))
    bad = copy.deepcopy(ref)
    bad["battery"]["slack"][7] += 1e-6
    outs = wl.reference_outcomes(bad)
    assert [o.ok for o in outs].count(False) == 1 and not outs[7].ok


def test_spectrum_gate_fails_when_the_reference_is_perturbed(ref):
    wl = workloads.Spectrum()
    wl.build(0)
    bad = copy.deepcopy(ref)
    bad["spectrum"]["tabulated_2d"][2] *= 1.0 + 1e-6
    outs = wl.run_pass(0, bad)
    assert [o.label for o in outs if not o.ok] == ["tabulated_2d"]


def test_tail_is_the_eleventh_largest():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
