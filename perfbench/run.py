#!/usr/bin/env python3
"""tfuncert benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Workloads: battery, stream2d, descent, spectrum (``all`` runs each in turn).
With ``--trace 0`` the run prints setup_s, wall_s, cpu_s, peak_rss_mb and
fail_frac for the workload; with ``--trace 1`` it alternates untraced and
traced passes over the same inputs and prints the per-layer metrics.  Every
result is checked (see workloads.py); a failed check counts in fail_frac and
its pass is never reported as a time.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Full results,
with machine facts, sizes and samples, go to ``.bench_results/`` in the
checkout; a traced run also writes its spans there as JSON lines.

``--workload all --record-reference`` re-records perfbench/reference.json,
the numbers the checks compare against.  Record it only on a commit whose
numbers are the accepted baseline.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_results"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("battery", "stream2d", "descent", "spectrum")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 175


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: list


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record perfbench/reference.json and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(samples: list[float], unit: str) -> str:
    if not samples:
        return "no samples"
    text = f"median {statistics.median(samples):.4g} {unit}"
    t = tail(samples)
    text += (f", p{t[0]:.3g} {t[1]:.4g} {unit} (10 samples beyond)" if t
             else ", no percentile with 10 samples beyond")
    return text + f", n={len(samples)}"


# ---------------------------------------------------------------------------
# measuring


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def timed_pass(wl, index: int, ref: dict) -> Pass:
    w0, c0 = time.perf_counter(), time.process_time()
    outs = wl.run_pass(index, ref)
    return Pass(time.perf_counter() - w0, time.process_time() - c0, outs)


def traced_pass(wl, index: int, ref: dict, tracer) -> Pass:
    import spans

    tracer.begin_pass()
    with spans.traced(tracer):
        return timed_pass(wl, index, ref)


def run_passes(wl, ref: dict, seconds: float, tracer=None, between=None):
    """Repeat passes until one more would end after ``seconds``; at least one.

    With a ``tracer``, every step runs the same pass twice, untraced and
    traced, in alternating order, and a traced result that differs from the
    untraced one fails.  Returns (untraced passes, traced passes).
    ``between(share)`` runs before each step with the share of ``seconds``
    spent so far; its own time is not counted.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    busy = 0.0
    index = 0
    while True:
        if between is not None:
            between(busy / seconds)
        t0 = time.perf_counter()
        if tracer is None:
            plain.append(timed_pass(wl, index, ref))
            cycle = [p.wall for p in plain]
        else:
            first_traced = index % 2 == 1
            if first_traced:
                traced.append(traced_pass(wl, index, ref, tracer))
            plain.append(timed_pass(wl, index, ref))
            if not first_traced:
                traced.append(traced_pass(wl, index, ref, tracer))
            for a, b in zip(plain[-1].outcomes, traced[-1].outcomes, strict=True):
                if a.value != b.value:
                    b.ok = False
                    b.detail = f"traced result {b.value!r} differs from untraced {a.value!r}"
            cycle = [p.wall + q.wall for p, q in zip(plain, traced)]
        busy += time.perf_counter() - t0
        index += 1
        if busy + statistics.median(cycle) > seconds:
            return plain, traced


def good(passes: list[Pass]) -> list[Pass]:
    return [p for p in passes if all(o.ok for o in p.outcomes)]


def end_to_end(wl, seed: int, seconds: float, ref: dict, report: dict) -> dict:
    wl.build(seed)
    report["reference_outcomes"] = wl.reference_outcomes(ref)
    setup: list[float] = []

    def probe(share: float) -> None:
        # fresh-process set-up samples, spread over the run so that they meet
        # the machine in the same state as the passes
        while len(setup) < min(SETUP_PROBES, 1 + (SETUP_PROBES - 1) * share):
            setup.append(probe_setup(wl.name, seed))

    passes, _ = run_passes(wl, ref, seconds, between=probe)
    probe(1.0)
    report["passes"] = passes
    ok = good(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["samples"] = {"setup_s": setup, "wall_s": [p.wall for p in ok],
                         "cpu_s": [p.cpu for p in ok]}
    if not ok:
        return {}
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(p.wall for p in ok), "unit": "s"},
        "cpu_s": {"value": statistics.median(p.cpu for p in ok), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def per_layer(wl, seed: int, seconds: float, ref: dict, report: dict) -> dict:
    import spans

    wl.build(seed)
    report["reference_outcomes"] = wl.reference_outcomes(ref)
    tracer = spans.Tracer()
    plain, traced = run_passes(wl, ref, seconds, tracer)
    report["passes"] = plain + traced
    report["tracer"] = tracer
    traced_ns = sum(round(p.wall * 1e9) for p in traced)
    values = spans.layer_metrics(tracer, len(traced), traced_ns)
    values["bench.trace_overhead_frac"] = (
        sum(p.wall for p in traced) / sum(p.wall for p in plain) - 1.0)
    values["bench.uncovered_share"] = 1.0 - tracer.root_ns() / traced_ns
    values["bench.traced_pass_s"] = statistics.median(p.wall for p in traced)
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".rows", ".entries_computed", ".certs", ".descent_iters",
                      ".candidates")):
        return "count"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


# ---------------------------------------------------------------------------
# output


def summary_lines(name: str, report: dict, metrics: dict, attempted: int, failed: int):
    facts, sizes = report["machine"], report["sizes"]
    yield f"[{name}] machine {json.dumps(facts, sort_keys=True)}"
    yield (f"[{name}] sizes {json.dumps(sizes, sort_keys=True)} "
           f"(caches {json.dumps(facts['caches'], sort_keys=True)})")
    samples = report.get("samples")
    if samples:
        yield f"[{name}] setup_s {describe(samples['setup_s'], 's')} (fresh processes)"
        yield f"[{name}] wall_s {describe(samples['wall_s'], 's')} (passes)"
        yield f"[{name}] cpu_s {describe(samples['cpu_s'], 's')} (passes)"
        if "peak_rss_mb" in metrics:
            yield f"[{name}] peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MiB"
        op_times = [o.seconds for p in report["passes"] for o in p.outcomes
                    if o.ok and o.seconds is not None]
        yield f"[{name}] op latency {describe([t * 1e3 for t in op_times], 'ms')}"
    else:
        for metric, entry in metrics.items():
            yield f"[{name}] {metric} {entry['value']:.6g} {entry['unit']}"
    frac = failed / attempted if attempted else 0.0
    yield f"[{name}] fail_frac {frac:.6g} ratio ({failed} of {attempted} operations failed)"


def write_report(name: str, seed: int, trace: int, report: dict, result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{trace}"
    passes = [{"wall_s": p.wall, "cpu_s": p.cpu,
               "ops": [[o.label, o.ok, o.seconds, o.detail] for o in p.outcomes]}
              for p in report["passes"]]
    body = {key: report[key] for key in ("machine", "sizes", "samples") if key in report}
    body.update(result=result, passes=passes,
                reference_ops=[[o.label, o.ok, o.detail] for o in report["reference_outcomes"]])
    stem.with_suffix(".json").write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    tracer = report.get("tracer")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans():
                fh.write(json.dumps(span) + "\n")


def run_one(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.build(args.seed)
        print("ready", flush=True)
        return 0
    import machine

    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    report = {"machine": machine.machine_facts(ROOT), "sizes": wl.sizes()}
    measure = per_layer if args.trace else end_to_end
    metrics = measure(wl, args.seed, args.seconds, ref, report)
    outcomes = report["reference_outcomes"] + [o for p in report["passes"] for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    for o in outcomes:
        if not o.ok:
            print(f"[{wl.name}] FAILED {o.label}: {o.detail}", file=sys.stderr)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(outcomes),
              "failed": failed, "metrics": metrics}
    for line in summary_lines(wl.name, report, metrics, len(outcomes), failed):
        print(line)
    write_report(wl.name, args.seed, args.trace, report, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            lines = []
            for line in proc.stdout:
                lines.append(line.rstrip("\n"))
                if not line.startswith("{"):
                    print(line, end="", flush=True)
            proc.wait(timeout=RUN_TIMEOUT_S)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= bool(res["correct"]) and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def record_reference() -> int:
    import workloads

    ref = {}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]()
        wl.build(0)
        recorded = wl.record_reference()
        if recorded is not None:
            ref[name] = recorded
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tfuncert" / "__init__.py").is_file():
        print(f"perfbench: no tfuncert source at {SRC.relative_to(ROOT)}/tfuncert; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
