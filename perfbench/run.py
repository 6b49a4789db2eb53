"""Closed-loop benchmark of the metastrain pipeline: one client, seeded inputs.

    python3 perfbench/run.py --workload calibrate|spectrum|shape --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up (untimed) imports the package from
``src/``, times several fresh start-ups for ``setup_s``, and generates every
op's inputs from the seed.  The run then executes ops back to back for
``--seconds`` and gates each op's outputs.  Afterwards the default
configuration is checked once against ``reference.json``.  Times are scaled
to a fixed machine speed with the probe in ``speed.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every second op runs traced and the line carries the per-layer
metrics.  The full record (environment, op times, spans) is written to
``.perfbench_out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import envinfo

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("calibrate", "spectrum", "shape")
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10          # the tail percentile keeps this many samples beyond it
WORK_COUNT_OPS = 16       # work counts are averaged over the seed's first ops

END_TO_END = {
    "op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s", "pass_ratio": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}
FUNCTION_METRICS = {"calls": "count", "busy_s": "s", "p50_s": "s", "share": "ratio"}
RATIO_BASES = {
    "resonance_sweep.complete": "resonance_sweep.rows",
    "strain.in_range": "strain.inversions",
    "shape_deriv.tracked": "shape_deriv.modes_tracked",
}


@dataclass
class OpRecord:
    index: int
    seconds: float            # wall time of the op
    cycle_s: float            # wall time of the op and its gate
    traced: bool
    failed: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    factor: float = 1.0       # wall seconds to seconds at the reference speed


def per_layer_units(span_names, work_counts) -> dict:
    units = {}
    for name in span_names:
        for metric, unit in FUNCTION_METRICS.items():
            units[f"{name}.{metric}"] = unit
    for ratio, base in RATIO_BASES.items():
        units[f"{ratio}_ratio"] = "ratio"
        units[base] = "count"
    for count in work_counts:
        units[count] = "count"
    units["bench.unattributed_s"] = "s"
    units["bench.trace_overhead_ratio"] = "ratio"
    units["bench.span_cost_ratio"] = "ratio"
    return units


def startup_times(workload: str, seed: int, probe) -> tuple[list[float], list[float]]:
    """Launch-to-ready seconds of fresh interpreters that import the package.

    Returns the wall times and the same times at the reference speed.
    """
    wall, scaled = [], []
    before = probe()
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "startup.py"), workload,
                               str(seed)], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall.append(time.perf_counter() - start)
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"start-up probe failed with exit code {proc.returncode}")
        after = probe()
        scaled.append(wall[-1] * probe.factor(before, after))
        before = after
    return wall, scaled


def run_ops(workload: str, seed: int, seconds: float, tracer, probe) -> list[OpRecord]:
    """Warm-up op followed by the measured ops, each timed between two speed probes."""
    import metastrain
    import tracing
    import workloads as w

    _, op, gate, _ = w.WORKLOADS[workload]
    plain = tracing.make_api(metastrain, w.BENCH_CALLS)
    traced = None if tracer is None else tracing.make_api(metastrain, w.BENCH_CALLS, tracer)
    inputs = [w.make_inputs(workload, seed, i) for i in range(int(10 * seconds) + 8)]
    min_ops = 1 if tracer is None else 2

    def one(index: int, use_trace: bool) -> OpRecord:
        inp = inputs[index]
        start = time.perf_counter()
        try:
            if use_trace:
                tracer.op_id = index
                with tracer.span(tracing.OP_SPAN):
                    out = op(traced, inp)
            else:
                out = op(plain, inp)
            elapsed = time.perf_counter() - start
            failed, counts = gate(inp, out)
        except Exception as exc:  # an op that raises is counted as failed
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            failed, counts = [f"raised {type(exc).__name__}"], {}
        return OpRecord(index, elapsed, time.perf_counter() - start, use_trace, failed, counts)

    records = [one(0, False)]  # warm-up: lazy imports and first-touch costs; not reported
    if records[0].failed:
        print(f"warm-up op failed: {records[0].failed}", file=sys.stderr)
    before = probe()
    start = time.perf_counter()
    index = 1
    while True:
        if index == len(inputs):
            inputs.extend(w.make_inputs(workload, seed, i) for i in range(index, 2 * index))
        record = one(index, tracer is not None and index % 2 == 1)
        after = probe()
        record.factor = probe.factor(before, after)
        before = after
        records.append(record)
        index += 1
        if time.perf_counter() - start >= seconds and len(records) > min_ops:
            break
    return records


def tail(times: list[float]) -> tuple[float, float, int]:
    """Op time at the highest percentile with TAIL_BEYOND samples above it.

    Returns the time, its percentile and the number of samples above it.  In
    runs of fewer than 2 * TAIL_BEYOND + 1 ops that percentile falls below the
    median, so the upper median is reported instead and fewer samples lie above.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(records: list[OpRecord], setup_wall: list[float],
               setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the measured ops, times at the reference speed."""
    wall = [r.seconds for r in records]
    times = [r.seconds * r.factor for r in records]
    busy = sum(r.cycle_s * r.factor for r in records)
    passed = sum(not r.failed for r in records)
    tail_s, pct, beyond = tail(times)
    values = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": passed / busy,
        "pass_ratio": passed / len(records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_s_p50": f"wall median {statistics.median(wall):.4f} s, speed factor "
                    f"{statistics.median(r.factor for r in records):.3f}",
        "op_s_tail": f"p{pct:.1f} of {len(times)} ops, {beyond} beyond; wall {tail(wall)[0]:.4f} s",
        "ops_per_s": f"{passed} passing ops in {busy:.2f} s; wall "
                     f"{passed / sum(r.cycle_s for r in records):.4f} 1/s",
        "pass_ratio": f"fail_ratio = {len(records) - passed}/{len(records)} "
                      f"= {(len(records) - passed) / len(records):.4g}",
        "setup_s": f"median of {len(setup)} fresh start-ups; wall "
                   + ", ".join(f"{t:.3f}" for t in setup_wall),
    }
    return values, notes


def span_cost(tracer_cls, samples: int = 2000) -> float:
    """Seconds one span adds around a call, from wrapped versus plain no-op calls."""
    def noop():
        return None
    wrapped = tracer_cls().wrap("bench.noop", noop)
    best = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(samples):
            fn()
        best.append((time.perf_counter() - start) / samples)
    return max(best[1] - best[0], 0.0)


def per_layer(records: list[OpRecord], tracer, span_names, work: dict) -> tuple[dict, dict]:
    import tracing

    factor = {r.index: r.factor for r in records}
    spans = tracer.spans
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    # durations at the reference speed, with the factor of the op they belong to
    duration = {s.span_id: s.duration * factor[s.op_id] for s in spans}
    self_time = {s.span_id: duration[s.span_id]
                 - sum(duration[c.span_id] for c in children.get(s.span_id, []))
                 for s in spans}
    ops = [s for s in spans if s.name == tracing.OP_SPAN]
    op_total = sum(duration[s.span_id] for s in ops)
    n_ops = len(ops)
    values = {}
    for name in span_names:
        mine = [s.span_id for s in spans if s.name == name]
        busy = sum(self_time[i] for i in mine)
        values[f"{name}.calls"] = len(mine) / n_ops
        values[f"{name}.busy_s"] = busy / n_ops
        values[f"{name}.p50_s"] = statistics.median(duration[i] for i in mine) if mine else 0.0
        values[f"{name}.share"] = busy / op_total
    measured = records[1:]
    for ratio, base in RATIO_BASES.items():
        useful = sum(r.counts[ratio][0] for r in measured if ratio in r.counts)
        attempts = sum(r.counts[ratio][1] for r in measured if ratio in r.counts)
        values[f"{ratio}_ratio"] = useful / attempts if attempts else 0.0
        values[base] = attempts / len(measured)
    values.update(work)
    unattributed = sum(self_time[s.span_id] for s in ops)
    values["bench.unattributed_s"] = unattributed / n_ops
    traced_s = [r.seconds * r.factor for r in measured if r.traced]
    plain_s = [r.seconds * r.factor for r in measured if not r.traced]
    values["bench.trace_overhead_ratio"] = (statistics.median(traced_s)
                                            / statistics.median(plain_s) - 1.0)
    spans_per_op = (len(spans) - n_ops) / n_ops
    wall_traced = statistics.median(r.seconds for r in measured if r.traced)
    values["bench.span_cost_ratio"] = span_cost(tracing.Tracer) * spans_per_op / wall_traced
    notes = {
        "bench.unattributed_s": f"{unattributed / op_total:.2%} of traced op time",
        "bench.trace_overhead_ratio": f"median of {len(traced_s)} traced vs "
                                      f"{len(plain_s)} untraced ops",
        "bench.span_cost_ratio": f"{spans_per_op:.0f} spans per op",
    }
    for ratio, base in RATIO_BASES.items():
        notes[f"{ratio}_ratio"] = f"base {base} per op"
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metastrain" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'metastrain'}; run from the repository root "
              "of a full checkout", file=sys.stderr)
        return 2
    threads = envinfo.pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import metastrain
    import reference
    import speed
    import tracing
    import workloads as w

    if Path(metastrain.__file__).resolve().parent != SRC / "metastrain":
        print(f"error: imported metastrain from {metastrain.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    probe = speed.SpeedProbe()
    setup_wall, setup = startup_times(args.workload, args.seed, probe)
    tracer = tracing.Tracer() if args.trace else None
    records = run_ops(args.workload, args.seed, args.seconds, tracer, probe)
    measured = records[1:]
    values, notes = end_to_end(measured, setup_wall, setup)
    work_inputs = [w.make_inputs(args.workload, args.seed, i) for i in range(1, WORK_COUNT_OPS + 1)]
    work_fn = w.WORKLOADS[args.workload][3]
    work = {k: sum(work_fn(inp)[k] for inp in work_inputs) / WORK_COUNT_OPS
            for k in w.WORK_COUNTS}
    ref_failed = reference.check()
    env = envinfo.record(w.NODES)

    if args.trace:
        span_names = list(tracing.PACKAGE_CALLS) + list(w.BENCH_CALLS)
        metrics, layer_notes = per_layer(records, tracer, span_names, work)
        units = per_layer_units(span_names, w.WORK_COUNTS)
        notes.update(layer_notes)
    else:
        metrics, units = values, END_TO_END
    failed_ops = sum(bool(r.failed) for r in measured)
    correct = failed_ops == 0 and not records[0].failed and not ref_failed

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={threads} ops={len(measured)} failed={failed_ops} "
          f"reference={'ok' if not ref_failed else ','.join(ref_failed)}")
    for r in records:
        if r.failed:
            print(f"# op {r.index} failed: {', '.join(r.failed)}")
    print(f"# env {json.dumps(env)}")
    if args.trace:
        print("# end-to-end of this traced run: "
              + ", ".join(f"{k}={v:.6g}" for k, v in values.items()))
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<48s} {value:>14.6g} {units[name]:<6s} {note}".rstrip())

    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "end_to_end": values, "metrics": metrics,
              "reference_failed": ref_failed, "setup_wall_s": setup_wall,
              "ops": [vars(r) for r in records],
              "spans": tracer.records() if tracer else []}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(measured),
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
