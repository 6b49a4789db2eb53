"""Self-test of the benchmark harness.

For every workload in BENCHMARK.json it runs one op untraced and two ops
traced (one of them with spans), and checks that

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  every op passed its gate and the reference check held;
* every metric BENCHMARK.json declares for that mode is emitted, with its unit,
  and nothing else is;
* the spans of each traced op cover it: every other span is a child of an op
  span, lies inside it, children do not overlap, and less than 5% of the op's
  time is left to the benchmark itself.

It also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
UNATTRIBUTED_LIMIT = 0.05
SEED = 1


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(result: dict, declared: list, label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(wanted):
        problems.append(f"{label}: missing {sorted(set(wanted) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {name} reads {got}, declared unit {unit}")
    return problems


def check_spans(record: dict, label: str) -> list[str]:
    problems = []
    spans = record["spans"]
    ops = {s["span_id"]: s for s in spans if s["name"] == "bench.op"}
    traced = [r for r in record["ops"] if r["traced"]]
    if not ops or len(ops) != len(traced):
        problems.append(f"{label}: {len(ops)} op spans for {len(traced)} traced ops")
    children = {}
    for s in spans:
        if s["span_id"] in ops:
            continue
        if s["parent"] not in ops:
            problems.append(f"{label}: span {s['name']} has no op span as parent")
            continue
        children.setdefault(s["parent"], []).append(s)
    for op_id, op in ops.items():
        mine = sorted(children.get(op_id, []), key=lambda s: s["start"])
        if not mine:
            problems.append(f"{label}: op {op['op_id']} has no layer spans")
            continue
        if any(s["op_id"] != op["op_id"] for s in mine):
            problems.append(f"{label}: op {op['op_id']} holds spans of another op")
        if mine[0]["start"] < op["start"] or mine[-1]["end"] > op["end"]:
            problems.append(f"{label}: op {op['op_id']} spans stick out of the op")
        if any(a["end"] > b["start"] for a, b in zip(mine, mine[1:])):
            problems.append(f"{label}: op {op['op_id']} has overlapping spans")
        duration = op["end"] - op["start"]
        unattributed = duration - sum(s["end"] - s["start"] for s in mine)
        if not 0.0 <= unattributed < UNATTRIBUTED_LIMIT * duration:
            problems.append(f"{label}: op {op['op_id']} leaves {unattributed:.4f} s of "
                            f"{duration:.4f} s unattributed")
    return problems


def check_bare_directory(config: dict) -> list[str]:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in config["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = config["workloads"][0]["name"]
    proc = run_bench(bare, workload, 0)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(config)
    for workload in (w["name"] for w in config["workloads"]):
        for trace, declared in ((0, config["end_to_end"]), (1, config["per_layer"])):
            label = f"{workload}/trace{trace}"
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            problems += check_result(json.loads(proc.stdout.strip().splitlines()[-1]),
                                     declared, label)
            if trace:
                record = OUT_DIR / f"{workload}-seed{SEED}-trace1.json"
                problems += check_spans(json.loads(record.read_text()), label)
            print(f"{label}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
