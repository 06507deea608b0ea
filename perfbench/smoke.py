#!/usr/bin/env python3
"""Smoke test of the benchmark itself: runs every workload of BENCHMARK.json
once untraced and once traced on the miniature config and checks that each
run passes its output checks and prints every named metric with its unit.

    python3 perfbench/smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [*spec["command"], "--workload", workload, "--seed", "5", "--seconds", "0",
                   "--trace", str(trace), "--mini"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: output checks failed\n{proc.stderr}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(n for n in set(got) & set(want) if got[n] != want[n])}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)]
            if bad:
                problems.append(f"{label}: non-numeric values for {bad}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
