#!/usr/bin/env python3
"""bench.smoke: every workload of BENCHMARK.json at its smoke length.

    python3 smoke.py <rtec_bench binary> <BENCHMARK.json>

For each workload, an untraced and a traced run must exit 0, pass every
check, and print each metric BENCHMARK.json lists (end-to-end, resp.
per-layer) with its unit, both as a `<name> <value> <unit>` line and in
the final JSON line. Smoke lengths feed no reported number.
"""

import json
import subprocess
import sys


def run_one(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--out", "smoke-out"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["last stdout line is not JSON"]
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"checks failed: {result.get('failed')} of {result.get('attempted')}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    metrics = result.get("metrics", {})
    for m in expected:
        name, unit = m["name"], m["unit"]
        if printed.get(name) != unit:
            errors.append(f"no '{name} <value> {unit}' line")
        if metrics.get(name, {}).get("unit") != unit:
            errors.append(f"'{name}' missing from the JSON result or has another unit")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"unlisted metrics: {sorted(extra)}")
    return errors


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            errors = run_one(binary, w["name"], trace, expected)
            status = "ok" if not errors else "FAILED"
            print(f"bench.smoke {w['name']} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
