"""Self-test of the repo benchmark: python3 perfbench/run.py --self-test

1. The benchmark's sources bind to no entry point that the ROADMAP's
   open items delete (the sharded kernel, the TCP campaign fabric, the
   process-global trace bus, the named protocol callback types).
2. Every workload, at tiny scale, traced and untraced, passes its checks
   and prints exactly the metrics BENCHMARK.json names, with their units.

Exit code 0 when both hold, 1 otherwise.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELF = os.path.basename(__file__)
# Substrings no benchmark source may contain.  Case matters: CMake's
# Threads package (the pthread library) is not the kernel's knob.
BANNED = ("threads", "kernel()", "ShardedEventQueue", "attachDataPlane",
          "trace::", "net/", "coordinator", "Coordinator", "worker",
          "Worker", "sys.kernel_", "LoadDone", "StoreDone")


def banned_mentions():
    found = []
    for name in sorted(os.listdir(HERE)):
        if name == SELF or not re.search(r"\.(cc|hh|py|txt)$", name):
            continue
        with open(os.path.join(HERE, name)) as f:
            for n, line in enumerate(f, 1):
                for word in BANNED:
                    if word in line:
                        found.append(f"{name}:{n}: mentions {word!r}")
    return found


def schema_errors(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace",
           str(trace), "--quick"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: checks failed")
    want = bench["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in want}:
        errors.append(f"{where}: metrics {sorted(set(got) ^ {m['name'] for m in want})} "
                      "are not exactly BENCHMARK.json's")
    for m in want:
        v = got.get(m["name"], {})
        if v.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {v.get('unit')!r}, "
                          f"want {m['unit']!r}")
        value = v.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} value {value!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = banned_mentions()
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors += schema_errors(bench, w["name"], trace)
            print(f"self-test: {w['name']} --trace {trace} done",
                  file=sys.stderr, flush=True)
    for e in errors:
        print("SELF-TEST FAILED: " + e)
    print("self-test: " + ("ok" if not errors else f"{len(errors)} errors"))
    return 0 if not errors else 1
