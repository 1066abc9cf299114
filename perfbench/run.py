#!/usr/bin/env python3
"""The repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the simulator library under src/) from source,
runs one workload for --seconds, checks its outputs, and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics; the traced run also writes a span file.

Exit codes: 0 = every check passed, 1 = a check failed, 2 = the build
or the measuring binary failed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig11", "persist-heavy", "crash-audit")
# Time limits: a build from scratch, the measuring binary, one probe.
BUILD_LIMIT_S = 850
MEASURE_LIMIT_S = 150
PROBE_LIMIT_S = 10
# Fig. 11 gmeans over all benchmarks, normalised to the SLC baseline
# (the paper's numbers as EXPERIMENTS.md quotes them).
PAPER_FIG11 = {"hwrp": 1.07, "tsoper": 1.10, "bsp": 1.22, "stw": 1.53}

# Per-layer counters: metric name -> statistics counter, summed over
# the workload's cells.
COUNTERS = {
    "core.cpu.sb_full_stalls": "cpu.sb_full_stalls",
    "core.cpu.sb_line_stalls": "cpu.sb_line_stalls",
    "core.agb.lines_buffered": "agb.lines_buffered",
    "core.agb.alloc_stall_cycles": "agb.alloc_stall_cycles",
    "core.ag.persisted": "ag.persisted",
    "core.ag.freeze_remote": "ag.freeze_remote",
    "core.ag.store_blocks": "ag.store_blocks",
    "core.stw.stall_cycles": "stw.stall_cycles",
    "core.bsp.l1_exclusion_cycles": "bsp.l1_exclusion_cycles",
    "core.bsp.llc_exclusion_cycles": "bsp.llc_exclusion_cycles",
    "core.sys.drain_cycles": "sys.drain_cycles",
    "coherence.slc.misses": "slc.misses",
    "coherence.slc.upgrades": "slc.upgrades",
    "coherence.mesi.misses": "mesi.misses",
    "coherence.mshr.full_stalls": "mshr.full_stalls",
    "coherence.dir.evictions": "dir.evictions",
    "noc.messages": "noc.messages",
    "noc.bytes": "noc.bytes",
    "noc.link_wait_cycles": "noc.link_wait_cycles",
    "mem.llc.installs": "llc.installs",
    "mem.nvm.reads": "nvm.reads",
    "mem.nvm.writes_done": "nvm.writes_done",
    "mem.nvm.rank_wait_cycles": "nvm.rank_wait_cycles",
}
# Host seconds per traced pass: metric name -> span name.
CALL_SPANS = {
    "workload.gen_s": "workload.generate",
    "core.ctor_s": "core.System",
    "core.run_s": "core.run",
    "core.crash_run_s": "core.runUntilCrash",
    "core.recover_s": "core.recover",
    "sim.stats_json_s": "sim.statsToJson",
}
# Host ns per operation of a bare layer drive: metric -> span name.
DRIVE_SPANS = {
    "core.agb_ns_per_line": "drive.agb",
    "coherence.slc_ns_per_op": "drive.slc",
    "coherence.mesi_ns_per_op": "drive.mesi",
    "noc.route_ns": "drive.mesh",
    "mem.llc_access_ns": "drive.llc",
    "mem.nvm_ns": "drive.nvm",
    "mem.sb_ns": "drive.storebuffer",
    "sim.kernel_ns_per_event": "drive.eventqueue",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def out_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(deadline):
    """Configure and build perfbench; return the binary's path."""
    bdir = os.path.join(out_dir(), "perfbench")
    steps = [["cmake", "--build", bdir, "-j",
              str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(1, deadline - time.time()),
                                check=False).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {' '.join(cmd)}: {e}")
            return None
        if rc != 0:
            log(f"perfbench: {' '.join(cmd)} exited {rc}")
            return None
    return os.path.join(bdir, "perfbench")


def median(v):
    return statistics.median(v)


def percentile(v, q):
    """Linear-interpolated q-th percentile of v."""
    s = sorted(v)
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def gmean(v):
    return math.exp(sum(math.log(x) for x in v) / len(v))


def engine_gmeans(raw):
    """Per engine: gmean over its benchmarks of exec cycles / baseline
    exec cycles.  A failed run has 0 cycles; an engine with any failed
    run, or with a failed baseline under it, is left out."""
    rows = raw["cells"] + raw["references"]
    base = {r["bench"]: r["cycles"] for r in rows
            if r["engine"] == "baseline"}
    ratios, broken = {}, set()
    for r in raw["cells"]:
        e = r["engine"]
        if e == "baseline":
            continue
        if r["cycles"] > 0 and base.get(r["bench"], 0) > 0:
            ratios.setdefault(e, []).append(r["cycles"] / base[r["bench"]])
        else:
            broken.add(e)
    return {e: gmean(v) for e, v in ratios.items() if e not in broken}


def check_orderings(raw):
    """EXPERIMENTS.md's Fig. 11 claims: HW-RP <= TSOPER < BSP < STW in
    gmean, and STW slowest on every benchmark.  A claim that a failed
    run leaves undecided counts as violated.  Returns (checks,
    violations)."""
    g = engine_gmeans(raw)

    def below(a, b, strict):
        if a not in g or b not in g:
            return False
        return g[a] < g[b] if strict else g[a] <= g[b]

    checks = [("gmean HW-RP <= TSOPER", below("hwrp", "tsoper", False)),
              ("gmean TSOPER < BSP", below("tsoper", "bsp", True)),
              ("gmean BSP < STW", below("bsp", "stw", True))]
    by_bench = {}
    for r in raw["cells"]:
        by_bench.setdefault(r["bench"], {})[r["engine"]] = r["cycles"]
    for bench, cyc in sorted(by_bench.items()):
        others = [c for e, c in cyc.items() if e != "stw"]
        ok = min(cyc.values()) > 0 and cyc.get("stw", 0) > max(others)
        checks.append((f"STW slowest on {bench}", ok))
    return len(checks), [name for name, ok in checks if not ok]


def fastest(plain, key):
    """Each cell's fastest sample of `key` over the passes."""
    return [min(p[key][i] for p in plain)
            for i in range(len(plain[0][key]))]


def end_to_end(raw, plain):
    # Other tenants only ever add time, so each cell's fastest run of
    # the window is its least disturbed time (README.md, "Host noise").
    cell_ms = [s * 1e3 for s in fastest(plain, "cell_s")]
    m = {
        "setup_s": (sum(fastest(plain, "cell_setup_s")), "s"),
        "wall_s": (sum(cell_ms) / 1e3, "s"),
        "cell_ms_p50": (median(cell_ms), "ms"),
        "cell_ms_p90": (percentile(cell_ms, 90), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "sim_cycles": (sum(c["sim_cycles"] for c in raw["cells"]),
                       "cycles"),
    }
    # The ratio metrics are left out when a failed run leaves them
    # undefined; the run is then reported as incorrect anyway.
    g = engine_gmeans(raw)
    if "tsoper" in g:
        m["tsoper_norm"] = (g["tsoper"], "ratio")
    present = [e for e in PAPER_FIG11 if e in g]
    if present:
        m["paper_err"] = (sum(abs(g[e] / PAPER_FIG11[e] - 1)
                              for e in present) / len(present), "ratio")
    return m, {"cells": len(cell_ms), "passes": len(plain),
               "paper_err systems": ",".join(present)}


def root_of(spans):
    """Map span id -> id of the root span above it."""
    root = {}
    for s in spans:  # parents precede children
        root[s["id"]] = s["id"] if s["parent"] < 0 else root[s["parent"]]
    return root


def self_times(spans):
    """Span name -> summed self time (s): duration minus the union of
    its children's intervals."""
    kids = {}
    for s in spans:
        if s["parent"] >= 0:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, edge = 0, s["start"]
        for a, b in sorted(kids.get(s["id"], [])):
            a, b = max(a, edge), min(b, s["end"])
            if b > a:
                covered += b - a
                edge = b
        out[s["name"]] = (out.get(s["name"], 0)
                          + (s["end"] - s["start"] - covered) / 1e9)
    return out


def per_layer(raw, plain, traced, pool, spans):
    root = root_of(spans)
    by_id = {s["id"]: s for s in spans}
    per_pass = {}  # pass span id -> {name: seconds}
    drive = {}     # span name -> [ns, ops]
    rounds = {}    # runone.round id -> {name: seconds}
    for s in spans:
        dur = s["end"] - s["start"]
        top = by_id[root[s["id"]]]
        if top["name"] == "pass":
            d = per_pass.setdefault(top["id"], {})
            d[s["name"]] = d.get(s["name"], 0) + dur / 1e9
        elif top["name"] == "runone.round" and s["id"] != top["id"]:
            d = rounds.setdefault(top["id"], {})
            d[s["name"]] = d.get(s["name"], 0) + dur / 1e9
        if s["name"].startswith("drive."):
            acc = drive.setdefault(s["name"], [0, 0])
            acc[0] += dur
            acc[1] += s["ops"]

    m = {}
    for metric, name in CALL_SPANS.items():
        m[metric] = (median([d.get(name, 0.0) for d in per_pass.values()]),
                     "s")
    for metric, name in DRIVE_SPANS.items():
        ns, ops = drive.get(name, (0, 0))
        m[metric] = (ns / ops if ops else 0.0,
                     "ns/event" if name == "drive.eventqueue"
                     else "ns/line" if name == "drive.agb" else "ns/op")
    counters = raw["stats"]["counters"]
    for metric, name in COUNTERS.items():
        m[metric] = (counters.get(name, 0),
                     "cycles" if name.endswith("cycles")
                     else "bytes" if name.endswith("bytes") else "count")
    h = raw["stats"]["histograms"].get("slc.persist_list_len")
    m["coherence.slc.persist_list_len_mean"] = (
        h["total"] / h["samples"] if h and h["samples"] else 0.0, "nodes")
    events = sum(c["events"] for c in raw["cells"])
    m["sim.events"] = (events, "count")
    host_run = m["core.run_s"][0] + m["core.crash_run_s"][0]
    m["sim.ns_per_event"] = (host_run * 1e9 / events if events else 0.0,
                             "ns/event")
    m["sim.audit_s"] = (median([d["runone.audit"] - d["runone.off"]
                                for d in rounds.values()]), "s")
    m["sim.trace_on_ratio"] = (median([d["runone.trace"] / d["runone.off"]
                                       for d in rounds.values()]), "ratio")
    # The pool's idle and imbalance time, from its own cell times; its
    # efficiency against the cells' times when run one at a time, so
    # that contention between concurrent Systems lowers it too.
    m["campaign.overhead_s"] = (median(
        [p["wall_s"] - sum(p["cell_s"]) / p["jobs"] for p in pool]), "s")
    alone = median([sum(p["cell_s"]) for p in plain])
    m["campaign.parallel_eff"] = (median(
        [alone / (p["jobs"] * p["wall_s"]) for p in pool]), "ratio")
    m["bench.trace_overhead"] = (
        median([p["wall_s"] for p in traced])
        / median([p["wall_s"] for p in plain]), "ratio")
    m["fail_frac"] = (raw["failed"] / raw["attempted"], "ratio")
    return m, self_times([s for s in spans
                          if by_id[root[s["id"]]]["name"] == "pass"])


def probe(binary):
    """The host-speed probe, in a process of its own so that its memory
    stays out of the measured process's peak."""
    try:
        proc = subprocess.run([binary, "--probe"], capture_output=True,
                              text=True, timeout=PROBE_LIMIT_S, check=True)
        return json.loads(proc.stdout)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"perfbench: probe: {e}")
        return None


def provenance(raw, args, probes):
    def git(*cmd):
        try:
            return subprocess.run(["git", "-C", ROOT, *cmd],
                                  capture_output=True, text=True,
                                  timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
    sha = git("rev-parse", "HEAD")
    if sha and git("status", "--porcelain"):
        sha += "-dirty"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha or "unknown (not a git checkout)",
            "nproc": os.cpu_count(), "cpu": cpu,
            "build_type": raw["build_type"], "seed": args.seed,
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "probe_before": probes[0], "probe_after": probes[1]}


def measure(args):
    binary = build(time.time() + BUILD_LIMIT_S)
    if binary is None:
        return 2
    odir = os.path.join(out_dir(), "perfbench-out")
    os.makedirs(odir, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    spans_path = os.path.join(odir, stem + ".spans.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--spans={spans_path}"]
    if args.trace:
        cmd.append("--trace")
    if args.quick:
        cmd.append("--quick")
    probe_before = probe(binary)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=MEASURE_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: measuring binary ran out of time")
        return 2
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        log(f"perfbench: measuring binary exited {proc.returncode}")
        return 2
    probes = (probe_before, probe(binary))
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(odir, stem + ".raw.json"), "w") as f:
        json.dump(raw, f)

    attempted, failed = raw["attempted"], raw["failed"]
    failures = list(raw["failures"])
    if args.workload == "fig11":
        n, bad = check_orderings(raw)
        attempted += n
        failed += len(bad)
        failures += bad
    raw["attempted"], raw["failed"] = attempted, failed

    plain = [p for p in raw["passes"]
             if not p["traced"] and p["jobs"] == 1]
    traced = [p for p in raw["passes"] if p["traced"]]
    pool = [p for p in raw["passes"] if p["jobs"] > 1]
    print("provenance " + json.dumps(provenance(raw, args, probes)))
    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)["spans"]
        metrics, selft = per_layer(raw, plain, traced, pool, spans)
        print(f"span file: {os.path.relpath(spans_path, ROOT)}")
        print(f"self time per traced pass ({len(traced)} passes):")
        for name, s in sorted(selft.items(), key=lambda kv: -kv[1]):
            print(f"  {name:24s} {s / len(traced):10.4f} s")
    else:
        metrics, counts = end_to_end(raw, plain)
        print("samples " + json.dumps(counts))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"fail_frac {failed}/{attempted}")
    for why in failures:
        print(f"FAILED: {why}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny scales, for the self-test")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        import selftest
        return selftest.main()
    if not args.workload:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
