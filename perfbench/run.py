#!/usr/bin/env python3
"""Benchmark of the PIM-MMU simulator's own host speed.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench_worker from source into .bench_build (the first run
compiles; later runs find it current), then runs the workload in a
fresh worker process, one repetition after another, until --seconds
have passed. Each process is single-threaded:
one simulation thread, no SweepRunner fan-out. Every repetition uses the
inputs made from --seed, checks its outputs, and reports a determinism
digest; the run fails when two repetitions disagree.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics: span self times, stats-group counts over the measured
phase, and the cost of tracing itself.

Human-readable lines go first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics. The exit code
is 0 only when every check passed.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD, "perfbench_worker")
RUNS = os.path.join(BUILD, "runs")
WORKLOADS = ("prim_timing", "soak_ff", "serve_chaos")
WORKER_TIMEOUT_S = 170

# Paper headline results (its own simulation, not hardware).
PAPER = {"sim_xfer_speedup": 4.1, "sim_energy_gain": 4.1,
         "sim_e2e_speedup": 2.2}

END_TO_END = [  # name, unit
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("sim_s_per_wall_s", "s/s"), ("req_per_wall_s", "1/s"),
    ("sim_goodput_frac", "ratio"), ("sim_p50_us", "us"),
    ("sim_p99_us", "us"), ("sim_xfer_speedup", "x"),
    ("sim_energy_gain", "x"), ("sim_e2e_speedup", "x"),
]

# Span name -> per-layer metric reporting its summed self time in ms.
SELF_MS = {
    "sim.run_transfer": "sim.run_transfer_ms",
    "sim.event_loop": "sim.event_loop_ms",
    "sim.scrub": "sim.scrub_ms",
    "sim.fingerprint": "sim.fingerprint_ms",
    "sim.ctor": "sim.ctor_ms",
    "sim.prime": "sim.prime_ms",
    "dram.store_seed": "dram.store_seed_ms",
    "dram.store_read": "dram.store_read_ms",
    "mmu.map": "mmu.map_ms",
    "resilience.verify_crc": "resilience.verify_crc_ms",
    "checkpoint.restore": "checkpoint.restore_ms",
}

PER_LAYER_UNITS = {
    "sim.events": "count", "sim.ns_per_event": "ns",
    "sim.scrub_passes": "count",
    "dram.commands": "count", "dram.row_hit_ratio": "ratio",
    "dram.stall_cycles": "cycles", "dram.bus_util_pct": "%",
    "pimch.commands": "count", "pimch.row_hit_ratio": "ratio",
    "pimch.stall_cycles": "cycles", "pimch.bus_util_pct": "%",
    "dram.store_pages": "pages",
    "dce.transfers": "count", "dce.reads_issued": "count",
    "dce.writes_issued": "count", "dce.busy_pct": "%",
    "dce.transfers_failed": "count", "dce.watchdog_resyncs": "count",
    "cpu.core_util_pct": "%", "llc.writebacks": "count",
    "llc.mshr_full_rejects": "count", "pim.mram_touched_mb": "MB",
    "mmu.translations": "count", "mmu.tlb_hit_ratio": "ratio",
    "mmu.walk_levels": "count", "mmu.faults": "count",
    "resilience.ecc_corrected": "count",
    "resilience.crc_corrupt_words": "count",
    "resilience.probe_transfers": "count",
    "resilience.readmissions": "count",
    "resilience.ranks_masked": "count",
    "resilience.healthy_dpus_min": "count",
    "serving.submit_ns_p50": "ns", "serving.submit_ns_p99": "ns",
    "serving.host_latency_us_p50": "us",
    "serving.host_latency_us_p99": "us",
    "serving.delivered": "count", "serving.rejected_overload": "count",
    "serving.rejected_quota": "count", "serving.rejected_shed": "count",
    "serving.expired": "count", "serving.retries": "count",
    "checkpoint.save_ms_p50": "ms", "checkpoint.save_ms_max": "ms",
    "checkpoint.bytes": "B",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
}
PER_LAYER_UNITS.update({m: "ms" for m in SELF_MS.values()})


def log(msg=""):
    print(msg, flush=True)


def build():
    """Configure once, then build the worker (a no-op when current)."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_worker",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit("build failed: " + " ".join(cmd))


def toolchain():
    """Compiler and build type recorded in the CMake cache."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                         line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    version = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                              "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()
    btype = cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    return (version[0] if version else "unknown"), btype


def run_worker(workload, seed, rep, traced):
    os.makedirs(RUNS, exist_ok=True)
    out = os.path.join(RUNS, f"{workload}-{seed}-{rep}.json")
    cmd = [WORKER, "--workload", workload, "--seed", str(seed),
           "--out", out, "--work-dir", RUNS]
    spans = None
    if traced:
        spans = os.path.join(RUNS, f"{workload}-{seed}.spans.json")
        cmd += ["--trace", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"worker exited with {proc.returncode}")
    with open(out) as f:
        report = json.load(f)
    os.remove(out)
    if spans:
        with open(spans) as f:
            report["spans"] = json.load(f)["spans"]
    return report


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def sim_metrics(r):
    """Simulated-time metrics of one repetition (seed-deterministic).
    Metrics that do not apply to the workload read 1.0."""
    lat = r["sim_latency_us"]
    return {
        "sim_goodput_frac": r["delivered"] / r["submitted"],
        "sim_p50_us": percentile(lat, 50),
        "sim_p99_us": percentile(lat, 99),
        "sim_xfer_speedup": r["xfer_speedup"] or 1.0,
        "sim_energy_gain": r["energy_gain"] or 1.0,
        "sim_e2e_speedup": r["e2e_speedup"] or 1.0,
    }


def end_to_end(reps):
    per = defaultdict(list)
    for r in reps:
        per["wall_s"].append(r["wall_s"])
        per["setup_s"].append(r["setup_s"])
        per["peak_rss_mb"].append(r["peak_rss_mb"])
        per["sim_s_per_wall_s"].append(r["sim_seconds"] / r["wall_s"])
        per["req_per_wall_s"].append(r["terminal"] / r["wall_s"])
        for k, v in sim_metrics(r).items():
            per[k].append(v)
    return {k: statistics.median(v) for k, v in per.items()}


def digest(r):
    d = dict(r["digest"])
    d.update(sim_metrics(r))
    return d


def kind(group_name):
    """dram.ch3 -> dram.ch: channels of one kind are summed."""
    return re.sub(r"\d+$", "", group_name)


def counter_sums(groups):
    sums = defaultdict(float)
    for g in groups:
        for key, v in g.get("counters", {}).items():
            sums[(kind(g["name"]), key)] += v
    return sums


def measured_counts(r):
    """Counter totals at the end minus what every setup segment added."""
    total = counter_sums(r["final_stats"])
    for seg in r["setup_stats"]:
        after, before = counter_sums(seg["after"]), counter_sums(seg["before"])
        for key in set(after) | set(before):
            total[key] -= after.get(key, 0) - before.get(key, 0)
    return total


def gauge_mean(r, group_kind, key):
    vals = [g["gauges"].get(key, 0.0) for g in r["final_stats"]
            if kind(g["name"]) == group_kind]
    return (statistics.fmean(vals) if vals else 0.0), len(vals)


def span_times(spans):
    """Per span name: self times (duration minus direct children; an
    async request span has none) and durations, in ns."""
    child = [0] * len(spans)
    for s in spans:
        if not s[5] and s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_ns = defaultdict(list)
    dur_ns = defaultdict(list)
    for i, s in enumerate(spans):
        self_ns[s[0]].append(s[2] - s[1] - (0 if s[5] else child[i]))
        dur_ns[s[0]].append(s[2] - s[1])
    return self_ns, dur_ns


def per_layer(r, untraced_wall, traced_wall):
    """Per-layer metrics from one traced repetition; returns
    (metrics, notes) where notes give every ratio's base."""
    c = measured_counts(r)
    self_ns, dur_ns = span_times(r["spans"])
    m, notes = {}, {}

    def ratio(name, num, den, base):
        m[name] = num / den if den else 0.0
        notes[name] = f"{num:.0f} / {den:.0f} ({base})"

    m["sim.events"] = r["events"]
    m["sim.ns_per_event"] = (untraced_wall * 1e9 / r["events"]
                             if r["events"] else 0.0)
    notes["sim.ns_per_event"] = (f"untraced wall_s {untraced_wall:.4f} s"
                                 f" / {r['events']} events")
    for span, metric in SELF_MS.items():
        m[metric] = sum(self_ns.get(span, [])) / 1e6
    m["sim.scrub_passes"] = r["scrub_passes"]

    for prefix, gk in (("dram", "dram.ch"), ("pimch", "pim.ch")):
        m[f"{prefix}.commands"] = sum(
            c[(gk, k)] for k in ("activates", "precharges", "reads",
                                 "writes", "refreshes"))
        columns = c[(gk, "reads")] + c[(gk, "writes")]
        ratio(f"{prefix}.row_hit_ratio", columns - c[(gk, "activates")],
              columns, f"column commands that needed no activate / "
              f"column commands, {gk}* summed")
        m[f"{prefix}.stall_cycles"] = sum(
            v for (g, k), v in c.items() if g == gk and k.startswith("stall_"))
        m[f"{prefix}.bus_util_pct"], n = gauge_mean(r, gk, "bus_util_pct")
        notes[f"{prefix}.bus_util_pct"] = (
            f"mean over {n} {gk}* groups, each busy/lifetime")
    m["dram.store_pages"] = r["store_pages"]

    for key in ("transfers", "reads_issued", "writes_issued",
                "transfers_failed", "watchdog_resyncs"):
        m[f"dce.{key}"] = c[("dce", key)]
    m["dce.busy_pct"], n = gauge_mean(r, "dce", "busy_pct")
    notes["dce.busy_pct"] = f"mean over {n} dce groups, busy/lifetime"
    m["cpu.core_util_pct"], n = gauge_mean(r, "cpu", "core_util_pct")
    notes["cpu.core_util_pct"] = f"mean over {n} cpu groups, busy/lifetime"
    m["llc.writebacks"] = c[("llc", "writebacks")]
    m["llc.mshr_full_rejects"] = c[("llc", "mshr_full_rejects")]
    m["pim.mram_touched_mb"] = r["mram_touched_bytes"] / 2**20

    for key in ("translations", "walk_levels", "faults"):
        m[f"mmu.{key}"] = c[("mmu", key)]
    ratio("mmu.tlb_hit_ratio", c[("mmu", "tlb_hits")],
          c[("mmu", "tlb_hits")] + c[("mmu", "tlb_misses")],
          "TLB hits / lookups")

    for key in ("ecc_corrected", "crc_corrupt_words", "probe_transfers",
                "readmissions", "ranks_masked"):
        m[f"resilience.{key}"] = c[("resilience", key)]
    m["resilience.healthy_dpus_min"] = r["healthy_dpus_min"]

    submit = self_ns.get("serving.submit", [])
    life = dur_ns.get("serving.request", [])
    m["serving.submit_ns_p50"] = percentile(submit, 50) if submit else 0.0
    m["serving.submit_ns_p99"] = percentile(submit, 99) if submit else 0.0
    m["serving.host_latency_us_p50"] = (percentile(life, 50) / 1e3
                                        if life else 0.0)
    m["serving.host_latency_us_p99"] = (percentile(life, 99) / 1e3
                                        if life else 0.0)
    notes["serving.submit_ns_p50"] = f"{len(submit)} submit calls (self time)"
    notes["serving.host_latency_us_p50"] = (
        f"{len(life)} requests, submit to completion callback")
    for key in ("delivered", "rejected_overload", "rejected_quota",
                "rejected_shed", "expired", "retries"):
        m[f"serving.{key}"] = c[("serving", key)]

    saves = dur_ns.get("checkpoint.save", [])
    m["checkpoint.save_ms_p50"] = percentile(saves, 50) / 1e6 if saves else 0.0
    m["checkpoint.save_ms_max"] = max(saves) / 1e6 if saves else 0.0
    notes["checkpoint.save_ms_p50"] = f"{len(saves)} saves"
    m["checkpoint.bytes"] = r["checkpoint_bytes"]

    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    notes["trace.overhead_frac"] = (f"traced {traced_wall:.4f} s / untraced "
                                    f"{untraced_wall:.4f} s - 1 (medians)")
    root = self_ns["workload"][0]
    ratio("trace.unattributed_frac", root, dur_ns["workload"][0],
          "ns of the traced process covered by no layer span")
    return m, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    compiler, build_type = toolchain()
    log(f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"host: nproc={os.cpu_count()} compiler='{compiler}' "
        f"build={build_type}; one simulation thread per process")

    untraced, traced = [], []
    start = time.monotonic()
    while not untraced or time.monotonic() - start < args.seconds:
        untraced.append(run_worker(args.workload, args.seed,
                                   len(untraced) + len(traced), False))
        if args.trace:
            traced.append(run_worker(args.workload, args.seed,
                                     len(untraced) + len(traced), True))
    reps = untraced + traced

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for why in r["failures"]:
            log(f"FAILED: {why}")
    ref = digest(reps[0])
    for r in reps[1:]:
        attempted += 1
        if digest(r) != ref:
            failed += 1
            log(f"FAILED: repetitions of seed {args.seed} disagree: "
                f"{digest(r)} vs {ref}")
    first = reps[0]
    log(f"repetitions: {len(untraced)} untraced, {len(traced)} traced; "
        f"untraced wall_s: "
        + " ".join(f"{r['wall_s']:.4f}" for r in untraced))
    log(f"digest: events={ref['events']} sim_ps={ref['sim_ps']} "
        f"memory_fnv={ref['memory_fnv']} stats_fnv={ref['stats_fnv']}")
    log(f"op_error_frac = {failed / attempted:.6g} "
        f"({failed} failed / {attempted} attempted; an operation is one of: "
        f"{first['op_base']}; plus one digest comparison per extra "
        f"repetition)")

    e2e = end_to_end(untraced)
    applies = {"sim_xfer_speedup", "sim_energy_gain", "sim_e2e_speedup"}
    for name, unit in END_TO_END:
        note = ""
        if name in applies and args.workload != "prim_timing":
            note = "  (n/a here: no Base comparator, reads 1.0)"
        elif name in ("sim_p50_us", "sim_p99_us"):
            note = (f"  ({len(first['sim_latency_us'])} samples, "
                    f"{first['latency_kind']})")
        elif name == "sim_goodput_frac":
            note = f"  ({first['delivered']} delivered / " \
                   f"{first['submitted']} submitted)"
        elif name == "req_per_wall_s":
            note = f"  ({first['terminal']} terminal operations per run)"
        log(f"  {name:18s} {e2e[name]:.6g} {unit}{note}")
    if args.workload == "prim_timing":
        log("reference: the paper's own simulation results, not hardware; "
            "this model is otherwise unvalidated")
        for name, paper in PAPER.items():
            err = (e2e[name] - paper) / paper
            log(f"  {name:18s} model {e2e[name]:.3f}x  paper {paper}x  "
                f"error {err:+.1%}")

    if args.trace:
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics, notes = per_layer(traced[-1], untraced_wall, traced_wall)
        for name, value in metrics.items():
            extra = f"  ({notes[name]})" if name in notes else ""
            log(f"  {name:30s} {value:.6g} {PER_LAYER_UNITS[name]}{extra}")
        out = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
               for k, v in metrics.items()}
    else:
        out = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
