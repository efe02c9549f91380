#!/usr/bin/env python3
"""Repository benchmark: HLS-C source to fault-campaign report, end to end.

Builds the hlsav library, hlsavd, hlsavc and the `perfbench` measuring
process from the sources next to this directory (into .bench_build/),
runs one workload for a fixed window, checks every op's output against a
reference, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with times scaled
to a reference host speed (see CAL_REF_MS); with --trace 1 a
separate traced run reports the per-layer ones (span self times, exact
counts, daemon phase times) and writes its spans as a Chrome trace under
.bench_build/traces/, validated with `hlsavc checktrace`.

Usage:
    python3 perfbench/run.py --workload campaign_3des --seed 1 --seconds 20 --trace 0
    python3 perfbench/selftest.py        # exact-count and reference self-test
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT, which is the working directory
WORKLOADS = ("campaign_3des", "campaign_edge", "service_sharded", "first_run_cold")
# Allowance on top of the measuring window for set-up and the final op.
HARNESS_SLACK_S = 120
# End-to-end times are reported at a reference host speed: that of a host
# on which perfbench's calibration kernel takes CAL_REF_MS at best. The
# kernel runs before every set-up and every op. Other tenants of a shared
# host slow it about as much as they slow the ops: on a 4-vCPU Xeon VM the
# best op time of a 23-run series moved up to 2x, its ratio to the best
# kernel time 1.3x at most. So each time is multiplied by CAL_REF_MS over
# the kernel time measured next to it, and compares across runs taken
# minutes or hours apart. Raw wall times are in the traced run's metrics.
CAL_REF_MS = 15.0

# Span name -> per-layer metric (median over traced ops of the per-op
# sum of the span's self time).
LAYER_SPANS = (
    "lang.parse", "lang.sema", "ir.lower", "ir.verify", "assertions.synthesize",
    "sched.schedule", "pipeline.compile", "rtl.netlist", "fpga.estimate", "codegen.emit",
    "codegen.prepare_cold", "codegen.prepare_warm", "sim.construct", "sim.run",
    "sim.pre_sites", "sim.render",
)
# Exact per-op counts the traced op reports (0 where a layer is unused).
COUNTS = (
    "codegen.emit_bytes", "codegen.procs_compiled", "codegen.procs_declined",
    "codegen.cache_objects", "codegen.cache_bytes", "sim.golden_cycles", "sim.engine_active",
    "sim.sites", "sim.site_cycles", "sim.hang_timeout_sites", "sim.hang_timeout_cycles",
)
OUTCOMES = (
    "benign", "detected", "silent-corruption", "hang-detected", "hang-timeout",
    "budget-exceeded", "worker-crashed",
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Runs a build step with its output on stderr (stdout stays clean)."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=False, **kw)


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log(f"perfbench: {need} not found next to the benchmark; nothing to build")
            return False
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"]).returncode
        if rc != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    rc = run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "hlsavd", "hlsavc",
                    "-j", jobs]).returncode
    return rc == 0


def compiler_version(cc):
    if not cc:
        return "none"
    try:
        out = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=30)
        return (out.stdout.splitlines() or ["unknown"])[0]
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_harness(args, scratch, out_path, trace_path):
    """Runs the measuring process as the leader of a new process group
    (setsid); kills whatever is left of that group afterwards and waits."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch,
           "--hlsavd", os.path.join(BUILD, "tools", "hlsavd"),
           "--out", out_path]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    env = dict(os.environ)
    # Nothing leaks out of the scratch directory: host `cc` temporaries
    # and any ambient JIT cache use land there too.
    env["TMPDIR"] = os.path.abspath(os.path.join(ROOT, scratch, "tmp"))
    env["HLSAV_CACHE_DIR"] = os.path.abspath(os.path.join(ROOT, scratch, "ambient-cache"))
    env.pop("HLSAV_CC", None)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(ROOT, scratch, "harness.log"), "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=err, stderr=err,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=args.seconds + HARNESS_SLACK_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
    if rc != 0:
        with open(os.path.join(ROOT, scratch, "harness.log")) as f:
            tail = f.read().splitlines()[-40:]
        log("perfbench: measuring process " +
            ("timed out" if rc is None else f"exited with {rc}"))
        for line in tail:
            log("  " + line)
        return False
    return True


# ------------------------------------------------------------ reduction --

def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(values, k=3):
    """Mean of the k smallest values: the run's least-disturbed samples,
    since contention from other tenants only ever slows work down, but
    steadier than the single minimum."""
    return statistics.mean(sorted(values)[:k])


def self_times(spans):
    """Per-span self time (us): its duration minus the part its children
    cover (one thread records them, so children never overlap)."""
    covered = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][3], spans[parent][4]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [max(0.0, (s[4] - s[3]) - c) for s, c in zip(spans, covered)]


def layer_metrics(raw):
    spans = raw["spans"]
    selfs = self_times(spans)
    traced_ops = sorted({op for (_, op, _, _, _) in spans})
    per_op = {}  # (name, op) -> summed self ms
    for (name, op, _, _, _), us in zip(spans, selfs):
        per_op[(name, op)] = per_op.get((name, op), 0.0) + us / 1000.0
    m = {}
    for name in LAYER_SPANS:
        vals = [per_op.get((name, op), 0.0) for op in traced_ops]
        m[name + "_ms"] = (median(vals), "ms")
    counts = raw["counts"]
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    # The measuring process tallies every fault_outcome_name, including
    # outcomes added after this list was written.
    for name in {"sim.outcome." + o for o in OUTCOMES} | {
            k for k in counts if k.startswith("sim.outcome.")}:
        m[name] = (counts.get(name, 0), "count")

    sites = raw["sites"]  # [op, ms, cycles, outcome]
    site_ms = [s[1] for s in sites]
    m["sim.site_ms_p50"] = (percentile(site_ms, 50), "ms")
    m["sim.site_ms_p99"] = (percentile(site_ms, 99), "ms")
    total_ms = sum(site_ms)
    m["sim.site_mcycles_per_s"] = (
        sum(s[2] for s in sites) / total_ms / 1000.0 if total_ms > 0 else 0.0, "Mcycles/s")
    hang = {}
    for op, ms, _, outcome in sites:
        if outcome == "hang-timeout":
            hang[op] = hang.get(op, 0.0) + ms
    site_ops = sorted({s[0] for s in sites})
    m["sim.hang_timeout_ms"] = (median([hang.get(op, 0.0) for op in site_ops]), "ms")
    return m


def service_metrics(raw):
    """Daemon-side phases from the span tree hlsavd already records
    (pid = job, tid 1 = queued/run/compile/shard/merge, tid 10+w = worker
    w's site spans) and its metrics counters. All 0 off the service."""
    events, counters = [], {}
    if raw["daemon_trace"]:
        with open(os.path.join(ROOT, raw["daemon_trace"])) as f:
            events = json.load(f)["traceEvents"]
        with open(os.path.join(ROOT, raw["daemon_metrics"])) as f:
            counters = json.load(f).get("counters", {})
    jobs = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        jobs.setdefault(e["pid"], []).append(e)
    queued, compile_, shard, merge, outside, startup, tail, site = [], [], [], [], [], [], [], []
    for evs in jobs.values():
        life = {e["name"]: e for e in evs if e["tid"] == 1}
        if not all(k in life for k in ("queued", "run", "shard")):
            continue
        queued.append(life["queued"]["dur"] / 1000.0)
        shard.append(life["shard"]["dur"] / 1000.0)
        outside.append((life["run"]["dur"] - life["shard"]["dur"]) / 1000.0)
        if "compile" in life:
            compile_.append(life["compile"]["dur"] / 1000.0)
        if "merge" in life:
            merge.append(life["merge"]["dur"] / 1000.0)
        s0 = life["shard"]["ts"]
        s1 = s0 + life["shard"]["dur"]
        workers = {}
        for e in evs:
            if e["tid"] >= 10:
                workers.setdefault(e["tid"], []).append(e)
                site.append(e["dur"] / 1000.0)
        startup.append(sum(min(e["ts"] for e in w) - s0 for w in workers.values()) / 1000.0)
        tail.append(sum(s1 - max(e["ts"] + e["dur"] for e in w) for w in workers.values())
                    / 1000.0)
    m = {}
    m["serve.queue_wait_ms_p50"] = (median(queued), "ms")
    m["serve.compile_ms"] = (median(compile_), "ms")
    m["serve.shard_ms"] = (median(shard), "ms")
    m["serve.merge_ms"] = (median(merge), "ms")
    m["serve.outside_shard_ms"] = (median(outside), "ms")
    m["serve.worker_startup_ms"] = (median(startup), "ms")
    m["serve.worker_tail_idle_ms"] = (median(tail), "ms")
    m["serve.site_ms_p50"] = (percentile(site, 50), "ms")
    m["serve.site_ms_p99"] = (percentile(site, 99), "ms")
    m["serve.respawns"] = (counters.get("worker_respawns", 0), "count")
    done = counters.get("jobs_completed", 0)
    m["serve.journal_bytes"] = (counters.get("journal_bytes", 0) / done if done else 0, "count")
    return m


def reduce(args, raw):
    ops = raw["ops"]  # [ms, ok, traced, sites, calibration ms, [part ms]], in run order
    plain = [o for o in ops if not o[2]]
    plain_ms = [o[0] for o in plain]
    failed = sum(1 for o in ops if not o[1])
    if args.trace == 0:
        rss_kb = raw["peak_rss_kb"]
        if args.workload == "service_sharded":
            rss_kb = max(rss_kb, raw["daemon_rss_kb"])
        # The fastest ops after the first (warm-up) one over the fastest
        # calibration runs (best-of-N, as the repository's own bench
        # harnesses take it). An op made of independent parts (designs,
        # campaigns) sums each part's fastest times, so one quiet stretch
        # need not cover a whole op.
        steady = plain[1:] or plain
        best_cal = fastest([o[4] for o in steady])
        best_op = sum(fastest(parts) for parts in zip(*[o[5] or [o[0]] for o in steady]))
        # Each set-up against the calibration run just before it.
        setups = [s * CAL_REF_MS / c for s, c in zip(raw["setup_s"], raw["setup_cal_ms"])]
        m = {
            "setup_s": (median(setups), "s"),
            "op_ms_ref": (best_op * CAL_REF_MS / best_cal, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    else:
        traced_ms = [o[0] for o in ops if o[2]]
        base = median(plain_ms)
        sites = sum(o[3] for o in plain)
        m = {
            "op_ms_p50": (base, "ms"),
            "op_ms_p90": (percentile(plain_ms, 90), "ms"),
            "sites_per_s": (sites / (sum(plain_ms) / 1000.0), "1/s"),
            "failed_ops_frac": (failed / len(ops), "ratio"),
            "trace.overhead_frac": ((median(traced_ms) - base) / base if base else 0.0,
                                    "ratio"),
            "host.cal_ms_min": (min(o[4] for o in ops), "ms"),
        }
        m.update(layer_metrics(raw))
        m.update(service_metrics(raw))
    return failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    if not build():
        log("perfbench: build failed")
        return 2
    scratch = os.path.join(BUILD, "run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    trace_path = ""
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
    out_path = os.path.join(scratch, "result.json")
    try:
        if not run_harness(args, scratch, out_path, trace_path):
            return 1
        with open(out_path) as f:
            raw = json.load(f)
        failed, metrics = reduce(args, raw)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = failed == 0 and raw["count_mismatches"] == 0 and len(raw["ops"]) > 0
    if trace_path:
        check = subprocess.run([os.path.join(BUILD, "tools", "hlsavc"), "checktrace",
                                trace_path], capture_output=True, text=True)
        log(check.stdout.strip() or check.stderr.strip())
        correct = correct and check.returncode == 0

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "build_type": raw["build_type"], "nproc": os.cpu_count(),
        "compiler": raw["compiler"], "compiler_version": compiler_version(raw["compiler"]),
        "ops": len(raw["ops"]), "traced_ops": sum(1 for o in raw["ops"] if o[2]),
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    plain_ms = [o[0] for o in raw["ops"] if not o[2]]
    log("untraced op ms: n=%d min=%.1f p25=%.1f p50=%.1f p75=%.1f max=%.1f" % (
        len(plain_ms), min(plain_ms), percentile(plain_ms, 25), median(plain_ms),
        percentile(plain_ms, 75), max(plain_ms)))
    for name, (value, unit) in sorted(metrics.items()):
        log(f"  {name:32s} {value:14.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": len(raw["ops"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
