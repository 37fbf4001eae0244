#!/usr/bin/env python3
"""Host-time benchmark of the Matrix simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a fixed-size batch: one deployment, one scenario script and
one simulated duration, run by perfbench_batch in a process of its own (so
peak RSS belongs to one batch).  The script builds it from source
into .bench_build/perfbench, then:

  --trace 0  runs the batch a fixed number of times (as many as --seconds
             holds at the workload's nominal repeat time, at least three),
             each time after timing set-up alone in a few fresh processes,
             gates every repeat, and reports the end-to-end metrics: host
             wall/CPU seconds of run_until (each slice at its fastest repeat,
             scaled by a calibration kernel's speed), set-up seconds (the
             median over every fresh process, scaled likewise), peak RSS,
             and the simulated outcomes.
  --trace 1  runs the batch once untraced and once traced (spans around the
             batch runner's calls into each layer, plus scheduler and codec
             replays sized from the run) and reports the per-layer metrics
             with each span's self time and the tracing overhead.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
perfbench/README.md records why each workload exists and what each metric
should move.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BATCH = os.path.join(BUILD_DIR, "perfbench_batch")
BASELINES = os.path.join(HERE, "baselines.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# threads: engine threads the batch runs (shard workers plus the main thread,
# which blocks while they run).  setups: fresh processes that time set-up
# alone before each repeat, on top of the one set-up the repeat times.
# repeat_s: nominal seconds of one repeat with its set-ups; it fixes the
# repeat count for a given --seconds, so the count never depends on how fast
# this host or this commit happens to be.
WORKLOADS = {
    "fig2_hotspot": {"threads": 1, "setups": 8, "repeat_s": 7.0},
    "giga_k2": {"threads": 3, "setups": 3, "repeat_s": 7.5},
    "surge_admission": {"threads": 1, "setups": 8, "repeat_s": 5.5},
}
PHASES = ("join", "steady", "hotspot", "calm")
CODEC_TYPES = ("ClientAction", "ServerUpdate", "TaggedPacket", "LoadReport",
               "QueueUpdate")
SHARDS_REPORTED = 2
MIN_REPEATS = 3   # every slice gets more than one chance at a quiet host
MAX_REPEATS = 8
# Seconds of one calibration chunk on the reference host, a round figure near
# the chunk time on a 4-vCPU Xeon VM: host-time metrics are reported in
# seconds of a host whose chunk takes this long.
CALIBRATION_REF_S = 200e-6
BATCH_TIMEOUT_S = 150
P99_MIN_SAMPLES = 1000  # at least ten samples beyond the 99th percentile

# Spans whose self time is reported.  Leaf spans that already have a metric
# of their own (sim.deploy_build, sim.scenario_schedule,
# obs.collect_registry) and the grouping spans net.run and net.phase.<name>,
# whose self time is only loop overhead, are left out.
SELF_TIME_SPANS = ("bench", "net.run_until_slice", "game.sample",
                   "sim.collect_outcomes", "net.sched_replay",
                   "core.codec_replay")

# Simulated outputs (and the calibration kernel's checksum): identical across
# repeats of the same code and seed.
SIMULATED = ("events", "messages", "bytes", "actions_sent", "action_samples",
             "switch_samples", "offered", "admitted", "denied", "deferred",
             "queued", "action_p50_ms", "action_p99_ms", "switch_p50_ms",
             "fingerprint", "calibration_checksum")


class BenchError(Exception):
    """The benchmark could not run (build, host or batch failure)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---- derivations -------------------------------------------------------------

def fraction(part, base, name):
    """part/base with its base; refuses a fraction without a valid base."""
    if base <= 0 or part < 0 or part > base:
        raise ValueError(f"{name}: {part} of {base} is not a fraction")
    return part / base


def self_times(spans):
    """Self seconds per span name: a span's duration minus the part of its
    interval its children cover (children are clipped and merged, so
    overlapping children are not counted twice)."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = defaultdict(float)
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        intervals = sorted((max(c["start_ns"], start), min(c["end_ns"], end))
                           for c in children[span["id"]])
        covered = 0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span["name"]] += (end - start - covered) * 1e-9
    return dict(out)


def fastest_slices(reps, key):
    """Sum over slices of each slice's fastest repeat.  A slice is the same
    simulated work in every repeat, so its fastest reading is the one least
    disturbed by other tenants; summing them filters contention that comes
    and goes within seconds."""
    return sum(min(column) for column in zip(*(r[key] for r in reps)))


def host_scale(reps):
    """Reference host speed over this run's host speed: the calibration
    kernel's reference chunk time over its chunk time here, each chunk
    taken at its fastest repeat like the slices.  Filters the contention
    that outlasts a run."""
    chunks = len(reps[0]["slice_calibration_s"])
    return (CALIBRATION_REF_S * chunks /
            fastest_slices(reps, "slice_calibration_s"))


def events_per_s_valid(workload, seed, events, baselines):
    """1 when net.events equals the recorded baseline for this workload and
    seed (events/s is then comparable across commits), 0 when it differs,
    -1 when no baseline is recorded for the seed."""
    recorded = baselines.get(workload, {}).get(str(seed))
    if recorded is None:
        return -1
    return 1 if recorded == events else 0


def check_derivations():
    """Self-checks of the derivations above on inputs with known answers."""
    assert fraction(1, 4, "t") == 0.25
    for bad in ((1, 0), (5, 4), (-1, 4)):
        try:
            fraction(bad[0], bad[1], "t")
        except ValueError:
            continue
        raise AssertionError(f"fraction accepted {bad}")
    span = lambda i, name, parent, a, b: {"id": i, "name": name,
                                          "parent": parent, "start_ns": a,
                                          "end_ns": b}
    tree = [span(0, "root", None, 0, 100), span(1, "a", 0, 10, 40),
            span(2, "b", 0, 50, 70), span(3, "c", 1, 15, 20)]
    got = self_times(tree)
    want = {"root": 50e-9, "a": 25e-9, "b": 20e-9, "c": 5e-9}
    assert all(abs(got[k] - v) < 1e-15 for k, v in want.items()), got
    assert abs(sum(got.values()) - 100e-9) < 1e-15
    overlap = [span(0, "root", None, 0, 100), span(1, "a", 0, 10, 40),
               span(2, "a", 0, 30, 60)]
    assert abs(self_times(overlap)["root"] - 50e-9) < 1e-15
    reps = [{"t": [3.0, 1.0, 5.0], "c": [2.0, 2.0]},
            {"t": [2.0, 4.0, 6.0], "c": [1.0, 4.0]}]
    assert fastest_slices(reps, "t") == 2.0 + 1.0 + 5.0
    assert host_scale([{"slice_calibration_s": [2 * CALIBRATION_REF_S] * 4},
                       {"slice_calibration_s": [4 * CALIBRATION_REF_S] * 4}]
                      ) == 0.5
    base = {"w": {"7": 10}}
    assert events_per_s_valid("w", 7, 10, base) == 1
    assert events_per_s_valid("w", 7, 11, base) == 0
    assert events_per_s_valid("w", 8, 10, base) == -1


# ---- build and drive -----------------------------------------------------------

def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no simulator sources at {ROOT}/src")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, cwd=ROOT)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")


def batch_env():
    """The caller's environment without the simulator's MATRIX_* knobs
    (MATRIX_SHARD_THREADS, MATRIX_EVENT_SCHEDULER, MATRIX_TRACE,
    MATRIX_LOAD_POLICY).  They change the engine process-wide while leaving
    the simulated output, and so the gate, unchanged."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MATRIX_")}


def run_batch(workload, seed, mode):
    cmd = [BATCH, "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              env=batch_env(), timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"batch timed out after {BATCH_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"batch exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "batch printed no result"}


# ---- correctness gate ----------------------------------------------------------

def gate(rep):
    """Reasons this repeat fails the gate (empty when it passes)."""
    if "error" in rep:
        return [rep["error"]]
    problems = []
    if rep["sim_end_s"] < rep["duration_s"]:
        problems.append(f"stopped at {rep['sim_end_s']} of "
                        f"{rep['duration_s']} sim-s")
    if rep["offered"] != rep["offered_expected"]:
        problems.append(f"{rep['offered']} bots created, scenario offers "
                        f"{rep['offered_expected']}")
    outcomes = (rep["admitted"] + rep["denied"] + rep["deferred"] +
                rep["queued"])
    if rep["unanswered"] or outcomes != rep["offered"]:
        problems.append(f"{rep['unanswered']} of {rep['offered']} bots never "
                        "admitted, denied, deferred or queued")
    if not rep["timelines_valid"]:
        problems.append("admission timeline violates its hysteresis contract")
    if rep["action_samples"] < P99_MIN_SAMPLES:
        problems.append(f"{rep['action_samples']} action samples, p99 needs "
                        f">= {P99_MIN_SAMPLES}")
    if rep["switch_samples"] <= 0:
        problems.append("no switch samples")
    if rep["action_samples"] > rep["actions_sent"]:
        problems.append("more acks than actions")
    if not rep["action_p50_ms"] <= rep["action_p99_ms"]:
        problems.append("action p50 above p99")
    return problems


def gate_siblings(reps):
    """Marks every repeat failed when the passing ones disagree on any
    simulated output: the same code and seed must simulate identically."""
    passing = [r for r in reps if not r["problems"]]
    if len(passing) < 2:
        for r in reps:
            if not r["problems"]:
                r["problems"].append("no sibling repeat to compare against")
        return
    first = passing[0]
    for key in SIMULATED:
        if any(r[key] != first[key] for r in passing[1:]):
            for r in reps:
                r["problems"].append(f"repeats disagree on {key}")
            return


def check_threads(workload):
    threads = WORKLOADS[workload]["threads"]
    cores = len(os.sched_getaffinity(0))
    if threads > cores:
        raise BenchError(f"{workload} runs {threads} engine threads but this "
                         f"host gives the process {cores} cores; refusing to "
                         "report an oversubscribed number")
    return cores


# ---- metrics -------------------------------------------------------------------

def shard_balance(shard_events):
    if len(shard_events) < 2 or sum(shard_events) == 0:
        return 1.0
    return max(shard_events) / (sum(shard_events) / len(shard_events))


def end_to_end(reps, setups):
    first = reps[0]
    unacked = first["actions_sent"] - first["action_samples"]
    scale = host_scale(reps)
    return {
        "wall_s": fastest_slices(reps, "slice_wall_s") * scale,
        "cpu_s": fastest_slices(reps, "slice_cpu_s") * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] - r["calibration_kb"]
                                         for r in reps) / 1024,
        "action_p50_ms": first["action_p50_ms"],
        "action_p99_ms": first["action_p99_ms"],
        "switch_p50_ms": first["switch_p50_ms"],
        "action_unacked_frac": fraction(unacked, first["actions_sent"],
                                        "action_unacked_frac"),
        "join_admitted_frac": fraction(first["admitted"], first["offered"],
                                       "join_admitted_frac"),
    }, {
        "repeats (slice minimum)": len(reps),
        "slices per repeat": len(first["slice_wall_s"]),
        "setup samples": len(setups),
        "action samples (p50, p99)": first["action_samples"],
        "switch samples (p50)": first["switch_samples"],
        "actions sent (unacked base)": first["actions_sent"],
        "bots offered (admitted base)": first["offered"],
    }


def per_layer(workload, seed, plain, traced, baselines):
    m = {}
    m["sim.deploy_build_s"] = traced["sim.deploy_build_s"]
    m["sim.scenario_schedule_s"] = traced["sim.scenario_schedule_s"]
    m["sim.offered_clients"] = plain["offered"]
    m["sim.peak_clients"] = traced["sim.peak_clients"]
    m["sim.rss_per_client_kb"] = ((plain["peak_rss_kb"] - plain["rss_before_kb"])
                                  / plain["offered"])

    m["net.events"] = plain["events"]
    m["net.messages"] = plain["messages"]
    m["net.bytes"] = plain["bytes"]
    m["net.events_per_s"] = plain["events"] / plain["wall_s"]
    m["net.events_per_s_valid"] = events_per_s_valid(
        workload, seed, plain["events"], baselines)
    m["net.cores_busy"] = plain["cpu_s"] / plain["wall_s"]

    m["net.windows"] = plain["windows"]
    m["net.wall_per_window_us"] = (plain["wall_s"] / plain["windows"] * 1e6
                                   if plain["windows"] else 0.0)
    m["net.window_stall_s"] = plain["window_stall_s"]
    m["net.cross_shard_msgs"] = plain["cross_shard_msgs"]
    m["net.shard_balance"] = shard_balance(plain["shard_events"])
    shards = plain["shard_events"] if len(plain["shard_events"]) > 1 else []
    for i in range(SHARDS_REPORTED):
        m[f"net.shard_events.{i}"] = shards[i] if i < len(shards) else 0

    walls = defaultdict(float)
    events = defaultdict(int)
    for phase in traced["phases"]:
        walls[phase["name"]] += phase["wall_s"]
        events[phase["name"]] += phase["events"]
    for name in PHASES:
        m[f"net.phase.{name}.wall_s"] = walls[name]
        m[f"net.phase.{name}.events_per_s"] = (events[name] / walls[name]
                                               if walls[name] else 0.0)

    m["net.event_peak_pending"] = plain["event_peak_pending"]
    m["net.sched.ops_per_s"] = traced["net.sched.ops_per_s"]
    m["net.buffer_reuse_frac"] = fraction(
        plain["buffers_reused"], plain["buffers_acquired"],
        "net.buffer_reuse_frac")

    codec = {c["type"]: c for c in traced["codec"]}
    for name in CODEC_TYPES:
        for op in ("encode", "decode", "view"):
            m[f"core.codec.{op}_ns.{name}"] = codec[name][f"{op}_ns"]

    for key in ("core.splits", "core.reclaims", "core.splits_denied",
                "core.fanout_msgs", "core.table_updates",
                "core.nonproximal_lookups", "core.pool_grants",
                "core.pool_denies", "game.actions", "game.hellos",
                "game.redirected", "game.migrated",
                "control.joins_deferred", "control.joins_denied",
                "control.queue_parked", "control.queue_admitted",
                "control.queue_overflow", "control.queue_max_depth",
                "control.directives_applied", "control.transitions"):
        m[key] = plain[key]
    m["game.max_recv_queue"] = traced["game.max_recv_queue"]

    m["obs.bench_trace_overhead_frac"] = ((traced["wall_s"] - plain["wall_s"])
                                          / plain["wall_s"])
    m["obs.collect_registry_s"] = traced["obs.collect_registry_s"]

    spans = traced["spans"]
    selfs = self_times(spans)
    root = next(s for s in spans if s["parent"] is None)
    root_s = (root["end_ns"] - root["start_ns"]) * 1e-9
    if abs(sum(selfs.values()) - root_s) > 1e-6 * max(1.0, root_s):
        raise BenchError("span self times do not add up to the root span")
    phase_self = sum(v for k, v in selfs.items() if k.startswith("net.phase."))
    for name in SELF_TIME_SPANS:
        m[f"trace.self_s.{name}"] = (phase_self if name == "net.phase"
                                     else selfs.get(name, 0.0))
    m["trace.spans"] = len(spans)
    return m


def check_registry(traced):
    """collect_registry must agree with the counters read directly."""
    problems = []
    if traced["registry.net.messages"] != traced["messages"]:
        problems.append("registry net.messages disagrees with the network")
    if traced["registry.engine.events_processed"] != traced["events"]:
        problems.append("registry engine.events_processed disagrees")
    return problems


# ---- main ----------------------------------------------------------------------

def with_units(values, kind):
    """Attaches the units BENCHMARK.json declares; the report must print
    exactly the metrics it lists."""
    with open(SPEC) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    if set(values) != set(units):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def time_setups(args):
    """Set-up seconds from fresh processes, so that each sample pays the
    first construction's page faults and allocator growth, and no process's
    placement on the host decides the median.  Called before every repeat,
    so the samples span the run as the repeats do."""
    samples = []
    for _ in range(WORKLOADS[args.workload]["setups"]):
        rep = run_batch(args.workload, args.seed, "setup")
        if "error" in rep:
            raise BenchError(f"set-up batch failed: {rep['error']}")
        samples.append(rep["setup_s"])
    return samples


def repeats(args):
    nominal = WORKLOADS[args.workload]["repeat_s"]
    return max(MIN_REPEATS, min(MAX_REPEATS, int(args.seconds // nominal)))


def run_untraced(args):
    setups = []
    reps = []
    for _ in range(repeats(args)):
        setups += time_setups(args)
        rep = run_batch(args.workload, args.seed, "run")
        rep["problems"] = gate(rep)
        reps.append(rep)
    gate_siblings(reps)
    passing = [r for r in reps if not r["problems"]]
    lines = [f"workload {args.workload}  seed {args.seed}  repeats {len(reps)}"]
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            lines.append(f"  FAIL repeat {i}: {problem}")
    metrics = {}
    if passing:
        setups += [r["setup_s"] for r in passing]
        values, bases = end_to_end(passing, setups)
        metrics = with_units(values, "end_to_end")
        for name, m in metrics.items():
            lines.append(f"  {name:<22} {m['value']:14.6f} {m['unit']}")
        for name, count in bases.items():
            lines.append(f"    n {name}: {count}")
        lines.append(f"    fingerprint {passing[0]['fingerprint']}  "
                     f"wall per repeat {[round(r['wall_s'], 3) for r in reps]}"
                     f"  host scale {host_scale(passing):.4f}")
    failed = len(reps) - len(passing)
    return lines, {"correct": failed == 0, "attempted": len(reps),
                   "failed": failed, "metrics": metrics}


def run_traced(args):
    with open(BASELINES) as f:
        baselines = json.load(f)
    plain = run_batch(args.workload, args.seed, "run")
    traced = run_batch(args.workload, args.seed, "trace")
    reps = [plain, traced]
    for rep in reps:
        rep["problems"] = gate(rep)
    if not traced["problems"]:
        traced["problems"] += check_registry(traced)
    if (not plain["problems"] and not traced["problems"]
            and traced["fingerprint"] != plain["fingerprint"]):
        # Both batches run the same slices: any difference is a defect.
        traced["problems"].append("traced batch's simulated output differs "
                                  "from the untraced batch")
    lines = [f"workload {args.workload}  seed {args.seed}  traced"]
    for rep in reps:
        for problem in rep["problems"]:
            lines.append(f"  FAIL {rep.get('mode', 'batch')}: {problem}")
    failed = sum(1 for r in reps if r["problems"])
    metrics = {}
    if not failed:
        metrics = with_units(per_layer(args.workload, args.seed, plain,
                                       traced, baselines), "per_layer")
        for name, m in metrics.items():
            lines.append(f"  {name:<40} {m['value']:16.6f} {m['unit']}")
    return lines, {"correct": failed == 0, "attempted": len(reps),
                   "failed": failed, "metrics": metrics}


def stop_on_sigterm():
    """Turns SIGTERM into a BenchError, so that subprocess.run kills the
    running build step or batch and waits for it before run.py exits."""
    def handler(signum, _frame):
        raise BenchError(f"stopped by signal {signum}")
    signal.signal(signal.SIGTERM, handler)


def main():
    stop_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        check_derivations()
        cores = check_threads(args.workload)
        build()
        lines, result = (run_traced if args.trace else run_untraced)(args)
    except BenchError as err:
        log(f"perfbench: {err}")
        return 1
    cleared = sorted(k for k in os.environ if k.startswith("MATRIX_"))
    lines.insert(1, f"  host cores {cores}, engine threads "
                    f"{WORKLOADS[args.workload]['threads']}"
                    + (f", cleared {' '.join(cleared)}" if cleared else ""))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
