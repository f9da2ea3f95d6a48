#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload city --seed 3 --seconds 15 --trace 0

Builds the simulator libraries and the workload program from source
into .bench_build/ (first run only), runs the workload program in one
process, checks every run's protocol outputs against
perfbench/reference.json and
prints each metric with its unit and sample count. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs, --trace 1 the
per-layer metrics of a separate traced run. Exit code: 0 when every
output is correct, 1 when one is not (the result line is still
printed), 2 when the benchmark cannot build or run at all.

--record-reference runs the reference worlds and rewrites the stored
outputs; do that only at a commit whose outputs are known to be right.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's directory clean

import perfstats as ps  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_workload"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("city", "crowd_medium", "crowd_mobile")
# The benchmark seed selects one of this many stored reference worlds.
REFERENCE_WORLDS = 8
# Relative bound on fleet radio charge against the reference. Event
# counts and summation order may change legitimately; charge may move
# only by rounding.
RADIO_REL_BOUND = 1e-6
# A traced run's spans must cover its measured wall time within this.
SPAN_COVERAGE_BOUND = 0.05
PROCESS_TIMEOUT_S = 170
# Host seconds one round takes on a 4-core x86 host at the seed commit:
# untraced, one 1-thread run; traced, a 1-thread run plus a profiled and
# an unprofiled N-thread run. --seconds buys this many rounds, so the
# work a run does depends on its arguments only, never on how fast the
# host happens to be.
ROUND_SECONDS = {"city": 2.2, "crowd_medium": 25.0, "crowd_mobile": 2.5}
TRACED_ROUND_SECONDS = {"city": 4.0, "crowd_medium": 40.0,
                        "crowd_mobile": 30.0}
# The city's references hold 42 slice boundaries; a traced round uses 3.
MAX_ROUNDS = {"city": 14}
OUTPUT_FIELDS = ("total_l3", "peak_l3_per_10s", "heartbeats_delivered",
                 "forwarded_via_d2d", "fallbacks")

END_TO_END_UNITS = {
    "phone_h_per_s.t1": "phone-h/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_phone_h": "events/phone-h",
    "sim.kernels": "count",
    "sim.ns_per_event.t1": "ns",
    "sim.shard_events_imbalance": "ratio",
    "engine.phone_h_per_s.tN": "phone-h/s",
    "engine.windows": "count",
    "engine.events_per_window": "events",
    "engine.execute_s": "s",
    "engine.barrier_wait_s": "s",
    "engine.barrier_wait_p99_us": "us",
    "engine.window_utilization": "fraction",
    "engine.slice_s.p50": "s",
    "engine.slice_s.p99": "s",
    "engine.trace_overhead_frac": "fraction",
    "mailbox.cross_posted": "count",
    "mailbox.cross_delivered": "count",
    "mailbox.min_slack_us": "us",
    "scenario.arena_reserved_mb": "MB",
    "scenario.arena_objects": "count",
    "scenario.off_arena_mb": "MB",
    "metrics.series": "count",
    "metrics.series_per_phone": "ratio",
    "d2d.discovery_scans": "count",
    "d2d.links_established": "count",
    "d2d.links_broken": "count",
    "d2d.sends": "count",
    "ue.match_per_scan": "ratio",
    "rrc.transitions": "count",
    "rrc.promotions": "count",
    "cellular.bundles_sent": "count",
    "scheduler.windows": "count",
    "scheduler.flushed_messages": "count",
    "feedback.ack_ratio": "ratio",
    "feedback.timed_out": "count",
    "relay.accept_ratio": "ratio",
    "server.delivered": "count",
    "server.late": "count",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def threads_n():
    """N = min(4, CPUs this process may run on)."""
    return min(4, len(os.sched_getaffinity(0)))


def world_seed(seed):
    return 1 + seed % REFERENCE_WORLDS


def build():
    """Configures and builds the workload program (a no-op when up to date); build
    logs go to stderr."""
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_workload", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def rounds_for(workload, seconds, traced):
    per_round = (TRACED_ROUND_SECONDS if traced else ROUND_SECONDS)[workload]
    rounds = max(1, round(seconds / per_round))
    return min(rounds, MAX_ROUNDS.get(workload, rounds))


def run_program(workload, wseed, size, mode, rounds, threads, trace_out=None,
               timeout=PROCESS_TIMEOUT_S):
    """Runs the workload program once. Returns (records, error): error is None when
    the process finished cleanly."""
    cmd = [str(BINARY), "--workload", workload, "--world-seed", str(wseed),
           "--size", size, "--mode", mode, "--rounds", str(rounds),
           "--threads", str(threads)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return parse_records(out), f"timed out after {timeout} s"
    error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    return parse_records(proc.stdout), error


def parse_records(text):
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # a line cut short by a crash
    return records


def of(records, kind):
    return [r for r in records if r["rec"] == kind]


# ---- Correctness. --------------------------------------------------------

def at_key(at_s):
    return f"{at_s:g}"


def compare_outputs(got, want):
    """Differences between one run's outputs and the reference."""
    diffs = [f"{f}: {got.get(f)} != {want[f]}" for f in OUTPUT_FIELDS
             if got.get(f) != want[f]]
    if "radio_uah" in want:
        g = got.get("radio_uah")
        if g is None or abs(g - want["radio_uah"]) > \
                RADIO_REL_BOUND * abs(want["radio_uah"]):
            diffs.append(f"radio_uah: {g} != {want['radio_uah']} "
                         f"(relative bound {RADIO_REL_BOUND})")
    return diffs


def check_records(records, reference, error):
    """Returns (attempted, failed, messages). Each check record is one
    world run; every run must match the stored reference, and runs of one
    world at different thread counts or with tracing on must match each
    other exactly."""
    attempted, failed, messages = 0, 0, []
    first_at = {}
    for c in of(records, "check"):
        attempted += 1
        key = at_key(c["at_s"])
        want = reference.get(key)
        diffs = (compare_outputs(c["out"], want) if want is not None
                 else [f"no reference outputs at {key} s"])
        if key in first_at and c["out"] != first_at[key]:
            diffs.append(f"differs from the first run at {key} s: "
                         f"{c['out']} != {first_at[key]}")
        first_at.setdefault(key, c["out"])
        if diffs:
            failed += 1
            messages.append(f"run at {c['threads'] or 'mixed'} threads"
                            f"{' (traced)' if c['traced'] else ''}: "
                            + "; ".join(diffs))
    for s in of(records, "spans"):
        cover = sum(d for _, d in s["spans"]) / s["wall_s"]
        if abs(cover - 1.0) > SPAN_COVERAGE_BOUND:
            failed += 1
            attempted += 1
            messages.append(f"spans cover {cover:.3f} of the traced wall "
                            f"time (bound {SPAN_COVERAGE_BOUND})")
    if error is not None or not of(records, "process"):
        attempted += 1
        failed += 1
        messages.append(f"workload program failed: {error or 'no process record'}")
    return max(attempted, 1), failed, messages


# ---- Metrics. --------------------------------------------------------------

class Metric:
    def __init__(self, value, unit, samples=1, quart=None):
        self.value, self.unit, self.samples, self.quart = \
            value, unit, samples, quart


def summarize(values, unit):
    q1, med, q3 = ps.quartiles(values)
    return Metric(med, unit, len(values), (q1, q3))


def end_to_end(records, threads):
    setups = [r["s"] for r in of(records, "setup")]
    setup = ps.median(setups)
    per_threads = {1: [], threads: []}
    events_per_s = {1: [], threads: []}
    for r in of(records, "run"):
        phase = ps.run_phase(r["s"], setup) if r["includes_setup"] else r["s"]
        per_threads[r["threads"]].append(ps.throughput(r["phone_h"], phase))
        events_per_s[r["threads"]].append(r["events"] / phase)
    rss = of(records, "process")[-1]["peak_rss_bytes"] / ps.MB
    metrics = {
        "phone_h_per_s.t1": summarize(per_threads[1], "phone-h/s"),
        "setup_s": summarize(setups, "s"),
        "peak_rss_mb": Metric(rss, "MB"),
    }
    t_n = ps.median(per_threads[threads])
    extra = {
        f"phone_h_per_s.t{threads}": t_n,
        f"speedup.t{threads}_over_t1": ps.ratio(
            t_n, metrics["phone_h_per_s.t1"].value),
        "events_per_s.t1": ps.median(events_per_s[1]),
        f"events_per_s.t{threads}": ps.median(events_per_s[threads]),
    }
    return metrics, extra


def per_layer(records):
    layer = of(records, "layer")[-1]
    phones = of(records, "process")[-1]["phones"]
    c = layer["counters"]

    def count(name):
        return c.get(name, 0)

    def phase(s):
        if not layer["subtract_setup"]:
            return s
        return ps.run_phase(s, ps.median([r["s"] for r in of(records, "setup")]))

    t1_phase = phase(layer["t1_s"])
    traced = [phase(s) for s in layer["traced_s"]]
    untraced = [phase(s) for s in layer["untraced_s"]]
    p50, n_slices = ps.nearest_rank(layer["slice_s"], 50)
    p99, _ = ps.nearest_rank(layer["slice_s"], 99)
    waits = layer["barrier_wait_us"]
    wait_p99, n_waits = ps.nearest_rank(waits, 99) if waits else (0.0, 0)
    rss = layer["rss_before_snapshot_bytes"]
    values = {
        "sim.events": (layer["events"], 1),
        "sim.events_per_phone_h": (layer["events"] / layer["phone_h"], 1),
        "sim.kernels": (len(layer["shard_events"]), 1),
        "sim.ns_per_event.t1": (t1_phase * 1e9 / layer["t1_events"], 1),
        "sim.shard_events_imbalance": (ps.imbalance(layer["shard_events"]), 1),
        "engine.phone_h_per_s.tN": (ps.median(
            [ps.throughput(layer["sample_phone_h"], s) for s in untraced]),
            len(untraced)),
        "engine.windows": (layer["windows"], 1),
        "engine.events_per_window": (
            ps.ratio(layer["windowed_events"], layer["windows"]), 1),
        "engine.execute_s": (layer["execute_ns"] * 1e-9, 1),
        "engine.barrier_wait_s": (layer["barrier_wait_ns"] * 1e-9, 1),
        "engine.barrier_wait_p99_us": (wait_p99, n_waits),
        "engine.window_utilization": (ps.ratio(
            layer["drain_ns"] + layer["execute_ns"],
            layer["workers"] * layer["windowed_ns"]), 1),
        "engine.slice_s.p50": (p50, n_slices),
        "engine.slice_s.p99": (p99, n_slices),
        "engine.trace_overhead_frac": (
            ps.paired_overhead(traced, untraced), len(traced)),
        "mailbox.cross_posted": (layer["cross_posted"], 1),
        "mailbox.cross_delivered": (layer["cross_delivered"], 1),
        "mailbox.min_slack_us": (layer["min_slack_us"], 1),
        "scenario.arena_reserved_mb": (
            layer["arena_reserved_bytes"] / ps.MB, 1),
        "scenario.arena_objects": (layer["arena_objects"], 1),
        "scenario.off_arena_mb": (
            (rss - layer["arena_reserved_bytes"]) / ps.MB, 1),
        "metrics.series": (layer["series"], 1),
        "metrics.series_per_phone": (layer["series"] / phones, 1),
        "d2d.discovery_scans": (count("d2d.discovery_scans"), 1),
        "d2d.links_established": (count("d2d.links_established"), 1),
        "d2d.links_broken": (count("d2d.links_broken"), 1),
        "d2d.sends": (count("d2d.sends"), 1),
        "ue.match_per_scan": (
            ps.ratio(count("ue.matches"), count("d2d.discovery_scans")), 1),
        "rrc.transitions": (count("rrc.transitions"), 1),
        "rrc.promotions": (count("rrc.promotions"), 1),
        "cellular.bundles_sent": (count("cellular.bundles_sent"), 1),
        "scheduler.windows": (count("scheduler.windows"), 1),
        "scheduler.flushed_messages": (count("scheduler.flushed_messages"), 1),
        "feedback.ack_ratio": (ps.ratio(count("feedback.acknowledged"),
                                        count("feedback.tracked")), 1),
        "feedback.timed_out": (count("feedback.timed_out"), 1),
        "relay.accept_ratio": (ps.ratio(
            count("relay.forwarded_received"),
            count("relay.forwarded_received")
            + count("relay.forwarded_rejected")), 1),
        "server.delivered": (layer["server_delivered"], 1),
        "server.late": (layer["server_late"], 1),
    }
    return {name: Metric(v, PER_LAYER_UNITS[name], n)
            for name, (v, n) in values.items()}


# ---- Reference outputs. ----------------------------------------------------

def load_reference(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def record_reference(workloads, sizes, worlds, path):
    """Runs each reference world at 1 and N threads, requires the two to
    agree at every checked point and stores the outputs."""
    reference = load_reference(path)
    threads = threads_n()
    for workload in workloads:
        for size in sizes:
            for wseed in worlds:
                records, error = run_program(workload, wseed, size,
                                            "reference", 1, threads,
                                            timeout=None)
                if error:
                    raise SystemExit(f"{workload}/{size}/{wseed}: {error}")
                by_at = {}
                for c in of(records, "check"):
                    key = at_key(c["at_s"])
                    if key in by_at and by_at[key] != c["out"]:
                        raise SystemExit(
                            f"{workload}/{size}/{wseed} at {key} s: "
                            f"1 and {threads} threads disagree")
                    by_at[key] = c["out"]
                reference.setdefault(workload, {}).setdefault(size, {})[
                    str(wseed)] = by_at
                log(f"reference {workload}/{size}/world {wseed}: "
                    f"{len(by_at)} points")
    with open(path, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


# ---- Main. -------------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_benchmark(workload, seed, seconds, trace, size="full",
                  reference_path=REFERENCE):
    """One benchmark run. Returns (result dict, extra lines to print)."""
    threads = threads_n()
    wseed = world_seed(seed)
    trace_out = None
    if trace:
        trace_out = BUILD_DIR.parent / "traces" / f"{workload}-seed{seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    records, error = run_program(workload, wseed, size,
                                "traced" if trace else "plain",
                                rounds_for(workload, seconds, trace),
                                threads, trace_out)
    reference = load_reference(reference_path).get(workload, {}) \
        .get(size, {}).get(str(wseed), {})
    attempted, failed, messages = check_records(records, reference, error)
    lines = [f"workload {workload} ({size}), seed {seed} -> world {wseed}, "
             f"N = {threads} threads"]
    metrics, extra = {}, {}
    if error is None:
        try:
            if trace:
                metrics = per_layer(records)
                lines.append(f"trace written to {trace_out}")
                for s in of(records, "spans"):
                    lines.append(f"spans cover "
                                 f"{sum(d for _, d in s['spans']) / s['wall_s']:.4f}"
                                 f" of {s['wall_s']:.3f} s traced wall time")
            else:
                metrics, extra = end_to_end(records, threads)
        except (KeyError, IndexError, ValueError, ZeroDivisionError) as e:
            failed += 1
            attempted += 1
            messages.append(f"cannot compute metrics: {e!r}")
            metrics = {}
    for name, m in metrics.items():
        line = f"  {name} = {fmt(m.value)} {m.unit} (n={m.samples}"
        if m.quart and m.samples > 1:
            line += f", q1 {fmt(m.quart[0])}, q3 {fmt(m.quart[1])}"
        lines.append(line + ")")
    for name, v in extra.items():
        lines.append(f"  {name} = {fmt(v)} (printed only)")
    lines.append(f"  failed_run_frac = {fmt(failed / attempted)} fraction "
                 f"({failed} of {attempted} runs)")
    lines.extend(f"FAILED: {m}" for m in messages)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the stored reference outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"error: cannot build the benchmark: {e}")
        return 2
    if args.record_reference:
        record_reference([args.workload] if args.workload else WORKLOADS,
                         [args.size], range(1, REFERENCE_WORLDS + 1),
                         args.reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                  args.trace, args.size, args.reference)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
