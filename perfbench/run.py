#!/usr/bin/env python3
"""The benchmark: one command from generated netlists to checked verdicts.

    python3 perfbench/run.py --workload wide|narrow|farm \\
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, which builds the
manticore library from this source tree) under .bench_build/, then runs
rounds of the workload for about S seconds.  Every round is a fresh
harness process, because a user pays the registry's toolchain probe and
the first-run-in-process effects on every process.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones plus the tracing
overhead against untraced rounds of the same run.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
WORKLOADS = ("wide", "narrow", "farm")
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# setup_s is mostly the toolchain probe, a compiler process whose time
# is heavy-tailed: take its median over more processes than rounds.
MIN_SETUPS = 15
# On a shared host the first seconds of all-core work after an idle
# spell ran up to 2x slower; rounds are discarded until this much
# warm-up has passed.
WARMUP_S = 4.0
# Start no round that would end after this (a run must end within
# 180 s); a harness process that outlives ROUND_TIMEOUT_S is killed.
DEADLINE_S = 160
ROUND_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "sim_khz": "kHz",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "engine.list_s": "s",
    "engine.create_s": "s",
    "engine.step_us_p50": "us",
    "engine.step_us_p99": "us",
    "engine.first_step_khz": "kHz",
    "netlist.partition_s": "s",
    "netlist.partition.processes": "count",
    "netlist.partition.sends": "count",
    "netlist.partition.balance_bound": "ratio",
    "netlist.compiled.sim_khz": "kHz",
    "netlist.parallel.speedup": "ratio",
    "netlist.tape_length": "count",
    "netlist.arena_limbs": "count",
    "netlist.aot.toolchain_s": "s",
    "exec.ns_per_lane_cycle": "ns",
    "service.create_session_us": "us",
    "service.ready_s": "s",
    "service.first_quantum_wait_s": "s",
    "service.submit_us": "us",
    "service.poll_us_p50": "us",
    "service.poll_us_p99": "us",
    "service.quanta": "count",
    "service.cycles": "count",
    "service.destroy_us": "us",
    "service.dedicated_khz": "kHz",
    "service.scaling": "ratio",
    "harness.self_s": "s",
    "failed_frac": "ratio",
    "trace.overhead_pct": "%",
}


class HarnessError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    """Configure (once) and build the harness; exits non-zero when the
    source tree is missing or the build fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no manticore source tree at {ROOT}")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_harness", "-j", jobs])
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           env=harness_env(tmp))
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(p.returncode or 1)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def harness_env(tmp):
    """The harness never sees the user's AOT overrides, and its
    compilers write their temporaries inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MANTICORE_AOT_")}
    env["TMPDIR"] = str(tmp)
    return env


def run_harness(mode, workload, seed, trace, tmp):
    """One harness process; `tmp` is its private TMPDIR, removed after."""
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(HARNESS), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=ROUND_TIMEOUT_S, env=harness_env(tmp))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} round timed out after "
                           f"{ROUND_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise HarnessError(f"{mode} round exited {p.returncode}: "
                           f"{p.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def collect(workload, seed, seconds, trace):
    """Discard warm-up rounds, then run rounds for `seconds` seconds, then
    top up setup samples.  Returns (plain rounds, traced rounds, setup
    samples, warm-up rounds, errors)."""
    tmp_root = ROOT / ".bench_build" / "tmp" / f"run-{os.getpid()}"
    plain, traced, setups, warmup, errors = [], [], [], [], []
    begun = time.monotonic()
    longest = 0.0

    def attempt(mode, traced_round, name):
        nonlocal longest
        if time.monotonic() - begun + 1.5 * longest > DEADLINE_S:
            return None
        t0 = time.monotonic()
        try:
            r = run_harness(mode, workload, seed, traced_round,
                            tmp_root / name)
        except HarnessError as e:
            errors.append(str(e))
            return None
        longest = max(longest, time.monotonic() - t0)
        return r

    def enough():
        if trace:
            return min(len(plain), len(traced)) >= MIN_TRACED_ROUNDS
        return len(plain) >= MIN_ROUNDS

    try:
        while not errors and time.monotonic() - begun < WARMUP_S:
            r = attempt("round", False, f"warmup-{len(warmup)}")
            warmup += [r] if r else []
        start = time.monotonic()
        n = 0
        while not errors and not (time.monotonic() - start >= seconds
                                  and enough()):
            # Traced runs alternate untraced and traced rounds, so the
            # tracing overhead compares rounds measured side by side.
            traced_round = trace and n % 2 == 1
            r = attempt("round", traced_round, f"round-{n}")
            if r is None:
                break
            (traced if traced_round else plain).append(r)
            n += 1
        if not trace:
            setups = [r["setup_s"] for r in plain]
            while len(setups) < MIN_SETUPS and not errors:
                r = attempt("setup", False, f"setup-{len(setups)}")
                if r is None:
                    break
                setups.append(r["setup_s"])
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return plain, traced, setups, warmup, errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def sim_khz(r):
    return r["lane_cycles"] / r["step_s"] / 1e3


def latencies(r):
    return [j["latency_s"] for j in r["jobs"]]


def end_to_end(plain, setups):
    """Per-round samples of every end-to-end metric (setup_s: per setup
    process); the metric is their median.  Job latency percentiles are
    taken per round: pooled over the run, the tail followed whichever
    rounds a host hiccup hit."""
    return {
        "setup_s": setups,
        "verdict_s": [r["verdict_s"] for r in plain],
        "sim_khz": [sim_khz(r) for r in plain],
        "job_s_p50": [stats.percentile(latencies(r), 50) for r in plain],
        "job_s_p90": [stats.percentile(latencies(r), 90) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def round_layers(r):
    """Per-layer values of one traced round: span durations by name,
    plus the harness's counters.  Layers the workload bypasses read 0."""
    durs = defaultdict(list)
    steps = []
    spans = []
    for name, sid, parent, _job, t0, t1, work in r["spans"]:
        durs[name].append(t1 - t0)
        spans.append((sid, parent, t0, t1))
        if name == "engine.step":
            steps.append((t0, t1, work))
    layer = r["layer"]

    def med(name, scale=1.0):
        return stats.median(durs[name]) * scale if durs[name] else 0.0

    def pct(name, p, scale=1e6):
        return stats.percentile(durs[name], p) * scale if durs[name] else 0.0

    khz = sim_khz(r)
    m = {k: 0.0 for k in PER_LAYER}
    m.update({k: v for k, v in layer.items() if k in PER_LAYER})
    m["engine.list_s"] = sum(durs["engine.list"])
    m["engine.create_s"] = med("engine.create")
    m["engine.step_us_p50"] = pct("engine.step", 50)
    m["engine.step_us_p99"] = pct("engine.step", 99)
    if steps:
        t0, t1, work = min(steps)
        m["engine.first_step_khz"] = work / (t1 - t0) / 1e3
    m["netlist.partition_s"] = med("netlist.partitionNetlist")
    if (r["engine"] == "netlist.parallel"
            and layer.get("netlist.compiled.sim_khz")):
        m["netlist.parallel.speedup"] = khz / layer["netlist.compiled.sim_khz"]
    m["exec.ns_per_lane_cycle"] = r["step_s"] / r["lane_cycles"] * 1e9
    m["service.create_session_us"] = med("service.createSession", 1e6)
    m["service.submit_us"] = med("service.submitRun", 1e6)
    m["service.poll_us_p50"] = pct("service.poll", 50)
    m["service.poll_us_p99"] = pct("service.poll", 99)
    m["service.destroy_us"] = med("service.destroySession", 1e6)
    for key in ("ready_s", "first_quantum_wait_s"):
        seen = [j[key] for j in r["jobs"] if j[key] >= 0]
        if seen:
            m["service." + key] = stats.median(seen)
    if layer.get("service.dedicated_khz"):
        m["service.scaling"] = khz / layer["service.dedicated_khz"]
    selfs = stats.self_times(spans)
    m["harness.self_s"] = sum(selfs[s[1]] for s in r["spans"]
                              if s[0] == "round")
    return m


def per_layer(plain, traced):
    rows = [round_layers(r) for r in traced]
    m = {k: stats.median([row[k] for row in rows]) for k in PER_LAYER}
    plain_v = stats.median([r["verdict_s"] for r in plain])
    traced_v = stats.median([r["verdict_s"] for r in traced])
    m["trace.overhead_pct"] = (traced_v / plain_v - 1.0) * 100.0
    return m


def verdicts(rounds):
    attempted = failed = 0
    reasons = []
    for r in rounds:
        for j in r["jobs"]:
            attempted += 1
            failed += j["failed"]
            if j["failed"]:
                reasons.append(f"{j['design']}@{j['cycles']}: {j['why']}")
        attempted += r["extra_attempted"]
        failed += r["extra_failed"]
        reasons += r["extra_why"]
    return attempted, failed, reasons


# ---------------------------------------------------------------------------
# Host fingerprint and trace export
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git (the
    benchmark also runs in exported trees that have no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library's sources and build files, so a result
    names the code it measured even without a git commit."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint(workload, r):
    parallel = r["engine"] == "netlist.parallel"
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "hw_threads": r["host_threads"],
        "compiler": r["compiler"],
        "flags": r["flags"],
        "aot_compiler": r["aot_compiler"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "engine": r["engine"],
        "P": r["threads"] if parallel else 1,
        "workers": r["threads"] if workload == "farm" else 0,
        "tenants": r["tenants"],
        "lanes": r["lanes"],
        "chunk": r["chunk"],
    }


def export_trace(workload, traced):
    """Chrome trace-event JSON of the traced rounds (one pid each)."""
    events = []
    for pid, r in enumerate(traced):
        for name, sid, parent, job, t0, t1, work in r["spans"]:
            events.append({"name": name, "ph": "X", "pid": pid, "tid": 0,
                           "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                           "args": {"id": sid, "parent": parent,
                                    "job": job, "work": work}})
    path = ROOT / ".bench_build" / f"perfbench-trace-{workload}.json"
    path.write_text(json.dumps({"traceEvents": events}))
    return path


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    plain, traced, setups, warmup, errors = collect(
        args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, reasons = verdicts(plain + traced + warmup)
    if errors:
        # A round that died attempted work nobody verified.
        attempted += len(errors)
        failed += len(errors)
        reasons += errors
    attempted = max(attempted, 1)
    for why in reasons[:20]:
        log(f"perfbench: FAILED {why}")

    metrics = {}
    usable = plain and (traced or not args.trace) and (setups or args.trace)
    if usable:
        print("host: " + json.dumps(fingerprint(args.workload, plain[0])))
        if args.trace:
            values = per_layer(plain, traced)
            values["failed_frac"] = failed / attempted
            units = PER_LAYER
            print(f"trace: {export_trace(args.workload, traced)}")
            for name, v in values.items():
                print(f"  {name:34s} {v:14.6g} {units[name]}")
        else:
            samples = end_to_end(plain, setups)
            values = {k: stats.median(v) for k, v in samples.items()}
            units = END_TO_END
            lat = [x for r in plain for x in latencies(r)]
            tail = stats.tail_percentile(lat)
            print(f"{args.workload}: {len(plain)} rounds, {len(setups)} "
                  f"setups, {len(lat)} jobs (over all of them the highest "
                  f"percentile with >=10 samples beyond it is "
                  f"{'p%g: %.6g s' % (tail, stats.percentile(lat, tail)) if tail else 'none'}"
                  f"), failed_frac {failed / attempted:.4g}")
            print(f"  {'metric':12s} {'median':>12s} {'unit':5s} "
                  f"{'q1':>12s} {'q3':>12s}    n")
            for name, v in samples.items():
                q1, q3 = stats.quartiles(v)
                print(f"  {name:12s} {values[name]:12.6g} {units[name]:5s} "
                      f"{q1:12.6g} {q3:12.6g} {len(v):4d}")
        metrics = {name: {"value": v, "unit": units[name]}
                   for name, v in values.items()}
    print(json.dumps({"correct": failed == 0 and bool(usable),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
