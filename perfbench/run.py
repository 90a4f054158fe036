#!/usr/bin/env python3
"""The sdcm benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds the library, sdcm_sweep and the
benchmark driver (perfbench/driver.cpp) from source into
$CARGO_TARGET_DIR (default .bench_build), then runs closed-loop
campaigns of the chosen workload, one child process per campaign, until
--seconds have passed. Every campaign's outputs are checked; the last
line of stdout is one JSON object with the metrics.

--trace 0 reports the end-to-end metrics, from untraced campaigns (and,
for setup_s, from separate profiled campaigns whose timers stay out of
the other metrics). --trace 1 reports the per-layer metrics: phase
timers, kernel counters, spans, allocation counts, layer
microbenchmarks and the churn growth-with-N series. Workloads, metric
definitions and the reasons behind them are in perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "cmake")
SWEEP = os.path.join(BUILD, "sdcm", "src", "experiment", "sdcm_sweep")
DRIVER = os.path.join(BUILD, "sdcm_perfbench")
CHILD_TIMEOUT_S = 150
# An invocation must end within 180 s once built; no campaign starts
# after this many seconds of measuring.
HARD_STOP_S = 120

# The reference 10^4-User churn scenario pins the repository's default
# master seed (the run PROFILE_churn_1e4.jsonl and the ROADMAP measured).
# Per-seed work of this scenario varies too much to benchmark from the
# seed; see NOTES.md.
CHURN_MASTER_SEED = 20060425
MODELS = ["UPnP", "Jini-1R", "Jini-2R", "FRODO-3party", "FRODO-2party", "mDNS"]
SETUP_PHASES = ("phase.topology_build", "phase.failure_plan", "phase.workload_plan")
RUN_PHASES = SETUP_PHASES + ("phase.run_loop", "phase.extract")


def nproc():
    return len(os.sched_getaffinity(0))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring both targets up to date."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        fail("run from the root of an sdcm source checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "sdcm_perfbench",
                      "sdcm_sweep", "-j", str(nproc())])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


class Workload:
    """One workload: its sdcm_sweep flags and the shape of its output."""

    def __init__(self, name, seed, scratch):
        self.name = name
        self.scratch = scratch
        self.seed_flag = f"--seed={seed}"
        if name == "grid":
            self.flags = ["--threads=1", self.seed_flag]
            self.runs = 3420
        elif name == "grid-checked-mt":
            self.flags = [f"--threads={nproc()}", "--check", self.seed_flag]
            self.runs = 3420
        else:
            self.flags = ["--models=FRODO-3party", "--lambdas=0.3", "--runs=1",
                          "--users=10000", "--workload=churn", "--threads=1",
                          f"--seed={CHURN_MASTER_SEED}"]
            self.flags += scoped_rng_flag()
            self.runs = 1
        self.jsonl = name == "grid-checked-mt"
        self.grid = name != "churn-1e4"

    def pass_flags(self, tag):
        flags = self.flags + ["--no-progress",
                              f"--output={self.path(tag + '.csv')}"]
        if self.jsonl:
            flags.append(f"--jsonl={self.path(tag + '.jsonl')}")
        return flags

    def path(self, name):
        return os.path.join(self.scratch, name)

    def reference_flags(self):
        """sdcm_sweep flags for the cross-check: the grids check each
        other (thread-count determinism, with and without the oracle);
        churn re-runs itself through the real tool."""
        out = ["--no-progress", f"--output={self.path('reference.csv')}"]
        if self.name == "grid":
            return [f"--threads={nproc()}", "--check", self.seed_flag,
                    f"--jsonl={self.path('reference.jsonl')}"] + out
        if self.name == "grid-checked-mt":
            return ["--threads=1", self.seed_flag] + out
        return self.flags + out


def scoped_rng_flag():
    """--multicast-scope=scoped-rng only while sdcm_sweep still offers it;
    once the scope modes fold into one, the flag is simply dropped."""
    usage = subprocess.run([SWEEP, "--help"], capture_output=True, text=True).stdout
    return ["--multicast-scope=scoped-rng"] if "scoped-rng" in usage else []


def run_child(argv):
    """Runs one child to completion; returns (exit code, peak RSS in MB).
    A helper thread blocks in wait4, so nothing polls while it runs."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        reaped = []
        reaper = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
        reaper.start()
        reaper.join(CHILD_TIMEOUT_S)
        if reaper.is_alive():
            proc.kill()
            reaper.join()
            print(f"perfbench: timed out: {' '.join(argv)}", file=sys.stderr)
        _, status, usage = reaped[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        return proc.returncode, usage.ru_maxrss / 1024.0


class Campaigns:
    """Runs driver passes and keeps their results and check verdicts."""

    def __init__(self, workload, slowdown):
        self.w = workload
        self.slowdown = slowdown
        self.passes = []  # every completed pass, in order
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference_csv = None
        self.reference_digest = None

    def run(self, kind, spans=None):
        """Runs one campaign pass ("timed", "profiled" or "counted") and
        checks its outputs; returns its JSON, or None when it failed."""
        tag = f"{kind}-{len(self.passes)}"
        out = self.w.path(tag + ".json")
        argv = [DRIVER, "campaign", f"--out={out}", f"--pass={kind}",
                f"--inject-slowdown={self.slowdown}"]
        if spans:
            argv.append(f"--spans={spans}")
        code, rss_mb = run_child(argv + ["--"] + self.w.pass_flags(tag))
        self.attempted += self.w.runs
        if code != 0 or not os.path.isfile(out):
            self.failed += self.w.runs
            self.problems.append(f"{tag}: driver exit {code}")
            return None
        with open(out) as f:
            result = json.load(f)
        result["rss_mb"] = rss_mb
        self._check(result, tag)
        self.passes.append(result)
        return result

    def _check(self, r, tag):
        bad = r["malformed_runs"] + r["violating_runs"]
        if r["violations"]:
            self.problems.append(f"{tag}: {r['violations']} oracle violations")
        if r["malformed_runs"]:
            self.problems.append(f"{tag}: {r['malformed_runs']} malformed run records")
        if (r["runs"] != self.w.runs or len(r["run_wall_ns"]) != self.w.runs
                or 0 in r["run_wall_ns"]):
            self.problems.append(f"{tag}: {r['runs']} of {self.w.runs} runs completed")
            bad = self.w.runs
        with open(self.w.path(tag + ".csv")) as f:
            csv = f.read()
        problem = check_csv(csv, self.w)
        if problem is None and self.reference_csv is None:
            self.reference_csv, self.reference_digest = csv, r["digest"]
        elif problem is None and csv != self.reference_csv:
            problem = "CSV differs from the first campaign's"
        elif problem is None and r["digest"] != self.reference_digest:
            problem = "run-record digest differs from the first campaign's"
        if problem is None and self.w.jsonl:
            with open(self.w.path(tag + ".jsonl"), "rb") as f:
                lines = f.read().count(b"\n")
            r["jsonl_bytes"] = os.path.getsize(self.w.path(tag + ".jsonl"))
            if lines != self.w.runs + 1:
                problem = f"campaign log has {lines} lines, not {self.w.runs + 1}"
        if problem is not None:
            self.problems.append(f"{tag}: {problem}")
            bad = self.w.runs
        self.failed += min(bad, self.w.runs)

    def cross_check(self):
        """Runs the real sdcm_sweep once and compares its CSV with ours."""
        self.attempted += self.w.runs
        code, _ = run_child([SWEEP] + self.w.reference_flags())
        problem = None
        if code != 0:
            problem = f"sdcm_sweep exited {code}"
        else:
            with open(self.w.path("reference.csv")) as f:
                csv = f.read()
            if self.reference_csv is not None and csv != self.reference_csv:
                problem = "sdcm_sweep CSV differs from the benchmark's"
        if problem:
            self.problems.append(f"cross-check: {problem}")
            self.failed += self.w.runs

    def of(self, kind):
        return [p for p in self.passes if p["pass"] == kind]


def check_csv(csv, w):
    """Shape and range of the result table; None when it is sound."""
    lines = csv.strip().split("\n")
    if lines[0] != "model,lambda,responsiveness,effectiveness,efficiency,degradation,runs":
        return "unexpected CSV header"
    rows = [line.split(",") for line in lines[1:]]
    expected = 6 * 19 if w.grid else 1
    if len(rows) != expected:
        return f"{len(rows)} CSV rows, expected {expected}"
    for row in rows:
        values = [float(x) for x in row[2:6]]
        if any(not 0.0 <= v <= 1.0 for v in values):
            return f"metric out of [0, 1] in row {','.join(row)}"
        if int(row[6]) != (30 if w.grid else 1):
            return f"wrong run count in row {','.join(row)}"
        # Without failures every User ends consistent (Figure 4 at 0).
        if w.grid and float(row[1]) == 0.0 and values[1] != 1.0:
            return f"effectiveness below 1 at lambda 0: {','.join(row)}"
    return None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def runs_per_s(p):
    return p["runs"] / (p["wall_ns"] / 1e9)


def phase_ns(p, phase, model=None):
    models = [model] if model else list(p.get("phases", {}))
    return sum(p["phases"].get(m, {}).get(phase, {}).get("total_ns", 0) for m in models)


def setup_seconds(p):
    return sum(phase_ns(p, name) for name in SETUP_PHASES) / 1e9


def end_to_end(c):
    """Throughput over the whole measured window, percentiles over every
    run of it, medians of the per-campaign set-up and memory figures."""
    timed = c.of("timed")
    walls = [ns for p in timed for ns in p["run_wall_ns"]]
    return {
        "runs_per_s": (sum(p["runs"] for p in timed) /
                       (sum(p["wall_ns"] for p in timed) / 1e9), "1/s"),
        "run_ms_p50": (percentile(walls, 50) / 1e6, "ms"),
        "run_ms_p99": (percentile(walls, 99) / 1e6, "ms"),
        "setup_s": (statistics.median(setup_seconds(p) for p in c.of("profiled")), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in timed), "MB"),
        "ok_run_share": (1.0 - c.failed / c.attempted, "share"),
    }, len(walls)


def ratio(a, b):
    return a / b if b else 0.0


def growth_series(w, slowdown):
    """FRODO-3party churn at 10^3, 10^4 and 3*10^4 Users, profiled, one
    fresh process each: loop ns/event, set-up phases, heap bytes/User."""
    out = {}
    for tag, users in (("n1e3", 1000), ("n1e4", 10000), ("n3e4", 30000)):
        path = w.path(f"growth-{tag}.json")
        argv = [DRIVER, "campaign", f"--out={path}", "--pass=profiled",
                f"--inject-slowdown={slowdown}", "--",
                "--models=FRODO-3party", "--lambdas=0.3", "--runs=1",
                f"--users={users}", "--workload=churn", "--threads=1",
                f"--seed={CHURN_MASTER_SEED}", "--no-progress"] + scoped_rng_flag()
        code, _ = run_child(argv)
        if code != 0:
            return None, f"growth {tag}: driver exit {code}"
        with open(path) as f:
            p = json.load(f)
        topo = p["phases"]["FRODO-3party"]["phase.topology_build"]
        out[f"growth.{tag}.loop_ns_per_event"] = (
            ratio(phase_ns(p, "phase.run_loop"), p["kernel"]["events_fired"]), "ns")
        for phase in SETUP_PHASES:
            out[f"growth.{tag}.{phase[6:]}_ms"] = (phase_ns(p, phase) / 1e6, "ms")
        out[f"growth.{tag}.bytes_per_user"] = (
            (topo["heap_bytes"] - p["heap_before"]) / users, "B")
    out["growth.loop_ns_per_event_ratio"] = (
        ratio(out["growth.n3e4.loop_ns_per_event"][0],
              out["growth.n1e3.loop_ns_per_event"][0]), "x")
    return out, None


def per_layer(c, layers, counted, growth):
    timed = c.of("timed")
    traced = c.of("profiled")
    traced_sorted = sorted(traced, key=runs_per_s)
    t = traced_sorted[len(traced_sorted) // 2]
    k = t["kernel"]
    runs = t["runs"]
    events = k["events_fired"]
    m = {}
    m["sim.events_fired_per_run"] = (events / runs, "count")
    m["sim.cancel_ratio"] = (ratio(k["events_cancelled"], k["events_scheduled"]), "ratio")
    m["sim.peak_heap"] = (k["peak_heap_size"], "count")
    m["sim.loop_ns_per_event"] = (ratio(phase_ns(t, "phase.run_loop"), events), "ns")
    m["sim.callback_heap_allocs_per_event"] = (ratio(k["callback_heap_allocs"], events), "ratio")
    m["sim.queue_ns_per_op.d400"] = (layers["queue_ns_per_op_d400"], "ns")
    m["sim.queue_ns_per_op.d2e5"] = (layers["queue_ns_per_op_d2e5"], "ns")
    m["net.udp_sent_per_run"] = (k["udp_sent"] / runs, "count")
    m["net.tcp_sent_per_run"] = (k["tcp_sent"] / runs, "count")
    m["net.tcp_retry_ratio"] = (ratio(k["tcp_dropped"], k["tcp_sent"]), "ratio")
    m["net.multicast_ns_per_delivery.n1e4"] = (layers["multicast_ns_per_delivery_n1e4"], "ns")
    m["net.unicast_ns"] = (layers["unicast_ns"], "ns")
    for model in MODELS:
        mk = t["models"].get(model, {"runs": 0, "kernel": {"events_fired": 0}})
        fired = mk["kernel"]["events_fired"]
        m[f"{model.lower()}.loop_ns_per_event"] = (
            ratio(phase_ns(t, "phase.run_loop", model), fired), "ns")
        m[f"{model.lower()}.events_per_run"] = (ratio(fired, mk["runs"]), "count")
    m["discovery.heap_bytes_per_user"] = growth["growth.n1e4.bytes_per_user"]
    for phase in RUN_PHASES:
        m[f"experiment.{phase[6:]}_ms"] = (phase_ns(t, phase) / 1e6 / runs, "ms/run")
    m["experiment.allocs_per_event"] = (
        ratio(counted["allocations"], counted["kernel"]["events_fired"]), "ratio")
    m["experiment.pool_busy_share"] = (statistics.median(
        ratio(p["run_wall_ns_total"], p["threads"] * p["engine_wall_ns"]) for p in timed), "share")
    m["experiment.sink_ns_per_run"] = (phase_ns(t, "phase.sink_flush") / runs, "ns")
    m["experiment.jsonl_bytes_per_run"] = (t.get("jsonl_bytes", 0) / runs, "B")
    oracle = phase_ns(t, "phase.oracle_check")
    engine_work = t["run_wall_ns_total"] + phase_ns(t, "phase.sink_flush") + oracle
    m["check.oracle_ns_per_run"] = (oracle / runs, "ns")
    m["check.oracle_share"] = (ratio(oracle, engine_work), "share")
    m["obs.trace_records_per_run"] = (k["trace_records"] / runs, "count")
    m["metrics.summary_ns_per_run"] = (layers["summary_ns_per_run"], "ns")

    untraced_rps = statistics.median(runs_per_s(p) for p in timed)
    traced_rps = statistics.median(runs_per_s(p) for p in traced)
    m["trace.runs_per_s_untraced"] = (untraced_rps, "1/s")
    m["trace.runs_per_s_traced"] = (traced_rps, "1/s")
    m["trace.overhead_share"] = (1.0 - traced_rps / untraced_rps, "share")

    # Self time per layer (ms per campaign): a span's duration minus
    # what its children cover. Campaign -> run -> phase; the engine's
    # sink and oracle callbacks sit beside the runs under the campaign.
    run_phases = sum(phase_ns(t, p) for p in RUN_PHASES)
    engine_phases = phase_ns(t, "phase.sink_flush") + oracle
    m["self_ms.campaign"] = (
        (t["threads"] * t["engine_wall_ns"] - t["run_wall_ns_total"] - engine_phases) / 1e6, "ms")
    m["self_ms.run"] = ((t["run_wall_ns_total"] - run_phases) / 1e6, "ms")
    for phase in RUN_PHASES + ("phase.sink_flush", "phase.oracle_check"):
        m[f"self_ms.{phase[6:]}"] = (phase_ns(t, phase) / 1e6, "ms")
    m.update(growth)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "grid-checked-mt", "churn-1e4"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-slowdown", type=float, default=0.0,
                        help="busy-wait this share of each run's wall time in "
                             "the benchmark's own RunSink (bound power check)")
    args = parser.parse_args()

    build()
    scratch = os.path.join(os.path.dirname(BUILD), "perfbench-runs",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        w = Workload(args.workload, args.seed, scratch)
        c = Campaigns(w, args.inject_slowdown)
        start = time.monotonic()

        def time_left():
            now = time.monotonic()
            return now - start < args.seconds and now - start < HARD_STOP_S

        if args.trace == 0:
            # Interleave one profiled campaign per three untraced ones, so
            # drift hits both; setup_s needs fewer samples than the
            # metrics whose run-to-run spread is bounded.
            while time.monotonic() - start < HARD_STOP_S:
                c.run("timed")
                if len(c.of("timed")) % 3 == 1:
                    c.run("profiled")
                if not time_left() and len(c.of("timed")) >= 3 and len(c.of("profiled")) >= 2:
                    break
            c.cross_check()
            if len(c.of("timed")) < 1 or len(c.of("profiled")) < 1:
                fail("no campaign completed: " + "; ".join(c.problems))
            metrics, runs = end_to_end(c)
            print(f"perfbench: {args.workload}: {len(c.of('timed'))} timed + "
                  f"{len(c.of('profiled'))} profiled campaigns; run_ms_* over "
                  f"{runs} runs", file=sys.stderr)
        else:
            spans_dir = os.path.join(os.path.dirname(BUILD), "perfbench-spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            layers_path = w.path("layers.json")
            if run_child([DRIVER, "layers", f"--out={layers_path}"])[0] != 0:
                fail("layer microbenchmarks failed")
            with open(layers_path) as f:
                layers = json.load(f)
            if any(v < 0 for v in layers.values()):
                c.problems.append(f"layer microbenchmark self-check failed: {layers}")
            growth, problem = growth_series(w, args.inject_slowdown)
            if problem:
                fail(problem)
            counted = c.run("counted")
            while time_left() or len(c.of("timed")) < 2 or len(c.of("profiled")) < 2:
                if time.monotonic() - start > HARD_STOP_S:
                    break
                c.run("timed")
                c.run("profiled", spans=spans_path)
            if counted is None or not c.of("timed") or not c.of("profiled"):
                fail("no campaign completed: " + "; ".join(c.problems))
            metrics = per_layer(c, layers, counted, growth)
            print(f"perfbench: {args.workload}: spans in {spans_path}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in c.problems:
        print(f"perfbench: FAILED CHECK {problem}", file=sys.stderr)
    correct = not c.problems
    print(json.dumps({
        "correct": correct,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
