#!/usr/bin/env python3
"""perfbench: the simulator's benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `prophet` and the traced-run
harness from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR,
else .bench_build, then measures one workload (perfbench/workloads.py)
for S seconds as a closed loop of iterations. One iteration:

  1. a fresh trace-cache directory holding the traces this run warmed
     once, untimed, with `prophet trace-cache warm`, and nothing else;
  2. set-up: `prophet trace-cache warm` again over that directory on
     one thread, which loads and verifies every trace (setup_s);
  3. the workload's specs, one sequential `prophet run` each, tracing
     off (wall_s, cpu_s, peak_rss_mb, job_s.*).

With --trace 1 each iteration also runs the same specs through
layer_trace, which times every library call from outside, and the run
reports the per-layer metrics instead (perfbench/README.md). Every job
result is checked: each invocation exits 0, each job reports the
workload's record count, results repeat bit for bit across iterations,
and the traced results equal the CLI's JSON sink. The last line of
stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402
import workloads  # noqa: E402

# Any one invocation is killed after this long: a run must end within
# 180 s, and no invocation takes a tenth of it.
INVOCATION_TIMEOUT_S = 150

# Generators stop at the end of a pattern, so a trace may run a few
# records past its "records" budget, never short of it.
RECORD_SLACK = 64

# The first set-up after the traces are written is slower (the page
# cache still holds them dirty), so each run sets up this many times
# before its loop as well as once per iteration.
SETUP_ROUNDS = 3

# Stats fields the traced results must match the CLI's JSON sink on.
REQUIRED_STATS = ["ipc", "cycles", "instructions", "records",
                  "l2_demand_misses", "llc_misses",
                  "l2_prefetches_issued", "l2_prefetches_useful",
                  "dram_reads", "dram_writes"]


class BenchError(Exception):
    """The benchmark cannot produce a result (no build, no inputs)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_proc(argv, log_path):
    """Run @p argv to completion. Returns (exit code, wall s, rusage)."""
    with open(log_path, "ab") as log_file:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=log_file)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def build(build_dir):
    """Configure (once) and build prophet + layer_trace."""
    bdir = os.path.join(build_dir, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    blog = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "prophet",
                  "layer_trace", "-j", str(os.cpu_count() or 1)])
    for argv in steps:
        with open(blog, "ab") as out:
            rc = subprocess.call(argv, cwd=ROOT, stdout=out, stderr=out)
        if rc != 0:
            with open(blog, errors="replace") as f:
                tail = f.read()[-3000:]
            raise BenchError("build failed (%s):\n%s" % (" ".join(argv),
                                                        tail))
    return (os.path.join(bdir, "prophet", "prophet"),
            os.path.join(bdir, "layer_trace"), bdir)


def host_fingerprint(bdir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def fresh_cache(warm_dir, dest):
    """@p dest := the warmed traces and nothing else. Big files are hard
    links (the cache replaces entries by rename, never in place)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for name in os.listdir(warm_dir):
        src = os.path.join(warm_dir, name)
        if not os.path.isfile(src):
            continue
        if os.path.getsize(src) >= (1 << 20):
            os.link(src, os.path.join(dest, name))
        else:
            shutil.copy2(src, os.path.join(dest, name))


def result_name(pipeline):
    if isinstance(pipeline, str):
        return pipeline
    return pipeline.get("label") or pipeline["name"]


class Bench:
    def __init__(self, workload, seed, prophet, harness, work, threads,
                 log_path):
        self.workload = workload
        self.prophet = prophet
        self.harness = harness
        self.work = work
        self.threads = threads
        self.log_path = log_path
        self.specs = []  # (spec document, spec file path, sink path)
        os.makedirs(os.path.join(work, "specs"))
        for spec in workloads.instantiate(workload, seed):
            base = os.path.join(work, "specs", spec["name"])
            spec["sinks"] = [{"type": "json", "path": base + ".sink.json"}]
            with open(base + ".json", "w") as f:
                json.dump(spec, f, indent=1)
            self.specs.append((spec, base + ".json", base + ".sink.json"))
        self.warm_dir = os.path.join(work, "warm")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}         # (spec, workload, pipeline) -> row
        self.expected_records = {}  # workload -> records
        self.walls, self.cpus, self.setups, self.rss = [], [], [], []
        self.job_seconds = []
        self.traced_walls = []
        self.layer_runs = []
        self.layer_selfs = []
        self.chrome_events = []
        self.procs = 0

    def problem(self, msg):
        if len(self.problems) < 20:
            self.problems.append(msg)
        log("perfbench: " + msg)

    def spec_files(self):
        return [path for _, path, _ in self.specs]

    def warm(self):
        """Generate the inputs once, untimed."""
        rc, wall, _ = run_proc(
            [self.prophet, "trace-cache", "warm"] + self.spec_files()
            + ["--threads", str(self.threads),
               "--trace-cache-dir", self.warm_dir], self.log_path)
        if rc != 0:
            raise BenchError("trace-cache warm failed (exit %d); see %s"
                             % (rc, self.log_path))
        # Flush the new traces to disk now, so their write-back does not
        # land inside a measured iteration.
        os.sync()
        log("perfbench: warmed %s inputs in %.2f s" % (self.workload,
                                                       wall))

    # ------------------------------------------------------- checks

    def check_rows(self, spec, rows, tag):
        """Failed-job count of one spec's JSON-sink rows."""
        grid = [(w, result_name(p)) for w in spec["workloads"]
                for p in spec["pipelines"]]
        got = [(r.get("workload"), r.get("pipeline")) for r in rows]
        if got != grid:
            self.problem("%s %s: job grid differs from the spec"
                         % (tag, spec["name"]))
            return len(grid)
        bad = 0
        for row in rows:
            w, p = row["workload"], row["pipeline"]
            if "error" in row:
                self.problem("%s %s/%s failed: %s" % (
                    tag, w, p, row["error"].get("message")))
                bad += 1
                continue
            recs = int(row["stats"]["records"])
            expect = self.expected_records.setdefault(w, recs)
            if (recs != expect or not spec["records"] <= recs
                    <= spec["records"] + RECORD_SLACK):
                self.problem("%s %s/%s: %d records, expected %d"
                             % (tag, w, p, recs, expect))
                bad += 1
                continue
            key = (spec["name"], w, p)
            if self.reference.setdefault(key, row) != row:
                self.problem("%s %s/%s: results differ from the first "
                             "iteration" % (tag, w, p))
                bad += 1
        return bad

    def check_traced(self, spec, doc, cli_rows):
        """Failed-job count of traced results against the CLI's rows."""
        if cli_rows is None:
            return len(doc["results"])
        cli = {(r["workload"], r["pipeline"]): r["stats"]
               for r in cli_rows}
        bad = 0
        for row in doc["results"]:
            key = (row["workload"], row["pipeline"])
            want, have = cli.get(key), row["stats"]
            common = set(want or {}) & set(have)
            if (want is None or not set(REQUIRED_STATS) <= common
                    or any(want[k] != have[k] for k in common)):
                self.problem("traced %s %s/%s differs from the CLI"
                             % (spec["name"], *key))
                bad += 1
        return bad

    # --------------------------------------------------- iterations

    def setup(self, cache, tag):
        """Time making the traces resident from @p cache (setup_s). One
        thread: the serial cost of the loads, which a few stalled
        threads of a parallel load would otherwise swamp."""
        rc, wall, _ = run_proc(
            [self.prophet, "trace-cache", "warm"] + self.spec_files()
            + ["--threads", "1", "--trace-cache-dir", cache],
            self.log_path)
        if rc != 0:
            self.problem("%s: set-up exited %d" % (tag, rc))
        self.setups.append(wall)

    def extra_setups(self):
        """Set-up rounds of their own before the loop, so setup_s is a
        median of at least SETUP_ROUNDS + 1 samples however few
        iterations fit in the run."""
        cache = os.path.join(self.work, "cache")
        for k in range(SETUP_ROUNDS):
            fresh_cache(self.warm_dir, cache)
            self.setup(cache, "set-up round %d" % k)
        shutil.rmtree(cache, ignore_errors=True)

    def cli_iteration(self, i):
        cache = os.path.join(self.work, "cache")
        fresh_cache(self.warm_dir, cache)
        self.setup(cache, "iteration %d" % i)
        walls = cpu = rss = 0.0
        rows_by_spec = {}
        for spec, path, sink in self.specs:
            n_jobs = len(spec["workloads"]) * len(spec["pipelines"])
            self.attempted += n_jobs
            metrics_out = os.path.join(self.work, "metrics.json")
            for stale in (sink, metrics_out):
                if os.path.exists(stale):
                    os.remove(stale)
            rc, wall, usage = run_proc(
                [self.prophet, "run", path, "--threads",
                 str(self.threads), "--trace-cache-dir", cache,
                 "--metrics-out", metrics_out], self.log_path)
            walls += wall
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024.0)  # KiB -> MiB
            if rc != 0 or not os.path.exists(sink):
                self.problem("iteration %d: prophet run %s exited %d"
                             % (i, spec["name"], rc))
                self.failed += n_jobs
                continue
            with open(sink) as f:
                rows = json.load(f)["results"]
            with open(metrics_out) as f:
                jobs = analysis.parse_metrics_report(json.load(f))
            self.job_seconds += [j["seconds"] for j in jobs]
            bad = self.check_rows(spec, rows, "iteration %d" % i)
            if len(jobs) != n_jobs or not all(j["ok"] for j in jobs):
                self.problem("iteration %d: %s metrics report shows "
                             "failed jobs" % (i, spec["name"]))
                bad = n_jobs
            self.failed += bad
            rows_by_spec[spec["name"]] = rows
        shutil.rmtree(cache, ignore_errors=True)
        self.walls.append(walls)
        self.cpus.append(cpu)
        self.rss.append(rss)
        log("perfbench: iteration %d: wall %.3f s, cpu %.3f s, rss %.1f MiB,"
            " set-up %.3f s" % (i, walls, cpu, rss, self.setups[-1]))
        return rows_by_spec

    def traced_iteration(self, i, cli_rows):
        cache = os.path.join(self.work, "cache")
        fresh_cache(self.warm_dir, cache)
        docs, spans = [], []
        wall = 0.0
        for k, (spec, path, _) in enumerate(self.specs):
            out = os.path.join(self.work, "layer.json")
            trace_out = os.path.join(self.work, "layer.trace.json")
            argv = [self.harness, path, "--threads", str(self.threads),
                    "--trace-cache-dir", cache, "--run-id", str(i),
                    "--out", out, "--trace-out", trace_out]
            if k == len(self.specs) - 1:
                argv.append("--probes")
            n_jobs = len(spec["workloads"]) * len(spec["pipelines"])
            self.attempted += n_jobs
            rc, took, _ = run_proc(argv, self.log_path)
            if rc != 0:
                self.problem("iteration %d: layer_trace %s exited %d"
                             % (i, spec["name"], rc))
                self.failed += n_jobs
                continue
            with open(out) as f:
                doc = json.load(f)
            with open(trace_out) as f:
                chrome = json.load(f)
            wall += took - doc["probe_ns"] / 1e9
            self.failed += self.check_traced(spec, doc,
                                             cli_rows.get(spec["name"]))
            docs.append(doc)
            spans += analysis.spans_from_chrome(chrome, self.procs)
            for e in chrome["traceEvents"]:
                e["pid"] = self.procs
            self.chrome_events += chrome["traceEvents"]
            self.procs += 1
        shutil.rmtree(cache, ignore_errors=True)
        if len(docs) != len(self.specs):
            return
        self.attempted += 1  # the span self-time check
        mismatches = analysis.track_mismatches(
            spans, analysis.self_times(spans))
        if mismatches:
            self.problem("iteration %d: self times do not add up on "
                         "tracks %s" % (i, mismatches[:3]))
            self.failed += 1
        self.traced_walls.append(wall)
        self.layer_runs.append(analysis.layer_metrics(spans, docs,
                                                      self.threads))
        self.layer_selfs.append(analysis.layer_self_s(spans))

    # ------------------------------------------------------- report

    def end_to_end(self):
        p50, _ = analysis.percentile(self.job_seconds, 50)
        p90, _ = analysis.percentile(self.job_seconds, 90)
        return {
            "wall_s": statistics.median(self.walls),
            "cpu_s": statistics.median(self.cpus),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(self.rss),
            "job_s.p50": p50,
            "job_s.p90": p90,
        }

    def per_layer(self):
        out = {}
        for name, unit in analysis.PER_LAYER:
            if name == "tracing.overhead_s":
                out[name] = (statistics.median(self.traced_walls)
                             - statistics.median(self.walls))
                continue
            value = statistics.median(r[name] for r in self.layer_runs)
            if unit == "count" and float(value).is_integer():
                value = int(value)
            out[name] = value
        return out

    def write_chrome(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.chrome_events,
                       "displayTimeUnit": "ms"}, f)


def report_lines(bench, metrics, units, trace):
    iters = len(bench.walls)
    lines = []
    for name, value in metrics.items():
        unit = units[name]
        note = ""
        if name.startswith("job_s."):
            q = float(name[len("job_s.p"):])
            _, beyond = analysis.percentile(bench.job_seconds, q)
            note = "n=%d jobs pooled, %d beyond%s" % (
                len(bench.job_seconds), beyond,
                "" if beyond >= 10 else " (fewer than 10: indicative)")
        elif trace and name == "tracing.overhead_s":
            note = "traced %.3f s - untraced %.3f s (medians)" % (
                statistics.median(bench.traced_walls),
                statistics.median(bench.walls))
        elif trace and name == "model.prophet_over_triangel":
            note = ("paper: +%.2f%%; the model is unvalidated, not "
                    "gated" % analysis.PAPER_PROPHET_OVER_TRIANGEL_PCT)
        elif name == "setup_s":
            note = "median of %d set-ups" % len(bench.setups)
        elif trace:
            note = "median of %d traced iterations" % len(bench.layer_runs)
        else:
            note = "median of %d iterations" % iters
        shown = ("%14d" % value if isinstance(value, int)
                 else "%14.6g" % value)
        lines.append("  %-30s %s %-6s %s" % (name, shown, unit, note))
    if not trace:
        ratio = bench.failed / bench.attempted if bench.attempted else 0.0
        lines.append("  %-30s %14.6g %-6s %d of %d jobs" % (
            "fail_ratio", ratio, "ratio", bench.failed, bench.attempted))
    else:
        selfs = {}
        for run in bench.layer_selfs:
            for layer, s in run.items():
                selfs.setdefault(layer, []).append(s)
        lines.append("  layer self time (median s): " + ", ".join(
            "%s %.4f" % (k, statistics.median(v))
            for k, v in sorted(selfs.items())))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        prophet, harness, bdir = build(build_dir)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    host = host_fingerprint(bdir)
    threads = min(4, os.cpu_count() or 1)
    work = os.path.join(build_dir, "perfbench-work",
                        "%s-%d-%d" % (args.workload, args.seed,
                                      os.getpid()))
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d" % (args.workload, args.seed))
    with open(stem + ".log", "w"):
        pass  # the invocations' stderr, fresh per run
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(args.workload, args.seed, prophet, harness, work,
                      threads, stem + ".log")
        bench.warm()
        bench.extra_setups()
        start = time.monotonic()
        i = 0
        while i == 0 or time.monotonic() - start < args.seconds:
            rows = bench.cli_iteration(i)
            if args.trace:
                bench.traced_iteration(i, rows)
            i += 1
        if args.trace and not bench.layer_runs:
            raise BenchError("no traced iteration completed; see %s"
                             % bench.log_path)
        if not bench.job_seconds:
            raise BenchError("no job completed; see %s" % bench.log_path)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = bench.per_layer()
        units = dict(analysis.PER_LAYER)
        chrome = stem + ".trace.json"
        bench.write_chrome(chrome)
        log("perfbench: spans written to %s" % chrome)
    else:
        metrics = bench.end_to_end()
        units = dict(analysis.END_TO_END)
    print("perfbench %s seed=%d trace=%d threads=%d seconds=%g "
          "iterations=%d" % (args.workload, args.seed, args.trace,
                             threads, args.seconds, len(bench.walls)))
    print("host: nproc=%s cpu=%r compiler=%r build=%s" % (
        host["nproc"], host["cpu"], host["compiler"], host["build_type"]))
    for line in report_lines(bench, metrics, units, args.trace):
        print(line)
    for msg in bench.problems:
        print("  problem: " + msg)
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
