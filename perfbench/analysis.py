"""Pure computations of the benchmark: the percentile rule, span self
times, the `prophet run --metrics-out` parser and the per-layer metrics
of one traced run. perfbench/test_perfbench.py tests each of them."""

import math
import statistics

# Every end-to-end metric, as BENCHMARK.json lists them. fail_ratio is
# reported too, but through the result's "attempted" and "failed"
# counts: it is 0 on a correct run, and a bound relative to 0 means
# nothing.
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
]

KINDS = ["none", "triangel", "triage", "stms", "domino", "prophet"]
MODEL_PIPELINES = ["rpg2", "triangel", "prophet", "stms", "domino",
                   "triage4"]

# Every per-layer metric of a traced run, as BENCHMARK.json lists them.
PER_LAYER = (
    [("trace.load_s", "s"), ("trace.load_mb_per_s", "MB/s"),
     ("trace.resident_mb", "MB")]
    + [("sim.ns_per_rec." + k, "ns") for k in KINDS]
    + [("sim.runs", "count"), ("sim.records", "count"),
       ("core.profile_s", "s"), ("core.analyze_s", "s"),
       ("core.learn_s", "s"), ("core.hint_pcs", "count"),
       ("rpg2.identify_s", "s"), ("rpg2.kernels", "count"),
       ("rpg2.tune_runs", "count"),
       ("driver.util", "ratio"), ("driver.tail_s", "s"),
       ("mem.l2_mpki", "mpki"), ("mem.llc_mpki", "mpki"),
       ("mem.dram_reads", "count"), ("mem.dram_writes", "count"),
       ("prefetch.issued", "count"), ("prefetch.useful", "count"),
       ("prefetch.late", "count"), ("prefetch.accuracy", "ratio"),
       ("prefetch.coverage", "ratio"),
       ("prefetch.markov_lookups", "count"),
       ("prefetch.markov_hits", "count"),
       ("prefetch.offchip_meta_reads", "count"),
       ("prefetch.offchip_meta_writes", "count")]
    + [("model.speedup_geomean." + p, "x") for p in MODEL_PIPELINES]
    + [("model.prophet_over_triangel", "%"),
       ("tracing.overhead_s", "s")]
)

# The paper's one reference figure the model can be set beside: Prophet
# over Triangel, +14.23%. The model is unvalidated; nothing gates on it.
PAPER_PROPHET_OVER_TRIANGEL_PCT = 14.23


# ----------------------------------------------------------- percentiles

def percentile(values, q):
    """Nearest-rank percentile @p q (0-100] of @p values.

    Returns (value, beyond): beyond is the number of samples strictly
    ranked above it. The benchmark reports a percentile as trustworthy
    only when beyond >= 10.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def spread(values):
    """Quartile distance as a share of the median (the steadiness
    measure: statistics.quantiles(values, n=4))."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


# ------------------------------------------------------------------ spans

def _union_ns(intervals):
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: self ns}: each span's duration minus the part of its
    interval its child spans cover. Spans are dicts with id, parent,
    start and end (ns)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        covered = _union_ns([k for k in kids if k[1] > k[0]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def track_mismatches(spans, selfs):
    """Tracks whose self times do not add up to the time their spans
    cover, as [(track, self sum ns, covered ns)]. A track is one
    (process, thread) pair."""
    tracks = {}
    for s in spans:
        tracks.setdefault((s["proc"], s["tid"]), []).append(s)
    bad = []
    for track, members in sorted(tracks.items()):
        total = sum(selfs[s["id"]] for s in members)
        covered = _union_ns([(s["start"], s["end"]) for s in members])
        if total != covered:
            bad.append((track, total, covered))
    return bad


def spans_from_chrome(doc, proc):
    """The spans of one layer_trace Chrome trace, tagged with @p proc
    (ids are unique only within one process)."""
    out = []
    for e in doc["traceEvents"]:
        a = e["args"]
        out.append({
            "name": e["name"], "layer": e["cat"], "tid": int(e["tid"]),
            "proc": proc, "id": (proc, int(a["id"])),
            "parent": (proc, int(a["parent"])) if a["parent"] else None,
            "start": int(a["start_ns"]),
            "end": int(a["end_ns"]), "detail": a["detail"],
            "count": int(a["count"]), "probe": bool(a["probe"]),
        })
    return out


# ---------------------------------------------------- metrics-out parser

def parse_metrics_report(doc):
    """The jobs of a `prophet run --metrics-out` document: one entry per
    job with its workload, pipeline, success and host seconds."""
    return [{"workload": j["workload"], "pipeline": j["pipeline"],
             "ok": bool(j["ok"]), "seconds": float(j["seconds"])}
            for j in doc["jobs"]]


# ------------------------------------------------- per-layer of one run

def _pick(spans, name, detail=None):
    """Spans called @p name (and @p detail): the jobs' own when there are
    any, else the probe calls made for this metric."""
    match = [s for s in spans if s["name"] == name
             and (detail is None or s["detail"] == detail)]
    own = [s for s in match if not s["probe"]]
    return own if own else match


def _sum_s(spans):
    return sum(s["end"] - s["start"] for s in spans) / 1e9


def _driver(spans, workers):
    """Pool utilisation and tail seconds over the job phases."""
    busy = capacity = tail = 0
    for phase in [s for s in spans if s["name"].startswith("phase.")]:
        jobs = [s for s in spans if s["name"] == "job"
                and s["proc"] == phase["proc"]
                and phase["start"] <= s["start"] <= phase["end"]]
        length = phase["end"] - phase["start"]
        busy += sum(s["end"] - s["start"] for s in jobs)
        capacity += workers * length
        last = {}
        for s in jobs:
            last[s["tid"]] = max(last.get(s["tid"], 0), s["end"])
        full_until = (min(last.values()) if len(last) >= workers
                      else phase["start"])
        tail += phase["end"] - max(phase["start"], full_until)
    return (busy / capacity if capacity else 0.0), tail / 1e9


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def layer_metrics(spans, docs, workers):
    """Every PER_LAYER metric but tracing.overhead_s, for one traced run.

    @p spans: the run's spans (spans_from_chrome) over all its specs;
    @p docs: layer_trace's result documents, one per spec, in spec
    order; @p workers: the pool size.
    """
    m = {}
    loads = _pick(spans, "trace.load")
    m["trace.load_s"] = _sum_s(loads)
    resident = [d["resident_trace_bytes"] for d in docs]
    m["trace.resident_mb"] = max(resident) / 1e6
    m["trace.load_mb_per_s"] = (sum(resident) / 1e6 / m["trace.load_s"]
                                if m["trace.load_s"] else 0.0)
    for k in KINDS:
        runs = _pick(spans, "sim.run", k)
        recs = sum(s["count"] for s in runs)
        m["sim.ns_per_rec." + k] = (sum(s["end"] - s["start"]
                                        for s in runs) / recs
                                    if recs else 0.0)
    own_runs = [s for s in spans if s["name"] == "sim.run"
                and not s["probe"]]
    m["sim.runs"] = len(own_runs)
    m["sim.records"] = sum(s["count"] for s in own_runs)
    for name in ("profile", "analyze", "learn"):
        m["core.%s_s" % name] = _sum_s(_pick(spans, "core." + name))
    m["rpg2.identify_s"] = _sum_s(_pick(spans, "rpg2.identify"))

    def own_count(name):
        return sum(s["count"] for s in spans
                   if s["name"] == name and not s["probe"])
    m["core.hint_pcs"] = own_count("core.analyze")
    m["rpg2.kernels"] = own_count("rpg2.identify")
    m["rpg2.tune_runs"] = own_count("rpg2.tune")
    m["driver.util"], m["driver.tail_s"] = _driver(spans, workers)

    rows = [(r, d["baselines"].get(r["workload"])) for d in docs
            for r in d["results"]]
    stats = [r["stats"] for r, _ in rows] + [
        b for d in docs for b in d["baselines"].values()]
    insts = sum(s["instructions"] for s in stats)
    m["mem.l2_mpki"] = (1000.0 * sum(s["l2_demand_misses"] for s in stats)
                        / insts if insts else 0.0)
    m["mem.llc_mpki"] = (1000.0 * sum(s["llc_misses"] for s in stats)
                         / insts if insts else 0.0)
    m["mem.dram_reads"] = sum(s["dram_reads"] for s in stats)
    m["mem.dram_writes"] = sum(s["dram_writes"] for s in stats)

    def total(key):
        return sum(r["stats"][key] for r, _ in rows)
    m["prefetch.issued"] = total("l2_prefetches_issued")
    m["prefetch.useful"] = total("l2_prefetches_useful")
    m["prefetch.late"] = total("late_prefetches")
    m["prefetch.accuracy"] = (m["prefetch.useful"] / m["prefetch.issued"]
                              if m["prefetch.issued"] else 0.0)
    base_miss = sum(b["l2_demand_misses"] for _, b in rows if b)
    saved = sum(max(0, b["l2_demand_misses"]
                    - r["stats"]["l2_demand_misses"])
                for r, b in rows if b)
    m["prefetch.coverage"] = saved / base_miss if base_miss else 0.0
    m["prefetch.markov_lookups"] = total("markov_lookups")
    m["prefetch.markov_hits"] = total("markov_hits")
    m["prefetch.offchip_meta_reads"] = total("offchip_meta_reads")
    m["prefetch.offchip_meta_writes"] = total("offchip_meta_writes")

    first = docs[0]
    for p in MODEL_PIPELINES:
        speedups = [r["stats"]["ipc"]
                    / first["baselines"][r["workload"]]["ipc"]
                    for r in first["results"] if r["pipeline"] == p
                    and r["workload"] in first["baselines"]]
        m["model.speedup_geomean." + p] = (_geomean(speedups)
                                           if speedups else 0.0)
    tri = m["model.speedup_geomean.triangel"]
    pro = m["model.speedup_geomean.prophet"]
    m["model.prophet_over_triangel"] = ((pro / tri - 1.0) * 100.0
                                        if tri and pro else 0.0)
    return m


def layer_self_s(spans):
    """Self seconds per program layer over the jobs' own spans (probes
    and the harness's phase spans left out)."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        if not s["probe"] and s["layer"] != "harness":
            out[s["layer"]] = out.get(s["layer"], 0) + selfs[s["id"]]
    return {layer: ns / 1e9 for layer, ns in out.items()}
