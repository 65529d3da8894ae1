"""Self-tests of the benchmark's own code (no build needed):

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import analysis
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(sid, start, end, parent=None, name="x", layer="sim", tid=0,
         proc=0, probe=False, detail="", count=0):
    return {"id": (proc, sid), "parent": (proc, parent) if parent else None,
            "start": start, "end": end, "name": name, "layer": layer,
            "tid": tid, "proc": proc, "probe": probe, "detail": detail,
            "count": count}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(analysis.percentile(values, 50), (50, 50))
        self.assertEqual(analysis.percentile(values, 90), (90, 10))
        self.assertEqual(analysis.percentile(values, 100), (100, 0))

    def test_small_samples_have_few_beyond(self):
        value, beyond = analysis.percentile([3.0, 1.0, 2.0], 90)
        self.assertEqual((value, beyond), (3.0, 0))
        self.assertEqual(analysis.percentile(list(range(30)), 90)[1], 3)

    def test_order_does_not_matter(self):
        self.assertEqual(analysis.percentile([5, 1, 4, 2, 3], 50),
                         analysis.percentile([1, 2, 3, 4, 5], 50))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.percentile([], 50)

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(analysis.spread(values), (q3 - q1) / med)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        s = [span(1, 0, 100)]
        self.assertEqual(analysis.self_times(s), {(0, 1): 100})

    def test_children_are_subtracted_once_where_they_overlap(self):
        s = [span(1, 0, 100), span(2, 10, 40, parent=1),
             span(3, 30, 60, parent=1), span(4, 35, 38, parent=2)]
        selfs = analysis.self_times(s)
        self.assertEqual(selfs[(0, 1)], 100 - 50)  # 10..60 covered
        self.assertEqual(selfs[(0, 2)], 30 - 3)
        self.assertEqual(selfs[(0, 4)], 3)

    def test_child_outside_parent_is_clipped(self):
        s = [span(1, 0, 100), span(2, 90, 120, parent=1)]
        self.assertEqual(analysis.self_times(s)[(0, 1)], 90)

    def test_nested_track_adds_up(self):
        s = [span(1, 0, 100), span(2, 10, 40, parent=1),
             span(3, 50, 60, parent=1), span(5, 200, 250),
             span(6, 0, 500, tid=1)]
        selfs = analysis.self_times(s)
        self.assertEqual(analysis.track_mismatches(s, selfs), [])

    def test_overlapping_siblings_do_not_add_up(self):
        s = [span(1, 0, 100), span(2, 50, 150)]
        bad = analysis.track_mismatches(s, analysis.self_times(s))
        self.assertEqual(bad, [((0, 0), 200, 150)])

    def test_chrome_events_round_trip(self):
        doc = {"traceEvents": [{
            "name": "sim.run", "cat": "sim", "ph": "X", "ts": 1.0,
            "dur": 2.0, "pid": 3, "tid": 2,
            "args": {"id": 7, "parent": 0, "run": 3, "start_ns": 1000,
                     "end_ns": 3000, "detail": "none", "count": 5,
                     "probe": False}}]}
        (s,) = analysis.spans_from_chrome(doc, proc=4)
        self.assertEqual((s["id"], s["parent"], s["tid"], s["proc"]),
                         ((4, 7), None, 2, 4))
        self.assertEqual((s["end"] - s["start"], s["count"]), (2000, 5))


class MetricsReportParser(unittest.TestCase):
    DOC = {
        "experiment": "offchip_mix", "wall_seconds": 2.5,
        "peak_rss_bytes": 123456789, "failed_jobs": 0,
        "phases": {"trace_load": {"seconds": 0.05, "count": 3}},
        "thread_pool": {"workers": 4, "busy_seconds": 8.0,
                        "utilization": 0.8},
        "jobs": [
            {"workload": "mcf", "pipeline": "stms", "ok": True,
             "seconds": 0.75, "records": 600001, "attempts": 1},
            {"workload": "mcf", "pipeline": "domino", "ok": False,
             "seconds": 0.25, "records": 0, "attempts": 2},
        ],
    }

    def test_jobs(self):
        jobs = analysis.parse_metrics_report(self.DOC)
        self.assertEqual(jobs, [
            {"workload": "mcf", "pipeline": "stms", "ok": True,
             "seconds": 0.75},
            {"workload": "mcf", "pipeline": "domino", "ok": False,
             "seconds": 0.25}])

    def test_accepts_the_serialised_document(self):
        doc = json.loads(json.dumps(self.DOC, indent=2))
        self.assertEqual(len(analysis.parse_metrics_report(doc)), 2)


def stats(ipc, **kw):
    base = {k: 0 for k in (
        "instructions", "l2_demand_misses", "llc_misses", "dram_reads",
        "dram_writes", "l2_prefetches_issued", "l2_prefetches_useful",
        "late_prefetches", "markov_lookups", "markov_hits",
        "offchip_meta_reads", "offchip_meta_writes")}
    base.update(ipc=ipc, **kw)
    return base


class LayerMetrics(unittest.TestCase):
    def run_metrics(self):
        spans = [
            span(1, 0, 1000, name="phase.jobs", layer="harness", tid=9),
            span(2, 0, 1000, name="job", layer="driver", tid=0),
            span(3, 100, 900, parent=2, name="sim.run", detail="none",
                 count=400),
            span(4, 0, 400, name="job", layer="driver", tid=1),
            span(5, 0, 100, parent=4, name="trace.load", layer="trace",
                 tid=1),
            span(6, 2000, 2600, name="sim.run", detail="stms", count=300,
                 probe=True, tid=9),
            span(7, 2600, 2700, name="sim.run", detail="none", count=50,
                 probe=True, tid=9),
        ]
        docs = [{"resident_trace_bytes": 2_000_000,
                 "baselines": {"w": stats(1.0, instructions=1000,
                                          l2_demand_misses=100)},
                 "results": [
                     {"workload": "w", "pipeline": "triangel",
                      "stats": stats(1.21, instructions=1000,
                                     l2_demand_misses=40,
                                     l2_prefetches_issued=80,
                                     l2_prefetches_useful=60)},
                     {"workload": "w", "pipeline": "prophet",
                      "stats": stats(1.331, instructions=1000,
                                     l2_demand_misses=120)}]}]
        return analysis.layer_metrics(spans, docs, workers=2)

    def test_own_spans_win_over_probes(self):
        m = self.run_metrics()
        self.assertEqual(m["sim.ns_per_rec.none"], 800 / 400)
        self.assertEqual(m["sim.ns_per_rec.stms"], 600 / 300)
        self.assertEqual(m["sim.ns_per_rec.domino"], 0.0)
        self.assertEqual((m["sim.runs"], m["sim.records"]), (1, 400))

    def test_pool_utilisation_and_tail(self):
        m = self.run_metrics()
        self.assertAlmostEqual(m["driver.util"], 1400 / 2000)
        self.assertAlmostEqual(m["driver.tail_s"], 600 / 1e9)

    def test_trace_layer(self):
        m = self.run_metrics()
        self.assertAlmostEqual(m["trace.load_s"], 100 / 1e9)
        self.assertAlmostEqual(m["trace.resident_mb"], 2.0)

    def test_simulated_counts_and_model(self):
        m = self.run_metrics()
        self.assertAlmostEqual(m["mem.l2_mpki"], 1000.0 * 260 / 3000)
        self.assertAlmostEqual(m["prefetch.accuracy"], 0.75)
        # triangel saves 60 of 100 misses, prophet none (clamped at 0)
        self.assertAlmostEqual(m["prefetch.coverage"], 60 / 200)
        self.assertAlmostEqual(m["model.speedup_geomean.triangel"], 1.21)
        self.assertAlmostEqual(m["model.prophet_over_triangel"], 10.0)
        self.assertEqual(m["model.speedup_geomean.stms"], 0.0)

    def test_every_layer_metric_but_overhead_is_computed(self):
        names = {n for n, _ in analysis.PER_LAYER} - {"tracing.overhead_s"}
        self.assertEqual(set(self.run_metrics()), names)


class Workloads(unittest.TestCase):
    def test_seed_zero_is_the_spec_files(self):
        for name, w in workloads.WORKLOADS.items():
            self.assertEqual(workloads.instantiate(name, 0),
                             [workloads.load_spec(s) for s in w["specs"]])

    def test_seeds_are_deterministic(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.instantiate(name, 7),
                             workloads.instantiate(name, 7))

    def test_graph_labels_keep_kernels_and_stay_near(self):
        named = workloads.load_spec("graph_big")["workloads"]
        for seed in range(1, 20):
            (spec,) = workloads.instantiate("graph_big", seed)
            for old, new in zip(named, spec["workloads"]):
                self.assertRegex(new, r"^[a-z]+_\d+_\d+$")
                k0, v0, d0 = old.split("_")
                k1, v1, d1 = new.split("_")
                self.assertEqual(k0, k1)
                self.assertLessEqual(abs(int(v1) - int(v0)),
                                     0.05 * int(v0) + 1)
                self.assertLessEqual(abs(int(d1) - int(d0)), 1)
                self.assertGreaterEqual(int(d1), 1)

    def test_gcc_learning_stages_grow_one_order(self):
        for seed in range(1, 20):
            (spec,) = workloads.instantiate("gcc_learn", seed)
            stages = [p["learn"] for p in spec["pipelines"]
                      if isinstance(p, dict) and "learn" in p]
            self.assertEqual([len(s) for s in stages], [1, 2, 3, 4])
            order = stages[-1]
            self.assertEqual(len(set(order)), 4)
            self.assertTrue(set(order) <= set(spec["workloads"]))
            for s in stages:
                self.assertEqual(s, order[:len(s)])

    def test_spec_inputs_are_fixed(self):
        for name in ("spec_figs", "offchip_mix"):
            self.assertEqual(workloads.instantiate(name, 5),
                             workloads.instantiate(name, 0))


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_lists_match_the_code(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.doc["end_to_end"]],
            analysis.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.doc["per_layer"]],
            analysis.PER_LAYER)
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.doc["workloads"]],
            [(n, w["why"]) for n, w in workloads.WORKLOADS.items()])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(bounds["setup_s"], 0.25)

    def test_names_and_units_are_well_formed(self):
        for m in self.doc["end_to_end"] + self.doc["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))


if __name__ == "__main__":
    unittest.main()
