"""The benchmark's workloads and their seed-derived inputs.

Each workload is a list of spec files under perfbench/specs/, run as a
closed loop of sequential `prophet run` invocations. The specs belong to
the benchmark, so editing a figure spec under specs/ cannot move it.

Seeds: seed 0 runs the spec files exactly as written (the paper's named
inputs). Another seed derives held-out inputs the program already
accepts:

  graph_big    each label <kernel>_<V>_<D> keeps its kernel and draws
               V within 5% of the named V and D within 1 of the named D;
  gcc_learn    the four learning stages learn from a seed-drawn ordered
               subset of four of the nine gcc inputs;
  spec_figs,   fixed: the SPEC inputs are the seven (or three) named
  offchip_mix  SPEC workloads for every seed.
"""

import json
import os
import random

SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")

WORKLOADS = {
    "spec_figs": {
        "specs": ["spec_speedup", "spec_traffic", "spec_coverage"],
        "why": "Figures 10-12 as three invocations over one cache: the "
               "same 28 System runs simulated three times, so shared "
               "work and job scheduling show",
    },
    "graph_big": {
        "specs": ["graph_big"],
        "why": "3 M-record graph traces dominate memory and trace "
               "loading, and RPG2 finds kernels (pagerank, sssp)",
    },
    "gcc_learn": {
        "specs": ["gcc_learn"],
        "why": "Figure 13's profile, analyze, learn and hinted-run "
               "loop over nine gcc inputs, with no Triangel, Triage or "
               "RPG2",
    },
    "offchip_mix": {
        "specs": ["offchip_mix"],
        "why": "the only off-chip metadata tables (STMS, Domino) next "
               "to Triage, Triangel and Prophet, so the DRAM and "
               "prefetch layers work differently",
    },
}


def load_spec(name):
    """Parse perfbench/specs/<name>.json, dropping its // comment lines."""
    with open(os.path.join(SPEC_DIR, name + ".json")) as f:
        text = "".join(line for line in f
                       if not line.lstrip().startswith("//"))
    return json.loads(text)


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _graph_label(label, rng):
    kernel, vertices, degree = label.split("_")
    v = max(2, round(int(vertices) * rng.uniform(0.95, 1.05)))
    d = max(1, int(degree) + rng.randint(-1, 1))
    return "%s_%d_%d" % (kernel, v, d)


def _learn_order(spec, rng):
    gcc = list(spec["workloads"])
    rng.shuffle(gcc)
    order = gcc[:4]
    for p in spec["pipelines"]:
        if isinstance(p, dict) and "learn" in p:
            p["learn"] = order[:len(p["learn"])]


def instantiate(workload, seed):
    """The workload's specs for @p seed, as parsed JSON documents."""
    specs = [load_spec(name) for name in WORKLOADS[workload]["specs"]]
    if seed == 0:
        return specs
    rng = _rng(workload, seed)
    for spec in specs:
        if workload == "graph_big":
            spec["workloads"] = [_graph_label(w, rng)
                                 for w in spec["workloads"]]
        elif workload == "gcc_learn":
            _learn_order(spec, rng)
    return specs
