#!/usr/bin/env python3
"""Check or regenerate the golden outputs of every checked-in spec.

Each spec in specs/*.json is run through the real CLI
(`prophet run`) from a temporary copy whose sinks are replaced by
[table, csv]. The golden pair is the table printed on stdout
(<spec>.out) and a full-precision CSV of every job (<spec>.csv).

    tools/goldens.py check [--full] [--spec NAME ...]
    tools/goldens.py regen [--full] [--spec NAME ...]

Reduced goldens (the default) live in specs/golden/r200k/ and run at
--records min(spec records, 200000); full-size goldens (--full) live
in specs/golden/ and run at the spec's own size.

Before comparing, the table output is normalised in exactly two
ways: the `wall-clock:` line is dropped (its value is host time), and
the `threads=N` field of the `== name: ... ==` header is dropped (the
only thread-dependent text). Nothing else is rewritten, so any other
change in output is a golden change.

`check` exits 1 on any difference and prints a unified diff;
`check` without --spec also fails when a spec has no golden.
Every regeneration must state its reason in CHANGES.md.
"""

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"
REDUCED_RECORDS = 200000

# Specs with no golden, and why.
EXCLUDED = {
    # 240M-record traces x 5 workloads need ~6.7 GB each in memory:
    # the run is OOM-killed at 4 threads on a 16 GB host.
    "fig10_sampled": "240M-record traces do not fit in 16 GB at "
                     "4 threads",
}

CSV_NAME = "golden.csv"
HEADER_THREADS = re.compile(r", threads=\d+")


def strip_comments(text):
    """Drop `//` comments and trailing commas (the spec dialect)."""
    out = []
    i, n, in_str = 0, len(text), False
    while i < n:
        c = text[i]
        if in_str:
            out.append(c)
            if c == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 1
            elif c == '"':
                in_str = False
        elif c == '"':
            in_str = True
            out.append(c)
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        else:
            out.append(c)
        i += 1
    return re.sub(r",(\s*[\]}])", r"\1", "".join(out))


def normalise(stdout):
    lines = []
    for line in stdout.splitlines(keepends=True):
        if line.startswith("wall-clock:"):
            continue
        if line.startswith("== ") and line.rstrip().endswith(" =="):
            line = HEADER_THREADS.sub("", line, count=1)
        lines.append(line)
    return "".join(lines)


def run_spec(args, stem):
    """Run one spec; return (normalised table, csv text or None)."""
    spec = json.loads(strip_comments((SPECS / f"{stem}.json").read_text()))
    if "report" not in spec:  # a static report takes no sinks
        spec["sinks"] = [{"type": "table"},
                         {"type": "csv", "path": CSV_NAME}]
    cmd = [args.prophet, "run", None, "--threads", str(args.threads),
           "--trace-cache-dir", args.trace_cache_dir]
    if not args.full:
        cmd += ["--records",
                str(min(spec.get("records", REDUCED_RECORDS),
                        REDUCED_RECORDS))]
    env = dict(os.environ)
    env.pop("PROPHET_FAULTS", None)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        path = Path(tmp) / f"{stem}.json"
        path.write_text(json.dumps(spec, indent=2) + "\n")
        cmd[2] = str(path)
        proc = subprocess.run(cmd, cwd=tmp, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{stem}: `{' '.join(cmd)}` exited "
                     f"{proc.returncode}\n{proc.stderr}")
        csv = Path(tmp) / CSV_NAME
        return (normalise(proc.stdout),
                csv.read_text() if csv.exists() else None)


def diff(golden, actual, name):
    return "".join(difflib.unified_diff(
        golden.splitlines(keepends=True),
        actual.splitlines(keepends=True),
        fromfile=f"golden/{name}", tofile=f"actual/{name}"))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["check", "regen"])
    ap.add_argument("--full", action="store_true",
                    help="full-size specs (default: reduced records)")
    ap.add_argument("--spec", action="append", default=[],
                    help="spec stem, e.g. fig10 (repeatable; "
                         "default: every spec)")
    ap.add_argument("--prophet", default=str(REPO / "build/prophet"),
                    help="the prophet binary (default: build/prophet)")
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--trace-cache-dir",
                    default=os.environ.get(
                        "PROPHET_TRACE_CACHE",
                        str(REPO / ".prophet-trace-cache")))
    args = ap.parse_args()
    # The runs happen in a temp dir, so relative paths must not leak.
    args.prophet = os.path.abspath(args.prophet)
    args.trace_cache_dir = os.path.abspath(args.trace_cache_dir)

    golden_dir = SPECS / "golden" / ("" if args.full else "r200k")
    stems = args.spec or sorted(p.stem for p in SPECS.glob("*.json")
                                if p.stem not in EXCLUDED)
    failed = []
    for stem in stems:
        if stem in EXCLUDED:
            sys.exit(f"{stem}: excluded ({EXCLUDED[stem]})")
        table, csv = run_spec(args, stem)
        files = {f"{stem}.out": table, f"{stem}.csv": csv}
        if args.mode == "regen":
            golden_dir.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                if text is not None:
                    (golden_dir / name).write_text(text)
            print(f"{stem}: regenerated")
            continue
        problems = []
        for name, text in files.items():
            path = golden_dir / name
            golden = path.read_text() if path.exists() else None
            if golden is None and text is not None:
                problems.append(f"missing golden {path} "
                                f"(run `tools/goldens.py regen`)")
            elif golden is not None and text is None:
                problems.append(f"{name}: golden exists but the run "
                                f"wrote no {name}")
            elif golden != text:
                problems.append(diff(golden, text, name))
        if problems:
            failed.append(stem)
            print(f"{stem}: DIFFERS")
            for p in problems:
                print(p)
        else:
            print(f"{stem}: ok")
    if failed:
        print(f"{len(failed)} spec(s) differ from "
              f"{golden_dir.relative_to(REPO)}: {' '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
