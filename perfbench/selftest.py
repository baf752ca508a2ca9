#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload in BENCHMARK.json
it runs perfbench/run.py --tiny, untraced and traced, and checks that:

- every metric BENCHMARK.json names is emitted, with its unit, and no
  other;
- every answer checked is right (correct, no failed op);
- the traced run's spans nest: each child lies inside its parent and
  every self time is >= 0;
- a deliberately wrong answer (--inject-wrong) is counted as a failed op.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 2
problems = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("run.py failed: %s" % " ".join(cmd))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check_metrics(label, result, declared):
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s: result keys" % label)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    check(emitted == wanted, "%s: metrics and units match BENCHMARK.json" % label)
    if emitted != wanted:
        print("     missing:", sorted(set(wanted) - set(emitted)))
        print("     extra:", sorted(set(emitted) - set(wanted)))
        print("     unit differs:", sorted(k for k in wanted if k in emitted and emitted[k] != wanted[k]))
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          "%s: every answer checked is right" % label)


def self_time(span, children):
    intervals = sorted((max(c["start_ms"], span["start_ms"]), min(c["end_ms"], span["end_ms"]))
                       for c in children)
    covered, reach = 0.0, float("-inf")
    for a, b in intervals:
        a = max(a, reach)
        if b > a:
            covered += b - a
            reach = b
    return span["end_ms"] - span["start_ms"] - covered


def check_spans(label, path):
    with open(os.path.join(ROOT, path)) as f:
        spans = json.load(f)["spans"]
    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    nested = all(s["parent"] == 0 or (
        s["parent"] in by_id
        and by_id[s["parent"]]["start_ms"] <= s["start_ms"]
        and s["end_ms"] <= by_id[s["parent"]]["end_ms"]) for s in spans)
    check(len(spans) > 0 and any(s["parent"] != 0 for s in spans),
          "%s: spans recorded, some nested" % label)
    check(nested, "%s: children lie inside their parents" % label)
    check(all(self_time(s, kids.get(s["id"], [])) >= -1e-3 for s in spans),
          "%s: self times are >= 0" % label)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        _, result = run(name, 0)
        check_metrics(name + " untraced", result, bench["end_to_end"])
        provenance, result = run(name, 1)
        check_metrics(name + " traced", result, bench["per_layer"])
        check_spans(name + " traced", provenance["spans"])
    _, result = run(bench["workloads"][0]["name"], 0, "--inject-wrong")
    check(result["failed"] >= 1 and not result["correct"],
          "a wrong answer counts as a failed op")
    print("%d problem(s)" % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
