#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

Run from the repository root (builds first, like run.py):

    python3 perfbench/selftest.py

Checks, on the tiny `toy` workload, that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, in the human-readable lines and in the JSON result, with no
    failed operations;
  * an injected non-finite forecast is counted as exactly one failed
    operation and makes the result incorrect;
  * a traced run reports every per-layer metric with its unit and writes a
    Chrome trace whose spans nest under their recorded parents.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

SEED = "1"
SECONDS = "2"


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_toy(trace, extra=()):
    """Runs the toy workload; returns (stdout lines, parsed last line)."""
    cmd = [run.BINARY, "--workload", "toy", "--seed", SEED, "--seconds",
           SECONDS, "--trace", trace] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_result(lines, result, wanted, label):
    """Every wanted metric is in the JSON and printed by name with its unit."""
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("attempted", 0) < 1:
        errors.append("%s: attempted < 1" % label)
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (label, m["name"]))
            continue
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, want %r"
                          % (label, m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (label, m["name"], value))
        printed = [l.split() for l in lines[:-1]]
        if [m["name"], m["unit"]] not in [[p[0], p[-1]] for p in printed if p]:
            errors.append("%s: %s not printed with its unit" % (label, m["name"]))
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append("%s: unexpected metrics %s" % (label, sorted(extra)))
    return errors


def check_trace(path):
    """The Chrome trace parses and every span lies inside its parent."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    if not events:
        return ["trace %s has no spans" % path]
    by_id = {e["args"]["id"]: e for e in events}
    errors = []
    for e in events:
        parent = by_id.get(e["args"]["parent_id"])
        if e["args"]["parent_id"] and parent is None:
            errors.append("span %s has a missing parent" % e["name"])
        elif parent is not None and not (
                parent["ts"] <= e["ts"] and
                e["ts"] + e["dur"] <= parent["ts"] + parent["dur"]):
            errors.append("span %s is not inside %s" % (e["name"], parent["name"]))
    return errors[:5]


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    spec = load_spec()
    errors = []

    lines, result = run_toy("0")
    errors += check_result(lines, result, spec["end_to_end"], "untraced")
    if result.get("failed") != 0 or result.get("correct") is not True:
        errors.append("untraced: %s failed operations" % result.get("failed"))

    _, injected = run_toy("0", ["--inject-nonfinite-forecast"])
    if injected.get("failed") != 1 or injected.get("correct") is not False:
        errors.append("injected NaN forecast: failed=%s correct=%s, want 1/false"
                      % (injected.get("failed"), injected.get("correct")))

    trace_path = os.path.join(run.BUILD, "selftest.trace.json")
    lines, traced = run_toy("1", ["--trace-out", trace_path])
    errors += check_result(lines, traced, spec["per_layer"], "traced")
    if traced.get("failed") != 0:
        errors.append("traced: %s failed operations" % traced.get("failed"))
    errors += check_trace(trace_path)

    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
