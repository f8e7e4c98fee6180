#!/usr/bin/env python3
"""Self-test of the benchmark: python3 benchmark/selftest.py

1. Runs every workload at a tiny scale, untraced and traced, and asserts
   that each run is correct and prints every metric BENCHMARK.json names,
   with the unit it declares.
2. Runs one workload against a deliberately wrong reference value and
   asserts that the output check counts the failure.

Exits 0 when every assertion holds.  Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCALE = "0.02"


def run(workload, trace, reference=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    if reference is not None:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s trace %d exited %d:\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, what):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), "%s: metrics %s, want %s" % (
        what, sorted(got), sorted(want))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, "%s: %s unit %s, want %s" % (
            what, name, got[name]["unit"], unit)
        assert isinstance(got[name]["value"], (int, float)), (what, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            what = "%s trace %d" % (w["name"], trace)
            r = run(w["name"], trace)
            assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, (
                what, r["correct"], r["attempted"], r["failed"])
            check_metrics(r, declared, what)
            print("ok  %s: %d metrics, %d checks" % (
                what, len(r["metrics"]), r["attempted"]), flush=True)

    # A reference LER far from anything the code produces must be flagged.
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    wrong = 0
    for key, rates in ref["rates"].items():
        if key.startswith("ler_sweep|surface:5|gladiator_m|"):
            rates["ler"] = [0.5 * rates["ler"][1], rates["ler"][1]]
            wrong += 1
    assert wrong == 1, "expected one ler_sweep surface:5 gladiator_m entry"
    bad = os.path.join(ROOT, ".bench_build", "selftest_bad_reference.json")
    os.makedirs(os.path.dirname(bad), exist_ok=True)
    with open(bad, "w") as f:
        json.dump(ref, f)
    r = run("ler_sweep", 0, reference=bad)
    assert not r["correct"] and r["failed"] == 1, (
        "wrong reference not flagged", r["correct"], r["failed"])
    print("ok  wrong reference: %d of %d checks failed" % (
        r["failed"], r["attempted"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
