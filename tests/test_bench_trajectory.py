#!/usr/bin/env python3
"""Pins `scripts/bench_trajectory.py guard` on fixture trajectories.

Each case writes a trajectory to a temporary directory, runs the guard
on it and checks its warnings; the guard must exit 0 in every case.

usage: test_bench_trajectory.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_trajectory.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
HOST = {"cpu_model": "Fixture CPU", "avx2": True, "avx512f": False,
        "nproc": 4, "threads_used": 4, "compiler": "GNU 12.2.0",
        "build_type": "Release"}


def entry(rev, host=HOST, speedup=3.0):
    return {"git_rev": rev, "date": "2026-01-01T00:00:00Z", "seed": 4242,
            "fingerprint": host,
            "workloads": {w["name"]: {m["name"]: 100.0
                                      for m in BENCH["end_to_end"]}
                          for w in BENCH["workloads"]},
            "runtime.thread_speedup_4": speedup}


def worsened(record, workload, metric, factor):
    """`record` with one metric worsened by `factor` times its bound."""
    out = copy.deepcopy(record)
    spec = next(m for m in BENCH["end_to_end"] if m["name"] == metric)
    step = 1.0 + spec["bound"] * factor
    value = 100.0 / step if spec["better"] == "higher" else 100.0 * step
    out["workloads"][workload][metric] = value
    return out


def guard(tmp, content):
    path = os.path.join(tmp, "trajectory.json")
    with open(path, "w") as f:
        f.write(content if isinstance(content, str) else json.dumps(content))
    proc = subprocess.run([sys.executable, SCRIPT, "guard", path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        raise AssertionError("guard exited %d:\n%s" % (proc.returncode,
                                                       proc.stdout))
    return [l for l in proc.stdout.splitlines()
            if l.startswith("::warning::")], proc.stdout


def check(name, ok, output):
    print(("ok   " if ok else "FAIL ") + name)
    if not ok:
        print(output)
    return ok


def main():
    base = entry("aaaaaaa")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        # Beyond the bound on the same host: one warning naming both.
        for w, m in (("ler_sweep", "shot_rounds_per_s"),
                     ("campaign_grid", "wall_s")):
            warns, out = guard(tmp, [base, worsened(base, w, m, 1.5)])
            results.append(check("beyond bound warns (%s %s)" % (w, m),
                                 len(warns) == 1 and w in warns[0]
                                 and m in warns[0], out))
        # Within the bound: quiet.
        warns, out = guard(tmp, [base, worsened(base, "code_generality",
                                                "setup_s", 0.5)])
        results.append(check("within bound is quiet", not warns, out))
        # A worsening from another host is skipped, not compared; an
        # older same-host record further back is the baseline.
        other = dict(HOST, nproc=1, cpu_model="Other CPU")
        bad = worsened(entry("ccccccc"), "ler_sweep", "wall_s", 2.0)
        warns, out = guard(tmp, [entry("bbbbbbb", other), bad])
        results.append(check("cross-host pair is skipped",
                             not warns and "skipping" in out, out))
        warns, out = guard(tmp, [base, entry("bbbbbbb", other), bad])
        results.append(check("same-host baseline behind a foreign record",
                             len(warns) == 1 and "aaaaaaa" in warns[0], out))
        # No thread speedup on a 4-CPU host warns, even alone.
        warns, out = guard(tmp, [entry("ddddddd", speedup=0.9)])
        results.append(check("speedup <= 1 warns", len(warns) == 1
                             and "thread_speedup_4" in warns[0], out))
        one_cpu = dict(HOST, nproc=1)
        warns, out = guard(tmp, [entry("ddddddd", one_cpu, speedup=0.9)])
        results.append(check("speedup <= 1 on 1 CPU is quiet", not warns,
                             out))
        # Unreadable files warn.
        for label, content in (("truncated", json.dumps([base])[:-9]),
                               ("no fingerprint", [{"git_rev": "x"}])):
            warns, out = guard(tmp, content)
            results.append(check("unreadable file warns (%s)" % label,
                                 len(warns) == 1 and "cannot read"
                                 in warns[0], out))
        warns, out = guard(tmp, [base, entry("eeeeeee")])
        results.append(check("flat trajectory is quiet", not warns, out))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
