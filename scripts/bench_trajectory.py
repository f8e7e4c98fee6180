#!/usr/bin/env python3
"""The performance trajectory: end-to-end benchmark records and a guard.

    scripts/bench_trajectory.py record
    scripts/bench_trajectory.py guard [trajectory.json]

`record` runs `benchmark/run.py --trace 0` once per workload listed in
BENCHMARK.json, for its `run_seconds` and with one fixed seed, plus one
`--trace 1` pass of code_generality for `runtime.thread_speedup_4`. It
appends one record to BENCH_trajectory.json: the git revision, the date,
the seed, the host fingerprint without its source revision, every
end-to-end median per workload and the speedup. It appends nothing if a
run exits non-zero, reports "correct": false, or lacks a listed metric.
Commit the file yourself.

`guard` compares the newest record with the newest earlier record whose
fingerprint is equal, and prints a GitHub Actions `::warning::` for each
workload and end-to-end metric that worsened by more than the metric's
BENCHMARK.json bound, relative to the earlier value, in its `better`
direction. It also warns when the newest record's thread_speedup_4 is at
most 1 on a host with at least 4 CPUs. Numbers from different hosts are
not compared. It always exits 0: the guard makes a regression visible
on a pull request; it does not block the merge.
"""

import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")
SEED = 4242
SPEEDUP = "runtime.thread_speedup_4"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(name, seconds, trace):
    """Runs one workload; returns (fingerprint, metric name -> value)."""
    cmd = [sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
           "--workload", name, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("bench trajectory: " + " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (name, proc.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RuntimeError("%s reported \"correct\": false" % name)
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
            fingerprint.pop("source_rev", None)
    if fingerprint is None:
        raise RuntimeError("%s printed no fingerprint" % name)
    return fingerprint, {k: v["value"] for k, v in result["metrics"].items()}


def record():
    bench = load_benchmark()
    history = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            history = json.load(f)
    wanted = [m["name"] for m in bench["end_to_end"]]
    runs = [(w["name"], 0) for w in bench["workloads"]]
    runs.append(("code_generality", 1))
    fingerprints, medians, speedup = [], {}, None
    try:
        for name, trace in runs:
            fingerprint, metrics = run_workload(name, bench["run_seconds"],
                                                trace)
            fingerprints.append(fingerprint)
            want = [SPEEDUP] if trace else wanted
            missing = [m for m in want if m not in metrics]
            if missing:
                raise RuntimeError("%s lacks %s" % (name, ", ".join(missing)))
            if trace:
                speedup = metrics[SPEEDUP]
            else:
                medians[name] = {m: metrics[m] for m in wanted}
        if any(f != fingerprints[0] for f in fingerprints):
            raise RuntimeError("the fingerprint changed between runs")
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        print("bench trajectory: %s; nothing appended" % e, file=sys.stderr)
        return 1
    rev = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=12"],
        capture_output=True, text=True).stdout.strip()
    entry = {
        "git_rev": rev or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": SEED,
        "fingerprint": fingerprints[0],
        "workloads": medians,
        SPEEDUP: speedup,
    }
    history.append(entry)
    with open(TRAJECTORY, "w") as f:
        json.dump(history, f, indent=2)
        f.write("\n")
    print("bench trajectory: appended %s to %s" % (entry["git_rev"],
                                                   TRAJECTORY))
    return 0


def worsening(before, after, better):
    """Relative change of `after` against `before`; > 0 means worse."""
    change = (after - before) / before
    return -change if better == "higher" else change


def guard(path):
    try:
        with open(path) as f:
            history = json.load(f)
        bench = load_benchmark()
        if not history:
            print("bench guard: no records in %s; nothing to check" % path)
            return 0
        cur = history[-1]
        nproc = cur["fingerprint"]["nproc"]
        speedup = cur[SPEEDUP]
        print("bench guard: %s thread_speedup_4 x%.2f on %d CPUs"
              % (cur["git_rev"], speedup, nproc))
        if nproc >= 4 and speedup <= 1.0:
            print("::warning::bench guard: %s runs no faster on 4 threads "
                  "than on 1 (thread_speedup_4 x%.2f, nproc %d)"
                  % (cur["git_rev"], speedup, nproc))
        prev = next((r for r in reversed(history[:-1])
                     if r["fingerprint"] == cur["fingerprint"]), None)
        if prev is None:
            print("bench guard: no earlier record from the host of %s; "
                  "numbers from different hosts are not compared, skipping"
                  % cur["git_rev"])
            return 0
        warned = 0
        for workload in bench["workloads"]:
            name = workload["name"]
            before = prev["workloads"].get(name, {})
            after = cur["workloads"].get(name, {})
            for metric in bench["end_to_end"]:
                m = metric["name"]
                if m not in before or m not in after:
                    continue  # added to BENCHMARK.json after a record
                worse = worsening(before[m], after[m], metric["better"])
                print("bench guard: %-15s %-17s %12.6g -> %12.6g (%+.1f%% "
                      "worse)" % (name, m, before[m], after[m], worse * 100))
                if worse > metric["bound"]:
                    print("::warning::bench guard: %s %s worsened %.1f%% "
                          "(%.6g -> %.6g, %s -> %s), bound %.0f%%"
                          % (name, m, worse * 100, before[m], after[m],
                             prev["git_rev"], cur["git_rev"],
                             metric["bound"] * 100))
                    warned += 1
        if not warned:
            print("bench guard: no end-to-end metric worsened beyond its "
                  "bound since %s" % prev["git_rev"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError) as e:
        print("::warning::bench guard: cannot read %s: %s: %s"
              % (path, type(e).__name__, e))
    return 0


def main(argv):
    if argv[:1] == ["record"] and len(argv) == 1:
        return record()
    if argv[:1] == ["guard"] and len(argv) <= 2:
        return guard(argv[1] if len(argv) == 2 else TRAJECTORY)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
