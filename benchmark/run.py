#!/usr/bin/env python3
"""Builds gld_bench from this checkout's sources and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <f>] [--reference <file>]

Run it from anywhere inside a checkout; it builds into <root>/.bench_build
(configured once, then incremental), runs the benchmark binary there and
passes its output through.  The last line of standard output is the JSON
result.  Without the repository's sources beside this directory it exits
non-zero before printing any result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "gld_bench")
BINARY = os.path.join(BUILD_DIR, "gld_bench")
BUILD_TIMEOUT_S = 850


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError("%s exited with %d" % (cmd[0], code))


def build():
    """Configures (once) and builds gld_bench; returns the binary path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise RuntimeError("no %s in %s: the benchmark builds the "
                               "library from the repository's sources"
                               % (need, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "gld_bench",
               "-j", jobs], BUILD_TIMEOUT_S)
    return BINARY


def source_rev():
    """git revision when the checkout is a repository, plus a digest of
    the sources the benchmark builds (a checkout may carry no .git)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "benchmark"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    rev = "tree:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if git.returncode == 0:
                rev = "git:" + git.stdout.strip()[:12] + " " + rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="1")
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.json"))
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--scale", args.scale, "--reference", args.reference,
           "--work-dir", os.path.join(BUILD_ROOT, "work"),
           "--source-rev", source_rev()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=170)
    except BaseException:
        proc.kill()
        proc.wait()
        log("benchmark did not finish")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
