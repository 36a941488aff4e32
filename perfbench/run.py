#!/usr/bin/env python3
"""Build and run the Kondo benchmark from the root of a source checkout.

One workload, one fresh process:

    python3 perfbench/run.py --workload debloat_2d --seed 1 --seconds 10 --trace 0

builds perfbench/main.exe and the kondo CLI with dune, then runs the
workload.  The last line of stdout is the result JSON: the end-to-end
metrics with --trace 0, the per-layer split with --trace 1.  A wrong
output, a failed build or a missing source tree exits non-zero without
a result.

Steadiness report, run from a checkout root:

    python3 perfbench/run.py --steady 10 --workload store [--seconds 10]
        [--build DIR_A --build DIR_B]

runs the workload on N seeds (alternating the two checkouts when given
two) and prints, for each end-to-end metric of BENCHMARK.json, the
median, the quartiles and the spread (IQR / median) against the
metric's bound.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
WORK = ".perfbench_work"  # scratch, removed after every run
CACHE = ".perfbench_cache"  # memo of reference digests, keyed by the CLI binary
OUT = ".perfbench_out"  # traces of --trace 1 runs
MAIN = os.path.join("_build", "default", BENCH_DIR, "main.exe")
KONDO = os.path.join("_build", "default", "bin", "kondo_cli.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            log("no %s here: run from the root of a kondo source checkout" % need)
            sys.exit(2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "./%s/main.exe" % BENCH_DIR, "./bin/kondo_cli.exe"]
    if wait(cmd, env, sys.stderr, BUILD_TIMEOUT_S)[0] != 0:
        log("build failed")
        sys.exit(2)


def wait(cmd, env, stdout, timeout):
    """Run cmd in its own process group; (returncode, stdout bytes).  On
    timeout the whole group is killed and reaped, and the code is None."""
    try:
        proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    except OSError as e:
        log("cannot start %s: %s" % (cmd[0], e))
        return 127, b""
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("%s timed out after %d s" % (cmd[0], timeout))
        return None, b""


def run_once(args):
    build()
    work = os.path.join(WORK, str(os.getpid()))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [MAIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--kondo", KONDO, "--work", os.path.join(work, "main"), "--cache", CACHE]
    if args.trace == 1:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    # library code that asks for a temporary file stays inside the checkout
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    try:
        code, out = wait(cmd, env, subprocess.PIPE, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    text = out.decode()
    if code != 0:
        sys.stderr.write(text)
        log("workload %s failed (exit code %s)" % (args.workload, code))
        return 1
    if not declared(text, args.trace):
        sys.stderr.write(text)
        return 1
    sys.stdout.write(text)
    return 0


def declared(text, trace):
    """Does the result carry exactly the metrics BENCHMARK.json declares?"""
    spec = json.load(open("BENCHMARK.json"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(text.strip().splitlines()[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
        return False
    return result["correct"] is True


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(args):
    spec = json.load(open("BENCHMARK.json"))
    metrics = spec["end_to_end"]
    builds = args.build or ["."]
    if len(builds) > 2:
        log("at most two builds")
        return 2
    values = {b: {m["name"]: [] for m in metrics} for b in builds}
    for i in range(args.steady):
        seed = args.seed + i
        order = builds if i % 2 == 0 else list(reversed(builds))
        for b in order:
            t0 = time.time()
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=b, stdout=subprocess.PIPE)
            if done.returncode != 0:
                log("run failed in %s (seed %d)" % (b, seed))
                return 1
            result = json.loads(done.stdout.decode().strip().splitlines()[-1])
            if not result["correct"]:
                log("incorrect result in %s (seed %d)" % (b, seed))
                return 1
            for m in metrics:
                values[b][m["name"]].append(result["metrics"][m["name"]]["value"])
            log("%s seed %d done in %.0f s" % (b, seed, time.time() - t0))
    print("workload %s, %d seeds from %d, %d s runs" % (args.workload, args.steady, args.seed,
                                                       args.seconds))
    for b in builds:
        print("build %s" % b)
        print("  %-18s %12s %12s %12s %8s %7s  %s" % ("metric", "median", "q1", "q3", "spread",
                                                     "bound", "verdict"))
        for m in metrics:
            med, q1, q3, s = spread(values[b][m["name"]])
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %7.3f  %s"
                  % (m["name"], med, q1, q3, s, m["bound"], verdict))
    if len(builds) == 2:
        a, b = builds
        print("change %s against parent %s" % (b, a))
        for m in metrics:
            ma = statistics.median(values[a][m["name"]])
            mb = statistics.median(values[b][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print("  %-18s %12.6g -> %12.6g  worse by %+.4f (bound %.3f)%s"
                  % (m["name"], ma, mb, worse, m["bound"],
                     "  REGRESSION" if worse > m["bound"] else ""))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N",
                    help="steadiness report over N seeds instead of one run")
    ap.add_argument("--build", action="append", metavar="DIR",
                    help="checkout root to measure (repeat for two; default: here)")
    args = ap.parse_args()
    if args.steady:
        if args.steady < 2:
            ap.error("--steady needs at least 2 runs")
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
