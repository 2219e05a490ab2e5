#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload deep-cells --seed 3703 \\
        --seconds 45 --trace 0

Workloads: deep-cells and fleet (the two BENCHMARK.json gates),
paper-cold and archive-warm (run and reported, not gated), or "all"
(each in turn). --seconds defaults to BENCHMARK.json's run_seconds. The first run builds the program and the harness from the
sources of this checkout into .bench_build (or $CARGO_TARGET_DIR).

Prints the host fingerprint and every metric with its unit, then, as
the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list. A full record of the run
(every metric, sample counts, tail percentiles, self times and the
fingerprint) goes to .bench_build/results/.

    python3 perfbench/run.py --self-test    runs the rule self-test
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-cold", "deep-cells", "archive-warm", "fleet"]
DEFAULT_SEED = 0xE77  # the program's default study seed
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, source_digest):
    """Configure (once) and build the harness, etc_lab and the self-test;
    skipped when the sources are unchanged since the last build."""
    stamp = os.path.join(out, "source.stamp")
    binaries = [os.path.join(out, "perfbench_harness"),
                os.path.join(out, "etc", "etc_lab")]
    if all(map(os.path.exists, binaries)) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == source_digest:
                return
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--parallel",
                      str(os.cpu_count() or 1), "--target",
                      "perfbench_harness", "etc_lab", "perfbench_selftest"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    with open(stamp, "w") as f:
        f.write(source_digest)


def source_fingerprint():
    """The commit when this is a git checkout, and a digest of the
    sources either way (an exported source tree is not a repository)."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "bench", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if name.endswith((".cc", ".hh", ".txt", ".py")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
    return commit, "sha256:" + digest.hexdigest()[:16]


def run_harness(out, workload, seed, seconds, trace):
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    results = os.path.join(out, "results")
    run_out = os.path.join(results, tag)
    work = os.path.join(out, "work", "%s-%d" % (workload, os.getpid()))
    os.makedirs(run_out, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_harness"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--etc-lab", os.path.join(out, "etc", "etc_lab"),
           "--work-dir", work, "--out-dir", run_out,
           "--digests", os.path.join(HERE, "figure_digests.txt"),
           "--figure-dir", os.path.join(out, "figures")]
    log_path = os.path.join(run_out, "harness.log")
    with open(log_path, "w") as log:
        # Own process group: a timeout also stops the fleet's daemons.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("%s timed out after %d s" % (workload, HARNESS_TIMEOUT_S))
        finally:
            subprocess.run(["rm", "-rf", work])
    if proc.returncode != 0:
        with open(log_path) as text:
            sys.stderr.write(text.read()[-3000:])
        fail("%s harness exited with %d" % (workload, proc.returncode))
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, os.path.join(results, tag + ".json")


def fmt(value):
    return "%.6g" % value


def report(result, fingerprint, spec, trace):
    """Print the human-readable block; return the contract metrics."""
    fp = fingerprint
    print("perfbench %s seed=%d trace=%d  cores=%s compiler=%s build=%s "
          "commit=%s source=%s" % (
              result["workload"], result["seed"], trace, fp["cores"],
              fp["compiler"], fp["build_type"], fp["commit"],
              fp["source_digest"]))
    walls = " ".join(("T" if it["traced"] else "") + fmt(it["wall_s"]) +
                     "/" + fmt(it["cpu_s"])
                     for it in result["iterations"])
    print("  end to end (median of untraced samples; %d %s operations; "
          "iteration wall/cpu s [T = traced]: %s):" % (result["ops"],
                                                  result["op"], walls))
    for name, m in sorted(result["e2e"].items()):
        extra = ""
        if "n" in m:
            extra = "  n=%d" % m["n"]
            if "tail" in m:
                extra += " %s=%s" % (m["tail"]["label"], fmt(m["tail"]["value"]))
        print("    %-22s %12s %-6s%s" % (name, fmt(m["value"]), m["unit"], extra))
    print("    %d of %d operations failed" % (result["failed"],
                                             result["attempted"]))
    for failure in result["failures"][:20]:
        print("    FAILED: " + failure)
    if trace:
        print("  per layer (traced iterations):")
        for name, m in result["layers"].items():
            print("    %-32s %12s %s" % (name, fmt(m["value"]), m["unit"]))
        print("  harness self time (ms):")
        for name, t in sorted(result["self_time"].items()):
            print("    %-32s n=%-6d total=%-10s self=%s" % (
                name, t["count"], fmt(t["total_ms"]), fmt(t["self_ms"])))
    wanted = spec["per_layer" if trace else "end_to_end"]
    source = result["layers" if trace else "e2e"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in source:
            fail("%s reports no metric %s" % (result["workload"], name))
        metrics[name] = {"value": source[name]["value"],
                         "unit": entry["unit"]}
    return metrics


def self_test(out):
    build(out, source_fingerprint()[1])
    sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if args.self_test:
        self_test(out)
    if not args.workload:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    commit, source_digest = source_fingerprint()
    build(out, source_digest)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        started = time.time()
        result, record_path = run_harness(out, workload, args.seed,
                                          seconds, args.trace)
        fingerprint = dict(result["fingerprint"], commit=commit,
                           source_digest=source_digest)
        metrics = report(result, fingerprint, spec, args.trace)
        record = dict(result, fingerprint=fingerprint,
                      run_seconds=round(time.time() - started, 3))
        with open(record_path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else workload + "."
        for name, m in metrics.items():
            total["metrics"][prefix + name] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
