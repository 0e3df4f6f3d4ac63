#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fig7_sweep --seed 3 --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the hm library,
the shipped hm_server and the perfbench program) from the source tree it
sits in, runs the benchmark's self-tests, runs one workload and prints

  * a `provenance:` line (host CPU, nproc, compiler, build type, source
    revision, workload seed), so numbers are never compared across hosts
    by accident;
  * as the last line, the result object {"correct", "attempted",
    "failed", "metrics"}: every end-to-end metric of BENCHMARK.json with
    --trace 0, every per-layer metric with --trace 1 (0 for a layer the
    workload does not exercise).

Exit status 0 only when the build, the self-tests and every correctness
check passed. `--record` re-records the reference digests in
perfbench/reference.json from the current program (only after a change
that is meant to alter the outputs).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("fig7_sweep", "search_n37", "serve_mix")
DIGEST_WORKLOADS = ("fig7_sweep", "search_n37")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    # CARGO_TARGET_DIR names the build directory the benchmark may use.
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures once, then builds incrementally. Output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(nproc()), "--target",
                  "perfbench", "perfbench_selftest", "hm_server"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def cmake_cache(bdir):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                cache[key.split(":")[0]] = value
    return cache


def source_revision():
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return sha.stdout.strip()
        except OSError:
            pass
    # Not a git checkout: digest the sources the benchmark builds from.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()


def provenance(bdir, workload, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"cpu": cpu, "nproc": nproc(), "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "revision": source_revision(), "workload": workload, "seed": seed}


def run_bench(bdir, args, expect):
    """Runs the C++ program in its own process group; returns its result."""
    tmp = os.path.join(".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(nproc()),
           "--tmp", tmp, "--server", os.path.join(bdir, "hexamesh", "hm_server"),
           "--expect", expect]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Nothing the program started (hm_server) may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {args.workload} printed no result "
                         f"(exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def check_metrics(result, declared, trace):
    """Orders the metrics as BENCHMARK.json declares them, checking units.

    An end-to-end metric must always be measured; a per-layer metric the
    workload does not exercise reads 0."""
    got = result["metrics"]
    undeclared = set(got) - {m["name"] for m in declared}
    if undeclared:
        raise SystemExit(f"perfbench: undeclared metrics {sorted(undeclared)}")
    metrics = {}
    for m in declared:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                raise SystemExit(f"perfbench: unit of {m['name']} is "
                                 f"{got[m['name']]['unit']}, not {m['unit']}")
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            raise SystemExit(f"perfbench: end-to-end metric {m['name']} missing")
    return metrics


def record(bdir, args, ref):
    """Re-records the reference digest of every fixed-input workload."""
    for workload in DIGEST_WORKLOADS:
        args.workload, args.trace = workload, 0
        _, result = run_bench(bdir, args, "")
        ref[workload] = result["digest"]
        log(f"{workload}: {result['digest']}")
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    with open(REFERENCE) as f:
        ref = json.load(f)
    bdir = build_dir()
    build(bdir)
    selftest = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        raise SystemExit("perfbench: benchmark self-tests failed")
    if args.record:
        record(bdir, args, ref)
        return 0

    expect = ref.get(args.workload, "")
    prov = provenance(bdir, args.workload, args.seed)
    code, result = run_bench(bdir, args, expect)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = check_metrics(result, declared, args.trace)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
