#!/usr/bin/env python3
"""Build the pconn benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_ea --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --selftest                   # the benchmark's own tests

Run from the repository root. The C++ program (perfbench/src) is built with
CMake into .bench_build/cmake (the directory named by CARGO_TARGET_DIR when
that is set). It prints a report and one PERFBENCH_RESULT line with every
metric it measured; this script prints the report, then, as its last line,
the JSON result with the metrics BENCHMARK.json lists: the end-to-end ones
on an untraced run (--trace 0), the per-layer ones on a traced run. It exits
nonzero when the build fails, when an answer was wrong, or when a listed
end-to-end metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_ea", "serve_live", "profile_batch")
RUN_TIMEOUT_S = 170
RESULT_TAG = "PERFBENCH_RESULT "


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cmake")


def build(targets):
    """Configure (once) and build; build output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", out, "--parallel", "4", "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: build failed")
    return out


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, args, workload, seed):
    """Runs the benchmark program once; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ea_qps is not None:
        cmd += ["--ea-qps", str(args.ea_qps)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(trace_dir, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 3, None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    return proc.returncode, result


def select(result, listed, require):
    """The listed metrics of a program result; None if a required one is
    missing or not a positive finite number. A per-layer metric the
    workload does not exercise reads 0."""
    out = {}
    for spec in listed:
        name = spec["name"]
        m = result["metrics"].get(name)
        if m is None:
            if require:
                print("perfbench: metric %s missing" % name, file=sys.stderr)
                return None
            m = {"value": 0, "unit": spec["unit"]}
        elif require and not 0 < m["value"] < 1e300:
            print("perfbench: metric %s = %r" % (name, m["value"]),
                  file=sys.stderr)
            return None
        out[name] = m
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ea-qps", dest="ea_qps", type=float)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.selftest:
        out = build(["perfbench", "perfbench_test"])
        sys.path.insert(0, os.path.join(HERE, "tests"))
        import selftest
        sys.exit(selftest.main(out, os.path.join(out, "perfbench"),
                               os.path.join(out, "perfbench_test")))
    if args.workload is None:
        ap.error("--workload is required")

    binary = os.path.join(build(["perfbench"]), "perfbench")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in workloads:
        code, result = run_workload(binary, args, w, args.seed)
        if result is None:
            sys.exit("perfbench: %s printed no result (exit %d)" % (w, code))
        metrics = select(result, listed, require=not args.trace)
        if metrics is None:
            sys.exit(1)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = w + "." if len(workloads) > 1 else ""
        for name, m in metrics.items():
            final["metrics"][prefix + name] = m
        status = status or code
    print(json.dumps(final))
    sys.exit(status)


if __name__ == "__main__":
    main()
