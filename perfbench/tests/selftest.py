"""The benchmark's own tests, run by `python3 perfbench/run.py --selftest`.

1. perfbench_test: the percentile, histogram-delta, schedule and span
   self-time arithmetic (tests/logic_test.cpp).
2. Work counters repeat exactly: every workload runs traced twice with the
   same seed, and each work counter must come out identical.
"""
import json
import subprocess
import sys

# Counters of work done, which depend only on the seed and the run length.
WORK_COUNTERS = {
    "serve_ea": ["time.ea_settled", "time.ea_relaxed"],
    "serve_live": ["time.ea_settled", "time.ea_relaxed",
                   "overlay_spcs.profile_settled", "live.recomputed_points",
                   "live.relinks", "live.recontractions",
                   "live.degradations"],
    "profile_batch": ["spcs.settled", "spcs.relaxed", "spcs.self_pruned",
                      "spcs.thread_settled_imbalance",
                      "spcs.redundant_settled_frac"],
}
SECONDS = 4
SEED = 5


def traced_metrics(binary, workload):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            return proc.returncode, json.loads(line.split(" ", 1)[1])
    return proc.returncode, None


def main(build_dir, binary, logic_test):
    failures = 0
    if subprocess.run([logic_test]).returncode != 0:
        print("selftest: perfbench_test failed")
        failures += 1
    for workload, names in WORK_COUNTERS.items():
        runs = [traced_metrics(binary, workload) for _ in range(2)]
        for code, result in runs:
            if code != 0 or result is None or not result["correct"]:
                print("selftest: %s run failed (exit %d)" % (workload, code))
                failures += 1
        if any(r is None for _, r in runs):
            continue
        for name in names:
            a, b = (r["metrics"][name]["value"] for _, r in runs)
            same = a == b
            print("selftest: %-14s %-34s %s %s" %
                  (workload, name, a, "repeats" if same else "DIFFERS: %s" % b))
            failures += 0 if same else 1
    print("selftest: %s" % ("ok" if failures == 0 else "%d failures" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
