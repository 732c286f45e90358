#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (a few seconds in all).

    python3 perfbench/selftest.py

Checks, for every workload:
  * the untraced run prints every end-to-end metric of BENCHMARK.json and
    the traced run every per-layer metric, each with its declared unit;
  * every op passes its output check;
  * scan_amplification and storage_overhead repeat exactly for a seed;
  * a wrong answer injected through the benchmark's own test hook (the
    program is untouched) shows up in `failed` and in ok_share.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))


def run(workload, seed, trace=0, inject=0):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--inject-wrong-every", str(inject)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)


def check_metrics(workload, res, spec_key):
    for m in SPEC[spec_key]:
        got = res["metrics"].get(m["name"])
        expect(got is not None, f"{workload}: {m['name']} missing")
        expect(got["unit"] == m["unit"],
               f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")


def main():
    for w in [x["name"] for x in SPEC["workloads"]]:
        a = run(w, 7)
        check_metrics(w, a, "end_to_end")
        expect(a["correct"] and a["failed"] == 0 and a["attempted"] > 0,
               f"{w}: clean run reports failures")
        expect(a["metrics"]["ok_share"]["value"] == 1.0, f"{w}: ok_share")
        b = run(w, 7)
        for k in ("scan_amplification", "storage_overhead"):
            expect(a["metrics"][k]["value"] == b["metrics"][k]["value"],
                   f"{w}: {k} differs between runs of one seed")
        bad = run(w, 7, inject=2)
        expect(not bad["correct"] and bad["failed"] > 0,
               f"{w}: injected wrong answers not counted as failed")
        expect(bad["metrics"]["ok_share"]["value"] < 1.0,
               f"{w}: injected wrong answers not in ok_share")
        t = run(w, 7, trace=1)
        check_metrics(w, t, "per_layer")
        expect(t["correct"], f"{w}: traced run (layer replay) failed a check")
        print(f"selftest: {w} ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
