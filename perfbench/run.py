#!/usr/bin/env python3
"""Build and run the spio end-to-end benchmark.

    python3 perfbench/run.py --workload checkpoint|explore|serve \
        --seed N --seconds S --trace 0|1

Builds `spio_perfbench` from the checkout's sources on first use (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs one workload in its own
process and passes its output through: a header, one `# name value unit`
line per metric, and as the last line the JSON result object. With
--trace 1 the run also writes a Chrome trace-event file under
<build dir>/traces/. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("checkpoint", "explore", "serve")
# A run must end within 180 s; stop the benchmark process well before.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(bdir):
    """Configure (once) and build the benchmark; output goes to stderr."""
    ninja = shutil.which("ninja")
    generated = os.path.join(bdir, "build.ninja" if ninja else "Makefile")
    if not os.path.exists(generated):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if ninja:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "spio_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "spio_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: self-test sizes")
    ap.add_argument("--inject-wrong-every", type=int, default=0,
                    help="self-test hook: corrupt the benchmark's copy of "
                         "every k-th op's result before its check")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(bdir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale,
           "--inject-wrong-every", str(args.inject_wrong_every),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            bdir, "traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
