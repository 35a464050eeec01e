#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mlp_serve --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), and the zoo
checkpoints the workloads load are trained once into `perfbench-zoo` beside
it, before anything is timed. The last line of standard output is the
benchmark's JSON result; the exit code is the benchmark's (0 when every
correctness gate held, 1 when one failed, 2 on an error).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--inject", choices=["wrong-prediction", "tampered-rung"])
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    zoo = os.path.join(target, "perfbench-zoo")
    prepared = subprocess.run([exe, "--prepare", "--zoo", zoo], stdout=sys.stderr)
    if prepared.returncode != 0:
        return 2
    # One malloc arena: with one per thread, which service thread inherits
    # which freed arena is a race, and peak RSS of identical runs would
    # differ by a whole model replica.
    run_env = dict(os.environ, MALLOC_ARENA_MAX="1")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--zoo", zoo]
    if args.inject:
        cmd += ["--inject", args.inject]
    return subprocess.run(cmd, env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
