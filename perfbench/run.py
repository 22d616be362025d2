#!/usr/bin/env python3
"""Build and run the host-time benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <pingpong|storm|collectives|faults>
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a package of its own, so the repository's manifests
stay untouched) in release mode into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, then runs it. The benchmark pins
itself to one CPU; its last line of standard output is the JSON result.
Any failure to build or run exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run measures for --seconds, then reports; past this it is hung.
RUN_TIMEOUT_S = 170


def git_sha(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = p.parse_args()

    root = os.path.dirname(HERE)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The benchmark measures the configuration it builds; no environment
    # override of the simulator may leak into the measured worlds.
    for key in list(env):
        if key.startswith("MPICH_") or key == "FAULT_SEED":
            del env[key]
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--git-sha", git_sha(root),
    ]
    if args.trace:
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans", spans]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
