#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
program's libraries from ../src), runs one workload, checks the result
against BENCHMARK.json and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Everything it writes goes under the build
directory: $CARGO_TARGET_DIR if set (relative paths are taken from the
repository root), else .bench_build.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build_binary():
    """Configures and builds the binary; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}; run from a full checkout")
    build_dir = build_base() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")

    binary = build_binary()
    if args.self_test:
        sys.exit(subprocess.run([str(binary), "--selftest"]).returncode)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--artifacts", str(build_base() / "perfbench-artifacts")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode} and no result")
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    correct = bool(result["correct"])
    want = expected_metrics(args.trace)
    got = result["metrics"]
    if want is not None:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in want if n in got and got[n]["unit"] != want[n])
        for label, names in (("missing", missing), ("not in BENCHMARK.json", extra),
                             ("unit differs from BENCHMARK.json", wrong_unit)):
            if names:
                print(f"perfbench: metrics {label}: {', '.join(names)}", file=sys.stderr)
                correct = False
        got = {n: got[n] for n in want if n in got}

    host = dict(result["host"], git_commit=git_commit())
    print("host: " + json.dumps(host, sort_keys=True))
    if not host["optimized"]:
        print("perfbench: WARNING: the binary is not an optimised build", file=sys.stderr)
    print(f"digest: {result['digest']}  reps: {result['reps']}  "
          f"wall: {time.monotonic() - t0:.1f} s")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": got}))


if __name__ == "__main__":
    main()
