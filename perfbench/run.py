#!/usr/bin/env python3
"""Build and run the fivealarms benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload study-default --seed 1 --seconds 50 --trace 0

The Go program in this directory is built from source into .bench_build/
(or $CARGO_TARGET_DIR when set), with the Go build cache kept there too,
so a run reads and writes only inside the checkout. The program's output
is passed through; its last line is the JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def run(cmd, cwd, env, timeout, capture):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.STDOUT if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
                               text=True, timeout=30, check=True).stdout.strip()
    except (subprocess.SubprocessError, OSError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["study-default", "study-fleet", "serve-read"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 3
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOMODCACHE=os.path.join(build, "gomodcache"),
               GOPATH=os.path.join(build, "gopath"),
               GOENV="off", GOFLAGS="", GOWORK="off", GOPROXY="off",
               GOTOOLCHAIN="local", GOTELEMETRY="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    try:
        code, out = run([go, "build", "-buildvcs=false", "-o", binary, "."], HERE, env,
                        BUILD_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if code != 0:
        sys.stderr.write(out.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", build, "-git-sha", git_sha()]
    try:
        code, _ = run(cmd, ROOT, env, RUN_TIMEOUT_S, capture=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
