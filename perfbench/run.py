#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache, the binary and the traced run's spans all live under
$CARGO_TARGET_DIR (default .bench_build), so a run writes nothing outside
the checkout. Build output goes to standard error; the benchmark's last
line of standard output is its JSON result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out, "gotmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["CARGO_TARGET_DIR"] = out
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
