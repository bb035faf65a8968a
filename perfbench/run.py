#!/usr/bin/env python3
"""Build and run the host-performance benchmark from the repository root.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Builds the perfbench Go module (which compiles the simulator from source
through its `replace repro => ../`) into .bench_build/, with the Go build
cache, module cache, temporary files and tool configuration kept there too,
then runs the binary with the given arguments. The binary's standard
output, whose last line is the JSON result, passes through unchanged; any
build or run failure exits non-zero without a result line.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        TMPDIR=os.path.join(out, "tmp"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run(
            [binary, "--repo", root] + sys.argv[1:],
            cwd=root,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: run failed: %s" % e, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
