"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload larson-4t --seed 1 --seconds 30 --trace 0

Every build and run output stays inside the checkout, under the directory
named by CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
benchmark binary, and the Chrome traces of traced runs. The exit code is the
build's when it fails, the benchmark's otherwise.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOTMPDIR=os.path.join(out, "tmp"),
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomod"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
