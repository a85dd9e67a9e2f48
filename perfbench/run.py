#!/usr/bin/env python3
"""Build and run the Canopus benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve --seed 3 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/ with a build
cache there too, so nothing outside the checkout is read or written. Every
argument is passed through to the program; a traced run (--trace 1) also
writes its spans to .bench_build/trace/<workload>-seed<seed>.jsonl. The last
line of standard output is the run's JSON result. The exit code is the
program's, or 1 if the build fails.
"""

import argparse
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + build.stdout)
        return 1

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()
    args = sys.argv[1:]
    if known.trace == "1":
        trace = os.path.join(out, "trace", "%s-seed%s.jsonl" % (known.workload, known.seed))
        args += ["--trace-out", trace]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
