#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles the madlib sources under src/) into the build
directory named by $CARGO_TARGET_DIR, or .bench_build; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's result JSON. --selftest builds and runs the tests of the
benchmark's own logic instead.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time a run may take besides its window (set-up, output checks, warm-up and
# the traced run). At BENCHMARK.json's run_seconds a hung run is stopped
# within 170 s.
RUN_MARGIN_S = 130


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        print("perfbench: no madlib sources under src/ next to perfbench/",
              file=sys.stderr)
        return False
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def sources_digest():
    """A digest of the sources the benchmark builds from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources:" + digest.hexdigest()[:16]


def source_id():
    """The git commit, plus a digest of the sources when they differ from it."""
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True, timeout=10)
            if status.returncode == 0 and not status.stdout.strip():
                return "git:" + lines[1]
            return "git:" + lines[1] + "+" + sources_digest()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return sources_digest()


def window_seconds(argv):
    """The --seconds argument, or 0 when it is missing or malformed (the
    program itself validates it)."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                return max(0.0, float(value))
            except ValueError:
                return 0.0
    return 0.0


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(build_dir(), "perfbench_test")]
                              ).returncode
    if not build("perfbench"):
        return 1
    cmd = [os.path.join(build_dir(), "perfbench"), *argv,
           "--scratch", os.path.join(build_dir(), "run"),
           "--source-id", source_id()]
    timeout = window_seconds(argv) + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
