#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload tc-deep --seed 1 --seconds 40 --trace 0

Run it from the repository root. It builds the benchmark executable
(perfbench/src) and datalogd from source with dune into .bench_build/,
so the first run compiles the tree, then runs one workload. The last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). The line before it
records provenance: host, commit, seed, sizes, sample counts, and
why the workload exists. Per-run files (result, spans of a traced run,
the daemon's log) go to .bench_build/results/.

Extra flags for the self-test: --tiny (toy sizes), --inject-wrong
(corrupt one answer so the check must count it).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "perfbench.exe")
DAEMON = os.path.join(BUILD_DIR, "default", "bin", "datalogd.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    opam = shutil.which("opam")
    if opam:
        out = subprocess.run([opam, "var", "bin"], capture_output=True, text=True)
        candidate = os.path.join(out.stdout.strip(), "dune")
        if out.returncode == 0 and os.path.exists(candidate):
            return candidate
    fail("dune not found")


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a source checkout: %s is missing" % needed)
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    cmd = [find_dune(), "build", "--root", ROOT,
           "--build-dir", os.path.join(ROOT, BUILD_DIR),
           "--profile", "release", "--display", "quiet",
           "./perfbench/src/perfbench.exe", "./bin/datalogd.exe"]
    # No shared dune cache: the build stays inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def commit():
    """The git commit when there is one, and a digest of the sources."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for path, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(path, name)
                digest.update(os.path.relpath(full, ROOT).encode())
                with open(full, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (rev, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-wrong", action="store_true")
    args = parser.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--datalogd", DAEMON, "--commit", commit()]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    # Its own process group, so a timeout stops the daemon and the
    # net runtime's workers with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out after %ds" % RUN_TIMEOUT)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
