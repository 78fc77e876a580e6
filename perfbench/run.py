#!/usr/bin/env python3
"""Builds the replica binary and the benchmark from source, then runs one
benchmark invocation.

    python3 perfbench/run.py --workload <wan5-conflict|wan5-ycsb|lan-ycsb|lan-write> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Cargo builds
into $CARGO_TARGET_DIR (default: .bench_build). Replica data directories
live under .bench_run/ and are removed afterwards; every process the run
starts is killed and waited for, also when it fails or times out.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds atlas-replica (repository workspace) and perfbench (its own
    workspace) into one target directory; returns both executables."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "atlas-runtime")
    ):
        fail("run from the repository root: no Cargo.toml or crates/atlas-runtime here")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "atlas-runtime", "--bin", "atlas-replica"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(BENCH_DIR, "Cargo.toml"),
        ],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "atlas-replica")


def reap(proc):
    """Kills every process left in the benchmark's process group and waits
    until none is left."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        proc.poll()
        time.sleep(0.05)


def main():
    bench, replica = build()
    work = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [bench, *sys.argv[1:], "--replica-bin", replica, "--work-dir", work]
    # A session of its own: the benchmark and every replica it spawns share
    # one process group, which is killed whatever way the run ends.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s, killed", file=sys.stderr)
        code = 1
    except KeyboardInterrupt:
        code = 130
    reap(proc)
    proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.join(ROOT, ".bench_run"))
    except OSError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
