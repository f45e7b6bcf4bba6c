#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package and the
repository's `msplit-worker` binary (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark with the
same arguments. Build output goes to stderr; stdout carries only the
benchmark's lines, the last of which is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

# Files without which this is not a checkout of the repository.
REQUIRED = ("Cargo.toml", "Cargo.lock", "crates/core/Cargo.toml", "src/bin/msplit_worker.rs")
# Sources hashed into the run record (the checkout is not a git repository).
DIGESTED = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/src")


def source_digest(root):
    h = hashlib.sha256()
    for entry in DIGESTED:
        path = os.path.join(root, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, names in os.walk(path)
            if "target" not in os.path.relpath(d, root).split(os.sep)
            for f in names
        )
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def commit(root):
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return top[1] if len(top) == 2 and os.path.samefile(top[0], root) else "unknown"


def main():
    root = os.getcwd()
    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(root, f))]
    if missing:
        print(f"perfbench: not a checkout of the repository (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--bin", "msplit-worker"],
    )
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    env["MSPLIT_WORKER_BIN"] = os.path.join(target, "release", "msplit-worker")
    env["PERFBENCH_COMMIT"] = commit(root)
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(root)
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
