#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); cargo's output goes to stderr, so standard output
carries only the benchmark's own lines, the last of which is the JSON
result. The exit code is the benchmark's, or cargo's when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the release binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def revision():
    """The git revision, or a hash of the sources where there is no git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return source_hash()
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    return source_hash()


def source_hash():
    """`src-` and a SHA-1 of the library and benchmark sources."""
    digest = hashlib.sha1()
    for top in ("crates", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    binary = build()
    if binary is None:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PERFBENCH_REV=revision())
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
