#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload kv_read_mostly --seed 1 --seconds 10 --trace 0

Builds `txboost-server` (release) from the repository workspace and the
benchmark package in this directory, both into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark binary with the given
arguments. Build output goes to standard error; the benchmark's last
line of standard output is its JSON result. Exits non-zero, printing no
result, if either build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(manifest)] + extra
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def source_digest():
    """SHA-256 over the sources the two builds read, so a result names
    the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for top in (ROOT / "crates", ROOT / "src", HERE / "src"):
        files += [p for p in top.rglob("*") if p.is_file() and "target" not in p.parts]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = str(target)
    if not build(ROOT / "Cargo.toml", ["-p", "txboost-server", "--bin", "txboost-server"]):
        sys.exit("benchmark: building txboost-server failed")
    if not build(HERE / "Cargo.toml", []):
        sys.exit("benchmark: building the benchmark failed")
    os.environ["BENCH_SOURCE_DIGEST"] = source_digest()
    sha = git_sha()
    if sha:
        os.environ["BENCH_GIT_SHA"] = sha
    binary = target / "release" / "txboost-benchmark"
    server = target / "release" / "txboost-server"
    r = subprocess.run([str(binary)] + sys.argv[1:] + ["--server-bin", str(server)], cwd=ROOT)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
