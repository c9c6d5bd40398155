#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` package
(release, offline) into CARGO_TARGET_DIR (default `.bench_build`), then
runs it with the given arguments plus the source fingerprint, and passes
its exit code through. The benchmark prints every metric by name and,
as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Reports and traces go to `perfbench/out/`.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself stops after at most 150 s of passes; this is the
# backstop for a hung run (the contract allows 180 s).
RUN_TIMEOUT_S = 175


def fingerprint():
    """Identify the code under test: the git commit when there is one,
    plus a hash of every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, names in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s not in ("out", "target"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    ident = "tree:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            if head:
                ident = f"git:{head},{ident}"
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe] + sys.argv[1:] + ["--commit", fingerprint(), "--out", os.path.join(HERE, "out")]
    # A process group of its own, so a timeout stops the rank processes too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
