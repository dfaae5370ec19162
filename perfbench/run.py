#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own cargo
workspace, depending on the repository's crates by path) in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then runs it with the given
arguments plus the source identity of the tree. The benchmark's stdout
passes through unchanged; its last line is the JSON result. Any extra
arguments (--tiny, --sabotage) go to the benchmark as they are.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "out", "__pycache__"}


def tree_digest():
    """SHA-256 over the paths and contents of the sources the benchmark builds."""
    h = hashlib.sha256()
    files = []
    for name in SOURCES:
        p = ROOT / name
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
                files.extend(pathlib.Path(dirpath) / f for f in filenames)
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


def commit():
    """`git:<HEAD> tree:<digest>`, or just the tree digest outside a git checkout."""
    ident = "tree:" + tree_digest()
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "-q", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            ident = "git:" + head.stdout.strip()[:12] + " " + ident
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def run(cmd, **kw):
    """Runs `cmd` to completion; kills and reaps it if this process is interrupted."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build != 0:
        print(f"perfbench: build failed (exit {build})", file=sys.stderr)
        return 1
    exe = target / "release" / "perfbench"
    return run([str(exe), *sys.argv[1:], "--commit", commit()], env=env)


if __name__ == "__main__":
    sys.exit(main())
