#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a source checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Builds cordbench and perfbench from the checkout's sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build), rebuilding only when a
Go source changed, then replaces itself with perfbench, which prints the
result as the last line of standard output. Every file the build and the run
write stays inside the build directory.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_digest(build):
    """Hash every Go source and module file under the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) != build)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })

    bindir = os.path.join(build, "bin")
    cordbench = os.path.join(bindir, "cordbench")
    perfbench = os.path.join(bindir, "perfbench")
    stamp = os.path.join(bindir, "source.sha256")
    digest = source_digest(build)
    built = ""
    if os.path.exists(stamp):
        with open(stamp) as f:
            built = f.read().strip()
    if built != digest or not (os.path.exists(cordbench) and os.path.exists(perfbench)):
        for cwd, out, pkg in ((ROOT, cordbench, "./cmd/cordbench"),
                              (os.path.join(ROOT, "perfbench"), perfbench, ".")):
            r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env, stdout=sys.stderr)
            if r.returncode != 0:
                print("perfbench: build of %s failed" % pkg, file=sys.stderr)
                return 1
        with open(stamp, "w") as f:
            f.write(digest + "\n")

    args = [perfbench] + sys.argv[1:] + [
        "-root", ROOT,
        "-work", os.path.join(build, "perfbench"),
        "-cordbench", cordbench,
        "-rev", "%s+src.%s" % (git_rev(), digest[:12]),
    ]
    os.chdir(ROOT)
    os.execve(perfbench, args, env)


if __name__ == "__main__":
    sys.exit(main())
