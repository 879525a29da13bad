#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

The benchmark is the Go module in this directory. It is built from source
into .bench_build/ (build cache included), so building and running read and
write nothing outside the checkout. Arguments are passed through unchanged;
the exit code is the benchmark's, or 2 when the build fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    if not (ROOT / "go.mod").is_file():
        sys.stderr.write("perfbench: no go.mod at %s; run from a full checkout\n" % ROOT)
        return 2
    env = dict(os.environ)
    for name in ("gocache", "gotmp", "gopath", "home"):
        (BUILD / name).mkdir(parents=True, exist_ok=True)
    env.update({
        "GOCACHE": str(BUILD / "gocache"),
        "GOTMPDIR": str(BUILD / "gotmp"),
        "GOPATH": str(BUILD / "gopath"),
        "GOMODCACHE": str(BUILD / "gopath" / "pkg" / "mod"),
        "HOME": str(BUILD / "home"),
        "XDG_CONFIG_HOME": str(BUILD / "home"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    binary = BUILD / "perfbench"
    build = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    env["PERFBENCH_COMMIT"] = commit()
    proc = subprocess.Popen([str(binary)] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
