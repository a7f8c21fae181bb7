#!/usr/bin/env python3
"""Build the system from source and run one benchmark workload.

    python3 perfbench/run.py --workload server --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run compiles the repository and the
benchmark with sbt (offline) and caches the classpath under `.bench_build/`;
later runs rebuild only when a source file changed. The run itself is one
JVM (`perfbench.Bench`); its last line of standard output is the result
JSON, which this script checks and prints last.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
HEAP = "4g"

# JDK 17 module access that Spark needs (the same list the root build uses).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]

# What the build reads; a change to any of these triggers a rebuild.
SOURCES = ["build.sbt", "project/build.properties", "src/main", "perfbench/build.sbt",
           "perfbench/project/build.properties", "perfbench/src/main"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        if not os.path.exists(path):
            fail(f"missing {rel}: run from a full checkout of the repository")
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group. The whole group is killed, and
    waited for, on timeout or when this script is told to stop."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"stopped by signal {signum}")

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return proc.returncode, out


def build(stamp):
    """Compile with sbt unless the classpath for this source hash is cached."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp.txt")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(cp_file) and os.path.exists(stamp_file):
            with open(stamp_file) as f:
                if f.read().strip() == stamp:
                    with open(cp_file) as c:
                        return c.read().strip()
        env = dict(os.environ, COURSIER_MODE="offline")
        env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
        code, out = run_group(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        lines = [l for l in out.splitlines() if l.strip()]
        sys.stderr.write("\n".join(lines[-30:-1]) + "\n")
        if code != 0 or not lines or "perfbench" not in lines[-1]:
            fail(f"sbt build failed (exit {code})")
        classpath = lines[-1].strip()
        with open(cp_file, "w") as f:
            f.write(classpath)
        with open(stamp_file, "w") as f:
            f.write(stamp)
        return classpath


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    stamp = source_hash()
    classpath = build(stamp)
    tmp = os.path.join(BUILD, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = (["java"] + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS] + [
        "-XX:+IgnoreUnrecognizedVMOptions", f"-Xmx{HEAP}",
        f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
        "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
        f"-Dperfbench.commit={git_commit()}", f"-Dperfbench.source={stamp}",
        "-cp", classpath, "perfbench.Bench",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", os.path.join(BUILD, "out"),
    ])
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l)
    if code != 0 or not lines:
        fail(f"benchmark exited with {code}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
