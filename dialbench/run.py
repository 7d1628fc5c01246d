#!/usr/bin/env python3
"""DIAL benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 dialbench/run.py --workload wa-dial --seed 11 --seconds 45 --trace 0

The first run builds the harness and the program's sources with sbt into
.bench_build/ (a content stamp skips the build while no source changes).
It then starts one JVM that runs the workload (see BenchMain.scala) and
relays its output. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the generated sizes, the run times and any failure messages.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BUILD = ROOT / ".bench_build"
CLASSES = BUILD / "target" / "scala-2.13" / "classes"
STAMP = BUILD / "build.stamp"

WORKLOADS = ("wa-dial", "ds-findall", "ab-qbc")
BUILD_TIMEOUT_S = 700
RUN_DEADLINE_S = 170  # every run after the build ends within this

# Platform-module opens Spark 4 needs on JDK 17 (as its launcher scripts add).
MODULE_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every file the build reads from the checkout."""
    h = hashlib.sha256()
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    files += [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout.
    Returns (exit code or None on timeout, stdout bytes)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    stamp = source_stamp()
    if CLASSES.is_dir() and STAMP.exists() and STAMP.read_text() == stamp:
        return
    log("building the harness and the program sources with sbt")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={BUILD / 'sbt-global'}",
           f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}",
           "clean", "compile"]
    code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=BENCH, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"build failed (exit {code})")
    STAMP.write_text(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run.py takes its JVM or sbt process group down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (PROGRAM_SRC / "repro" / "core" / "Dial.scala").is_file():
        sys.exit(f"program sources not found under {PROGRAM_SRC}; run from a full checkout")
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not Path(spark_home, "jars").is_dir():
        sys.exit("SPARK_HOME must name a Spark 4 distribution")

    build()
    started = time.monotonic()
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", "-Xmx3g",
           *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in MODULE_OPENS],
           "-Djdk.reflect.useDirectMethodHandle=false",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", f"{CLASSES}{os.pathsep}{Path(spark_home, 'jars')}/*",
           "dialbench.BenchMain", "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    code, out = run_bounded(cmd, RUN_DEADLINE_S, cwd=ROOT, stdout=subprocess.PIPE)
    lines = out.decode(errors="replace").splitlines()
    if code != 0:
        what = "timed out" if code is None else f"exited with {code}"
        sys.exit(f"benchmark JVM {what} after {time.monotonic() - started:.1f} s")
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("benchmark JVM printed no result line")
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
