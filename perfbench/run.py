#!/usr/bin/env python3
"""PFD pipeline benchmark: entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source on first use (or when a
source changed) with perfbench/build.sh, then runs one benchmark process.
Its standard output ends with one JSON line: {correct, attempted, failed,
metrics}. Exits non-zero, without a result line, when anything fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
RUN_TIMEOUT_S = 170
JVM_HEAP = "3g"
# The module openings Spark's own launcher adds on Java 17.
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]


def spark_home():
    """$SPARK_HOME, else the Spark installation of a spark-submit on the PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.realpath(os.path.join(d, os.pardir))
        if os.path.exists(os.path.join(d, "spark-submit")) and os.path.isdir(os.path.join(home, "jars")):
            return home
    sys.exit("run.py: set SPARK_HOME or put Spark's bin directory on the PATH")


def sources():
    dirs = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sh"), os.path.join(HERE, "log4j2.properties")]
    for d in dirs:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build():
    """Compile into BUILD/classes unless the stamp matches the sources."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("run.py: program sources (src/main/scala) not found; run from the repository root")
    digest = hashlib.sha256()
    for f in sources():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = os.path.join(BUILD, "stamp")
    classes = os.path.join(BUILD, "classes")
    want = digest.hexdigest()
    if os.path.isdir(classes) and os.path.exists(stamp) and open(stamp).read() == want:
        return classes
    os.makedirs(BUILD, exist_ok=True)
    subprocess.run(["bash", os.path.join(HERE, "build.sh"), classes], check=True,
                   stdout=sys.stderr, env=dict(os.environ, SPARK_HOME=spark_home()))
    with open(stamp, "w") as fh:
        fh.write(want)
    return classes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    try:
        classes = build()
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed (%s)" % e)
    work = os.path.join(BUILD, "run")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    jars = os.path.join(spark_home(), "jars", "*")
    cmd = (["java", "-Xmx" + JVM_HEAP, "-Xss8m", "-XX:-UsePerfData",
            "-Djava.io.tmpdir=" + tmp, "-Dperfbench.work=" + work,
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
           + JVM_OPENS
           + ["-cp", classes + os.pathsep + jars, "repro.perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", a.trace])
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit("run.py: stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: benchmark process exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("run.py: benchmark process exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        sys.exit("run.py: benchmark printed no result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
