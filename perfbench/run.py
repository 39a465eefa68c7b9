#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call compiles the program
(`src/main/scala`) together with the harness (`perfbench/src`) with the
Scala compiler that ships in `$SPARK_HOME/jars`, into `.bench_build/`; later
calls reuse the classes while the sources are unchanged. The harness JVM
prints its result as the last line of standard output; this script relays
it and exits non-zero, printing no result, if the build or the run fails.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
HARNESS_SRC = os.path.join(HERE, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Spark's JDK 17 module options (the same list build.sbt passes to forked JVMs).
JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        die(f"program sources not found under {os.path.relpath(PROGRAM_SRC, ROOT)}; "
            "run from the root of a full checkout")
    files = sorted(glob.glob(os.path.join(PROGRAM_SRC, "**", "*.scala"), recursive=True))
    files += sorted(glob.glob(os.path.join(HARNESS_SRC, "**", "*.scala"), recursive=True))
    return files


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        die("SPARK_HOME is not set; the Spark jars provide the compiler and runtime")
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
    if not jars:
        die(f"no jars under {home}/jars")
    return jars


def build(files, jars):
    """Compile once per distinct source content; return the classes dir."""
    h = hashlib.sha256()
    for f in files + jars:
        h.update(os.path.relpath(f, ROOT).encode())
        if f.endswith(".scala"):
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    out = os.path.join(BUILD_DIR, "classes-" + h.hexdigest()[:16])
    if os.path.isfile(os.path.join(out, ".ok")):
        return out
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", tmp,
           "-classpath", os.pathsep.join(jars)] + files
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        die("compilation failed")
    open(os.path.join(tmp, ".ok"), "w").close()
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return out


def run_jvm(classes, jars, main_args):
    scratch = os.path.join(BUILD_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}",
            # touch every heap page up front: first-touch page faults otherwise
            # land in whichever timed op first allocates in a fresh region
            "-XX:+AlwaysPreTouch",
            # the region size G1 picks for the 48 GB driver heap of build.sbt;
            # at 2 GB it would pick 1 MB, and every answer of more than
            # 128K edges would be a humongous allocation
            "-XX:G1HeapRegionSize=16m",
            "-XX:+IgnoreUnrecognizedVMOptions"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS]
           + ["-Dio.netty.tryReflectionSetAccessible=true",
              f"-Djava.io.tmpdir={scratch}",
              f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
              f"-Dperfbench.scratch={scratch}",
              f"-Dperfbench.out={os.path.join(BUILD_DIR, 'traces')}",
              "-cp", os.pathsep.join([classes] + jars)]
           + main_args)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        die(f"harness exited with code {proc.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    return lines[-1]


def result_line(raw, trace):
    """Attach units from BENCHMARK.json and check the metric set against it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    res = json.loads(raw)
    got = res["metrics"]
    names = [m["name"] for m in declared]
    if set(got) != set(names):
        die(f"metric set differs from BENCHMARK.json: missing {sorted(set(names) - set(got))}, "
            f"extra {sorted(set(got) - set(names))}")
    res["metrics"] = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that corrupted answers and skipped inserts are counted as failures")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    jars = spark_jars()
    classes = build(sources(), jars)
    if a.self_test:
        main_args = ["repro.perfbench.SelfTest"]
    else:
        main_args = ["repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)]
    last = run_jvm(classes, jars, main_args)
    print(last if a.self_test else result_line(last, a.trace))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
