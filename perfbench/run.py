#!/usr/bin/env python3
"""End-to-end benchmark of the shipped `hdcgen serve` binary.

Builds the repository's libraries and `hdcgen` together with the benchmark
harness (perfbench/CMakeLists.txt) into .bench_build/ at the repository
root, then runs one workload and prints the result as the last line of
standard output.  See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("beijing_stdin", "beijing_socket_adapt",
             "beijing_stdin_replicas2")
# A run must end within 180 s; the harness gets the rest after start-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build location (the variable a
    # benchmark runner sets for build outputs); a relative value is
    # relative to the repository root.
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no hdcpp source tree at {ROOT}: the benchmark builds the "
             "repository it sits in")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and \
            not os.path.isfile(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    with open(log_path, "w") as log:
        for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (log: " + log_path + ")")
    return out


def run(cmd):
    """Runs cmd in its own process group and returns (exit code, stdout);
    on timeout the whole group (the harness and every server it started)
    is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def gated_names(trace):
    """The metric names BENCHMARK.json gates in this mode, or None (keep
    every metric) when there is no BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def emit(out, trace):
    """Prints the harness output.  Every metric stays in the printed table;
    the result line keeps the metrics BENCHMARK.json gates."""
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    names = gated_names(trace)
    if names is not None:
        result["metrics"] = {name: result["metrics"][name] for name in names}
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own failure detection")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.self_test:
        code, text = run([os.path.join(out, "perfbench_selftest")])
        print(text, end="")
        sys.exit(code)
    hdcgen = os.path.join(out, "hdcpp", "tools", "hdcgen")
    code, text = run([os.path.join(out, "perfbench_harness"),
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--hdcgen", hdcgen,
                      "--work", os.path.join(out, "work")])
    if code != 0:
        print(text, end="")
        sys.exit(code)
    emit(text, args.trace == 1)


if __name__ == "__main__":
    main()
