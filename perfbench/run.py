#!/usr/bin/env python3
"""Benchmark entry point: build the checkout's own server, then run one
workload and print the JSON result line.

    python3 perfbench/run.py --workload khop_deep --seed 1 --seconds 10 --trace 0
        [--config NAME=VALUE ...]

--trace 0 runs the end-to-end client against resp_server over RESP;
--trace 1 runs the in-process replay that times each layer.  --config
applies a runtime setting (GRAPH.CONFIG SET NAME VALUE) to the server
before the load and again after the restart.  See perfbench/README.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configure (once) and build the server plus one benchmark binary."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "resp_server", target,
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["khop_deep", "onehop_point", "write_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--config", action="append", default=[], metavar="NAME=VALUE")
    args = ap.parse_args()

    needed = ["CMakeLists.txt", "src/CMakeLists.txt", "examples/resp_server.cpp"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log(f"the program's source is not in this checkout ({', '.join(missing)} "
            f"missing under {ROOT}); nothing to build or measure")
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    target = "perfbench_trace" if args.trace else "perfbench_client"
    try:
        build(build_dir, target)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 3

    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir]
    if not args.trace:
        cmd += ["--server", os.path.join(build_dir, "repo", "examples", "resp_server")]
    for kv in args.config:
        cmd += ["--config", kv]
    # Own process group, so a timeout also takes down the server child.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
