#!/usr/bin/env python3
"""Run one workload of the perfbg benchmark.

    python3 perfbench/run.py --workload sweep_x20 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a perfbg checkout. The first call configures and builds
perfbg, the perfbgd daemon and the harness from source into
.bench_build/perfbench (CMake, Release); later calls only rebuild what
changed. The harness log is printed first; the last stdout line is one JSON
object {correct, attempted, failed, metrics}. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "perfbench")
BUILD = os.path.join(ROOT, BUILD_REL)
WORKLOADS = ("large_buffer_x50", "erlang4_x20", "sweep_x20", "daemon_mix")
# Each run must end within 180 s; leave room for start-up and reporting.
RUN_TIMEOUT_S = 170.0


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "examples", "perfbgd.cpp")
    ):
        fail("no perfbg sources next to %s; run from a perfbg checkout" % HERE, 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, cwd=ROOT) != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
        fail("build failed", 3)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def wait_group(pgid, deadline):
    """Waits until no process of the group is left, or the deadline passes."""
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_harness(args):
    work_dir = os.path.join(BUILD_REL, "run")
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    out_path = os.path.join(ROOT, work_dir, "stdout-%d.txt" % os.getpid())
    cmd = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join("perfbench", "reference.json"),
        "--work-dir", work_dir,
    ]
    if args.trace:
        spans_dir = os.path.join(BUILD_REL, "spans")
        os.makedirs(os.path.join(ROOT, spans_dir), exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    with open(out_path, "w") as out:
        # Own process group, so the daemon the harness starts goes down with
        # it if the run has to be killed.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *a: (kill_group(), sys.exit(1)))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    status = rusage = None
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline:
                kill_group()
                os.wait4(proc.pid, 0)
                wait_group(proc.pid, time.monotonic() + 10.0)
                fail("%s did not finish within %.0f s" % (args.workload, RUN_TIMEOUT_S), 4)
            time.sleep(0.02)
    except KeyboardInterrupt:
        kill_group()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    # The harness drains its daemon itself; if it died before that, the
    # daemon is still in the group.
    kill_group()
    wait_group(proc.pid, time.monotonic() + 10.0)

    with open(out_path) as f:
        lines = f.read().splitlines()
    os.remove(out_path)
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines))
        fail("harness exited with status %d" % proc.returncode, 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace and "peak_rss_mb" not in metrics:
        # ru_maxrss is in KiB on Linux.
        metrics["peak_rss_mb"] = {"value": rusage.ru_maxrss / 1024.0, "unit": "MB"}
        print("metric peak_rss_mb %r MB" % metrics["peak_rss_mb"]["value"])
    want = expected_metrics(args.trace)
    if set(metrics) != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(want)), 5)
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the harness's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.call([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    build(["perfbench"])
    run_harness(args)


if __name__ == "__main__":
    main()
