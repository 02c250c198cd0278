#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --rates hot-read=N,cold-large-read=N,replicated-churn=N \
        --workload hot-read --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ into .bench_build/; later runs rebuild only what changed. The
last line on stdout is the result JSON (correct, attempted, failed,
metrics). Everything else the run measured, with the configuration and its
provenance, goes to .bench_out/<workload>-seed<N>-trace<T>.json and a
summary to stderr; a traced run also writes its spans to
.bench_out/spans-<workload>.csv.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def filesystem_of(path):
    """(mount point, type) of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best_mount, best_type = "", "?"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best_mount):
                    best_mount, best_type = mount, fields[2]
    except OSError:
        pass
    return best_mount or "?", best_type


def cpu_steal_ticks():
    """Ticks the hypervisor gave this VM's CPUs to others (/proc/stat 'steal')."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def parse_rates(text):
    rates = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        rates[name.strip()] = float(value)
    return rates


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", required=True,
                        help="open-loop arrival rate per workload, ops/s: name=N,...")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    rates = parse_rates(args.rates)
    if args.workload not in rates:
        log(f"run.py: no open-loop rate for workload {args.workload!r}")
        return 2
    if not build():
        log("run.py: build failed")
        return 2

    work_dir = os.path.join(OUT, "images")
    os.makedirs(work_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rate", str(rates[args.workload]), "--work-dir", work_dir]
    if args.trace:
        command += ["--spans", os.path.join(OUT, f"spans-{args.workload}.csv")]
    steal_before, started = cpu_steal_ticks(), time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"run.py: perfbench exited with {done.returncode}")
        return done.returncode or 4
    report = json.loads(lines[-1])
    steal_after, elapsed = cpu_steal_ticks(), time.monotonic() - started

    detail = report.pop("detail")
    mount, fstype = filesystem_of(work_dir)
    detail["provenance"] = {
        "git_sha": git_sha(),
        "host_cpus": os.cpu_count(),
        "command": sys.argv,
        "images_dir": os.path.relpath(work_dir, ROOT),
        "images_filesystem": f"{fstype} mounted at {mount}",
        "device_reads": "served by the OS page cache (images are regular files, no O_DIRECT)",
    }
    if steal_before is not None and steal_after is not None:
        # Share of the run's CPU time a hypervisor ran other guests instead:
        # a run with a high share measured a contended host, not the code.
        ticks = os.sysconf("SC_CLK_TCK") * elapsed * (os.cpu_count() or 1)
        detail["provenance"]["host_steal_frac"] = (steal_after - steal_before) / ticks
    detail["result"] = report
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as out:
        json.dump(detail, out, indent=2)

    log(f"{args.workload} seed {args.seed} trace {args.trace}: correct={report['correct']} "
        f"attempted={report['attempted']} failed={report['failed']}")
    for metric, value in report["metrics"].items():
        log(f"  {metric:36s} {value['value']:>16.6g} {value['unit']}")
    if not detail.get("open_loop_valid", 1):
        log(f"  WARNING: open-loop generator fell behind (gen_lag_p99_us="
            f"{detail.get('gen_lag_p99_us')}); latencies measure the generator")
    log(f"  detail: {os.path.relpath(os.path.join(OUT, name), ROOT)}")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
