#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds the
repository's libraries plus perfbench/src into .bench_build/ (Release);
later runs only rebuild what changed.  Every run writes its full record
(metrics, workload details, machine and build fingerprint) under
.bench_build/results/, prints a readable summary, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json when untraced, its per-layer
metrics when traced.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "cmake"
BINARY = CMAKE_DIR / "otf_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def build():
    """Configure (once) and build the benchmark program; serialized by a lock."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no repository sources to build")
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(os.cpu_count() or 1)
        steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                      "--target", "otf_perfbench"])
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                    log.flush()
                    tail = log_path.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail("build failed (full log in .bench_build/build.log)")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """Content hash of the sources the program is built from (stands in for
    the commit id when the checkout is not a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(build_info):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        **build_info,
    }


def run_program(workload, seed, seconds, trace, corrupt=False):
    scratch = BUILD_ROOT / "scratch" / workload
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        fail(f"{workload} printed no readable result")


def contract_metrics(spec, record, trace):
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"{record['workload']} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def print_summary(record, fp):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}")
    print(f"machine  {fp['cpu_model']}, nproc {fp['nproc']}; "
          f"{fp['compiler']} {fp['build_type']} [{fp['cxx_flags'].strip()}], "
          f"simd_compiled={fp['simd_compiled']}, kernel={fp['kernel_variant']}; "
          f"commit {fp['git_commit'] or 'n/a'}, sources {fp['source_digest']}")
    print("resolved " + ", ".join(f"{k}={v}" for k, v in record["info"].items()))
    frac = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"failed_frac {frac:.6g} ({record['failed']} of {record['attempted']} "
          f"{record['operation']})")
    for section in ("metrics", "details"):
        for name, m in record[section].items():
            print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")


def run_once(args, spec):
    build()
    record = run_program(args.workload, args.seed, args.seconds, args.trace)
    fp = fingerprint(record.pop("build"))
    record["fingerprint"] = fp
    record["failed_frac"] = (record["failed"] / record["attempted"]
                             if record["attempted"] else 0.0)
    results = BUILD_ROOT / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record, fp)
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": contract_metrics(spec, record, args.trace),
    }))


def self_test(spec):
    """Each workload, run briefly with one output deliberately corrupted,
    must report that output as failed and the run as incorrect."""
    build()
    ok = True
    for w in spec["workloads"]:
        record = run_program(w["name"], 1, 1, 0, corrupt=True)
        caught = record["failed"] > 0 and not record["correct"]
        ok = ok and caught
        print(f"self-test {w['name']}: corrupted output "
              f"{'counted as failed' if caught else 'NOT DETECTED'} "
              f"({record['failed']} of {record['attempted']})")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.self_test:
        self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    if args.seed is None or args.seconds is None or args.trace is None:
        fail("--seed, --seconds and --trace are required")
    if not args.seconds > 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    run_once(args, spec)


if __name__ == "__main__":
    main()
