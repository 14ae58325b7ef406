#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

One run of one workload:

    python3 perfbench/run.py --workload serve-min --seed 1 --seconds 5 --trace 0

builds the runtime libraries and the perfbench binary under
.bench_build/perfbench (CMake, RelWithDebInfo), runs the workload from
the checkout root, prints the run's report and the non-test source
lines per src/ module, and ends with the binary's one-line JSON result.
The exit status is the binary's: nonzero when any output check failed.

    python3 perfbench/run.py --self-test

runs every workload briefly, traced and untraced, and checks that every
metric BENCHMARK.json names is printed with its unit, that the traced
and untraced runs print the same end-to-end names, that a corrupted
expectation fails each workload, and that the toolchain's counts repeat
exactly between runs of one seed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("serve-min", "pipeline-bitc", "toolchain")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no BitC sources under {ROOT / 'src'}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def source_lines():
    """Non-blank lines of src/<module>/*.{cpp,hpp} per module."""
    counts = {}
    for module in sorted(p for p in (ROOT / "src").iterdir() if p.is_dir()):
        n = 0
        for f in module.iterdir():
            if f.suffix in (".cpp", ".hpp", ".h", ".inc"):
                with open(f, encoding="utf-8", errors="replace") as text:
                    n += sum(1 for line in text if line.strip())
        counts[module.name] = n
    return counts


def run_binary(workload, seed, seconds, trace, corrupt=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The result object on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_once(args):
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not build():
        return 1
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    result = parse_result(lines)
    if result is None:
        print("\n".join(lines))
        log("no result line")
        return code or 1
    print("\n".join(lines[:-1]))
    counts = source_lines()
    print("source lines per src/ module (non-blank, non-test; "
          "informational): " +
          " ".join(f"{m}={n}" for m, n in counts.items()) +
          f" total={sum(counts.values())}")
    print(lines[-1], flush=True)
    return code


def section(lines, title):
    """Metric names printed under a 'title:' heading."""
    names, inside = [], False
    for line in lines:
        if line == title:
            inside = True
        elif inside and line.startswith("  "):
            names.append(line.split()[0])
        elif inside:
            break
    return names


def self_test():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if not build():
        return 1
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    counts = []
    for workload in WORKLOADS:
        printed = {}
        for trace in (0, 1):
            code, lines = run_binary(workload, 1, 1, trace)
            result = parse_result(lines)
            expect(code == 0 and result is not None and result["correct"],
                   f"{workload} trace={trace}: exits 0 with a correct result")
            if result is None:
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want[trace],
                   f"{workload} trace={trace}: prints every BENCHMARK.json "
                   "metric with its unit")
            printed[trace] = section(lines, "end-to-end (untraced):")
            if trace:
                printed["traced"] = section(lines, "end-to-end (traced):")
            counts += [line for line in lines if line.startswith("counts")]
        expect(printed.get(0) and printed.get(0) == printed.get("traced"),
               f"{workload}: traced and untraced runs print the same "
               "end-to-end names")
        code, lines = run_binary(workload, 1, 1, 0, corrupt=True)
        result = parse_result(lines)
        expect(code != 0 and (result is None or not result["correct"]),
               f"{workload}: a corrupted expectation fails the run")
    expect(len(counts) == 2 and counts[0] == counts[1],
           "toolchain: counts repeat exactly between runs of one seed")
    print("self-test " + ("passed" if not failures else
                          f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
