#!/usr/bin/env python3
"""End-to-end benchmark of the OCSP library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The script builds this directory's CMake
project, which compiles the library from ../src, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) in Release
mode, then runs the ocsp_e2e program.  Its last line of stdout is
the JSON result; build output goes to stderr.  A traced run (--trace 1)
also writes its spans to <build dir>/spans/<workload>-seed<N>.csv.

--selftest runs every workload at a tiny size through both modes, checks
the result lines against BENCHMARK.json, and checks that a deliberately
wrong reference is counted as failed.  README.md gives the rationale.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no library sources at src/ beside perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ocsp_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return out / "ocsp_e2e"


def drive(binary, workload, seed, seconds, trace, extra=()):
    """Run ocsp_e2e once; return (exit code, parsed last line, stdout)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, res, _ = drive(binary, workload, 7, 1, trace,
                                 ["--size", "tiny"])
            tag = f"{workload} trace={trace}"
            expect(code == 0, f"{tag}: exit 0 (got {code})")
            if res is None:
                expect(False, f"{tag}: printed a result line")
                continue
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], f"{tag}: result keys")
            expect(res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{tag}: correct with no failed runs")
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(printed == declared[trace],
                   f"{tag}: metric names and units match BENCHMARK.json "
                   f"(extra {sorted(set(printed) - set(declared[trace]))}, "
                   f"missing {sorted(set(declared[trace]) - set(printed))})")

        # A reference built from another input must fail every check.
        code, res, out = drive(binary, workload, 7, 1, 0,
                               ["--size", "tiny", "--wrong-reference"])
        tag = f"{workload} wrong reference"
        expect(code == 3, f"{tag}: exit 3 (got {code})")
        expect(res is not None and res["correct"] is False
               and res["failed"] == res["attempted"] >= 1
               and res["metrics"]["ok_frac"]["value"] == 0.0,
               f"{tag}: every checked run counted as failed")
        expect("FAIL workload=" + workload in out and "failed_frac 1.0" in out,
               f"{tag}: failures printed with seed and instance")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        return selftest(binary)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    extra = []
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        extra = ["--spans-out",
                 str(spans / f"{args.workload}-seed{args.seed}.csv")]
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), *extra]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
