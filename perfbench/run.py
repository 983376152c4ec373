#!/usr/bin/env python3
"""End-to-end benchmark for dlaperf.

Run one workload (builds the benchmark first; see perfbench/README.md):

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 30 --trace 0

The last line of stdout is the result object; the line before it, which
starts with "perfbench-result ", is the same result stamped with the
seed, the host facts and the dlapd flags. Compare two sets of such lines
(for instance two `tee -a` logs of repeated runs), for reporting only:

    python3 perfbench/run.py compare base.log new.log
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target


def build(out):
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if key not in args or len(argv) % 2:
            print("usage: run.py --workload NAME --seed N --seconds S "
                  "--trace 0|1", file=sys.stderr)
            return 2
    target = build_dir()
    cmake_out = target / "cmake"
    try:
        build(cmake_out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work = target / "work" / (f"{args['--workload']}-{args['--seed']}-"
                              f"{args['--trace']}")
    command = [str(cmake_out / "perfbench")]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        command += [key, args[key]]
    command += ["--dlapd", str(cmake_out / "dlapd"), "--work", str(work)]
    try:
        code = subprocess.run(command, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        code = 1
    shutil.rmtree(work, ignore_errors=True)
    return code


def load(path):
    """(workload, metric) -> [values] from the perfbench-result lines."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("perfbench-result "):
                continue
            record = json.loads(line[len("perfbench-result "):])
            for name, metric in record["metrics"].items():
                if metric["value"] is not None:
                    runs.setdefault((record["workload"], name), []).append(
                        metric["value"])
    return runs


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    print(f"{'workload':16} {'metric':34} {'base':>12} {'new':>12} "
          f"{'delta/IQR':>10}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b, n = base[key], new[key]
        mb, mn = statistics.median(b), statistics.median(n)
        if len(b) >= 2:
            q = statistics.quantiles(b, n=4)
            iqr = q[2] - q[0]
        else:
            iqr = 0.0
        meta = metrics.get(name, {})
        sign = -1.0 if meta.get("better") == "lower" else 1.0
        spread = iqr / abs(mb) if mb else float("inf")
        bound = meta.get("bound")
        if iqr > 0:
            units = f"{(mn - mb) / iqr:+10.2f}"
        else:
            units = f"{'n/a':>10}"
        if bound is not None and spread > bound:
            verdict = "unresolved"
        elif bound is None:
            verdict = "reported"
        elif sign * (mn - mb) < -bound * abs(mb):
            verdict = "worse"
        elif iqr > 0 and sign * (mn - mb) > iqr:
            verdict = "better"
        else:
            verdict = "unchanged"
        print(f"{workload:16} {name:34} {mb:12.5g} {mn:12.5g} {units}  "
              f"{verdict}")
    return 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        return compare(sys.argv[2], sys.argv[3])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
