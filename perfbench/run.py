#!/usr/bin/env python3
"""Build the daemons and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload hot-set --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The daemons (`delta-serverd`,
`delta-routerd`) and the `perfbench` binary are built in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`). The binary's last stdout line
is the result JSON. See perfbench/README.md.

    python3 perfbench/run.py --all [--seeds 1,2,3] [--seconds 20]

runs every workload once per seed and prints each end-to-end metric with its
median, quartiles and sample count; it exits non-zero if any run failed.

    python3 perfbench/run.py --smoke

is the benchmark's own test: a tiny run of every workload must emit every
metric of BENCHMARK.json with its unit (every workload of workloads.json,
including the ones BENCHMARK.json leaves out), and the correctness gate must
trip, in both modes, on a corrupted expected ledger and on a reply of the
wrong kind.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Builds the system under test and the benchmark binary; returns (bin_dir, bench)."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "server"))):
        die("run from the root of a checkout of the repository (no crates/server here)")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "delta_server",
         "--bin", "delta-serverd", "--bin", "delta-routerd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    bin_dir = os.path.join(target, "release")
    return bin_dir, os.path.join(bin_dir, "perfbench")


def run_one(root, bin_dir, bench, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark binary once; returns (exit code, result dict or None, detail dict or None)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--bin-dir", bin_dir,
           "--spec", os.path.join(HERE, "workloads.json"),
           "--run-dir", os.path.join(root, ".bench_run"), *extra]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    detail = None
    for line in lines:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    return r.returncode, result, detail, r.stdout


def bench_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(root, bin_dir, bench):
    spec = bench_spec()
    with open(os.path.join(HERE, "workloads.json")) as f:
        names = list(json.load(f)["workloads"])
    problems = []
    for name in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _, _ = run_one(root, bin_dir, bench, name, 1, 1, trace, ["--tiny"])
            where = f"{name} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            got = result["metrics"]
            for m in spec[group]:
                if m["name"] not in got:
                    problems.append(f"{where}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in spec[group]}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    for flag, what in (("--corrupt-expected", "a corrupted expected ledger"),
                       ("--corrupt-reply-kind", "a reply of the wrong kind")):
        for trace in (0, 1):
            code, result, _, _ = run_one(root, bin_dir, bench, spec["workloads"][0]["name"], 1, 1,
                                         trace, ["--tiny", flag])
            if code != 1 or result is None or result["correct"] or result["failed"] == 0:
                problems.append(f"gate did not trip on {what} with --trace {trace} (exit {code})")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def run_all(root, bin_dir, bench, seeds, seconds):
    spec = bench_spec()
    status = 0
    for w in spec["workloads"]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        attempted = failed = 0
        for seed in seeds:
            code, result, detail, _ = run_one(root, bin_dir, bench, w["name"], seed, seconds, 0)
            if detail is not None and not detail.get("valid", True):
                print(f"{w['name']} seed {seed}: invalid run (no undisturbed iteration)")
            if result is None or code != 0:
                print(f"{w['name']} seed {seed}: run failed (exit {code})")
                status = 1
                if result is None:
                    continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w['name']}  ops attempted {attempted}, failed {failed}")
        for name, vals in values.items():
            if not vals:
                continue
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"  {name:18s} median {med:14.4f} {units.get(name, ''):9s} "
                  f"q1 {q[0]:.4f} q3 {q[2]:.4f} iqr/median {spread:.4f} n={len(vals)}")
    return status


def main(argv):
    root = os.getcwd()
    if "--smoke" in argv:
        bin_dir, bench = build(root)
        return smoke(root, bin_dir, bench)
    if "--all" in argv:
        seeds = [1, 2, 3]
        seconds = bench_spec()["run_seconds"]
        if "--seeds" in argv:
            seeds = [int(s) for s in argv[argv.index("--seeds") + 1].split(",")]
        if "--seconds" in argv:
            seconds = int(argv[argv.index("--seconds") + 1])
        bin_dir, bench = build(root)
        return run_all(root, bin_dir, bench, seeds, seconds)
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            die(f"unknown flag {flag!r}")
        value = next(it, None)
        if value is None:
            die(f"{flag} needs a value")
        opts[flag[2:]] = value
    for needed in ("workload", "seed", "seconds", "trace"):
        if needed not in opts:
            die(f"--{needed} is required")
    bin_dir, bench = build(root)
    code, _, _, out = run_one(root, bin_dir, bench, opts["workload"], int(opts["seed"]),
                              int(opts["seconds"]), int(opts["trace"]))
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
