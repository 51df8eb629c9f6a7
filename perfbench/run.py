#!/usr/bin/env python3
"""Campaign benchmark: replications per second end to end, per-layer spans
and counts, two workloads.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --pin     # rewrite perfbench/reference/*.json

Builds pas_perfbench (the repository's pas_core plus the benchmark program
in perfbench/src) under .bench_build, runs one workload for --seconds
seconds, checks its artifacts and prints, as the last stdout line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. perfbench/README.md describes the workloads, metrics and checks.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
ARTIFACT_ORDER = ("csv", "jsonl", "perrun")

# name -> artifacts written, and whether the paper's Fig 4/6 orderings
# apply. Each workload runs perfbench/manifests/<name>.json at one job and
# is pinned by perfbench/reference/<name>.json.
WORKLOADS = {
    "paper-grid": dict(outputs=("csv",), shapes=True),
    "multihop-mac": dict(outputs=("csv", "jsonl", "perrun"), shapes=False),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env():
    """The environment for the build and the benchmark: temporary files stay
    inside the checkout too."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures (once) and builds pas_perfbench; returns its path."""
    out = build_dir() / "cmake"
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text():
        shutil.rmtree(out)  # configured from another checkout
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "pas_perfbench",
                  "-j", jobs])
    with open(out / "build.log", "a") as build_log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=child_env()).returncode != 0:
                build_log.flush()
                tail = (out / "build.log").read_text()[-3000:]
                sys.exit(f"perfbench: build failed ({' '.join(cmd)}):\n{tail}")
    return out / "pas_perfbench"


def run_program(binary, name, seed, seconds, trace):
    spec = WORKLOADS[name]
    work = build_dir() / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary),
           "--manifest", str(HERE / "manifests" / f"{name}.json"),
           "--work", str(work), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--outputs", ",".join(spec["outputs"])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=child_env(), timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: pas_perfbench printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def point_of(kind, line):
    """The point index a CSV / JSONL artifact line belongs to."""
    if kind == "jsonl":
        return int(line[len(b'{"point":'):line.index(b",")])
    return int(line[:line.index(b",")])


def digest_artifacts(paths):
    """Whole-file sha256 per artifact and an 8-hex digest per point over
    that point's lines in every artifact."""
    files = {}
    per_point = defaultdict(hashlib.sha256)
    for kind in ARTIFACT_ORDER:
        if kind not in paths:
            continue
        data = Path(paths[kind]).read_bytes()
        files[kind] = {"sha256": hashlib.sha256(data).hexdigest(),
                       "bytes": len(data)}
        lines = data.splitlines(keepends=True)
        if kind != "jsonl":
            lines = lines[1:]  # header
        for line in lines:
            per_point[point_of(kind, line)].update(kind.encode() + line)
    points = {p: h.hexdigest()[:8] for p, h in per_point.items()}
    return files, points


def load_reference(name):
    path = HERE / "reference" / f"{name}.json"
    return json.loads(path.read_text())


def pinned_mismatches(name, paths, total_points):
    """Points whose rows differ from the pinned default-seed artifacts."""
    ref = load_reference(name)
    files, points = digest_artifacts(paths)
    if files == ref["files"]:
        return 0
    want = ref["point_digests"]
    expected = [want[i:i + 8] for i in range(0, len(want), 8)]
    bad = sum(1 for p in range(max(total_points, len(expected)))
              if p >= len(expected) or points.get(p) != expected[p])
    log(f"perfbench: {name}: artifacts differ from the pinned reference "
        f"in {bad} of {total_points} points")
    return max(bad, 1)


# At 10 replications per point, PAS's grid-wide delay advantage over SAS is
# about 9% at the median seed, but seed noise is of the same order: over
# seeds 1-40 the PAS/SAS ratio of grid-mean delays ranged 0.86-1.00. So the
# delay relation allows 5% before it fails; the energy relations held with a
# wide margin on every seed and are strict.
DELAY_ALLOWANCE = 1.05


def paper_shapes_hold(csv_path):
    """Fig 4/6 relations on the grid's per-policy means: PAS delay below
    SAS delay, and SAS energy < PAS energy < NS energy."""
    values = defaultdict(list)
    with open(csv_path, newline="") as f:
        for row in csv.DictReader(f):
            values[row["policy"]].append(
                (float(row["delay_mean_s"]), float(row["energy_mean_j"])))
    if any(not values[p] for p in ("NS", "SAS", "PAS")):
        log("perfbench: paper grid lacks NS, SAS or PAS rows")
        return False
    delay, energy = {}, {}
    for policy in ("NS", "SAS", "PAS"):
        rows = values[policy]
        delay[policy] = sum(d for d, _ in rows) / len(rows)
        energy[policy] = sum(e for _, e in rows) / len(rows)
    if delay["PAS"] < DELAY_ALLOWANCE * delay["SAS"] and \
            energy["SAS"] < energy["PAS"] < energy["NS"]:
        return True
    log(f"perfbench: paper orderings fail: delay {delay}, energy {energy}")
    return False


def check(name, seed, result):
    """Returns (correct, attempted, failed) for one pas_perfbench result."""
    if "error" in result:
        log(f"perfbench: {name}: campaign failed: {result['error']}")
        return False, 1, 1
    spec = WORKLOADS[name]
    points = result["points"]
    campaigns = result["campaigns"]
    attempted = points * len(campaigns)
    correct = True
    # Every campaign of the run, traced or not, at any thread count, must
    # have written the bytes that are left on disk and checked below.
    diverged = [c for c in campaigns if c["digest"] != result["kept_digest"]]
    if diverged:
        kinds = sorted({("traced" if c["traced"] else "untraced", c["jobs"])
                        for c in diverged})
        log(f"perfbench: {name}: {len(diverged)} of {len(campaigns)} "
            f"campaigns wrote different artifacts ((kind, jobs): {kinds})")
        correct = False
    failed = points * len(diverged)
    if seed == DEFAULT_SEED:
        bad = pinned_mismatches(name, result["artifacts"], points)
        if bad:
            correct = False
            failed += bad * (len(campaigns) - len(diverged))
    if spec["shapes"] and not paper_shapes_hold(result["artifacts"]["csv"]):
        correct = False
    for check_name, ok in result.get("checks", {}).items():
        if not ok:
            log(f"perfbench: {name}: check {check_name} failed")
            correct = False
    return correct, attempted, failed


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(binary, name, seed, seconds, trace):
    result = run_program(binary, name, seed, seconds, trace)
    correct, attempted, failed = check(name, seed, result)
    measured = result.get("metrics", {})
    metrics = {}
    for m in metric_specs(trace):
        if m["name"] not in measured and correct:
            log(f"perfbench: {name}: pas_perfbench did not report {m['name']}")
            correct = False
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0),
                              "unit": m["unit"]}
    for key, value in metrics.items():
        print(f"{name} {key} = {value['value']:.6g} {value['unit']}")
    print(f"{name} points_failed_frac = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} points)")
    if "point_samples" in result:
        print(f"{name} point_ms samples: {result['point_samples']}")
    if "noise" in result:
        print(f"{name} noise: calibration {result['noise']['calibration_ms']:.2f}"
              f" ms, load average {result['noise']['loadavg_1m']:.2f}")
    for path in result.get("trace_files", []):
        print(f"{name} trace: {path}")
    if not correct:
        log(f"perfbench: {name}: OUTPUTS ARE WRONG (see above)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def pin(binary):
    """Writes the default-seed reference digests of every workload."""
    for name in WORKLOADS:
        result = run_program(binary, name, DEFAULT_SEED, 1, 0)
        if "error" in result or any(c["digest"] != result["kept_digest"]
                                    for c in result["campaigns"]):
            sys.exit(f"perfbench: {name}: cannot pin a failing or "
                     "nondeterministic run")
        files, points = digest_artifacts(result["artifacts"])
        ref = {"workload": name, "seed": DEFAULT_SEED, "files": files,
               "points": len(points),
               "point_digests": "".join(points[p] for p in range(len(points)))}
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"pinned {path.relative_to(ROOT)}: {len(points)} points")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a summary table")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned default-seed references")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (args.workload or args.all or args.pin):
        parser.error("give --workload, --all or --pin")

    binary = build()
    if args.pin:
        pin(binary)
        return 0
    if args.all:
        rows = {}
        for name in WORKLOADS:
            rows[name] = run_workload(binary, name, args.seed, args.seconds,
                                      args.trace)
        print("\nworkload        correct  metric = value unit")
        for name, row in rows.items():
            print(f"{name:<15} {row['correct']}")
            for key, value in row["metrics"].items():
                print(f"    {key} = {value['value']:.6g} {value['unit']}")
            print(f"    points_failed_frac = "
                  f"{row['failed'] / row['attempted']:.6g} fraction")
        return 0 if all(r["correct"] for r in rows.values()) else 1
    line = run_workload(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
