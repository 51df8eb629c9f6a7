#!/usr/bin/env python3
"""Gate a change's kernel benchmarks against its parent commit's.

Usage:
  check_bench_regression.py --base BIN --change BIN --out DIR

BIN is a bench_kernel binary: --base built from the parent commit, --change
from the change, on the same machine with the same flags. Every benchmark
that FILTER selects runs alone, PAIRS times per side, base and change in
turn, and the side that goes first swaps each pair, so both sides see the
same drift of the machine. A benchmark's ratio is the median over the
pairs of the change's per-iteration real time over the base's, and the
benchmark has regressed when that ratio is above THRESHOLD. A benchmark
that only one side lists is reported as new or removed and is not gated.

The log (printed, and kept as DIR/gate.log) has one line per benchmark:
each side's fastest run, the median and the range of the pair ratios, and
the verdict. DIR/samples.json holds every run, [real, cpu] ns per
iteration, in run order.

Exit status: 0 = no regression, 1 = a benchmark regressed, 2 = a run failed
or the two sides share no benchmark.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

FILTER = ("BM_EventQueue|BM_Simulator|BM_Scenario_SingleRun|BM_Net|BM_Core|"
          "BM_World|BM_Stimulus|BM_Pcg32|BM_Aggregator")
PAIRS = 20
# A bare number of seconds: google-benchmark 1.7 rejects the "0.1s" spelling.
MIN_TIME = "0.1"
THRESHOLD = 1.20
NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class RunFailed(Exception):
    pass


def run(binary, *args):
    try:
        done = subprocess.run([binary, *args], capture_output=True, text=True)
    except OSError as error:
        raise RunFailed(f"{binary}: {error}") from None
    if done.returncode != 0:
        raise RunFailed(f"{binary} {' '.join(args)}: exit {done.returncode}\n"
                        f"{done.stdout}{done.stderr}")
    return done.stdout


def listed(binary):
    return run(binary, "--benchmark_list_tests", f"--benchmark_filter={FILTER}").split()


def only(name):
    """A filter that selects `name` alone (POSIX extended regex)."""
    return "^" + re.sub(r"([][.^$*+?(){}|\\])", r"\\\1", name) + "$"


def sample(binary, name, out):
    """One run of `name` alone: its (real, cpu) ns per iteration."""
    out.unlink(missing_ok=True)
    run(binary, f"--benchmark_filter={only(name)}", f"--benchmark_min_time={MIN_TIME}",
        "--benchmark_format=json", f"--benchmark_out={out}")
    try:
        benches = json.loads(out.read_text())["benchmarks"]
    except (OSError, ValueError, KeyError) as error:
        raise RunFailed(f"{binary}: no results in {out}: {error!r}") from None
    for bench in benches:
        if bench["name"] == name:
            ns = NS_PER[bench.get("time_unit", "ns")]
            return bench["real_time"] * ns, bench["cpu_time"] * ns
    raise RunFailed(f"{binary}: no result for {name}")


def shown(ns):
    for unit in ["ms", "us"]:
        if ns >= NS_PER[unit]:
            return f"{ns / NS_PER[unit]:.3f} {unit}"
    return f"{ns:.3f} ns"


def measure(sides, name, out):
    """PAIRS interleaved runs of `name`: side -> [(real, cpu)]."""
    times = {side: [] for side in sides}
    for pair in range(PAIRS):
        for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
            times[side].append(sample(sides[side], name, out))
    return times


def gate(sides, out, say):
    names = {side: listed(binary) for side, binary in sides.items()}
    gated = [n for n in names["change"] if n in names["base"]]
    if not gated:
        say("FAIL: the two sides share no benchmark")
        return 2
    say(f"{len(gated)} benchmarks, {PAIRS} interleaved pairs each, min time {MIN_TIME} s; "
        f"a median pair ratio above {THRESHOLD:.2f} regresses")
    for name in names["change"]:
        if name not in names["base"]:
            say(f"{name}: new, not gated")
    for name in names["base"]:
        if name not in names["change"]:
            say(f"{name}: removed, not gated")

    samples, regressed = [], []
    for name in gated:
        times = measure(sides, name, out / "run.json")
        samples.append({"name": name, **times})
        # A pair's two runs are adjacent in time, so their ratio cancels the
        # machine's drift, and the median ignores the pairs where one run
        # alone hit a slow or a fast spell; the ratio of the two sides'
        # fastest runs turns on one such run (EXPERIMENTS.md).
        pairs = [c / b for (b, _), (c, _) in zip(times["base"], times["change"])]
        ratio = statistics.median(pairs)
        ok = ratio <= THRESHOLD
        say(f"{name}: fastest base {shown(min(r for r, _ in times['base']))}, "
            f"change {shown(min(r for r, _ in times['change']))}; pair ratios median {ratio:.3f}, "
            f"range {min(pairs):.2f}-{max(pairs):.2f} [{'ok' if ok else 'REGRESSED'}]")
        if not ok:
            regressed.append(name)
    (out / "run.json").unlink()
    (out / "samples.json").write_text("[\n" + ",\n".join(map(json.dumps, samples)) + "\n]\n")

    if regressed:
        say(f"\nFAIL: {len(regressed)} of {len(gated)} benchmarks regressed more than "
            f"{THRESHOLD - 1:.0%} against the parent: {', '.join(regressed)}")
        return 1
    say(f"\nPASS: {len(gated)} benchmarks within {THRESHOLD - 1:.0%} of the parent")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the parent commit's bench_kernel")
    parser.add_argument("--change", required=True, help="the change's bench_kernel")
    parser.add_argument("--out", required=True, type=Path,
                        help="directory for gate.log and samples.json")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "gate.log", "w") as log:
        def say(line):
            print(line, flush=True)
            print(line, file=log, flush=True)

        try:
            sides = {"base": Path(args.base).absolute(), "change": Path(args.change).absolute()}
            return gate(sides, args.out, say)
        except RunFailed as failure:
            say(f"FAIL: {failure}")
            return 2


if __name__ == "__main__":
    sys.exit(main())
