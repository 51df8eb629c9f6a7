#!/usr/bin/env python3
"""End-to-end cases for pas-exp, run by ctest (label `smoke`).

Usage:
  smoke.py --list                  print the case names, one a line
  smoke.py PAS_EXP WORK_ROOT CASE  run one case in WORK_ROOT/CASE

Every topology must write the same bytes: serial, threaded, sharded and
merged, --drive, crash-resumed, with --metrics and with --serve. Each case
drives the built pas-exp on the source tree's examples/, computes its own
reference, checks with tools/, and removes its directory when it passes.
An interrupt is sent on the k-th per-point line (or once the row store
has grown), never after a fixed sleep, and is checked to have landed
before the resume. One case, bench.gate, runs tools/check_bench_regression.py
on fake benchmark binaries instead. Standard library only.
"""

import filecmp
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

SRC = Path(__file__).resolve().parents[2]
CAMPAIGN = SRC / "examples" / "campaign.json"
CASES = {}
EXE = ""
STARTED = []  # every pas-exp a case started in the background


class Failure(Exception):
    pass


def case(fn):
    group, _, name = fn.__name__.partition("_")
    CASES[f"{group}.{name}"] = fn
    return fn


def check(ok, message):
    if not ok:
        raise Failure(message)


def command(args):
    return [EXE, *map(str, args)]


def start(args, stdout=subprocess.PIPE):
    proc = subprocess.Popen(command(args), stdout=stdout, text=True, stdin=subprocess.DEVNULL)
    STARTED.append(proc)
    return proc


def pas_exp(*args, status=0, env=None):
    """Runs pas-exp to the end; returns its stdout and stderr."""
    run = subprocess.run(command(args), capture_output=True, text=True,
                         stdin=subprocess.DEVNULL, env={**os.environ, **(env or {})})
    out = run.stdout + run.stderr
    check(run.returncode == status,
          f"pas-exp {' '.join(map(str, args))}: exit {run.returncode}, want {status}\n{out}")
    return out


def tool(name, *args):
    run = subprocess.run([sys.executable, SRC / "tools" / name, *map(str, args)],
                         capture_output=True, text=True)
    check(run.returncode == 0, f"{name} {' '.join(map(str, args))}:\n{run.stdout}{run.stderr}")


def same(*pairs):
    for a, b in pairs:
        check(filecmp.cmp(a, b, shallow=False), f"{a} and {b} differ")


def absent(*paths):
    for path in paths:
        check(not Path(path).exists(), f"{path} exists")


def counts(out, what):
    """The number before `what` in the `done:` line, e.g. "computed"."""
    found = re.search(rf"^done: .*?(\d+) {what}", out, re.M)
    check(found is not None, f"no '{what}' count in:\n{out}")
    return int(found.group(1))


def no_part_files(stem):
    check(not list(Path().glob(f"{stem}*.w*")), f"worker part files beside {stem}")


def serial(*extra, manifest=CAMPAIGN, out="full.csv"):
    """The serial reference every other topology is compared with."""
    pas_exp("--manifest", manifest, "--jobs", 1, "--out", out, "--quiet", *extra)


def serial_meanwhile(*extra, manifest=CAMPAIGN, out="full.csv"):
    """serial(), started in the background while a case interrupts and
    resumes its own run; call the result to wait for it."""
    proc = start(["--manifest", manifest, "--jobs", 1, "--out", out, "--quiet", *extra],
                 stdout=subprocess.DEVNULL)
    return lambda: check(proc.wait() == 0, f"serial reference: exit {proc.returncode}")


def more_reps(reps, manifest=CAMPAIGN):
    """A copy of `manifest` with `reps` replications, so that an interrupt
    on an early point line leaves about a second of work."""
    data = json.loads(Path(manifest).read_text())
    data["replications"] = reps
    Path("long.json").write_text(json.dumps(data))
    return "long.json"


def grown(path, size):
    try:
        return os.path.getsize(path) >= size
    except OSError:
        return False


def interrupt(sig, args, on_line=0, store=None, size=0):
    """Starts pas-exp and sends `sig` on its `on_line`-th `[k/N]` line, or
    once `store` has grown past `size` bytes. Returns (status, stdout)."""
    proc = start(args)
    if store:
        while proc.poll() is None and not grown(store, size):
            time.sleep(0.005)
        proc.send_signal(sig)
        return proc.wait(), proc.stdout.read()
    lines, seen = [], 0
    for line in proc.stdout:
        lines.append(line)
        if re.match(r"\[\d+/\d+\] ", line):
            seen += 1
            if seen == on_line:
                proc.send_signal(sig)
    return proc.wait(), "".join(lines)


def killed(status, out, csv, *more):
    """A SIGKILLed run leaves its row store and none of its artifacts."""
    check(status == -signal.SIGKILL, f"exit {status}, not SIGKILLed:\n{out}")
    check(Path(f"{csv}.pasrows").exists(), f"{csv}.pasrows missing after SIGKILL")
    absent(csv, *more)


def max_rss_kb(*args):
    proc = start(args, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    check(proc.returncode == 0, f"pas-exp {' '.join(map(str, args))}: exit {proc.returncode}")
    return usage.ru_maxrss


def serve(*args):
    """Starts pas-exp serving on a free port; returns (process, base URL)
    once /api/status says the campaign is done."""
    proc = start([*args, "--serve", "127.0.0.1:0", "--serve-linger"])
    for line in proc.stdout:
        if found := re.search(r"serving on (http://\S+:\d+)/", line):
            break
    else:
        raise Failure(f"no 'serving on' line (exit {proc.wait()})")
    url, deadline = found.group(1), time.monotonic() + 120
    while json.loads(fetch(url + "/api/status"))["state"] != "done":
        check(time.monotonic() < deadline, "campaign never reached state done")
        time.sleep(0.1)
    return proc, url


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def events(url, last_seq):
    """The /api/events stream up to the end of event `last_seq`."""
    lines = []
    with urllib.request.urlopen(url + "/api/events", timeout=10) as stream:
        for raw in stream:
            lines.append(raw.decode())
            if lines[-1] == "\n" and f"id: {last_seq}\n" in lines[-4:]:
                break
    return "".join(lines)


def stop(proc):
    """SIGINT drains the server and ends the lingering process."""
    proc.send_signal(signal.SIGINT)
    check(proc.wait(timeout=10) == 0, f"exit {proc.returncode} after SIGINT")
    proc.stdout.close()


# --- drive: supervised multi-process campaigns -----------------------------

@case
def drive_byte_identity():
    serial("--per-run", "full_runs.csv")
    pas_exp("--drive", 3, "--manifest", CAMPAIGN, "--out", "drv.csv", "--per-run",
            "drv_runs.csv", "--progress", "--bench-json", "bench.json")
    same(("full.csv", "drv.csv"), ("full_runs.csv", "drv_runs.csv"))
    no_part_files("drv.csv")
    # A sample taken at the default --jobs records the threads it ran with.
    pas_exp("--manifest", CAMPAIGN, "--out", "dflt.csv", "--quiet", "--bench-json", "bench.json")
    same(("full.csv", "dflt.csv"))
    samples = [json.loads(line) for line in Path("bench.json").read_text().splitlines()]
    check([s["mode"] for s in samples] == ["drive", "single"], f"samples: {samples}")
    for s in samples:
        check(set(s) == {"campaign", "mode", "workers", "jobs", "points", "replications",
                         "computed_points", "wall_s", "reps_per_s"}, f"sample keys: {s}")
        check(s["jobs"] >= 1 and s["computed_points"] == 108 and s["reps_per_s"] > 0, f"sample: {s}")


@case
def drive_crash_injection():
    serial("--per-run", "full_runs.csv")
    out = pas_exp("--drive", 3, "--manifest", CAMPAIGN, "--out", "crash.csv", "--per-run",
                  "crash_runs.csv", "--quiet", env={"PAS_ORCH_TEST_CRASH": "0:2"})
    check(counts(out, "crashes") >= 1, f"no worker crashed:\n{out}")
    same(("full.csv", "crash.csv"), ("full_runs.csv", "crash_runs.csv"))


@case
def drive_sigint_resume():
    long = more_reps(80)
    reference = serial_meanwhile(manifest=long)
    status, out = interrupt(signal.SIGINT, ["--drive", 3, "--manifest", long, "--out", "intr.csv"],
                            on_line=10)
    check(status == 130 and "resume with:" in out, f"exit {status}, not interrupted:\n{out}")
    check(Path("intr.csv.pasrows").exists(), "an interrupted drive must keep its store")
    absent("intr.csv")
    out = pas_exp("--drive", 2, "--manifest", long, "--out", "intr.csv", "--resume", "--quiet")
    check(counts(out, "resumed") >= 10 and counts(out, "computed") > 0, out)
    reference()
    same(("full.csv", "intr.csv"))


@case
def drive_sigkill_driver():
    long = more_reps(80)
    reference = serial_meanwhile("--per-run", "full_runs.csv", manifest=long)
    status, out = interrupt(signal.SIGKILL, ["--drive", 3, "--manifest", long, "--out", "kd.csv",
                                             "--per-run", "kd_runs.csv"], on_line=10)
    killed(status, out, "kd.csv", "kd_runs.csv")
    no_part_files("kd")
    out = pas_exp("--manifest", long, "--jobs", 2, "--out", "kd.csv", "--per-run", "kd_runs.csv",
                  "--quiet", "--resume")
    check(counts(out, "resumed") >= 10 and counts(out, "computed") > 0, out)
    reference()
    same(("full.csv", "kd.csv"), ("full_runs.csv", "kd_runs.csv"))


# --- policy: the five registered sleeping policies -------------------------

@case
def policy_list():
    out = pas_exp("--list-policies")
    for name in ["NS", "SAS", "PAS", "DutyCycle", "ThresholdHold"]:
        check(re.search(rf"^{name} ", out, re.M), f"--list-policies lacks {name}:\n{out}")


@case
def policy_serial_vs_drive():
    manifest = SRC / "examples" / "policy_comparison.json"
    serial("--per-run", "serial_runs.csv", manifest=manifest, out="serial.csv")
    pas_exp("--drive", 2, "--manifest", manifest, "--out", "drv.csv", "--per-run", "drv_runs.csv",
            "--quiet")
    same(("serial.csv", "drv.csv"), ("serial_runs.csv", "drv_runs.csv"))


# --- shard: --shard i/N, --merge and replication-level parallelism --------

def shards(*outputs):
    """Runs shards 0/2 and 1/2 into s<i>.csv; `outputs` are (option,
    suffix) pairs, e.g. ("--json", ".jsonl") writes s<i>.jsonl."""
    for i in (0, 1):
        extra = [arg for option, suffix in outputs for arg in (option, f"s{i}{suffix}")]
        pas_exp("--manifest", CAMPAIGN, "--jobs", 2, "--shard", f"{i}/2", "--out", f"s{i}.csv",
                *extra, "--quiet")


@case
def shard_reference():
    serial("--per-run", "full_runs.csv")
    pas_exp("--manifest", CAMPAIGN, "--jobs", 2, "--out", "par.csv", "--per-run", "par_runs.csv",
            "--quiet")
    same(("full.csv", "par.csv"), ("full_runs.csv", "par_runs.csv"))


@case
def shard_merge():
    serial("--per-run", "full_runs.csv", "--json", "full.jsonl", "--metrics", "full_m.jsonl")
    shards(("--per-run", "_runs.csv"), ("--json", ".jsonl"), ("--metrics", "_m.jsonl"))
    pas_exp("--merge", "--manifest", CAMPAIGN, "--out", "merged.csv", "--per-run",
            "merged_runs.csv", "--json", "merged.jsonl", "--metrics", "merged_m.jsonl",
            "s1_m.jsonl", "s0_runs.csv", "s1.csv", "s0.csv", "s1_runs.csv", "s0_m.jsonl")
    same(("full.csv", "merged.csv"), ("full_runs.csv", "merged_runs.csv"),
         ("full.jsonl", "merged.jsonl"))
    tool("check_metrics_schema.py", "merged_m.jsonl", "--compare-points", "full_m.jsonl")
    absent("merged.csv.pasrows")


@case
def shard_merge_missing():
    pas_exp("--manifest", CAMPAIGN, "--jobs", 2, "--shard", "0/2", "--out", "s0.csv", "--quiet")
    pas_exp("--merge", "--manifest", CAMPAIGN, "--out", "missing.csv", "s0.csv", status=1)
    absent("missing.csv", "missing.csv.pasrows")


@case
def shard_truncated_resume():
    serial()
    shards()
    lines = Path("s0.csv").read_text().splitlines(keepends=True)
    Path("s0_trunc.csv").write_text("".join(lines[:(len(lines) + 1) // 2]))
    out = pas_exp("--manifest", CAMPAIGN, "--jobs", 2, "--shard", "0/2", "--out", "s0_trunc.csv",
                  "--resume", "--quiet")
    check(counts(out, "computed") > 0 and counts(out, "resumed") > 0, out)
    same(("s0.csv", "s0_trunc.csv"))
    pas_exp("--merge", "--manifest", CAMPAIGN, "--out", "merged2.csv", "s0_trunc.csv", "s1.csv")
    same(("full.csv", "merged2.csv"))


@case
def shard_replication_study():
    manifest = SRC / "examples" / "replication_study.json"
    serial("--per-run", "rs_serial_runs.csv", manifest=manifest, out="rs_serial.csv")
    pas_exp("--manifest", manifest, "--jobs", 4, "--out", "rs_par.csv", "--per-run",
            "rs_par_runs.csv", "--quiet")
    same(("rs_serial.csv", "rs_par.csv"), ("rs_serial_runs.csv", "rs_par_runs.csv"))


# --- scale: bounded memory of the streaming aggregation pipeline ----------

SYNTH = ["--agg-synth", 120000, "--agg-reps", 4]


@case
def scale_rss_ceiling():
    # About 10 MB for finalize and for resume on x86-64 Linux (Release),
    # 6 MB of it the export's offset index. The artifacts alone are 119 MB,
    # so 100 MB catches any buffered row content.
    outputs = ["--out", "big.csv", "--per-run", "big_runs.csv", "--json", "big.jsonl"]
    rss = max_rss_kb(*SYNTH, *outputs)
    check(rss < 100000, f"finalize peaked at {rss} kB")
    check(all(Path(p).stat().st_size > 0 for p in ["big.csv", "big_runs.csv"]), "empty output")
    absent("big.csv.pasrows")
    for name in ["big.csv", "big_runs.csv", "big.jsonl"]:
        shutil.copy(name, "ref_" + name)
    rss = max_rss_kb(*SYNTH, *outputs, "--resume")
    check(rss < 100000, f"resume peaked at {rss} kB")
    same(*[(name, "ref_" + name) for name in ["big.csv", "big_runs.csv", "big.jsonl"]])
    absent("big.csv.pasrows")


@case
def scale_pinned_digests():
    pas_exp("--agg-synth", 3000, "--out", "synth.csv", "--per-run", "synth_runs.csv", "--json",
            "synth.jsonl")
    for line in (SRC / "tests" / "exp" / "agg_synth_3000.sha256").read_text().splitlines():
        digest, name = line.split()
        got = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        check(got == digest, f"{name}: sha256 {got}, pinned {digest}")


@case
def scale_sigkill_resume():
    pas_exp(*SYNTH, "--out", "ref.csv")
    status, out = interrupt(signal.SIGKILL, [*SYNTH, "--out", "k.csv"], store="k.csv.pasrows",
                            size=4 << 20)
    killed(status, out, "k.csv")
    pas_exp(*SYNTH, "--out", "k.csv", "--resume")
    same(("ref.csv", "k.csv"))
    absent("k.csv.pasrows")


# --- metrics: telemetry never touches the science bytes -------------------

@case
def metrics_csv_unchanged():
    serial(out="base.csv")
    serial("--metrics", "m1.jsonl", out="m1.csv")
    pas_exp("--manifest", CAMPAIGN, "--jobs", 4, "--out", "m4.csv", "--metrics", "m4.jsonl",
            "--quiet")
    same(("base.csv", "m1.csv"), ("base.csv", "m4.csv"), ("m1.jsonl", "m4.jsonl"))
    tool("check_metrics_schema.py", "m1.jsonl", "--points", 108, "--require-scope", "campaign")


@case
def metrics_sigkill_resume():
    long = more_reps(40)
    reference = serial_meanwhile("--metrics", "m1.jsonl", manifest=long, out="base.csv")
    status, out = interrupt(signal.SIGKILL, ["--manifest", long, "--jobs", 1, "--out", "k.csv",
                                             "--metrics", "k.jsonl"], on_line=20)
    killed(status, out, "k.csv", "k.jsonl")
    out = pas_exp("--manifest", long, "--jobs", 1, "--out", "k.csv", "--metrics", "k.jsonl",
                  "--quiet", "--resume")
    check(counts(out, "resumed") >= 20 and counts(out, "computed") > 0, out)
    reference()
    same(("base.csv", "k.csv"))
    tool("check_metrics_schema.py", "k.jsonl", "--points", 108, "--compare-points", "m1.jsonl")
    absent("k.csv.pasrows")


@case
def metrics_drive_rows():
    serial("--metrics", "m1.jsonl", out="base.csv")
    pas_exp("--drive", 3, "--manifest", CAMPAIGN, "--out", "drv.csv", "--metrics", "drv.jsonl",
            "--quiet")
    same(("base.csv", "drv.csv"))
    no_part_files("drv")
    tool("check_metrics_schema.py", "drv.jsonl", "--points", 108, "--require-scope", "orchestrator")
    tool("check_metrics_schema.py", "drv.jsonl", "--compare-points", "m1.jsonl")


@case
def metrics_crashed_worker():
    serial("--metrics", "m1.jsonl", out="base.csv")
    out = pas_exp("--drive", 3, "--manifest", CAMPAIGN, "--out", "crash.csv", "--metrics",
                  "crash.jsonl", "--quiet", env={"PAS_ORCH_TEST_CRASH": "0:2"})
    check(counts(out, "crashes") >= 1, f"no worker crashed:\n{out}")
    same(("base.csv", "crash.csv"))
    tool("check_metrics_schema.py", "crash.jsonl", "--compare-points", "m1.jsonl")
    check("flight recorder:" in Path("crash.csv.flightrec").read_text(), "no flight recorder dump")


@case
def metrics_trace():
    pas_exp("--manifest", CAMPAIGN, "--trace", "trace.jsonl", "--trace-point", 42)
    rows = [json.loads(line) for line in Path("trace.jsonl").read_text().splitlines()]
    check(rows, "empty trace")
    for row in rows:
        check({"t", "cat", "kind", "node", "text"} <= set(row), f"trace row {row}")


# --- serve: the HTTP API observes and changes nothing ----------------------

@case
def serve_drive():
    serial("--metrics", "full.jsonl")
    proc, url = serve("--drive", 4, "--manifest", CAMPAIGN, "--out", "serve.csv", "--metrics",
                      "serve.jsonl", "--quiet")
    status = fetch(url + "/api/status")
    Path("status.json").write_text(status)
    Path("metrics.json").write_text(fetch(url + "/api/metrics"))
    Path("events.sse").write_text(events(url, json.loads(status)["last_seq"]))
    check("<html" in fetch(url + "/").lower(), "no dashboard at /")
    tool("check_serve_api.py", "--status", "status.json", "--expect-state", "done", "--metrics",
         "metrics.json", "--events", "events.sse", "--expect-points", 108)
    # The finished drive keeps its last snapshot, not {}.
    scope = json.loads(Path("metrics.json").read_text()).get("scope")
    check(scope == "orchestrator", f"/api/metrics scope {scope}")
    stop(proc)
    check("serve shutdown" in Path("serve.csv.flightrec").read_text(), "no serve shutdown dump")
    same(("full.csv", "serve.csv"))
    tool("check_metrics_schema.py", "serve.jsonl", "--compare-points", "full.jsonl")


@case
def serve_single_rollup():
    serial("--metrics", "full.jsonl")
    proc, url = serve("--manifest", CAMPAIGN, "--jobs", 2, "--out", "single.csv", "--metrics",
                      "single.jsonl", "--quiet")
    Path("metrics.json").write_text(fetch(url + "/api/metrics"))
    stop(proc)
    tool("check_serve_api.py", "--metrics", "metrics.json")
    live = json.loads(Path("metrics.json").read_text())
    trailer = json.loads(Path("full.jsonl").read_text().splitlines()[-1])
    check(live.get("scope") == trailer["scope"] == "campaign", f"scopes {live}, {trailer}")
    check(live["instruments"] == trailer["instruments"], "/api/metrics differs from the trailer")


# --- docs: the walkthroughs run as written ---------------------------------

@case
def docs_links():
    tool("check_markdown_links.py", *[SRC / p for p in ["README.md", "EXPERIMENTS.md",
                                                         "ROADMAP.md", "docs"]])


@case
def docs_multihop():
    manifest = SRC / "examples" / "multihop_collection.json"
    pas_exp("--manifest", manifest, "--out", "mh.csv", "--metrics", "mh.jsonl", "--quiet")
    tool("check_metrics_schema.py", "mh.jsonl", "--points", 6, "--require-scope", "campaign")
    pas_exp("--drive", 3, "--manifest", manifest, "--out", "mh-drv.csv", "--metrics",
            "mh-drv.jsonl", "--quiet")
    same(("mh.csv", "mh-drv.csv"))
    tool("check_metrics_schema.py", "mh-drv.jsonl", "--compare-points", "mh.jsonl")


# --- cli: every mode rejects the options it would ignore ------------------

@case
def cli_foreign_flags():
    m = CAMPAIGN
    for mode, args, foreign in [
            ("list-policies", ["--list-policies"], ["--drive", 3]),
            ("merge", ["--merge", "--manifest", m, "--out", "x.csv", "s0.csv"], ["--jobs", 2]),
            ("agg-synth", ["--agg-synth", 10, "--out", "x.csv"], ["--bench-json", "b.json"]),
            ("worker", ["--worker", "--manifest", m, "--out", "x.csv"], ["--json", "x.jsonl"]),
            ("export", ["--export", "--manifest", m, "--out", "x.csv"], ["--shard", "0/2"]),
            ("dry-run", ["--dry-run", "--manifest", m], ["--metrics", "m.jsonl"]),
            ("trace", ["--trace", "t.jsonl", "--manifest", m], ["--jobs", 4]),
            ("drive", ["--drive", 3, "--manifest", m, "--out", "x.csv"], ["--shard", "0/2"]),
            ("campaign", ["--manifest", m, "--out", "x.csv"], ["--hang-timeout", 5])]:
        out = pas_exp(*args, *foreign, status=2)
        check(f"{foreign[0]} is not read in {mode} mode" in out, f"{mode}: {out}")
    check("unknown option --rep-chunk" in pas_exp("--rep-chunk", 1, status=2), "--rep-chunk")
    check(not list(Path().iterdir()), f"a rejected run wrote {list(Path().iterdir())}")


@case
def cli_sigint_resume():
    long = more_reps(40)
    reference = serial_meanwhile("--per-run", "full_runs.csv", "--metrics", "full_m.jsonl",
                                 manifest=long)
    status, out = interrupt(signal.SIGINT, ["--manifest", long, "--jobs", 2, "--out", "intr.csv",
                                            "--per-run", "intr_runs.csv", "--metrics",
                                            "intr_m.jsonl"], on_line=10)
    check(status == 130 and "resume with:" in out, f"exit {status}, not interrupted:\n{out}")
    check(Path("intr.csv.pasrows").exists(), "an interrupted campaign must keep its store")
    absent("intr.csv", "intr_runs.csv", "intr_m.jsonl")
    resume = re.search(r"^resume with: pas-exp (.*)$", out, re.M).group(1).split()
    out = pas_exp(*resume)
    check(counts(out, "resumed") >= 10 and counts(out, "computed") > 0, out)
    reference()
    same(("full.csv", "intr.csv"), ("full_runs.csv", "intr_runs.csv"))
    tool("check_metrics_schema.py", "intr_m.jsonl", "--compare-points", "full_m.jsonl")
    absent("intr.csv.pasrows")


# --- bench: the kernel-bench gate, on fake benchmark binaries -------------

FAKE_BENCH = """#!{python} -S
import json, sys
args = dict((a + "=").split("=")[:2] for a in sys.argv[1:])
if {status}:
    sys.exit({status})
if "--benchmark_list_tests" in args:
    print("\\n".join({times!r}))
    sys.exit(0)
name = args["--benchmark_filter"].strip("^$")
float(args["--benchmark_min_time"])  # google-benchmark 1.7 takes a bare number
assert args["--benchmark_format"] == "json"
ns = {times!r}[name]
with open(args["--benchmark_out"], "w") as out:
    json.dump({{"benchmarks": [{{"name": name, "run_type": "iteration", "iterations": 100,
                                "real_time": ns, "cpu_time": ns, "time_unit": "ns"}}]}}, out)
"""


def fake_bench(path, times, status=0):
    """An executable that answers the gate like bench_kernel, with fixed
    per-iteration times, or exits `status` on every call."""
    Path(path).write_text(FAKE_BENCH.format(python=sys.executable, times=times, status=status))
    Path(path).chmod(0o755)
    return path


def gate(base, change, status):
    run = subprocess.run([sys.executable, SRC / "tools" / "check_bench_regression.py",
                          "--base", base, "--change", change, "--out", "gate"],
                         capture_output=True, text=True)
    out = run.stdout + run.stderr
    check(run.returncode == status, f"gate {base} {change}: exit {run.returncode}, "
                                    f"want {status}\n{out}")
    check(Path("gate/gate.log").read_text() == run.stdout, "gate.log differs from the log")
    return out


@case
def bench_gate():
    times = {"BM_Queue/1000": 120.0, "BM_Run": 5e6}
    base = fake_bench("base", times)
    gate(base, fake_bench("same", times), 0)
    out = gate(base, fake_bench("slow", {**times, "BM_Queue/1000": 180.0}), 1)
    check(re.findall(r"^(\S+): .*REGRESSED", out, re.M) == ["BM_Queue/1000"], out)
    check(re.search(r"^FAIL: 1 of 2 .*: BM_Queue/1000$", out, re.M), out)
    out = gate(base, fake_bench("grown", {**times, "BM_New": 1.0}), 0)
    check("BM_New: new, not gated" in out and "2 benchmarks within" in out, out)
    gate(fake_bench("broken", times, status=3), base, 2)


def main(argv):
    if argv == ["--list"]:
        print("\n".join(CASES))
        return 0
    if len(argv) != 3 or argv[2] not in CASES:
        sys.exit(__doc__)
    global EXE
    EXE, work = os.path.abspath(argv[0]), Path(argv[1]) / argv[2]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        CASES[argv[2]]()
    except Failure as failure:
        print(f"FAIL {argv[2]}: {failure}\n(work files kept in {work})", file=sys.stderr)
        return 1
    finally:
        for proc in STARTED:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    os.chdir("..")
    shutil.rmtree(work)
    print(f"ok {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
