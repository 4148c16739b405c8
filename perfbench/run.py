#!/usr/bin/env python3
"""Portend benchmark: time-to-verdict on the registry, fuzz and campaign
workloads, with an outside-in per-layer trace.

Run one measurement (from the root of a checkout):

    python3 perfbench/run.py --workload registry --seed 1 --seconds 30 --trace 0

builds the driver (perfbench/CMakeLists.txt, into .bench_build/ or
$CARGO_TARGET_DIR) on first use, runs the workload in child processes and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics. Any failed correctness
check makes the exit code non-zero. --out FILE appends the result, tagged
with workload, seed and trace, to a JSON-lines file for compare mode:

    python3 perfbench/run.py compare base.jsonl head.jsonl

See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("registry", "fuzz", "campaign")

# Set-up samples per run: a run sets up this many times, each in a fresh
# process so caches start cold, and reports the median. The registry and
# campaign set-ups take ~30 ms, so process start-up noise weighs on them
# and they get more samples; fuzz's takes ~0.5 s. The host's slow
# stretches last about a second, so the samples are split between the
# start and the end of the run, where one stretch cannot cover them all.
SETUP_SAMPLES = {"registry": 21, "fuzz": 11, "campaign": 21}

# Pause between two set-up samples, so they spread over more of the
# host's slow and fast stretches.
SETUP_PAUSE_S = 0.2

# Host-speed scale. Each run times a fixed probe kernel on every CPU it
# may use (see probeHostMs in driver.cc) and scales its times by
# REF_PROBE_MS / (median probe time): a run on a host whose probe takes
# REF_PROBE_MS reads its raw times. The shared host's speed swings by
# +-25% for tens of seconds at a time, and the probe tracks part of it:
# over 10 seeds the scaled times varied 2-3x less from run to run than
# the raw ones, except on campaign while the disk was busy. The value
# only fixes the unit; raw times go to stderr and the --out record.
REF_PROBE_MS = 0.7

# Seconds a child may run beyond its measuring time before it is killed.
CHILD_GRACE_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    out = build_dir()
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_driver",
         "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return out / "perfbench_driver"


def drive(driver, work, workload, seed, seconds, mode, spans_out=None):
    """Run the driver once and return its JSON line as a dict."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--root", str(ROOT),
           "--work", str(work)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False,
                          timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited {proc.returncode}: {cmd}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def host_scale(run):
    """Factor that turns a driver run's raw times into scaled ones."""
    return REF_PROBE_MS / run["probe_ms"]


def end_to_end(driver, work, args):
    def setups(n):
        runs = []
        for _ in range(n):
            time.sleep(SETUP_PAUSE_S)
            runs.append(drive(driver, work, args.workload, args.seed, 0,
                              "setup"))
        return runs

    before = SETUP_SAMPLES[args.workload] // 2
    runs = setups(before)
    timed = drive(driver, work, args.workload, args.seed, args.seconds,
                  "timed")
    runs += [timed] + setups(SETUP_SAMPLES[args.workload] - before - 1)
    k = host_scale(timed)
    attempted, failed = timed["attempted"], timed["failed"]
    log(f"{args.workload}: {attempted} ops, failed_share "
        f"{failed / attempted:.4f}; op_tail_ms is p{timed['tail_pct']:g} "
        f"with {timed['tail_beyond']} of {attempted} samples beyond it")
    log(f"{args.workload}: host probe {timed['probe_ms']:.4f} ms, scale "
        f"{k:.4f}; raw ops_per_s {timed['ops_per_s']:.2f}, op_p50_ms "
        f"{timed['op_p50_ms']:.4f}, op_tail_ms {timed['op_tail_ms']:.3f}, "
        f"setup_s " + ", ".join(f"{r['setup_s']:.4f}" for r in runs))
    for why in timed["failures"]:
        log(f"FAILED: {why}")
    values = {
        "ops_per_s": timed["ops_per_s"] / k,
        "op_p50_ms": timed["op_p50_ms"] * k,
        "op_tail_ms": timed["op_tail_ms"] * k,
        "setup_s": statistics.median(r["setup_s"] * host_scale(r)
                                     for r in runs),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    # The tail's percentile can fall back when a slow run completes
    # fewer ops; compare mode needs it to set like against like.
    extra = {"tail_pct": timed["tail_pct"], "probe_ms": timed["probe_ms"],
             "raw": {k: timed[k] for k in ("ops_per_s", "op_p50_ms",
                                            "op_tail_ms")}}
    return values, attempted, failed, [], extra


def per_layer(driver, work, args):
    """Untraced and traced halves of the run, then a second traced
    round in a fresh process whose counts must repeat exactly."""
    half = args.seconds / 2.0
    spans = build_dir() / f"spans-{args.workload}-seed{args.seed}.json"
    plain = drive(driver, work, args.workload, args.seed, half, "timed")
    traced = drive(driver, work, args.workload, args.seed, half, "traced",
                   spans_out=spans)
    # --seconds 0: exactly one traced round.
    again = drive(driver, work, args.workload, args.seed, 0, "traced")
    problems = []
    if traced["counts"] != again["counts"]:
        diff = sorted(k for k in set(traced["counts"]) | set(again["counts"])
                      if traced["counts"].get(k) != again["counts"].get(k))
        problems.append("counts differ between two traced runs: "
                        + ", ".join(diff))
    for run in (plain, traced, again):
        for why in run["failures"]:
            log(f"FAILED ({run['mode']}): {why}")
    log(f"{args.workload}: spans written to {spans}")

    counts = traced["counts"]
    k = host_scale(traced)
    values = {name: v * k for name, v in traced["layers"].items()}
    values.update(counts)
    schedules = counts.get("explore.schedules", 0)
    values["explore.distinct_ratio"] = (
        counts.get("explore.distinct", 0) / schedules if schedules else 0.0)
    units = counts.get("campaign.units", 0)
    values["campaign.hit_ratio"] = (
        counts.get("campaign.cache_hits", 0) / units if units else 0.0)
    values["trace.overhead_share"] = 1.0 - (
        traced["ops_per_s"] / k) / (plain["ops_per_s"] / host_scale(plain))
    attempted = plain["attempted"] + traced["attempted"] + again["attempted"]
    failed = plain["failed"] + traced["failed"] + again["failed"]
    return values, attempted, failed, problems, {}


def measure(args):
    spec = load_spec()
    driver = build()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=build_dir()))
    try:
        if args.trace:
            values, attempted, failed, problems, extra = per_layer(
                driver, work, args)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, problems, extra = end_to_end(
                driver, work, args)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            # A layer this workload does not run (e.g. campaign.* on
            # registry) reads 0; see README.md.
            values[m["name"]] = 0
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for why in problems:
        log(f"FAILED: {why}")
    failed = min(attempted, failed + len(problems))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **extra,
                                "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load_runs(path):
    """(workload, trace) -> metric -> [(seed, value), ...], and
    workload -> the set of op_tail_ms percentiles its runs read."""
    runs, tail_pcts = {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            slot = runs.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["result"]["metrics"].items():
                slot.setdefault(name, []).append((rec["seed"], m["value"]))
            if "tail_pct" in rec:
                tail_pcts.setdefault(rec["workload"], set()).add(
                    rec["tail_pct"])
    return runs, tail_pcts


def verdict(base, head, better, bound):
    """improved / no worse / worse / unresolved for one metric.

    improved: head wins at least 9 of 10 seed-matched pairs and the
    medians differ by more than the base's own quartile spread.
    worse: head's median is worse than base's by more than the bound.
    unresolved: either side's quartile spread exceeds the bound (unless
    every head run beats every base run)."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles([v for _, v in base])
    hq1, hmed, hq3 = quartiles([v for _, v in head])
    gain = sign * (hmed - bmed)
    hv = dict(head)
    pairs = [(v, hv[s]) for s, v in base if s in hv]
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    losses = sum(1 for b, h in pairs if sign * (h - b) < 0)
    all_better = min(sign * v for _, v in head) > max(sign * v for _, v in base)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (hq3 - hq1) / abs(hmed) if hmed else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if (pairs and wins >= 0.9 * (wins + losses) and wins > 0
            and gain > bq3 - bq1):
        return "improved"
    if bmed and -gain / abs(bmed) > bound:
        return "worse"
    return "no worse"


def compare(base_path, head_path):
    spec = load_spec()
    (base, base_pct), (head, head_pct) = (load_runs(base_path),
                                          load_runs(head_path))
    status = 0
    print(f"{'workload':<10} {'metric':<14} {'base q1/med/q3':>32} "
          f"{'head q1/med/q3':>32} {'delta':>8}  verdict")
    for wl in WORKLOADS:
        b, h = base.get((wl, 0)), head.get((wl, 0))
        if not b or not h:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b or name not in h:
                continue
            v = verdict(b[name], h[name], m["better"], m["bound"])
            pcts = base_pct.get(wl, set()) | head_pct.get(wl, set())
            if name == "op_tail_ms" and len(pcts) > 1:
                # A slow run fell back to a lower percentile: the two
                # sides do not read the same quantity.
                v = "unresolved (p" + "/p".join(
                    f"{p:g}" for p in sorted(pcts)) + ")"
            status |= v == "worse"
            bq = quartiles([x for _, x in b[name]])
            hq = quartiles([x for _, x in h[name]])
            delta = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print(f"{wl:<10} {name:<14} "
                  f"{bq[0]:>10.4g} {bq[1]:>10.4g} {bq[2]:>10.4g} "
                  f"{hq[0]:>10.4g} {hq[1]:>10.4g} {hq[2]:>10.4g} "
                  f"{delta:>+8.1%}  {v}")
    print()
    print(f"per-layer medians of the traced runs\n  {'workload':<10} "
          f"{'metric':<22} {'base':>12} {'head':>12} {'delta':>8} unit")
    for wl in WORKLOADS:
        b, h = base.get((wl, 1)), head.get((wl, 1))
        if not b or not h:
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in b or name not in h:
                continue
            bm = statistics.median(x for _, x in b[name])
            hm = statistics.median(x for _, x in h[name])
            if bm == 0 and hm == 0:
                continue
            delta = f"{(hm - bm) / bm:+8.1%}" if bm else "     new"
            print(f"  {wl:<10} {name:<22} {bm:>12.4g} {hm:>12.4g} {delta}"
                  f" {m['unit']}")
    return status


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="JSON lines written with --out (parent)")
        p.add_argument("head", help="JSON lines written with --out (change)")
        a = p.parse_args(argv[1:])
        return compare(a.base, a.head)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the tagged result to this file")
    args = p.parse_args(argv)
    try:
        return measure(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
