#!/usr/bin/env python3
"""Admission-service benchmark for rmwp's streaming serve loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload vt-online --seed 42 --seconds 25 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or
.bench_build, then runs the workload as a sequence of repetitions, one
driver process each, until --seconds have passed.  Repetition k serves
input k % INPUTS of the run, whose seed is derived from --seed, so the same
--seed always yields the same inputs.  Every repetition's output is
checked.  Count metrics are totals over the first INPUTS repetitions;
timing metrics are medians over all of them, scaled to the reference host
by the calibration kernel each repetition times (calibrate.hpp).

--trace 0 prints every end-to-end metric.  --trace 1 alternates untraced and
traced repetitions of the same input and prints the per-layer ledger; the
traced decisions must equal the untraced ones.  The last stdout line is the
JSON result; the lines before it give the host fingerprint, per-metric
spread over the repetitions, and the decision digest.  README.md in this
directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Arrivals per repetition: a quarter to half a second of serving on a
# 4-core Xeon host, so a run holds dozens of repetitions.
WORKLOADS = {
    "vt-online": 24000,
    "islands-burst": 16000,
    "lt-faults-batch": 24000,
    "lt-exact": 24000,
}
INPUTS = 16  # distinct inputs per run; seeds seed * 16 + 0 .. 15
DRIVER_TIMEOUT_S = 60


def fail(message):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the driver path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "serve", "serve.hpp"))):
        fail("the rmwp sources are not next to perfbench/ (expected %s/src)" % ROOT)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, workload, seed, traced):
    """One repetition.  Returns (record, None), or (None, why) when the driver
    did not finish: it aborted on a contract, crashed or hung."""
    command = [driver, "--workload", workload, "--seed", str(seed),
               "--arrivals", str(WORKLOADS[workload]), "--traced", "1" if traced else "0"]
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, the driver's steady_clock
    try:
        done = subprocess.run(command + ["--t0-ns", str(t0)], capture_output=True,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % DRIVER_TIMEOUT_S
    sys.stderr.write(done.stderr)
    if done.returncode == 4:
        fail("the driver refused to measure this build (audit or sanitizer)")
    if done.returncode != 0:
        message = (done.stderr.strip().splitlines() or ["no message"])[-1]
        return None, "exited %d: %s" % (done.returncode, message)
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def check(record, workload, expected):
    """Output checks for one repetition; returns a list of failures.
    `expected` maps digest fields to the values this input must reproduce."""
    problems = []
    if record["exit_code"] != 0:
        problems.append("monitor exit %d: %s" % (record["exit_code"], record["violation"]))
    if record["arrivals"] != WORKLOADS[workload]:
        problems.append("consumed %d of %d arrivals" % (record["arrivals"], WORKLOADS[workload]))
    if record["accepted"] + record["rejected"] != record["requests"]:
        problems.append("accepted + rejected != requests")
    if record["completed"] + record["aborted"] + record["fault_aborted"] != record["accepted"]:
        problems.append("completed + aborted + fault_aborted != accepted")
    if record["deadline_misses"] != 0:
        problems.append("%d admitted tasks missed their deadline" % record["deadline_misses"])
    for field, value in expected.items():
        if record[field] != value:
            problems.append("%s differs from an earlier run of this input" % field)
    return problems


def host_factor(record):
    """How much slower than the reference host this repetition ran: the
    calibration kernel's time over its reference time (calibrate.hpp)."""
    return record["calibration_ns"] / record["reference_ns"]


def scaled(record, duration):
    """A wall-clock duration measured in `record`, scaled to the reference host."""
    return duration / host_factor(record)


def spread(values):
    """Median, quartiles, extremes and (Q3 - Q1) / median of a series."""
    if len(values) < 2:
        return {"n": len(values)}
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": mid, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "iqr_share": (q3 - q1) / mid if mid else None}


def source_id():
    """The commit, or outside git a SHA-256 over the library sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0:
            return {"commit": commit.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs]
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return {"commit": None, "source_sha256": digest.hexdigest()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(record):
    return dict(source_id(), nproc=os.cpu_count(), cpu_model=cpu_model(),
                build_type=record["build_type"], rmwp_obs=record["obs"],
                rmwp_audit=record["audit"], sanitizer=record["sanitizer"],
                python=platform.python_version())


def digest_of(records, field):
    joined = ",".join(r[field] for r in records)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def timing_series(records):
    """Per-repetition timings, scaled to the reference host."""
    return {
        "decisions_per_s": [(r["requests"] - r["shed"]) / (scaled(r, r["wall_ns"]) / 1e9)
                            for r in records],
        "decide_p50_us": [scaled(r, r["latency_p50_us"]) for r in records],
        "decide_p99_us": [scaled(r, r["latency_p99_us"]) for r in records],
        "setup_s": [scaled(r, r["setup_ns"]) / 1e9 for r in records],
    }


def end_to_end(records, first):
    """End-to-end metrics: timings are medians over every finished
    repetition; the rest are totals over `first`, the first finished
    repetition of each of the run's inputs."""
    total = lambda field: sum(r[field] for r in first)
    units = {"decisions_per_s": "1/s", "decide_p50_us": "us", "decide_p99_us": "us",
             "setup_s": "s"}
    metrics = {name: (statistics.median(values), units[name])
               for name, values in timing_series(records).items()}
    metrics.update({
        "peak_rss_mib": (statistics.median([r["vm_hwm_kib"] / 1024 for r in records]), "MiB"),
        "reject_pct": (100 * total("rejected") / total("requests"), "%"),
        "energy_per_accepted": (total("total_energy") / total("accepted"), "units/task"),
        "goodput_pct": (100 * total("completed") / total("arrivals"), "%"),
    })
    return metrics


def per_layer(traced, untraced, first, lost_arrivals):
    """Per-layer ledger.  Counts are totals over `first`, the traced records
    of the run's INPUTS inputs; `lost_arrivals` belong to inputs that never
    finished a repetition and count as failed.  Times are scaled to the reference host and
    pooled over every traced repetition, so the shares add up to wall time."""
    total = lambda field: sum(r.get(field, 0) for r in first)
    pooled = lambda field: sum(r[field] for r in traced)
    scaled_ns = lambda field: sum(scaled(r, r[field]) for r in traced)
    wall = scaled_ns("wall_ns")
    layers = {name: scaled_ns(name + "_ns")
              for name in ("source", "observe", "predict", "decide", "rescue")}
    engine_loop = wall - sum(layers.values())
    per_call = lambda name: (layers[name] / pooled(name + "_calls")
                             if pooled(name + "_calls") else 0.0)
    share = lambda ns: 100 * ns / wall
    verdicts = total("prefilter_feasible") + total("prefilter_infeasible")
    probes = verdicts + total("prefilter_unknown")
    walls = lambda records: statistics.median([scaled(r, r["wall_ns"]) for r in records])
    metrics = {
        "sim.edf_sim.calls_outside_rm": (total("stage_edf_simulate_calls") -
                                         total("edf_calls_in_rm"), "count"),
        "sim.engine_loop.share_pct": (share(engine_loop), "%"),
        "sim.engine_loop.ns_per_request": (engine_loop / pooled("requests"), "ns"),
        "mem.rss_growth_mib": (statistics.median([(r["rss_last_kib"] - r["rss_half_kib"]) / 1024
                                                  for r in traced]), "MiB"),
        "core.decide.calls": (total("decide_calls"), "count"),
        "core.decide.ns_per_call": (per_call("decide"), "ns"),
        "core.decide.share_pct": (share(layers["decide"]), "%"),
        "core.solve.calls": (total("stage_solve_calls"), "count"),
        "core.shard_solve.calls": (total("stage_shard_solve_calls"), "count"),
        "core.arena_high_water_kib": (max(r["arena_high_water_bytes"] for r in first) / 1024,
                                      "KiB"),
        "core.prefilter.calls": (total("stage_prefilter_calls"), "count"),
        "core.prefilter.settled_ratio": (verdicts / probes if probes else 0.0, "ratio"),
        "core.rescue.calls": (total("rescue_calls"), "count"),
        "core.rescue.ns_per_call": (per_call("rescue"), "ns"),
        "core.rescue.share_pct": (share(layers["rescue"]), "%"),
        "sim.rescue_activations": (total("rescue_activations"), "count"),
        "predict.observe.ns_per_call": (per_call("observe"), "ns"),
        "predict.predict.ns_per_call": (per_call("predict"), "ns"),
        "predict.share_pct": (share(layers["observe"] + layers["predict"]), "%"),
        "predict.hit_ratio": (total("predictor_hits") / total("predictor_predictions")
                              if total("predictor_predictions") else 0.0, "ratio"),
        "predict.plans_with_prediction_pct": (100 * total("plans_with_prediction") /
                                              total("accepted"), "%"),
        "serve.source.ns_per_call": (per_call("source"), "ns"),
        "serve.source.share_pct": (share(layers["source"]), "%"),
        "serve.mean_group": (total("requests") / total("activations"), "requests"),
        "sim.activations": (total("activations"), "count"),
        "sim.migrations": (total("migrations"), "count"),
        "sim.failed_pct": (100 * (total("deadline_misses") + total("aborted") +
                                  total("fault_aborted") + total("shed") + lost_arrivals) /
                           (total("arrivals") + lost_arrivals), "%"),
        "trace.overhead_pct": (100 * (walls(traced) / walls(untraced) - 1), "%"),
    }
    if all("edf_calls_in_rm" in r for r in first):
        metrics["core.edf_sim.calls_in_rm"] = (total("edf_calls_in_rm"), "count")
    ledger = dict({name + "_ns": ns for name, ns in layers.items()}, wall_ns=wall,
                  engine_loop_ns=engine_loop, sum_ns=engine_loop + sum(layers.values()),
                  decisions=total("decided"), requests=total("requests"))
    return metrics, ledger


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    traced_run = args.trace == 1
    seeds = [args.seed * 16 + k for k in range(INPUTS)]

    arrivals = WORKLOADS[args.workload]
    completed = {False: [], True: []}  # finished repetitions, untraced and traced
    reference = {}  # (input seed, traced) -> the input's first finished repetition
    problems, aborted = [], set()
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    k = 0
    while not problems and (k < INPUTS or time.monotonic() < deadline):
        seed = seeds[k % INPUTS]
        k += 1
        for traced in (False, True) if traced_run else (False,):
            label = "input %d%s" % (seed, " (traced)" if traced else "")
            record, abort = run_driver(driver, args.workload, seed, traced)
            attempted += arrivals
            if abort is not None:
                # A repetition that does not finish fails every one of its
                # arrivals; it is counted, never skipped.
                failed += arrivals
                aborted.add(seed)
                print("perfbench: %s aborted, %d arrivals failed: %s" % (label, arrivals, abort),
                      file=sys.stderr)
                break
            # Same input, same outcome: across repetitions, and traced vs untraced.
            earlier = reference.get((seed, traced), {})
            expected = {f: earlier[f] for f in ("outcome_digest", "decision_digest")
                        if f in earlier}
            if traced:
                expected["outcome_digest"] = completed[False][-1]["outcome_digest"]
            problems += [label + ": " + issue
                         for issue in check(record, args.workload, expected)]
            if problems:
                failed += arrivals
                break
            failed += record["shed"]
            completed[traced].append(record)
            reference.setdefault((seed, traced), record)
    untraced, traced = completed[False], completed[True]
    first = [reference[(s, traced_run)] for s in seeds if (s, traced_run) in reference]

    correct = not problems and bool(first)
    for problem in problems:
        print("perfbench: check failed: " + problem, file=sys.stderr)
    metrics = {}
    if correct:
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "repetitions": len(untraced), "inputs": seeds,
                "arrivals_per_repetition": arrivals,
                "latency_samples_per_repetition": [r["activations"] for r in first],
                "aborted_inputs": sorted(aborted),
                "fingerprint": fingerprint(first[0]),
                "outcome_digest": digest_of([reference[(s, False)] for s in seeds
                                             if (s, False) in reference], "outcome_digest")}
        if traced_run:
            values, info["ledger"] = per_layer(traced, untraced, first,
                                               (INPUTS - len(first)) * arrivals)
            info["decision_digest"] = digest_of(first, "decision_digest")
            info["spread"] = {
                "traced_wall_ns": spread([scaled(r, r["wall_ns"]) for r in traced]),
                "untraced_wall_ns": spread([scaled(r, r["wall_ns"]) for r in untraced])}
        else:
            values = end_to_end(untraced, first)
            info["spread"] = {name: spread(series)
                              for name, series in timing_series(untraced).items()}
            info["spread"]["peak_rss_mib"] = spread([r["vm_hwm_kib"] / 1024 for r in untraced])
        info["spread"]["host_factor"] = spread([host_factor(r) for r in untraced + traced])
        print(json.dumps(info, sort_keys=True))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
