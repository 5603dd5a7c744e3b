#!/usr/bin/env python3
"""Perf smoke gate: compare bench JSON output against bench/baseline.json.

Usage:
    check_perf_regression.py --baseline bench/baseline.json \
        --input faultpath.out [--input interpreter.out] [--factor 0.75]
    check_perf_regression.py --baseline bench/baseline.json --report report.json

The benches emit one JSON object per line after their human-readable tables; everything
that does not parse as a JSON object is ignored, so raw bench stdout can be fed in
directly. Alternatively (or additionally), --report accepts machine-readable reports
produced by `hipec-report --json`, whose top-level "metrics" object uses the same
flattened names as extract_metrics below. A --report value only fills a metric that no
--input produced: the inputs are the raw samples, the report is a summary of one of them.

Repeated runs: when a metric appears in more than one input record (the same bench
captured several times and passed as several --input files), the gate compares the
median of its samples and prints the sample count and interquartile range, so one
unlucky run neither fails nor passes the gate on its own.

Gate rules (a metric missing from either side is never a failure — so feeding a bench
that baseline.json knows nothing about, or a baseline entry for a bench that was not run,
only narrows the comparison; metrics with no baseline entry are printed as informational
rows and summarized in a stderr warning so a silently-narrowed gate is visible):
  * faultpath normalized production throughput per policy: faults_per_sec divided by the
    run's own calibration score, so the comparison tolerates machines of different speeds.
    Fails when current < factor * baseline.
  * faultpath jit_speedup per policy and the geomean (policy-layer JIT vs the computed-goto
    IR loop): same-run relative. Skipped when the run reports available=0 (no JIT emitter
    on the host), compared against the baseline floors otherwise.
  * interpreter ir_speedup: same-run relative. Fails when current < factor * baseline.
  * scenario metrics (bench_scenario): recorded as scenario.<name>.<metric>; compared only
    if a baseline entry exists.
  * trace-replay metrics (bench_tournament --traces): recorded as
    replay.<field>.<policy>.<trace> from the deterministic virtual-machine facts
    (hit_ratio, faults, records, virtual_fault_ns); compared only if baselined.

Config provenance: every bench JSON line carries cfg_* fields (JIT default, probes
compiled in/out, sanitizer — see bench/bench_util.h). The gate refuses to
run when the input records disagree with each other on any cfg_* value (two .out files
from different builds), or when a value contradicts the baseline's "_config" object (a
sanitizer or probes-compiled-out run being compared against release floors). Records
without cfg_* fields (hipec-report output, older captures) don't participate in the check.

Exit status 0 when every compared metric passes (including the degenerate case where
nothing overlapped the baseline), 1 on a regression, mismatched configuration, or
unreadable input.
"""

import argparse
import json
import statistics
import sys


def parse_json_lines(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict):
                records.append(obj)
    return records


def extract_metrics(records):
    """Flattens bench records into {metric_name: [value per record that produced it]}."""
    metrics = {}

    def put(name, value):
        metrics.setdefault(name, []).append(value)

    for rec in records:
        bench = rec.get("bench")
        if bench == "faultpath" and rec.get("config") == "production":
            policy = rec["policy"]
            if "normalized_score" in rec:
                put(f"faultpath.normalized.{policy}", rec["normalized_score"])
        elif bench == "faultpath" and rec.get("config") == "jit":
            # Whole-fault throughput with the JIT dispatch layer. On hosts without an
            # emitter this measures the interpreter fallback, which is never slower than
            # production, so conservative floors hold either way.
            if "normalized_score" in rec:
                put(f"faultpath.jit.normalized.{rec['policy']}", rec["normalized_score"])
        elif bench == "faultpath" and rec.get("metric") == "jit_policy_speedup":
            # available=0 means the host has no JIT emitter and the "jit" config measured
            # the interpreter fallback: the ratio is ~1.0 and meaningless, so it is dropped
            # here and the gate skips it (missing metric = skipped, per the rules above).
            if rec.get("available", 1):
                put(f"faultpath.jit_speedup.{rec['policy']}", rec["value"])
        elif bench == "faultpath" and rec.get("metric") == "jit_speedup":
            if rec.get("available", 1):
                put("faultpath.jit_speedup", rec["value"])
        elif bench == "executor_arith_loop" and rec.get("metric") == "ir_speedup":
            put("interpreter.ir_speedup", rec["value"])
        elif bench == "scenario" and "metric" in rec:
            put(f"scenario.{rec['scenario']}.{rec['metric']}", rec["value"])
        elif bench == "replay" and "trace" in rec:
            # Trace-replay cells (bench_tournament --traces): only the deterministic
            # virtual-machine facts — identical run to run and across JIT modes — so they
            # can be baselined exactly. Host timing (ns_per_fault) is excluded on purpose.
            suffix = f"{rec['policy']}.{rec['trace']}"
            put(f"replay.hit_ratio.{suffix}", rec["hit_ratio"])
            put(f"replay.faults.{suffix}", rec["faults"])
            put(f"replay.records.{suffix}", rec["records"])
            put(f"replay.virtual_fault_ns.{suffix}", rec["virtual_fault_ns"])
        elif bench == "parallel" and "metric" in rec:
            # Thread-scaling speedups and the M:N scheduler churn rate are only meaningful
            # on hosts with enough hardware threads; on a 1-core runner they measure the
            # host scheduler, not the kernel, so they are dropped here and the gate skips
            # them (missing metric = skipped).
            if (rec["metric"].startswith("speedup")
                    or rec["metric"].startswith("scheduler.")) \
                    and rec.get("hardware_threads", 0) < 8:
                continue
            put(f"parallel.{rec['metric']}", rec["value"])
        elif bench == "parallel" and "threads" in rec:
            # Absolute throughput is machine-dependent: informational (never baselined),
            # and it keeps the metric set non-empty when the speedups are dropped above.
            put(f"parallel.faults_per_sec.{rec['threads']}t", rec["faults_per_sec"])
        elif bench == "server" and "metric" in rec:
            # bench_server's per-core service rate. Like the parallel speedups, a 1-core
            # runner time-slices the daemon's drain pool against its own forked clients and
            # measures the host scheduler, so the gated metric is dropped below 8 hardware
            # threads and the gate skips it (missing metric = skipped).
            if (rec["metric"] == "requests_per_sec_per_core"
                    and rec.get("hardware_threads", 0) < 8):
                continue
            put(f"server.{rec['metric']}", rec["value"])
        elif bench == "server" and "clients" in rec and "requests_per_sec" in rec:
            # Informational per-phase throughput (never baselined): keeps the metric set
            # non-empty on small hosts where the per-core metric is dropped above.
            put(f"server.requests_per_sec.{rec['clients']}c", rec["requests_per_sec"])
    return metrics


def summarize(samples):
    """Returns (median, (q1, q3)) of a non-empty sample list; the quartiles are None for a
    single sample."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, None
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, (q1, q3)


def check_config(records, baseline):
    """Refuses mismatched configurations. Returns an error string, or None when coherent.

    Two checks: every record that carries cfg_* provenance must agree with every other
    record (mixing .out files from different builds/environments), and must agree with the
    baseline's optional "_config" object (comparing a sanitizer or probes-stripped run
    against floors recorded on a release build). Records without cfg_* fields are exempt —
    they predate the provenance stamp or came through hipec-report.
    """
    seen = {}  # cfg key -> (value, first record's bench name)
    for rec in records:
        for key, value in rec.items():
            if not key.startswith("cfg_"):
                continue
            if key in seen and seen[key][0] != value:
                return (f"inputs disagree on {key}: {seen[key][0]!r} (from bench "
                        f"{seen[key][1]!r}) vs {value!r} (from bench {rec.get('bench')!r}) "
                        "— these runs came from different build configurations")
            seen.setdefault(key, (value, rec.get("bench")))
    expected = baseline.get("_config")
    if isinstance(expected, dict):
        for key, want in expected.items():
            if key in seen and seen[key][0] != want:
                return (f"run config {key}={seen[key][0]!r} does not match the baseline's "
                        f"_config expectation {want!r} — these floors were recorded under "
                        "a different configuration")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="checked-in baseline JSON file")
    parser.add_argument("--input", action="append", default=[],
                        help="bench stdout capture (repeatable)")
    parser.add_argument("--report", action="append", default=[],
                        help="hipec-report --json output (repeatable); its 'metrics' "
                             "object fills only metrics no --input file produced")
    parser.add_argument("--factor", type=float, default=0.75,
                        help="fail when current < factor * baseline (default 0.75, "
                             "i.e. a >25%% regression)")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)

    if not args.input and not args.report:
        print("check_perf_regression: need at least one --input or --report", file=sys.stderr)
        return 1

    # Input problems accumulate instead of short-circuiting: one run reports every bad
    # report file and any config mismatch together, so a broken CI capture is diagnosed
    # in a single pass rather than one re-run per problem.
    errors = []
    records = []
    for path in args.input:
        records.extend(parse_json_lines(path))
    config_error = check_config(records, baseline)
    if config_error:
        errors.append(config_error)
    samples = extract_metrics(records)
    current = {name: summarize(values) for name, values in samples.items()}
    for path in args.report:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        metrics = report.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{path} has no 'metrics' object "
                          "(expected hipec-report --json output)")
            continue
        for name, value in metrics.items():
            if isinstance(value, (int, float)):
                current.setdefault(name, (value, None))
    if not current and not errors:
        errors.append("no bench JSON lines found in inputs")
    if errors:
        for message in errors:
            print(f"check_perf_regression: {message}", file=sys.stderr)
        return 1

    failures = 0
    compared = 0
    print(f"{'metric':<45} {'baseline':>12} {'current':>12} {'min ok':>12}  verdict")
    for name in sorted(baseline):
        base = baseline[name]
        if name not in current or not isinstance(base, (int, float)):
            continue
        cur, iqr = current[name]
        compared += 1
        floor = args.factor * base
        ok = cur >= floor
        failures += 0 if ok else 1
        spread = ""
        if iqr is not None:
            spread = f"  (median of {len(samples[name])}, IQR {iqr[0]:.4f}-{iqr[1]:.4f})"
        print(f"{name:<45} {base:>12.4f} {cur:>12.4f} {floor:>12.4f}  "
              f"{'ok' if ok else 'REGRESSION'}{spread}")

    # Metrics the run produced but the baseline does not know: informational, never a
    # failure — but loudly flagged on stderr, so a metric that silently fell out of
    # baseline.json (a rename, a dropped recording step) is noticed instead of the gate
    # quietly narrowing.
    unbaselined = sorted(set(current) - set(baseline))
    for name in unbaselined:
        print(f"{name:<45} {'(no baseline)':>12} {current[name][0]:>12.4f}")
    if unbaselined:
        print(f"check_perf_regression: warning: {len(unbaselined)} metric(s) have no "
              "baseline entry and were not gated: " + ", ".join(unbaselined),
              file=sys.stderr)

    if compared == 0:
        # Benches with no baseline entry are informational, not failures: a newly added
        # bench must be able to ride through the gate before a baseline is recorded for it.
        print("check_perf_regression: no metric overlapped the baseline; nothing to gate")
        return 0
    if failures:
        print(f"\ncheck_perf_regression: {failures}/{compared} metric(s) regressed "
              f"beyond the {1 - args.factor:.0%} allowance", file=sys.stderr)
        return 1
    print(f"\ncheck_perf_regression: all {compared} compared metric(s) within allowance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
