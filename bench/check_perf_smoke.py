#!/usr/bin/env python3
"""Perf smoke gate for the bench binaries.

Compares measured mcpta-bench-stats-v1 exports against a stored baseline
(bench/baselines/perf-smoke.json) and fails on wall-time regression.

Usage:
    check_perf_smoke.py BASELINE MEASURED.json [MEASURED.json ...]
    check_perf_smoke.py --record BASELINE MEASURED.json [...]

Each MEASURED.json is the output of a bench binary's --stats-json flag,
e.g. `bench_scaling --stats-json=s.json --benchmark_filter='^$'`.
Multiple exports from the same bench are allowed (run each binary a few
times); the gate takes the minimum, which filters out scheduler noise.

A gate fails when min(measured) > baseline * (1 + tolerance). Tolerance
comes from the baseline file (default 0.20) and can be overridden with
--tolerance or the MCPTA_PERF_TOLERANCE environment variable — raise it
temporarily if a CI runner generation is slower than the recorded host.

Gates with a recorded peak_rss_kb also compare the export's
mem.peak_rss_kb gauge, under the baseline's mem_tolerance (default
0.35 — RSS is noisier across allocators and runner generations than
wall time). A memory regression fails the same way a wall-time one
does.

Gates carrying a query_us field instead of total_us are demand-query
latency gates: they read mcpta-demand-bench-v1 exports (bench_demand's
--demand-bench-json output) and compare the median warm per-query
demand_ms on incrstress against the recorded budget, under the same
wall-time tolerance.

Gates carrying a min_speedup field are parallel-speedup floors: they
read mcpta-par-bench-v1 exports (bench_parallel's --par-bench-json
output) and require the named section's T=4-vs-T=1 speedup to reach
the floor. Unlike latency gates these are fixed requirements, not
recorded measurements, so --record leaves them untouched. The gate is
skipped (with a note) when every export reports fewer host cores than
bench threads — a 4-thread run cannot speed up on a 1-core runner.

--record rewrites the baseline's total_us/peak_rss_kb (and query_us)
fields from the measured minimums (keeping the gate list and
tolerances), for refreshing after an intentional perf change.
"""

import argparse
import datetime
import json
import os
import sys

# Top-level pipeline phases; nested spans (ig-build, pointsto) are
# already counted inside "analyze".
TOP_PHASES = ("lex", "parse", "simplify", "analyze")


def program_total_us(doc, program):
    progs = doc.get("programs", {})
    if program not in progs:
        raise KeyError(f"program '{program}' missing from stats export "
                       f"(bench '{doc.get('bench')}')")
    phases = progs[program].get("phases_us", {})
    return sum(phases.get(p, 0) for p in TOP_PHASES)


def program_peak_rss_kb(doc, program):
    """The mem.peak_rss_kb gauge for one program, or 0 when the export
    predates memory telemetry (or getrusage failed)."""
    progs = doc.get("programs", {})
    if program not in progs:
        raise KeyError(f"program '{program}' missing from stats export "
                       f"(bench '{doc.get('bench')}')")
    return int(progs[program].get("gauges", {}).get("mem.peak_rss_kb", 0))


def demand_query_us(doc):
    """Median warm per-query latency of a mcpta-demand-bench-v1 export's
    incrstress query table, in microseconds."""
    queries = doc.get("incrstress", {}).get("queries", [])
    if not queries:
        raise KeyError("no incrstress queries in demand bench export")
    vals = sorted(q["demand_ms"] for q in queries)
    return int(vals[len(vals) // 2] * 1000)


def par_speedup(doc, program):
    """The measured speedup of one mcpta-par-bench-v1 section
    ('batch')."""
    sec = doc.get(program)
    if not isinstance(sec, dict) or "speedup" not in sec:
        raise KeyError(f"section '{program}' missing from parallel bench "
                       f"export")
    return float(sec["speedup"])


def load_measurements(paths):
    """Maps bench name -> list of parsed stats documents. Demand bench
    exports (mcpta-demand-bench-v1) land under the 'demand-query' key,
    parallel bench exports (mcpta-par-bench-v1) under 'parallel' —
    the bench names their gate kinds use."""
    by_bench = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("format") == "mcpta-demand-bench-v1":
            by_bench.setdefault("demand-query", []).append(doc)
            continue
        if doc.get("format") == "mcpta-par-bench-v1":
            by_bench.setdefault("parallel", []).append(doc)
            continue
        if doc.get("schema") != "mcpta-bench-stats-v1":
            sys.exit(f"error: {path}: not an mcpta-bench-stats-v1 export "
                     f"(schema={doc.get('schema')!r})")
        by_bench.setdefault(doc["bench"], []).append(doc)
    return by_bench


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("measured", nargs="+")
    ap.add_argument("--record", action="store_true",
                    help="rewrite baseline totals from the measurements")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="override the baseline's tolerance fraction")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != "mcpta-perf-smoke-baseline-v1":
        sys.exit(f"error: {args.baseline}: unknown baseline schema "
                 f"{baseline.get('schema')!r}")

    tolerance = baseline.get("tolerance", 0.20)
    if os.environ.get("MCPTA_PERF_TOLERANCE"):
        tolerance = float(os.environ["MCPTA_PERF_TOLERANCE"])
    if args.tolerance is not None:
        tolerance = args.tolerance
    mem_tolerance = baseline.get("mem_tolerance", 0.35)
    if os.environ.get("MCPTA_MEM_TOLERANCE"):
        mem_tolerance = float(os.environ["MCPTA_MEM_TOLERANCE"])

    by_bench = load_measurements(args.measured)

    failures = []
    for gate in baseline["gates"]:
        bench, program = gate["bench"], gate["program"]
        docs = by_bench.get(bench)
        if not docs:
            failures.append(f"{bench}/{program}: no measured stats export "
                            f"for bench '{bench}'")
            continue

        if "min_speedup" in gate:
            # Fixed floor, not a recorded measurement: nothing to
            # rewrite under --record.
            if args.record:
                print(f"record {bench}/{program}: min_speedup="
                      f"{gate['min_speedup']} kept (fixed floor)")
                continue
            capable = [d for d in docs
                       if int(d.get("cores", 0)) >= int(d.get("threads", 0))]
            if not capable:
                cores = max(int(d.get("cores", 0)) for d in docs)
                threads = max(int(d.get("threads", 0)) for d in docs)
                print(f"--  {bench}/{program}: skipped — host has {cores} "
                      f"core(s), bench ran {threads} threads")
                continue
            measured = max(par_speedup(d, program) for d in capable)
            floor = gate["min_speedup"]
            verdict = "ok" if measured >= floor else "FAIL"
            print(f"{verdict} {bench}/{program}: speedup {measured:.2f}x "
                  f"vs required {floor}x (n={len(capable)})")
            if measured < floor:
                failures.append(f"{bench}/{program}: speedup "
                                f"{measured:.2f}x below the {floor}x floor")
            continue

        if "query_us" in gate:
            measured = min(demand_query_us(d) for d in docs)
            if args.record:
                gate["query_us"] = measured
                print(f"record {bench}/{program}: query_us={measured}")
                continue
            budget = gate["query_us"] * (1.0 + tolerance)
            ratio = measured / gate["query_us"] if gate["query_us"] else 0.0
            verdict = "ok" if measured <= budget else "FAIL"
            print(f"{verdict} {bench}/{program}: demand query {measured}us "
                  f"vs baseline {gate['query_us']}us ({ratio:.2f}x, "
                  f"budget {budget:.0f}us, n={len(docs)})")
            if measured > budget:
                failures.append(f"{bench}/{program}: demand query "
                                f"{ratio:.2f}x baseline exceeds "
                                f"+{tolerance:.0%} tolerance")
            continue

        measured = min(program_total_us(d, program) for d in docs)
        measured_rss = min(program_peak_rss_kb(d, program) for d in docs)
        if args.record:
            gate["total_us"] = measured
            gate["peak_rss_kb"] = measured_rss
            print(f"record {bench}/{program}: total_us={measured} "
                  f"peak_rss_kb={measured_rss}")
            continue
        budget = gate["total_us"] * (1.0 + tolerance)
        ratio = measured / gate["total_us"] if gate["total_us"] else 0.0
        verdict = "ok" if measured <= budget else "FAIL"
        print(f"{verdict} {bench}/{program}: measured {measured}us vs "
              f"baseline {gate['total_us']}us ({ratio:.2f}x, "
              f"budget {budget:.0f}us, n={len(docs)})")
        if measured > budget:
            failures.append(f"{bench}/{program}: {ratio:.2f}x baseline "
                            f"exceeds +{tolerance:.0%} tolerance")

        base_rss = gate.get("peak_rss_kb", 0)
        if base_rss and measured_rss:
            rss_budget = base_rss * (1.0 + mem_tolerance)
            rss_ratio = measured_rss / base_rss
            verdict = "ok" if measured_rss <= rss_budget else "FAIL"
            print(f"{verdict} {bench}/{program}: peak RSS {measured_rss}kB "
                  f"vs baseline {base_rss}kB ({rss_ratio:.2f}x, "
                  f"budget {rss_budget:.0f}kB)")
            if measured_rss > rss_budget:
                failures.append(
                    f"{bench}/{program}: peak RSS {rss_ratio:.2f}x baseline "
                    f"exceeds +{mem_tolerance:.0%} mem tolerance")
        elif not base_rss:
            print(f"--  {bench}/{program}: no peak_rss_kb in baseline "
                  f"(re-record to enable the memory gate)")

    if args.record:
        if failures:
            sys.exit("error: " + "; ".join(failures))
        baseline["recorded"] = datetime.date.today().isoformat()
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"baseline rewritten: {args.baseline}")
        return

    if failures:
        print("\nperf smoke FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        sys.exit(1)
    print("perf smoke passed")


if __name__ == "__main__":
    main()
