#!/usr/bin/env python3
"""Shape- and acceptance-check presat's JSON outputs (one entry point).

Every check shares one metrics-block validator (`labels` string -> string,
`counters` non-empty string -> non-negative integer, `gauges` string ->
number, `histograms` with integer count/sum/max, numeric mean, and monotone
`buckets` of {le, n}) and one failure path: exit 1 with the reason on
stderr, exit 0 on success.

  stats   `presat_cli ... --stats json` stdout on stdin (human-readable
          lines followed by one JSON object). labels.engine must be present
          (== --engine when given) and every --counter KEY must exist.

          presat_cli allsat x.cnf --stats json | check_json.py stats \\
              --engine success-driven --counter memo.hits

  bench   a bench trajectory (BENCH_*.json): one metrics line per engine run
          (bench/bench_util.hpp:appendMetricsJsonl). Every record carries
          labels bench/case/engine and a positive gauges.time.seconds. The
          `table1` records must:
            * cover the four SAT enumeration engines (minterm-blocking,
              cube-blocking, success-driven, chrono) and carry `pre.cubes`;
            * pair every `<circuit>/chrono` case with a `chrono-proj` series
              whose `proj.cubes` equals its `pre.cubes` and the `sd` series'
              `pre.cubes` (both are the ISOP), and with a `chrono-cert` series of
              identical `pre.cubes` and positive `cert.bytes`. The
              per-circuit certificate overhead is printed; the plain chrono
              series is the proof-logging-OFF control for --compare.
          --google-benchmark FILE also validates a --benchmark_format=json
          report (non-empty `benchmarks`, each named with positive
          `real_time`). --compare BASELINE diffs per-series (bench, case)
          median time.seconds against a checked-in trajectory: a median
          regressed by more than --max-regression (default 25%) fails,
          speedups are printed, series under --noise-floor seconds (default
          0.05) in BOTH files are skipped, and every baseline series must
          still exist.

          check_json.py bench BENCH_ci.json --google-benchmark MICRO.json \\
              --compare bench/BENCH_baseline.json

  soak    a "presat-soak-v1" report from tools/presat_client.py: enough
          requests/clients/repeats, zero protocol errors and unsound
          responses, known outcomes summing to at most the request count,
          retries == overload_retries (<= 4 per request), the cache block,
          and — unless --no-compare — a cache_compare section with >= 1 hit
          and speedup >= --min-speedup (default 2.0).

          check_json.py soak SOAK.json [--min-requests 40] [--no-compare]
"""

from __future__ import annotations

import argparse
import json
import sys


def fail(reason: str) -> None:
    print(f"check_json.py: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_metrics(where: str, block: object) -> dict:
    """Validates one Metrics::toJson block; returns it."""
    if not isinstance(block, dict):
        fail(f"{where}: top level is not an object")
    labels = block.get("labels")
    if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in labels.items()):
        fail(f"{where}: labels must be an object of string -> string")
    counters = block.get("counters")
    if not isinstance(counters, dict) or not counters:
        fail(f"{where}: counters must be a non-empty object")
    for key, value in counters.items():
        if not is_int(value) or value < 0:
            fail(f"{where}: counter {key!r} must map to a non-negative integer")
    gauges = block.get("gauges", {})
    if not isinstance(gauges, dict) or not all(is_number(v) for v in gauges.values()):
        fail(f"{where}: gauges must be an object of string -> number")
    histograms = block.get("histograms", {})
    if not isinstance(histograms, dict):
        fail(f"{where}: histograms must be an object")
    for name, h in histograms.items():
        if not isinstance(h, dict):
            fail(f"{where}: histogram {name!r} must be an object")
        for field in ("count", "sum", "max"):
            if not is_int(h.get(field)):
                fail(f"{where}: histogram {name!r}.{field} must be an integer")
        if not is_number(h.get("mean")):
            fail(f"{where}: histogram {name!r}.mean must be a number")
        buckets = h.get("buckets")
        if not isinstance(buckets, list):
            fail(f"{where}: histogram {name!r}.buckets must be a list")
        last_le = None
        for b in buckets:
            if not isinstance(b, dict) or "le" not in b or "n" not in b:
                fail(f"{where}: histogram {name!r} bucket must be {{le, n}}")
            if last_le is not None and b["le"] <= last_le:
                fail(f"{where}: histogram {name!r} bucket thresholds must increase")
            last_le = b["le"]
    return block


# --- stats -------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> None:
    text = sys.stdin.read()
    if text.startswith("{"):
        payload = text  # JSON-only stdout
    else:
        start = text.find("\n{")
        if start == -1:
            fail("no JSON object found on stdin")
        payload = text[start + 1:]
    try:
        stats = json.loads(payload)
    except json.JSONDecodeError as e:
        fail(f"stats block is not valid JSON: {e}")

    check_metrics("stats", stats)
    labels, counters = stats["labels"], stats["counters"]
    if "engine" not in labels:
        fail("labels.engine is missing")
    if args.engine is not None and labels["engine"] != args.engine:
        fail(f"labels.engine is {labels['engine']!r}, expected {args.engine!r}")
    for key in args.counter:
        if key not in counters:
            fail(f"required counter {key!r} is missing")
    print(f"check_json.py: stats OK ({len(counters)} counters, "
          f"{len(stats.get('gauges', {}))} gauges, "
          f"{len(stats.get('histograms', {}))} histograms)")


# --- bench -------------------------------------------------------------------

REQUIRED_TABLE1_ENGINES = {
    "minterm-blocking",
    "cube-blocking",
    "success-driven",
    "chrono",
}


def load_trajectory(path: str) -> list:
    records = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{path} line {lineno}: not valid JSON: {e}")
                where = f"{path} line {lineno}"
                check_metrics(where, record)
                for key in ("bench", "case", "engine"):
                    if key not in record["labels"]:
                        fail(f"{where}: labels.{key} is missing")
                seconds = record.get("gauges", {}).get("time.seconds")
                if not is_number(seconds) or seconds <= 0:
                    fail(f"{where}: gauges['time.seconds'] must be a positive number, "
                         f"got {seconds!r}")
                records.append(record)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    if not records:
        fail(f"{path} is empty")
    return records


def check_sibling_series(cubes_by_case: dict, suffix: str, check) -> None:
    """Every `<circuit>/chrono` case must have a `<circuit>/chrono<suffix>`
    sibling; `check(case, sibling)` validates the pair."""
    pairs = 0
    for case in sorted(cubes_by_case):
        if not case.endswith("/chrono"):
            continue
        sibling = case + suffix
        if sibling not in cubes_by_case:
            fail(f"table1 case {case!r} has no series {sibling!r}")
        check(case, sibling)
        pairs += 1
    if pairs == 0:
        fail(f"table1 contains no chrono/chrono{suffix} pairs to compare")


def check_table1(records: list) -> None:
    table1 = [r for r in records if r["labels"]["bench"] == "table1"]
    if not table1:
        fail("no table1 records in the trajectory file")
    missing = REQUIRED_TABLE1_ENGINES - {r["labels"]["engine"] for r in table1}
    if missing:
        fail(f"table1 is missing engine series: {sorted(missing)}")

    cubes_by_case = {}
    counters_by_case = {}
    for r in table1:
        case = r["labels"]["case"]
        if "pre.cubes" not in r["counters"]:
            fail(f"table1 case {case!r} has no pre.cubes counter")
        cubes_by_case[case] = r["counters"]["pre.cubes"]
        counters_by_case[case] = r["counters"]

    # Projected series: proj.cubes (== its final pre.cubes) present, and the
    # compressed cover as large as the success-driven cover it must equal
    # (the ISOP of the same set; it may have more cubes than the plain
    # chrono cover).
    def check_proj(case: str, proj: str) -> None:
        counters = counters_by_case[proj]
        if "proj.cubes" not in counters:
            fail(f"table1 case {proj!r} has no proj.cubes counter")
        if counters["proj.cubes"] != cubes_by_case[proj]:
            fail(f"table1 case {proj!r}: proj.cubes {counters['proj.cubes']} "
                 f"!= pre.cubes {cubes_by_case[proj]}")
        sd = case[:-len("chrono")] + "sd"
        if sd not in cubes_by_case:
            fail(f"table1 case {case!r} has no series {sd!r}")
        if cubes_by_case[proj] != cubes_by_case[sd]:
            fail(f"compression mismatch: {proj!r} produced {cubes_by_case[proj]} "
                 f"cubes but {sd!r} produced {cubes_by_case[sd]}")

    # Certificate series: emission is observation, not search — same cover,
    # plus the cert.* counters the emitter stamps.
    def check_cert(case: str, cert: str) -> None:
        if cubes_by_case[cert] != cubes_by_case[case]:
            fail(f"certificate emission changed the cover: {cert!r} produced "
                 f"{cubes_by_case[cert]} cubes but {case!r} produced {cubes_by_case[case]}")
        if counters_by_case[cert].get("cert.bytes", 0) <= 0:
            fail(f"table1 case {cert!r} has no positive cert.bytes counter")

    check_sibling_series(cubes_by_case, "-proj", check_proj)
    check_sibling_series(cubes_by_case, "-cert", check_cert)


def median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def series_medians(records: list) -> dict:
    """(bench, case) -> median time.seconds across that series' records."""
    times: dict = {}
    for r in records:
        key = (r["labels"]["bench"], r["labels"]["case"])
        times.setdefault(key, []).append(r["gauges"]["time.seconds"])
    return {key: median(values) for key, values in times.items()}


def check_compare(records: list, baseline_path: str, max_regression: float,
                  noise_floor: float) -> None:
    baseline = series_medians(load_trajectory(baseline_path))
    current = series_medians(records)

    missing = sorted(set(baseline) - set(current))
    if missing:
        fail(f"series present in baseline {baseline_path} but absent from "
             f"the current trajectory: {[f'{b}/{c}' for b, c in missing]}")

    regressions = []
    speedups = []
    skipped = 0
    for key in sorted(baseline):
        base, cur = baseline[key], current[key]
        if base < noise_floor and cur < noise_floor:
            skipped += 1
            continue
        ratio = cur / base
        label = f"{key[0]}/{key[1]}"
        if ratio > 1 + max_regression:
            regressions.append(f"  {label}: {base:.3f}s -> {cur:.3f}s ({ratio:.2f}x slower)")
        elif ratio < 1:
            speedups.append(f"  {label}: {base:.3f}s -> {cur:.3f}s ({base / cur:.2f}x faster)")
    if speedups:
        print(f"check_json.py: {len(speedups)} series faster than baseline {baseline_path}:")
        for line in speedups:
            print(line)
    print(f"check_json.py: compared {len(baseline)} series against "
          f"{baseline_path} ({skipped} under the {noise_floor}s noise floor)")
    if regressions:
        print(f"check_json.py: {len(regressions)} series regressed beyond "
              f"{max_regression:.0%}:", file=sys.stderr)
        for line in regressions:
            print(line, file=sys.stderr)
        fail(f"median regression beyond {max_regression:.0%} vs {baseline_path}")


def report_cert_overhead(records: list) -> None:
    """Prints median cert time / median plain time per chrono/chrono-cert
    pair. Informational: --compare on the plain series is what enforces
    zero-cost-when-disabled; this makes the cost-when-ENABLED visible."""
    medians = series_medians(records)
    for (bench, case) in sorted(medians):
        if not case.endswith("/chrono-cert"):
            continue
        plain = (bench, case[:-len("-cert")])
        if plain not in medians or medians[plain] <= 0:
            continue
        ratio = medians[(bench, case)] / medians[plain]
        print(f"check_json.py: cert-overhead {bench}/{case}: "
              f"{medians[plain]:.4f}s -> {medians[(bench, case)]:.4f}s ({ratio:.2f}x)")


def check_google_benchmark(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot read google-benchmark report: {e}")
    benchmarks = report.get("benchmarks") if isinstance(report, dict) else None
    if not isinstance(benchmarks, list) or not benchmarks:
        fail(f"{path}: 'benchmarks' must be a non-empty array")
    for entry in benchmarks:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            fail(f"{path}: benchmark entry without a name")
        real_time = entry.get("real_time")
        if not is_number(real_time) or real_time <= 0:
            fail(f"{path}: benchmark {entry.get('name')!r} has non-positive "
                 f"real_time {real_time!r}")


def cmd_bench(args: argparse.Namespace) -> None:
    records = load_trajectory(args.jsonl)
    check_table1(records)
    report_cert_overhead(records)
    if args.google_benchmark:
        check_google_benchmark(args.google_benchmark)
    if args.compare:
        check_compare(records, args.compare, args.max_regression, args.noise_floor)
    extra = f" + {args.google_benchmark}" if args.google_benchmark else ""
    print(f"check_json.py: bench OK: {len(records)} records ({args.jsonl}{extra})")


# --- soak --------------------------------------------------------------------

KNOWN_OUTCOMES = {"complete", "deadline", "memory", "conflicts", "cancelled", "cube-cap"}


def cmd_soak(args: argparse.Namespace) -> None:
    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read report: {e}")

    if report.get("schema") != "presat-soak-v1":
        fail(f"unknown schema {report.get('schema')!r}")
    for key in ("requests", "clients", "unique_pairs", "protocol_errors",
                "unsound", "overload_retries", "retries"):
        v = report.get(key)
        if not is_int(v) or v < 0:
            fail(f"{key} must be a non-negative integer, got {v!r}")

    # `retries` counts backoff-and-retry attempts after "overloaded"
    # rejections (at most 4 per request); today every retry is an overload
    # retry, so the two counters must agree.
    if report["retries"] != report["overload_retries"]:
        fail(f"retries {report['retries']} != overload_retries {report['overload_retries']}")
    if report["retries"] > report["requests"] * 4:
        fail(f"retries {report['retries']} exceeds the retry cap "
             f"(4 per request x {report['requests']} requests)")

    if report["requests"] < args.min_requests:
        fail(f"only {report['requests']} requests (need >= {args.min_requests})")
    if report["clients"] < args.min_clients:
        fail(f"only {report['clients']} clients (need >= {args.min_clients})")
    repeat = report.get("repeat_fraction")
    if not is_number(repeat):
        fail("repeat_fraction must be a number")
    if repeat < args.min_repeat:
        fail(f"repeat_fraction {repeat} < {args.min_repeat}")

    if report["protocol_errors"] != 0:
        fail(f"{report['protocol_errors']} protocol errors "
             f"(detail: {report.get('protocol_error_detail')})")
    if report["unsound"] != 0:
        fail(f"{report['unsound']} unsound responses (detail: {report.get('unsound_detail')})")
    if report.get("clean") is not True:
        fail("report is not marked clean")

    outcomes = report.get("outcomes")
    if not isinstance(outcomes, dict) or not outcomes:
        fail("outcomes must be a non-empty object")
    for name, n in outcomes.items():
        if name not in KNOWN_OUTCOMES:
            fail(f"unknown outcome {name!r}")
        if not is_int(n) or n < 0:
            fail(f"outcome {name!r} count must be a non-negative integer")
    if sum(outcomes.values()) > report["requests"]:
        fail("outcome counts exceed the request count")

    cache = report.get("cache")
    if not isinstance(cache, dict):
        fail("cache must be an object")
    for key in ("hit", "miss", "dedup", "off"):
        if key not in cache:
            fail(f"cache.{key} is missing")

    compare = report.get("cache_compare")
    if compare is None:
        if not args.no_compare:
            fail("cache_compare section is missing (run with --compare-cache, "
                 "or pass --no-compare)")
    else:
        if not isinstance(compare, dict):
            fail("cache_compare must be an object")
        if not is_int(compare.get("hits")) or compare["hits"] < 1:
            fail("cache_compare.hits must be >= 1")
        speedup = compare.get("speedup")
        if not is_number(speedup):
            fail("cache_compare.speedup must be a number")
        if speedup < args.min_speedup:
            fail(f"cache-hit speedup {speedup} < {args.min_speedup} "
                 f"(hit {compare.get('median_hit_ms')}ms vs cold "
                 f"{compare.get('median_cold_ms')}ms)")

    summary = (f"{report['requests']} requests / {report['clients']} clients, "
               f"repeat {repeat:.2f}, outcomes {outcomes}")
    if compare is not None:
        summary += f", cache-hit speedup {compare['speedup']}x"
    print(f"check_json.py: soak OK ({summary})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="kind", required=True)

    stats = sub.add_parser("stats", help="presat_cli --stats json block on stdin")
    stats.add_argument("--engine", help="expected labels.engine value")
    stats.add_argument("--counter", action="append", default=[],
                       help="counter key that must be present (repeatable)")
    stats.set_defaults(run=cmd_stats)

    bench = sub.add_parser("bench", help="bench trajectory JSONL")
    bench.add_argument("jsonl", help="bench trajectory file (JSONL)")
    bench.add_argument("--google-benchmark", metavar="FILE",
                       help="also validate a --benchmark_format=json report")
    bench.add_argument("--compare", metavar="BASELINE",
                       help="baseline trajectory to diff series medians against")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="fail when a series median regresses beyond this fraction")
    bench.add_argument("--noise-floor", type=float, default=0.05,
                       help="skip series faster than this many seconds in both files")
    bench.set_defaults(run=cmd_bench)

    soak = sub.add_parser("soak", help="presat-soak-v1 report")
    soak.add_argument("report", help="soak report JSON from presat_client.py")
    soak.add_argument("--min-requests", type=int, default=100)
    soak.add_argument("--min-clients", type=int, default=8)
    soak.add_argument("--min-repeat", type=float, default=0.3)
    soak.add_argument("--min-speedup", type=float, default=2.0)
    soak.add_argument("--no-compare", action="store_true",
                      help="do not require a cache_compare section")
    soak.set_defaults(run=cmd_soak)

    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
