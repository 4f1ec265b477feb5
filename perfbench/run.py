#!/usr/bin/env python3
"""presat benchmark driver.

Builds the benchmark package (perfbench/CMakeLists.txt: the presat library,
presat_serve, presat_check and perfbench_harness) into .bench_build/, runs
one workload, checks every answer, and prints the workload's metrics. The
last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes Chrome trace-event
JSON under .bench_build/perfbench/traces/). A wrong answer sets "correct" to
false and the exit code to 1.

    python3 perfbench/run.py --workload oneshot-cube --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke      # every workload, tiny pools

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import select
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
SERVE = BUILD_DIR / "presat" / "presat_serve"
CHECK = BUILD_DIR / "presat" / "presat_check"

WORKLOADS = ["oneshot-cube", "oneshot-sd-j4", "reach-sd", "serve-mixed"]
PASS_SECONDS = 15       # one pass over a pool (one serve round) takes about this long
SETUP_REPS = 5          # set-up is timed this many times; setup_s is the median
SERVE_CLIENTS = 4       # closed-loop clients of presat_serve (<= nproc)
SERVE_REPEATS = 3       # times each serve pair is sent again after its first request
SERVE_REPEAT_GAP = 400  # repeats of a pair come 400 to 400 + 800 requests after its first
SERVE_REPEAT_SPREAD = 800
SERVE_CERTS_CHECKED = 3 # certificates handed to presat_check per run
WAIT_S = 120            # longest wait for any one response or process

# The reference kernel's time (perfbench_harness reference) at the speed a
# 4-vCPU Xeon host usually ran at. Set-up times and the harness workloads'
# query times are scaled to it: a run whose kernel took 10% longer than this
# has those times divided by 1.1.
REFERENCE_MS = 3.5
# Timed end-to-end metrics of the harness workloads: times (exponent 1) and
# rates (exponent -1).
TIMED = {"query_ms.p50": 1, "query_ms.p90": 1, "queries_per_s": -1}


class BenchError(Exception):
    """A failure that stops the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"presat sources not found under {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4", "--target",
                  "perfbench_harness", "presat_serve", "presat_check"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = build_log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


# --- helpers ----------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]), as the harness computes it."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def last_json_line(text, what):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError(f"{what} printed no result line")


def passes(args):
    """How often the pool is run: fixed by --seconds, not by how fast the code
    is, so every build takes its figures over the same number of repeats."""
    return max(1, round(args.seconds / PASS_SECONDS))


def run_harness(mode, args, extra=()):
    cmd = [str(HARNESS), mode, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    cmd += list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    return last_json_line(proc.stdout, mode)


def reference_ms():
    """The reference kernel's median time, now."""
    out = subprocess.run([str(HARNESS), "reference"], capture_output=True, text=True,
                         timeout=WAIT_S, check=True)
    return last_json_line(out.stdout, "reference")["reference_ms"]


def at_reference_speed(metrics, measured_ms):
    """Scales the timed end-to-end metrics from the speed the host ran at
    (its reference kernel took `measured_ms`) to the reference speed."""
    factor = REFERENCE_MS / measured_ms
    for name, exponent in TIMED.items():
        metrics[name] *= factor ** exponent


def timed_setup(start):
    """Median of SETUP_REPS set-ups, each scaled by a reference kernel run
    just before it. `start` runs one set-up and returns its result. Returns
    the median, the last result and the reference times."""
    times, info, reference = [], None, []
    for _ in range(SETUP_REPS):
        reference.append(reference_ms())
        t0 = time.perf_counter()
        info = start()
        times.append((time.perf_counter() - t0) * REFERENCE_MS / reference[-1])
    return statistics.median(times), info, reference


def trace_path(workload, args):
    path = BUILD_DIR / "traces" / f"{workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# --- harness workloads ------------------------------------------------------

def run_query_workload(workload, args):
    """oneshot-cube, oneshot-sd-j4, reach-sd: one harness process each."""
    setup_s, info, _ = timed_setup(lambda: run_harness(workload, args, ["--setup-only"]))
    extra = ["--passes", str(passes(args)), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-out", str(trace_path(workload, args))]
    if args.corrupt:
        extra.append("--corrupt")
    res = run_harness(workload, args, extra)
    if res["digest"] != info["digest"]:
        raise BenchError("set-up and run generated different inputs")
    metrics = dict(res["metrics"])
    at_reference_speed(metrics, metrics["host.reference_ms"])
    metrics["setup_s"] = setup_s
    return {"digest": res["digest"], "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


# --- serve-mixed ------------------------------------------------------------

class Daemon:
    """presat_serve on a pipe. Requests go out and responses come back on
    one thread, so a latency is a write and a read apart, with no thread
    hand-off in between."""

    def __init__(self, extra=()):
        self.proc = subprocess.Popen([str(SERVE), "--workers", str(SERVE_CLIENTS)] + list(extra),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=sys.stderr)
        self.pending = b""
        _, banner = self._read_lines()
        if b'"status":"hello"' not in banner[0]:
            self.close()
            raise BenchError(f"presat_serve banner missing: {banner[0][:200]!r}")

    def _read_lines(self):
        """Waits for at least one complete line; returns (arrival time, lines)."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.pending:
            if not select.select([fd], [], [], WAIT_S)[0]:
                raise BenchError("presat_serve stopped answering")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise BenchError("presat_serve exited")
            self.pending += chunk
        arrived = time.perf_counter()
        *lines, self.pending = self.pending.split(b"\n")
        return arrived, lines

    def closed_loop(self, bodies, clients=SERVE_CLIENTS):
        """Runs `bodies` on `clients` closed-loop clients: each sends the next
        body in order once its previous one is answered. Returns, in body
        order, (send time, latency in seconds, response line)."""
        lines = [json.dumps(b, separators=(",", ":")).encode() + b"\n" for b in bodies]
        results = [None] * len(bodies)
        in_flight = {}  # id -> (index, send time)

        def send(k):
            in_flight[bodies[k]["id"]] = (k, time.perf_counter())
            self.proc.stdin.write(lines[k])
            self.proc.stdin.flush()

        for k in range(min(clients, len(bodies))):
            send(k)
        sent = len(in_flight)
        while in_flight:
            arrived, responses = self._read_lines()
            for line in responses:
                # Responses lead with their id: {"id":"..."
                rid = line[7:line.find(b'"', 7)].decode()
                if rid not in in_flight:
                    raise BenchError(f"unexpected response {line[:200]!r}")
                k, t0 = in_flight.pop(rid)
                results[k] = (t0, arrived - t0, line.decode())
                if sent < len(bodies):
                    send(sent)
                    sent += 1
        return results

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        """Drains with a shutdown op; kills only if that does not end it."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b'{"id":"bye","op":"shutdown"}\n')
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def serve_schedule(num_pairs, rng):
    """Every pair is sent once new and SERVE_REPEATS times again, so 3 of 4
    requests repeat an earlier pair. The seed draws the order: pair i of a
    shuffled order first arrives around request 4i, and its repeats at random
    points 400 to 1200 requests later, long after its first answer is back,
    so a repeat is a cache hit rather than a wait on the first request."""
    order = list(range(num_pairs))
    rng.shuffle(order)
    events = []
    for i, pair in enumerate(order):
        first = (SERVE_REPEATS + 1) * i + rng.random()
        events.append((first, pair))
        for _ in range(SERVE_REPEATS):
            events.append((first + SERVE_REPEAT_GAP + rng.random() * SERVE_REPEAT_SPREAD, pair))
    return [pair for _, pair in sorted(events)]


def preimage_request(rid, pool, pair, method, cert=False):
    c, target = pool["pairs"][pair]
    body = {"id": rid, "op": "preimage", "bench": pool["circuits"][c], "target": target,
            "method": method}
    if method == "chrono":
        body.update(project=True, compress=True, cert=cert)
    else:
        body["cache"] = False
    return body


def serve_answer(raw):
    r = json.loads(raw)
    if r.get("status") != "ok" or r.get("outcome") != "complete":
        return None
    return r


def run_serve_rounds(pool, rng, rounds, stats_out):
    """Sends a freshly drawn schedule per round, each round on a fresh daemon
    (cold cache). Returns records (round, (pair, occurrence), send time,
    latency, response), the measured time and the daemons' peak memory. A
    pair's occurrence 0 is its first request in the round, 1.. its repeats."""
    records, wall_total, rss = [], 0.0, 0.0
    for round_no in range(rounds):
        schedule = serve_schedule(len(pool["pairs"]), rng)
        requests = []  # (pair, occurrence)
        for pair in schedule:
            requests.append((pair, sum(p == pair for p, _ in requests)))
        # A pair's first request asks for the certificate; its repeats, like
        # a client that has checked the cover once, ask for the cover only.
        bodies = [preimage_request(f"r{round_no}.{k}", pool, pair, "chrono", cert=n == 0)
                  for k, (pair, n) in enumerate(requests)]
        daemon = Daemon()
        try:
            t0 = time.perf_counter()
            results = daemon.closed_loop(bodies)
            wall_total += time.perf_counter() - t0
            rss = max(rss, daemon.peak_rss_mb())
            if stats_out is not None:
                _, _, raw = daemon.closed_loop([{"id": "stats", "op": "stats"}])[0]
                stats_out.append(json.loads(raw)["metrics"])
        finally:
            daemon.close()
        records += [(round_no, request) + r for request, r in zip(requests, results)]
    return records, wall_total, rss


def check_serve(pool, records, args, work_dir):
    """Every answer must match the first answer for its pair; the first
    answers must match the BDD engine (on a clean --no-cache daemon); sampled
    certificates must pass presat_check. Returns the number of failures."""
    failed = 0
    first, certs = {}, {}
    for _, (pair, _), _, _, raw in records:
        r = serve_answer(raw)
        if r is None:
            failed += 1
            continue
        key = (r["count"], tuple(r["cubes"]))
        if pair not in first:
            first[pair] = key
        elif first[pair] != key:
            failed += 1
        if "cert" in r:
            certs.setdefault(pair, r["cert"])
    expected = {pair: key[0] for pair, key in first.items()}
    if args.corrupt and expected:
        pair = min(expected)
        expected[pair] = str(int(expected[pair]) + 1)

    pairs = sorted(expected)
    oracle = Daemon(["--no-cache"])
    try:
        answers = oracle.closed_loop([preimage_request(f"o{p}", pool, p, "bdd") for p in pairs])
    finally:
        oracle.close()
    for pair, (_, _, raw) in zip(pairs, answers):
        r = serve_answer(raw)
        if r is None or r["count"] != expected[pair]:
            log(f"perfbench: wrong serve answer for pair {pair}")
            failed += 1

    for pair in sorted(certs)[:SERVE_CERTS_CHECKED]:
        cert = work_dir / f"pair{pair}.cert"
        cert.write_text(certs[pair])
        proc = subprocess.run([str(CHECK), str(cert)], capture_output=True, text=True,
                              timeout=WAIT_S)
        if proc.returncode != 0:
            log(f"perfbench: presat_check rejected pair {pair}: {proc.stderr.strip()}")
            failed += 1
    return failed


def latency_metrics(records):
    """Each request's median over the rounds (a request is a pair's first, or
    n-th repeat, request): all, cache-hit and cache-miss latencies in
    milliseconds, a request counting as hit or miss as most rounds answered
    it. Unlike the harness's fastest repeat this keeps the waiting on other
    clients' requests, which is part of the workload."""
    rounds = {}
    for _, request, _, latency, raw in records:
        rounds.setdefault(request, []).append((latency, '"cache":"hit"' in raw,
                                               '"cache":"miss"' in raw))
    lat, hits, misses = [], [], []
    for samples in rounds.values():
        ms = 1e3 * statistics.median(s[0] for s in samples)
        lat.append(ms)
        if 2 * sum(s[1] for s in samples) > len(samples):
            hits.append(ms)
        elif 2 * sum(s[2] for s in samples) > len(samples):
            misses.append(ms)
    return lat, hits, misses


def run_serve(args):
    def setup():
        info = run_harness("serve-pool", args, ["--setup-only"])
        Daemon().close()
        return info

    setup_s, info, setup_reference = timed_setup(setup)
    pool = run_harness("serve-pool", args)
    # The digest covers the pool and the first round's schedule; later rounds
    # draw theirs from the same seeded stream.
    schedule = serve_schedule(len(pool["pairs"]), random.Random(args.seed))
    digest = hashlib.sha256((pool["digest"] + json.dumps(schedule)).encode()).hexdigest()[:16]
    rng = random.Random(args.seed)
    work_dir = BUILD_DIR / "serve"
    work_dir.mkdir(parents=True, exist_ok=True)

    # A fixed number of rounds, so every build takes each request's median
    # round over the same count; a traced run splits them in half.
    rounds = passes(args)
    if args.trace:
        rounds = max(1, rounds // 2)
    records, wall, rss = run_serve_rounds(pool, rng, rounds, None)
    stats, traced_records = [], []
    if args.trace:
        traced_records, _, _ = run_serve_rounds(pool, rng, rounds, stats)

    failed = check_serve(pool, records + traced_records, args, work_dir)
    lat, hits, misses = latency_metrics(records)
    # Cover size per distinct pair, from the first round (every pair is in it),
    # as a geometric mean: every pair counts alike, where a plain mean would
    # follow the few largest covers the seed drew.
    cubes = {}
    for rnd, (pair, _), _, _, raw in records:
        r = serve_answer(raw) if rnd == 0 and pair not in cubes else None
        if r is not None:
            cubes[pair] = max(1, len(r["cubes"]))
    metrics = {
        "setup_s": setup_s,
        "query_ms.p50": quantile(lat, 0.5),
        "query_ms.p90": quantile(lat, 0.9),
        "queries_per_s": len(records) / wall,
        "query_ms.samples": len(lat),
        "cubes_per_query": statistics.geometric_mean(cubes.values()) if cubes else 0.0,
        "peak_rss_mb": rss,
        "hit_ms.p50": quantile(hits, 0.5),
        "miss_ms.p50": quantile(misses, 0.5),
        "gen.build_ms": info["gen_ms"],
    }
    # Not scaled to the reference speed: the kernel cannot run inside the
    # daemon's rounds, and its runs around them did not follow how fast the
    # daemon's workers and the client ran (scaling widened the spread).
    metrics["host.reference_ms"] = statistics.median(setup_reference)
    if args.trace:
        metrics.update(serve_layer_metrics(traced_records, stats[-1], lat,
                                           trace_path("serve-mixed", args)))
        replay = run_harness("serve-replay", args,
                             ["--trace-out", str(trace_path("serve-replay", args))])
        failed += int(replay["failed"])
        metrics.update(replay["metrics"])
    return {"digest": digest, "attempted": len(records) + len(traced_records),
            "failed": failed, "metrics": metrics}


def serve_layer_metrics(records, stats, untraced_lat, path):
    """serve.* figures from the traced rounds: the daemon's own counters from
    its stats op (taken at the end of the last round), per-response engine
    time, and one client span per request."""
    counters, hist = stats.get("counters", {}), stats.get("histograms", {})
    lat, hits, misses = latency_metrics(records)
    engine = [1e3 * json.loads(raw)["seconds"] for *_, raw in records if '"cache":"miss"' in raw]
    lookups = sum(counters.get(f"serve.cache.{k}", 0) for k in ("hits", "misses", "dedups"))
    request_us = hist.get("serve.request_us", {})
    last_round = [1e3 * r[3] for r in records if r[0] == records[-1][0]]
    events = []
    for rnd, (pair, occurrence), t0, latency, raw in records:
        rid = f"r{rnd}.pair{pair}.{occurrence}"
        events.append({"name": "request", "ph": "X", "pid": 1, "tid": 1, "ts": t0 * 1e6,
                       "dur": latency * 1e6, "args": {"query": rid}})
        seconds = json.loads(raw).get("seconds", 0.0)
        if seconds > 0:
            # The engine's own time, laid at the end of the request.
            events.append({"name": "serve.engine", "ph": "X", "pid": 1, "tid": 1,
                           "ts": (t0 + latency - seconds) * 1e6, "dur": seconds * 1e6,
                           "args": {"query": rid}})
    path.write_text(json.dumps({"displayTimeUnit": "ms", "traceEvents": events}))
    return {
        "serve.queue_us": hist.get("serve.queue_us", {}).get("mean", 0.0),
        "serve.request_us": request_us.get("mean", 0.0),
        "serve.engine_ms": statistics.mean(engine) if engine else 0.0,
        "serve.overhead_ms": statistics.mean(last_round) - request_us.get("mean", 0.0) / 1e3,
        "serve.cache.hit_ratio": counters.get("serve.cache.hits", 0) / lookups if lookups else 0.0,
        "serve.cache.dedups": counters.get("serve.cache.dedups", 0),
        "serve.context.reuses": counters.get("serve.context.reuses", 0),
        "serve.rejects.overload": counters.get("serve.rejects.overload", 0),
        "serve.response_bytes": statistics.mean(len(r[4]) for r in records),
        "serve.hit_ms.p50": quantile(hits, 0.5),
        "serve.miss_ms.p50": quantile(misses, 0.5),
        "trace.overhead_ms": quantile(lat, 0.5) - quantile(untraced_lat, 0.5),
        "trace.span_coverage": request_us.get("sum", 0) / 1e3 / sum(last_round),
    }


# --- output -----------------------------------------------------------------

def run_one(args):
    """Runs args.workload; prints its table and returns its result object."""
    if args.workload == "serve-mixed":
        res = run_serve(args)
    else:
        res = run_query_workload(args.workload, args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = res["metrics"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    attempted = max(1, res["attempted"])
    print(f"workload {args.workload}  seed {args.seed}  inputs {res['digest']}  "
          f"trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")
    for name in ("query_ms.samples", "hit_ms.p50", "miss_ms.p50", "host.reference_ms"):
        if name in measured and not args.trace:
            print(f"  {name:28s} {float(measured[name]):14.4f}")
    print(f"  {'failed_frac':28s} {res['failed'] / attempted:14.4f} "
          f"({res['failed']} of {attempted})")
    return {"correct": res["failed"] == 0, "attempted": attempted,
            "failed": res["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="draws the circuits, targets, query order and serve schedule")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="sets the number of passes over the pool (one per 15 s)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny pools, for the smoke test")
    ap.add_argument("--corrupt", action="store_true",
                    help="falsify one answer before checking (the gate must fail)")
    args = ap.parse_args()
    try:
        build()
        if args.workload != "all":
            result = run_one(args)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        # Every workload in turn (each already runs in fresh processes); the
        # last line maps each workload to its result object.
        summary = {}
        for w in WORKLOADS:
            args.workload = w
            summary[w] = run_one(args)
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in summary.values()) else 1
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
