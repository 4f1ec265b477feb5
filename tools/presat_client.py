#!/usr/bin/env python3
"""Reference client + load driver for presat_serve (DESIGN.md "Service layer").

presat_serve speaks newline-delimited JSON over stdin/stdout with client-chosen
request ids and out-of-order responses; this module is both the canonical
client implementation (class ServeClient) and the soak harness the CI serve
lane runs:

  * spawns one daemon and multiplexes N concurrent client threads over its
    single pipe (mixed interactive/batch budget classes);
  * drives a deterministic, seeded workload across the generator suite with a
    guaranteed fraction of repeated (circuit, target) pairs so the cross-query
    cache is actually exercised;
  * validates EVERY response against a BDD oracle computed by a second,
    clean, cache-disabled daemon: complete answers must match the oracle
    exactly (set equality + count), partial answers must be a sound subset;
  * optionally (--compare-cache) replays the same schedule against a
    cache-disabled daemon and reports the median-latency ratio between
    cache-hit answers and their cold equivalents;
  * emits a machine-checkable soak report (tools/check_json.py soak).

Fault-injection soak: --fault-site/--fault-after/--fault-seed arm the
system-under-test daemon via the PRESAT_FAULT_* environment (PRESAT_FAULTS
builds only); the oracle daemon always runs clean, so a fault-degraded partial
is still validated against the true answer.

Usage (from a build tree):
  python3 tools/presat_client.py --server build/src/presat_serve \\
      --requests 100 --clients 8 --compare-cache --report SOAK.json
Exit status: 0 when the soak is clean, 1 otherwise (reasons on stderr).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time


class ServeClient:
    """One presat_serve process plus the id-multiplexing machinery.

    Thread-safe: any number of threads may call request() concurrently; a
    single reader thread routes response lines to waiters by id. The daemon
    answers out of order, which is the whole point.
    """

    def __init__(self, argv, env=None, banner=True):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True, bufsize=1)
        self._write_lock = threading.Lock()
        self._route_lock = threading.Lock()
        self._waiters = {}      # id -> [event, response]
        self._seq = itertools.count()
        self.banner = None
        self.bad_lines = []     # responses that were not valid JSON
        # Created before the reader starts, so a banner it reads at once is
        # never lost.
        self._banner_event = threading.Event()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        if banner:
            if not self._banner_event.wait(timeout=10):
                raise RuntimeError("presat_serve emitted no banner within 10s")

    def _read_loop(self):
        for line in self.proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                self.bad_lines.append(line)
                continue
            if msg.get("status") == "hello" and "id" not in msg:
                self.banner = msg
                self._banner_event.set()
                continue
            rid = msg.get("id", "")
            with self._route_lock:
                waiter = self._waiters.pop(rid, None)
            if waiter is not None:
                waiter[1] = msg
                waiter[0].set()

    def request(self, fields, timeout=120.0):
        """Sends one request object, blocks for its response. Returns the
        parsed response dict, or raises on timeout / dead server."""
        req = dict(fields)
        req.setdefault("id", "q%d" % next(self._seq))
        waiter = [threading.Event(), None]
        with self._route_lock:
            self._waiters[req["id"]] = waiter
        with self._write_lock:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        if not waiter[0].wait(timeout=timeout):
            with self._route_lock:
                self._waiters.pop(req["id"], None)
            raise RuntimeError("timeout waiting for response to %r" % req["id"])
        return waiter[1]

    def close(self):
        """Clean shutdown: drain via the shutdown op, then reap."""
        try:
            self.request({"op": "shutdown"}, timeout=120.0)
        except (RuntimeError, BrokenPipeError, ValueError):
            pass
        try:
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        return self.proc.wait(timeout=60)


# --- oracle ------------------------------------------------------------------

# Cube text is LSB-first over the state bits; expansion is tractable for the
# soak widths (<= 12 state bits).
MAX_ORACLE_WIDTH = 14


def expand_cubes(cubes):
    """Expands a list of 0/1/x cube strings to the set of covered minterms."""
    out = set()
    for cube in cubes:
        free = [i for i, c in enumerate(cube) if c in "xX-"]
        if len(free) > 20:
            raise ValueError("cube with %d free bits is too wide to expand" % len(free))
        base = list(cube)
        for bits in range(1 << len(free)):
            for j, pos in enumerate(free):
                base[pos] = "1" if (bits >> j) & 1 else "0"
            out.add("".join(base))
    return out


class Oracle:
    """Lazily computes the exact preimage (as a minterm set) per unique
    (spec, target) pair through a clean, cache-disabled daemon's BDD engine."""

    def __init__(self, client):
        self.client = client
        self._lock = threading.Lock()
        self._memo = {}

    def states(self, spec, target):
        key = (spec, target)
        with self._lock:
            if key in self._memo:
                return self._memo[key]
        resp = self.client.request(
            {"op": "preimage", "gen": spec, "target": target, "method": "bdd",
             "cache": False, "class": "batch"})
        if resp.get("status") != "ok" or not resp.get("complete"):
            raise RuntimeError("oracle run failed for %s %s: %s" % (spec, target, resp))
        states = frozenset(expand_cubes(resp["cubes"]))
        if int(resp["count"]) != len(states):
            raise RuntimeError("oracle count mismatch for %s %s" % (spec, target))
        with self._lock:
            self._memo[key] = states
        return states


def check_sound(resp, oracle_states):
    """Returns (ok, reason). Complete answers must equal the oracle exactly;
    partial answers must be a sound subset with an exact count."""
    got = expand_cubes(resp["cubes"])
    if int(resp["count"]) != len(got):
        return False, "count %s != %d expanded minterms" % (resp["count"], len(got))
    if resp.get("complete"):
        if got != oracle_states:
            return False, ("complete answer has %d states, oracle has %d"
                           % (len(got), len(oracle_states)))
    elif not got <= oracle_states:
        return False, "%d states outside the oracle set" % len(got - oracle_states)
    return True, ""


# --- workload ----------------------------------------------------------------

# Widths the client can derive from the spec itself; the remaining generators
# (arbiter/traffic/lock) are probed (see probe_width).
SPEC_WIDTH_RE = re.compile(r"^(counter|gray|lfsr|shift|accum):(\d+)$")
PROBE_WIDTH_RE = re.compile(r"circuit has (\d+) state bits")

LIGHT_METHODS = ["success-driven", "minterm-blocking", "cube-blocking-lifted",
                 "chrono", "bdd"]

# The heavy pairs anchor the cache-latency comparison: cold minterm
# enumeration over ~2-4k states costs real engine time, a cache hit does not.
HEAVY_PAIRS = [
    ("gray:12", "x" * 12, "minterm-blocking"),
    ("counter:12", "x" * 12, "minterm-blocking"),
    ("gray:11", "x" * 11, "minterm-blocking"),
]


def probe_width(client, spec, widths):
    """State-bit count for `spec`, learned from the daemon itself."""
    if spec in widths:
        return widths[spec]
    m = SPEC_WIDTH_RE.match(spec)
    if m:
        widths[spec] = int(m.group(2))
        return widths[spec]
    resp = client.request({"op": "preimage", "gen": spec, "target": "x",
                           "cache": False})
    if resp.get("status") == "ok":
        width = int(resp["width"])
    else:
        m = PROBE_WIDTH_RE.search(resp.get("error", {}).get("message", ""))
        if not m:
            raise RuntimeError("cannot learn width of %r: %s" % (spec, resp))
        width = int(m.group(1))
    widths[spec] = width
    return width


def random_target(rng, width):
    if rng.random() < 0.3:
        return "x" * width
    return "".join(rng.choice("01xx") for _ in range(width))


def build_schedule(rng, n, client, widths):
    """Deterministic soak schedule: ~40% heavy requests over the (few) heavy
    pairs — guaranteeing the >= 30% repeated-pair floor — and ~60% light
    requests across the full generator suite with mixed engines/budgets."""
    light_specs = ["counter:4", "counter:6", "gray:4", "gray:5", "lfsr:4",
                   "lfsr:5", "shift:4", "shift:5", "accum:3", "accum:4",
                   "arbiter:3", "traffic", "lock"]
    light_pool = []
    for spec in light_specs:
        width = probe_width(client, spec, widths)
        for _ in range(2):
            light_pool.append((spec, random_target(rng, width),
                               rng.choice(LIGHT_METHODS)))
    schedule = []
    for i in range(n):
        if rng.random() < 0.4:
            spec, target, method = HEAVY_PAIRS[rng.randrange(len(HEAVY_PAIRS))]
            req = {"op": "preimage", "gen": spec, "target": target,
                   "method": method, "class": "batch",
                   "timeout_ms": 60000}
        else:
            spec, target, method = light_pool[rng.randrange(len(light_pool))]
            req = {"op": "preimage", "gen": spec, "target": target,
                   "method": method, "class": "interactive",
                   "timeout_ms": 2000}
        req["id"] = "s%04d" % i
        schedule.append(req)
    return schedule


# --- soak --------------------------------------------------------------------

class SoakState:
    def __init__(self):
        self.lock = threading.Lock()
        self.latencies_ms = []          # (schedule index, ms, cache disposition)
        self.outcomes = {}
        self.cache = {"hit": 0, "miss": 0, "dedup": 0, "off": 0}
        self.protocol_errors = []
        self.unsound = []
        self.overload_retries = 0


# Overload backoff: capped exponential with full jitter. "overloaded" means
# the daemon's admission queue (or memory gate) is full RIGHT NOW — a fixed
# linear pause makes every rejected client retry in lockstep and re-collide;
# doubling the window and sampling uniformly inside it spreads the retry wave.
RETRY_BASE_S = 0.05
RETRY_CAP_S = 1.0
RETRY_LIMIT = 5


def backoff_delay(retry, rng=random):
    """Uniform sample from (0, min(cap, base * 2^retry)]."""
    window = min(RETRY_CAP_S, RETRY_BASE_S * (1 << retry))
    return rng.uniform(window * 0.1, window)


def run_one(client, oracle, req, index, state):
    attempt = dict(req)
    for retry in range(RETRY_LIMIT):
        start = time.monotonic()
        resp = client.request(attempt)
        ms = (time.monotonic() - start) * 1e3
        if resp.get("status") == "error" and resp["error"].get("code") == "overloaded":
            with state.lock:
                state.overload_retries += 1
            time.sleep(backoff_delay(retry))
            attempt = dict(attempt, id=attempt["id"] + ".r%d" % retry)
            continue
        break
    if resp.get("status") != "ok":
        with state.lock:
            state.protocol_errors.append({"request": req["id"], "response": resp})
        return
    oracle_states = oracle.states(req["gen"], req["target"])
    ok, reason = check_sound(resp, oracle_states)
    with state.lock:
        state.latencies_ms.append((index, ms, resp.get("cache", "off")))
        state.outcomes[resp["outcome"]] = state.outcomes.get(resp["outcome"], 0) + 1
        state.cache[resp.get("cache", "off")] = state.cache.get(resp.get("cache", "off"), 0) + 1
        if not ok:
            state.unsound.append({"request": req["id"], "reason": reason})


def run_schedule(client, oracle, schedule, clients):
    state = SoakState()
    queue = list(enumerate(schedule))
    qlock = threading.Lock()

    def worker():
        while True:
            with qlock:
                if not queue:
                    return
                index, req = queue.pop(0)
            try:
                run_one(client, oracle, req, index, state)
            except (RuntimeError, KeyError, ValueError) as e:
                with state.lock:
                    state.protocol_errors.append(
                        {"request": req.get("id", "?"), "response": str(e)})

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return state


def median_or_none(values):
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--server", required=True, help="path to presat_serve")
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=4,
                        help="daemon engine workers (--workers)")
    parser.add_argument("--compare-cache", action="store_true",
                        help="replay the schedule against a cache-disabled "
                             "daemon and report the hit/cold latency ratio")
    parser.add_argument("--fault-site", help="PRESAT_FAULT_SITE for the "
                        "system-under-test daemon (PRESAT_FAULTS builds)")
    parser.add_argument("--fault-after", help="PRESAT_FAULT_AFTER")
    parser.add_argument("--fault-seed", help="PRESAT_FAULT_SEED")
    parser.add_argument("--report", help="write the soak report JSON here")
    args = parser.parse_args()

    sut_env = dict(os.environ)
    for key in ("PRESAT_FAULT_SITE", "PRESAT_FAULT_AFTER", "PRESAT_FAULT_SEED"):
        sut_env.pop(key, None)
    faulted = False
    if args.fault_site:
        sut_env["PRESAT_FAULT_SITE"] = args.fault_site
        faulted = True
        if args.fault_after:
            sut_env["PRESAT_FAULT_AFTER"] = args.fault_after
        if args.fault_seed:
            sut_env["PRESAT_FAULT_SEED"] = args.fault_seed
    clean_env = dict(os.environ)
    for key in ("PRESAT_FAULT_SITE", "PRESAT_FAULT_AFTER", "PRESAT_FAULT_SEED"):
        clean_env.pop(key, None)

    server_argv = [args.server, "--workers", str(args.workers)]
    sut = ServeClient(server_argv, env=sut_env)
    oracle_client = ServeClient([args.server, "--no-cache", "--workers", "2"],
                                env=clean_env)
    oracle = Oracle(oracle_client)

    rng = random.Random(args.seed)
    widths = {}
    schedule = build_schedule(rng, args.requests, oracle_client, widths)
    unique_pairs = len({(r["gen"], r["target"]) for r in schedule})
    repeat_fraction = 1.0 - unique_pairs / len(schedule)

    print("presat_client: soak of %d requests over %d clients (%d unique "
          "circuit/target pairs, repeat fraction %.2f)%s"
          % (len(schedule), args.clients, unique_pairs, repeat_fraction,
             " [faults: %s]" % args.fault_site if faulted else ""))
    t0 = time.monotonic()
    state = run_schedule(sut, oracle, schedule, args.clients)
    soak_seconds = time.monotonic() - t0

    stats_resp = sut.request({"op": "stats"})
    report = {
        "schema": "presat-soak-v1",
        "seed": args.seed,
        "requests": len(schedule),
        "clients": args.clients,
        "unique_pairs": unique_pairs,
        "repeat_fraction": round(repeat_fraction, 4),
        "fault_site": args.fault_site or None,
        "soak_seconds": round(soak_seconds, 3),
        "protocol_errors": len(state.protocol_errors) + len(sut.bad_lines),
        "unsound": len(state.unsound),
        "overload_retries": state.overload_retries,
        "retries": state.overload_retries,
        "outcomes": state.outcomes,
        "cache": state.cache,
        "latency_ms": {
            "median": round(median_or_none([ms for _, ms, _ in state.latencies_ms]) or 0, 3),
            "median_hit": median_or_none(
                [ms for _, ms, d in state.latencies_ms if d == "hit"]),
            "median_miss": median_or_none(
                [ms for _, ms, d in state.latencies_ms if d == "miss"]),
        },
        "server_metrics": stats_resp.get("metrics", {}).get("counters", {}),
    }
    for detail, key in ((state.protocol_errors, "protocol_error_detail"),
                        (state.unsound, "unsound_detail")):
        if detail:
            report[key] = detail[:10]

    failures = []
    if report["protocol_errors"]:
        failures.append("%d protocol errors" % report["protocol_errors"])
    if report["unsound"]:
        failures.append("%d unsound responses" % report["unsound"])

    if args.compare_cache:
        # Replay the identical schedule — same client concurrency, same
        # request order — against a cache-disabled daemon, then compare the
        # positions that HIT in the cached run against their cold equivalents.
        cold = ServeClient([args.server, "--no-cache", "--workers",
                            str(args.workers)], env=clean_env)
        cold_state = run_schedule(cold, oracle, schedule, args.clients)
        cold.close()
        hit_positions = {i for i, _, d in state.latencies_ms if d == "hit"}
        hit_ms = [ms for i, ms, d in state.latencies_ms if d == "hit"]
        cold_ms = [ms for i, ms, _ in cold_state.latencies_ms if i in hit_positions]
        compare = {
            "hits": len(hit_ms),
            "median_hit_ms": round(median_or_none(hit_ms) or 0, 3),
            "median_cold_ms": round(median_or_none(cold_ms) or 0, 3),
        }
        if hit_ms and cold_ms and median_or_none(hit_ms) > 0:
            compare["speedup"] = round(
                median_or_none(cold_ms) / median_or_none(hit_ms), 2)
        report["cache_compare"] = compare
        if cold_state.protocol_errors or cold_state.unsound or cold.bad_lines:
            failures.append("cache-disabled replay was not clean")
        if not hit_ms:
            failures.append("no cache hits to compare")

    code = sut.close()
    oracle_client.close()
    if code != 0:
        failures.append("presat_serve exited %d" % code)
    report["clean"] = not failures

    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if failures:
        print("presat_client: FAIL: " + "; ".join(failures), file=sys.stderr)
        sys.exit(1)
    print("presat_client: OK")


if __name__ == "__main__":
    main()
