#!/usr/bin/env python3
"""Checks that presat_serve builds a circuit context once per engine run and
never for a cache hit.

    serve_context_builds.py PRESAT_SERVE RAND16X240_BENCH

Pipes NDJSON into one presat_serve: the .bench circuit inline with target
01101xxxxxxxxxxx, then gen counter:6, then both again, then the .bench
circuit with a new target and the first .bench request with "cache": false,
each sent once the previous answer is back, then a stats op. The two
repeats must answer "cache":"hit" with the first answers' cubes, the new
target "miss", the uncached repeat "off" with the first answer's cubes, and
serve.context.builds must be 4: one per engine run, none for a hit or an
identity lookup. Exits 0 on success, 1 with the reason on stderr.
"""

import json
import subprocess
import sys


def main():
    serve, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = f.read()
    first = [
        {"id": "bench", "op": "preimage", "bench": bench, "target": "01101xxxxxxxxxxx"},
        {"id": "gen", "op": "preimage", "gen": "counter:6", "target": "1xx0x1"},
    ]
    repeats = [dict(req, id=req["id"] + "-again") for req in first]
    engine_runs = [
        dict(first[0], id="bench-new-target", target="10010xxxxxxxxxxx"),
        dict(first[0], id="bench-uncached", cache=False),
    ]
    proc = subprocess.Popen([serve, "--no-banner"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(req):
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            sys.exit(f"presat_serve exited before answering {req['id']}")
        return json.loads(line)

    answers = {req["id"]: ask(req) for req in first + repeats + engine_runs}
    stats = ask({"id": "stats", "op": "stats"})
    proc.stdin.close()
    proc.wait(timeout=60)

    failures = []
    for req in first:
        a, b = answers[req["id"]], answers[req["id"] + "-again"]
        if a.get("status") != "ok" or a.get("cache") != "miss":
            failures.append(f"{req['id']}: expected a cold answer, got {a}")
        if b.get("cache") != "hit":
            failures.append(f"{req['id']}-again: cache is {b.get('cache')!r}, expected 'hit'")
        if b.get("cubes") != a.get("cubes"):
            failures.append(f"{req['id']}-again: cubes differ from the first answer")
    for req_id, disposition in (("bench-new-target", "miss"), ("bench-uncached", "off")):
        answer = answers[req_id]
        if answer.get("status") != "ok" or answer.get("cache") != disposition:
            failures.append(f"{req_id}: expected cache {disposition!r}, got {answer}")
    if answers["bench-uncached"].get("cubes") != answers["bench"].get("cubes"):
        failures.append("bench-uncached: cubes differ from the first answer")
    builds = stats.get("metrics", {}).get("counters", {}).get("serve.context.builds")
    if builds != 4:
        failures.append(f"serve.context.builds is {builds}, expected 4")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
