#!/usr/bin/env python3
"""Checks that presat_serve answers cache hits on known sources without
building a circuit context.

    serve_context_builds.py PRESAT_SERVE RAND16X240_BENCH

Pipes NDJSON into one presat_serve with a single context slot: the .bench
circuit inline with target 01101xxxxxxxxxxx, then gen counter:6, then both
again, each sent once the previous answer is back, then a stats op. The two
repeats must answer "cache":"hit" with the first answers' cubes, and
serve.context.builds must be 2: the repeats parsed nothing, although the
slot held the other circuit. Exits 0 on success, 1 with the reason on
stderr.
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
    proc = subprocess.Popen([serve, "--no-banner", "--max-contexts", "1"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(req):
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            sys.exit(f"presat_serve exited before answering {req['id']}")
        return json.loads(line)

    answers = {req["id"]: ask(req) for req in first + repeats}
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
    builds = stats.get("metrics", {}).get("counters", {}).get("serve.context.builds")
    if builds != 2:
        failures.append(f"serve.context.builds is {builds}, expected 2")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
