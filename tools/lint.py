#!/usr/bin/env python3
"""Repo-rule linter for presat — the cheap regex tier of the static-analysis
stack (tier 1 of three; see DESIGN.md "Static analysis"). Rules that need
scope or type context live in tools/presat_analyze.py, which reports through
the same finding schema (shared via this module's Finding/render helpers).

Rules (each has a stable id used in the report):

  naked-assert      no `assert(...)` outside src/base/check.hpp; use
                    PRESAT_CHECK / PRESAT_DCHECK so failures report through
                    the common abort path (and stay on in release builds
                    where intended)
  iostream-in-src   no `#include <iostream>` under src/ — the library must
                    not touch global streams (tools/ and tests/ may)
  pragma-once       every header starts its preprocessor life with
                    `#pragma once`
  using-namespace   no top-level `using namespace` in headers (injects into
                    every includer)
  narrowing-size    no `int x = expr.size()`-style narrowing in headers
                    without an explicit static_cast
  detached-thread   no `.detach()` anywhere — a detached thread outlives
                    the ServicePool's stop() join, so it can touch
                    stack-local state after its owner returned; governed
                    cancellation (CancelToken + Governor::tripped) is the
                    supported way to abandon work

Usage: tools/lint.py [--format text|json] [paths...]
       (paths default to src tools tests; tests/analyze/fixtures is skipped
        unless named explicitly — the fixtures are intentionally bad inputs
        for the analyzer tests)
Exit status: 0 clean, 1 findings, 2 usage/IO error.

JSON format (shared with presat_analyze.py):
  { "tool": "lint", "schema": "presat-analysis-v1", "files": N,
    "findings": [ { "rule": ..., "file": ..., "line": N, "message": ... } ] }
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

HEADER_SUFFIXES = {".hpp", ".h"}
SOURCE_SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}

# Intentionally-bad analyzer test inputs; only linted when named explicitly.
FIXTURE_DIR = "tests/analyze/fixtures"

# assert( not preceded by an identifier character (excludes static_assert,
# PRESAT_CHECK's own mention in comments is filtered by the string/comment
# stripper below).
NAKED_ASSERT = re.compile(r"(?<![\w_])assert\s*\(")
IOSTREAM = re.compile(r'#\s*include\s*<iostream>')
USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\s+\w")
# `int x = <expr>.size()` (or .count()) with no cast in between.
NARROWING_SIZE = re.compile(
    r"\bint\s+\w+\s*=\s*[^;=]*\.\s*(?:size|count)\s*\(\s*\)\s*;")
STATIC_CAST = re.compile(r"static_cast\s*<")
DETACH = re.compile(r"\.\s*detach\s*\(\s*\)")


@dataclass
class Finding:
    """One analyzer/linter diagnostic — the schema both tiers report through."""
    rule: str
    file: str   # repo-relative posix path
    line: int   # 1-based
    message: str

    def text(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "message": self.message}


def render_text(tool: str, files: int, findings: list[Finding]) -> str:
    lines = [f.text() for f in findings]
    lines.append(f"{tool}: {files} files, {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(tool: str, files: int, findings: list[Finding]) -> str:
    return json.dumps(
        {"tool": tool, "schema": "presat-analysis-v1", "files": files,
         "findings": [f.as_dict() for f in findings]},
        indent=2)


def emit(tool: str, files: int, findings: list[Finding], fmt: str) -> int:
    """Prints the report in `fmt` and returns the process exit status."""
    render = render_json if fmt == "json" else render_text
    print(render(tool, files, findings))
    return 1 if findings else 0


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out comments (and, unless keep_strings, string/char literals),
    preserving line structure. presat_analyze.py uses keep_strings=True so it
    can read metrics key literals from the same sanitized view."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j] if keep_strings else " " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lint_file(path: Path, findings: list[Finding]) -> None:
    rel = path.relative_to(REPO_ROOT).as_posix()
    raw = path.read_text(encoding="utf-8")
    code = strip_comments_and_strings(raw)
    lines = code.splitlines()
    is_header = path.suffix in HEADER_SUFFIXES
    in_src = rel.startswith("src/")

    def report(rule: str, lineno: int, message: str) -> None:
        findings.append(Finding(rule, rel, lineno, message))

    if rel != "src/base/check.hpp":
        for lineno, line in enumerate(lines, 1):
            if NAKED_ASSERT.search(line):
                report("naked-assert", lineno,
                       "use PRESAT_CHECK / PRESAT_DCHECK instead of assert()")

    for lineno, line in enumerate(lines, 1):
        if DETACH.search(line):
            report("detached-thread", lineno,
                   "no .detach(): detached threads outlive the join barrier; "
                   "use CancelToken/Governor for cooperative abandonment")

    if in_src:
        for lineno, line in enumerate(lines, 1):
            if IOSTREAM.search(line):
                report("iostream-in-src", lineno,
                       "the library must not include <iostream>")

    if is_header:
        first_directive = next(
            (line.strip() for line in lines if line.strip().startswith("#")), "")
        if first_directive != "#pragma once":
            report("pragma-once", 1,
                   "header's first preprocessor directive must be #pragma once")

        for lineno, line in enumerate(lines, 1):
            if USING_NAMESPACE.search(line):
                report("using-namespace", lineno,
                       "no top-level `using namespace` in headers")
            if NARROWING_SIZE.search(line) and not STATIC_CAST.search(line):
                report("narrowing-size", lineno,
                       "narrowing size_t -> int in a header needs an explicit static_cast")


def collect_files(roots: list[Path], skip_fixtures: bool) -> list[Path] | None:
    files: list[Path] = []
    for root in roots:
        # A root pointed INTO the fixture dir is an explicit request to lint
        # fixtures (the analyzer's own tests do this).
        root_in_fixtures = FIXTURE_DIR in root.resolve().as_posix()
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            for p in sorted(root.rglob("*")):
                if p.suffix not in SOURCE_SUFFIXES:
                    continue
                rel = p.relative_to(REPO_ROOT).as_posix()
                if skip_fixtures and not root_in_fixtures and rel.startswith(FIXTURE_DIR):
                    continue
                files.append(p)
        else:
            print(f"lint.py: no such path: {root}", file=sys.stderr)
            return None
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="lint.py", add_help=True)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("paths", nargs="*", default=["src", "tools", "tests"])
    args = parser.parse_args(argv)

    roots = [REPO_ROOT / p if not Path(p).is_absolute() else Path(p)
             for p in args.paths]
    # Fixtures are skipped only during directory walks; naming one directly
    # (the analyzer's own tests do) still lints it.
    files = collect_files(roots, skip_fixtures=True)
    if files is None:
        return 2

    findings: list[Finding] = []
    for path in files:
        lint_file(path, findings)
    return emit("lint", len(files), findings, args.format)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
