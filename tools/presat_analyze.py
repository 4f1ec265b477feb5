#!/usr/bin/env python3
"""presat_analyze — semantic repo analyzer, tier 3 of the static-analysis
stack (tier 1: tools/lint.py regex rules, tier 2: clang-tidy, tier 3: clang
-Wthread-safety + this tool; see DESIGN.md "Static analysis").

The analyzer is driven by the build's compile_commands.json (so it sees
exactly the translation units the build graph compiles, plus the headers
under src/) and enforces the repo's concurrency and resource-discipline
protocol — rules that need scope and type context a regex tier cannot
express. It is deliberately dependency-free: a comment/string-aware C++
tokenizer with namespace/class/function scope tracking, rather than a
libclang binding whose wheel would be one more drifting toolchain input.

Rules (stable ids):

  sync-unguarded-member   a class that owns a Mutex must say, member by
                          member, what that mutex protects: every other data
                          member carries GUARDED_BY(...) or a waiver
  sync-unwaived-atomic    every std::atomic member or global carries
                          GUARDED_BY(...) or a `lockfree` waiver naming the
                          protocol that makes lock-freedom sound
  sync-raw-mutex          no raw std::mutex members in src/ — use the
                          CAPABILITY-annotated presat::Mutex (base/sync.hpp)
                          so clang's thread-safety analysis can see the lock
  raw-alloc               no naked new/delete/malloc/free in src/:
                          allocations must flow through governor-charged
                          paths (solver clause arena, BDD node pool, standard
                          containers) so MemoryLedger accounting stays sound
  raw-thread              no std::thread construction outside the
                          ServicePool (src/parallel/worker_pool.cpp) — every
                          thread must be one of the pool's workers, joined
                          by its stop()
  metrics-key-grammar     metrics key literals match the dotted-name grammar
                          [a-z][a-z0-9_]*(.[a-z0-9_]+)*
  metrics-kind-collision  a key keeps one kind (counter/gauge/histogram/
                          label) across the whole repo
  metrics-duplicate-key   the same key+kind registered twice inside one
                          function silently clobbers itself
  metrics-registry-drift  tools/metrics_registry.json (each literal key's
                          kind and registering files, no line numbers) no
                          longer matches the source (re-run with
                          --update-registry)

Waivers: `// presat-analyze: <rule-keyword>(<why>)` on the declaration line
or on the comment block immediately above it. Keywords: lockfree (sync
rules), raw-alloc, raw-thread. The <why> is mandatory prose — a waiver is a
documented invariant, not a suppression.

Usage:
  tools/presat_analyze.py --compile-commands build/compile_commands.json \
      [--registry tools/metrics_registry.json] [--format text|json]
  tools/presat_analyze.py --files f1.cpp f2.cpp ...   (all rules, any path —
      the fixture tests under tests/analyze/ use this mode)
  tools/presat_analyze.py --compile-commands ... --update-registry PATH

Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint import Finding, emit, strip_comments_and_strings  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}

# The one place allowed to construct std::thread: the pool behind which every
# other thread in the repo must sit.
THREAD_SPAWN_SITE = "src/parallel/worker_pool.cpp"

KEY_GRAMMAR = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
WAIVER = re.compile(r"//\s*presat-analyze:\s*([a-z-]+)\(")

METRIC_METHODS = {
    "inc": "counter",
    "setCounter": "counter",
    "setGauge": "gauge",
    "setLabel": "label",
    "histogram": "histogram",
}

ALLOC_CALLS = {"malloc", "calloc", "realloc", "free", "aligned_alloc",
               "posix_memalign", "strdup"}

# Annotation macros from base/thread_annotations.hpp whose trailing calls must
# be peeled off a declaration before deciding member-vs-function.
ANNOT_MACROS = {
    "CAPABILITY", "SCOPED_CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY",
    "ACQUIRED_BEFORE", "ACQUIRED_AFTER", "REQUIRES", "REQUIRES_SHARED",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "TRY_ACQUIRE",
    "EXCLUDES", "ASSERT_CAPABILITY", "RETURN_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS",
}

GUARD_MACROS = {"GUARDED_BY", "PT_GUARDED_BY"}

SKIP_STATEMENT_STARTERS = {
    "public", "private", "protected", "friend", "using", "typedef",
    "template", "static_assert", "operator", "virtual", "enum", "class",
    "struct", "union", "extern", "goto", "return", "if", "for", "while",
    "switch", "case", "default", "do", "else", "break", "continue",
}


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass
class Token:
    text: str
    line: int
    kind: str  # 'id' | 'num' | 'str' | 'punct'


TOKEN_RE = re.compile(
    r'''(?P<str>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')'''
    r"|(?P<id>[A-Za-z_]\w*)"
    r"|(?P<num>\.?\d[\w.]*(?:[eEpP][+-][\w.]*)*)"
    r"|(?P<punct>::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~=<>?:;,.(){}\[\]\\])"
)


def blank_preprocessor(text: str) -> str:
    """Blanks out preprocessor directives (with continuation lines),
    preserving line structure, so directive bodies don't confuse the
    statement walker."""
    out_lines = []
    cont = False
    for line in text.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out_lines.append("")
        else:
            cont = False
            out_lines.append(line)
    return "\n".join(out_lines)


def tokenize(code: str) -> list[Token]:
    tokens = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup or "punct"
        tokens.append(Token(m.group(), line, kind))
    return tokens


# ---------------------------------------------------------------------------
# Waiver extraction (runs on the RAW text — waivers are comments)


def extract_waivers(raw: str) -> dict[int, set[str]]:
    """Maps line number -> waiver keywords covering a declaration on that
    line. A waiver in a trailing comment covers its own line; a waiver in a
    standalone comment covers the first code line after the comment block."""
    lines = raw.split("\n")
    waivers: dict[int, set[str]] = {}

    def is_pure_comment_or_blank(s: str) -> bool:
        t = s.strip()
        return t == "" or t.startswith("//") or t.startswith("*") or t.startswith("/*")

    for i, text in enumerate(lines, 1):
        m = WAIVER.search(text)
        if not m:
            continue
        keyword = m.group(1)
        before = text[: m.start()]
        if before.strip() and not before.strip().startswith(("//", "*", "/*")):
            target = i  # trailing comment on a code line
        else:
            target = i + 1
            while target <= len(lines) and is_pure_comment_or_blank(lines[target - 1]):
                target += 1
        waivers.setdefault(target, set()).add(keyword)
    return waivers


# ---------------------------------------------------------------------------
# Scope walker


@dataclass
class Scope:
    kind: str  # 'file' | 'namespace' | 'class' | 'block' | 'enum'
    name: str
    sid: int
    statements: list[list[Token]] = field(default_factory=list)


@dataclass
class MetricSite:
    kind: str
    key: str  # None for dynamic keys
    file: str
    line: int
    func: int  # scope id of the innermost enclosing block, -1 at file scope


@dataclass
class FileReport:
    findings: list[Finding] = field(default_factory=list)
    metric_sites: list[MetricSite] = field(default_factory=list)
    dynamic_metric_sites: int = 0


def seq(tokens: list[Token], i: int, *texts: str) -> bool:
    if i + len(texts) > len(tokens):
        return False
    return all(tokens[i + k].text == t for k, t in enumerate(texts))


def class_name_from_header(stmt: list[Token]) -> str:
    """Extracts the class name from the statement tokens of a class header
    (`class CAPABILITY("mutex") Mutex final : public Base`)."""
    i = 0
    while i < len(stmt) and stmt[i].text not in ("class", "struct", "union"):
        i += 1
    i += 1
    while i < len(stmt):
        t = stmt[i]
        if t.kind == "id":
            if t.text in ANNOT_MACROS or (i + 1 < len(stmt) and stmt[i + 1].text == "(")\
                    or t.text == "alignas":
                # macro/attribute call: skip its balanced parens
                i += 1
                if i < len(stmt) and stmt[i].text == "(":
                    depth = 0
                    while i < len(stmt):
                        if stmt[i].text == "(":
                            depth += 1
                        elif stmt[i].text == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        i += 1
                    i += 1
                continue
            if t.text == "final":
                i += 1
                continue
            return t.text
        if t.text == ":":
            break
        i += 1
    return "<anon>"


def strip_trailing_annotations(stmt: list[Token]) -> list[Token]:
    """Peels trailing annotation-macro calls and init braces markers so the
    member-vs-function test can look at the real declarator tail."""
    out = list(stmt)
    while out:
        last = out[-1]
        if last.text == ")":
            # find the matching open paren and the identifier before it
            depth = 0
            j = len(out) - 1
            while j >= 0:
                if out[j].text == ")":
                    depth += 1
                elif out[j].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j > 0 and out[j - 1].text in ANNOT_MACROS:
                out = out[: j - 1]
                continue
        break
    return out


class Analyzer:
    def __init__(self, path: Path, rel: str, rules: set[str]):
        self.path = path
        self.rel = rel
        self.rules = rules
        self.report = FileReport()
        raw = path.read_text(encoding="utf-8")
        self.waivers = extract_waivers(raw)
        code = strip_comments_and_strings(raw, keep_strings=True)
        code = blank_preprocessor(code)
        self.tokens = tokenize(code)
        self.next_sid = 0

    # -- helpers

    def waived(self, line: int, keyword: str) -> bool:
        return keyword in self.waivers.get(line, set())

    def finding(self, rule: str, line: int, message: str) -> None:
        if rule.split("-")[0] in ("metrics",) and "metrics" not in self.rules:
            return
        self.report.findings.append(Finding(rule, self.rel, line, message))

    # -- main walk

    def run(self) -> FileReport:
        toks = self.tokens
        stack: list[Scope] = [Scope("file", "<file>", self._sid())]
        stmt: list[Token] = []
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            text = t.text

            # Point rules that don't need statement structure:
            if "alloc" in self.rules:
                i_advance = self._check_alloc(i)
                if i_advance:
                    i = i_advance
                    continue
            if "thread" in self.rules:
                self._check_thread(i)
            if "metrics" in self.rules or True:
                # metric sites always collected (registry); findings gated in
                # finding() by the rule set.
                self._check_metrics(i, stack)

            if text == ";":
                self._finish_statement(stack, stmt)
                stmt = []
            elif text == ":" and len(stmt) == 1 and stmt[0].text in (
                    "public", "private", "protected"):
                stmt = []
            elif text == "{":
                kind = self._classify_brace(stmt)
                if kind == "init":
                    # skip the balanced braces, keep the statement going
                    depth = 0
                    while i < n:
                        if toks[i].text == "{":
                            depth += 1
                        elif toks[i].text == "}":
                            depth -= 1
                            if depth == 0:
                                break
                        i += 1
                    stmt.append(Token("{}", t.line, "punct"))
                else:
                    name = class_name_from_header(stmt) if kind == "class" else ""
                    scope = Scope(kind, name, self._sid())
                    if kind == "class":
                        scope.statements = []
                        scope.header = list(stmt)  # type: ignore[attr-defined]
                    stack.append(scope)
                    stmt = []
            elif text == "}":
                if len(stack) > 1:
                    closed = stack.pop()
                    if closed.kind == "class":
                        self._eval_class(closed)
                stmt = []
            else:
                stmt.append(t)
            i += 1
        return self.report

    def _sid(self) -> int:
        self.next_sid += 1
        return self.next_sid

    def _classify_brace(self, stmt: list[Token]) -> str:
        if not stmt:
            return "block"
        first = stmt[0].text
        texts = [t.text for t in stmt]
        if first == "namespace":
            return "namespace"
        if "enum" in texts[:2]:
            return "enum"
        if first in ("if", "for", "while", "switch", "do", "else", "try"):
            return "block"
        if ("class" in texts or "struct" in texts or "union" in texts) \
                and texts[-1] != "=":
            return "class"
        last = stmt[-1].text
        if last in (")", "try", "const", "noexcept", "override", "mutable") \
                or last in ANNOT_MACROS:
            return "block"
        if last in ("=", ",", "(", "[", "return"):
            return "init"
        if stmt[-1].kind in ("id", "num") or last in (">", "]", "{}"):
            # `ident{...}` is brace-init unless the statement already looks
            # like a function signature (has a call-ish paren).
            return "init" if "(" not in texts else "block"
        return "block"

    # -- point rules

    def _check_alloc(self, i: int) -> int:
        """Returns the index to resume from if tokens were consumed, else 0."""
        toks = self.tokens
        t = toks[i]
        if t.text == "new":
            if not self.waived(t.line, "raw-alloc"):
                self.finding("raw-alloc", t.line,
                             "naked `new` bypasses governor-charged allocation "
                             "(use std containers / make_unique inside charged "
                             "arenas, or waive with raw-alloc(<why>))")
            return 0
        if t.text == "delete":
            prev = toks[i - 1].text if i > 0 else ""
            if prev in ("=", "operator"):
                return 0
            if not self.waived(t.line, "raw-alloc"):
                self.finding("raw-alloc", t.line,
                             "naked `delete` — paired raw allocation is "
                             "invisible to the MemoryLedger")
            return 0
        if t.kind == "id" and t.text in ALLOC_CALLS:
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if nxt == "(" and prev not in (".", "->"):
                if not self.waived(t.line, "raw-alloc"):
                    self.finding("raw-alloc", t.line,
                                 f"raw {t.text}() bypasses governor-charged "
                                 "allocation paths")
        return 0

    def _check_thread(self, i: int) -> None:
        toks = self.tokens
        if not (seq(toks, i, "std", "::", "thread") or seq(toks, i, "std", "::", "jthread")):
            return
        if self.rel == THREAD_SPAWN_SITE:
            return
        line = toks[i].line
        if not self.waived(line, "raw-thread"):
            self.finding("raw-thread", line,
                         "std::thread outside ServicePool — every thread must "
                         "be a pool worker joined by its stop() "
                         "(src/parallel/worker_pool.cpp)")

    def _check_metrics(self, i: int, stack: list[Scope]) -> None:
        toks = self.tokens
        t = toks[i]
        if t.kind != "id" or t.text not in METRIC_METHODS:
            return
        if i == 0 or toks[i - 1].text not in (".", "->"):
            return
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            return
        kind = METRIC_METHODS[t.text]
        # Attribute the site to the INNERMOST block: registrations in sibling
        # branches (switch cases, if/else arms) are mutually exclusive and
        # must not count as duplicates — only same-straight-line repeats do.
        func = -1
        for scope in reversed(stack):
            if scope.kind == "block":
                func = scope.sid
                break
        arg = toks[i + 2] if i + 2 < len(toks) else None
        if arg is not None and arg.kind == "str" and arg.text.startswith('"'):
            key = arg.text[1:-1]
            self.report.metric_sites.append(
                MetricSite(kind, key, self.rel, arg.line, func))
            if not KEY_GRAMMAR.match(key):
                self.finding("metrics-key-grammar", arg.line,
                             f'metrics key "{key}" must match '
                             "[a-z][a-z0-9_]*(.[a-z0-9_]+)*")
        else:
            self.report.dynamic_metric_sites += 1

    # -- class evaluation

    def _finish_statement(self, stack: list[Scope], stmt: list[Token]) -> None:
        if not stmt:
            return
        top = stack[-1]
        if top.kind == "class":
            top.statements.append(stmt)
        elif top.kind in ("file", "namespace") and "sync" in self.rules:
            self._eval_scope_statement(stmt, in_mutex_class=False,
                                       class_name=None)

    def _eval_class(self, scope: Scope) -> None:
        if "sync" not in self.rules:
            return
        # First pass: does this class own a mutex capability?
        has_mutex = False
        for stmt in scope.statements:
            if self._member_shape(stmt) and self._is_mutex_decl(stmt):
                has_mutex = True
                break
        for stmt in scope.statements:
            self._eval_scope_statement(stmt, in_mutex_class=has_mutex,
                                       class_name=scope.name)

    def _member_shape(self, stmt: list[Token]) -> bool:
        """True when the class/namespace-scope statement is a data
        declaration (not a function, label, using, etc.)."""
        if not stmt:
            return False
        first = stmt[0].text
        if first in SKIP_STATEMENT_STARTERS:
            return False
        texts = [t.text for t in stmt]
        if "constexpr" in texts or "operator" in texts:
            return False
        tail = strip_trailing_annotations(stmt)
        if not tail:
            return False
        last = tail[-1]
        if last.text in ("delete", "default"):
            return False
        # `...(...) const noexcept` etc. is a function declaration's
        # qualifier tail, not a data member named `const` — out-of-line const
        # methods of mutex-owning classes would otherwise all need bogus
        # waivers.
        k = len(tail)
        while k > 0 and tail[k - 1].text in ("const", "noexcept", "override", "final"):
            k -= 1
        if k < len(tail) and k > 0 and tail[k - 1].text == ")":
            return False
        if last.kind in ("id", "num") or last.text in ("]", "{}", ">"):
            return True
        return False

    def _is_mutex_decl(self, stmt: list[Token]) -> bool:
        texts = [t.text for t in stmt]
        for j in range(len(texts)):
            if seq(stmt, j, "std", "::", "mutex"):
                return True
            if texts[j] == "Mutex" and (j == 0 or texts[j - 1] != "class"):
                return True
        return False

    def _eval_scope_statement(self, stmt: list[Token], in_mutex_class: bool,
                              class_name: str | None) -> None:
        if not self._member_shape(stmt):
            return
        texts = [t.text for t in stmt]
        line = stmt[0].line
        has_guard = any(t in GUARD_MACROS for t in texts)
        member = next((t.text for t in reversed(strip_trailing_annotations(stmt))
                       if t.kind == "id"), "<member>")
        where = f"in class {class_name}" if class_name else "at namespace scope"

        is_std_mutex = any(seq(stmt, j, "std", "::", "mutex") for j in range(len(stmt)))
        is_atomic = any(seq(stmt, j, "std", "::", "atomic") or
                        (seq(stmt, j, "std", "::") and j + 2 < len(stmt) and
                         stmt[j + 2].text.startswith("atomic_"))
                        for j in range(len(stmt)))

        if is_std_mutex:
            if not self.waived(line, "lockfree"):
                self.finding("sync-raw-mutex", line,
                             f"raw std::mutex member `{member}` {where}: use "
                             "presat::Mutex (base/sync.hpp) so clang's "
                             "thread-safety analysis can see the lock")
            return
        if self._is_mutex_decl(stmt):
            return  # the annotated capability itself
        if is_atomic:
            if not has_guard and not self.waived(line, "lockfree"):
                self.finding("sync-unwaived-atomic", line,
                             f"std::atomic `{member}` {where} needs "
                             "GUARDED_BY(...) or a `// presat-analyze: "
                             "lockfree(<why>)` waiver documenting its "
                             "protocol")
            return
        if in_mutex_class and not has_guard and not self.waived(line, "lockfree"):
            self.finding("sync-unguarded-member", line,
                         f"member `{member}` {where} — the class owns a "
                         "mutex, so every member must say GUARDED_BY(...) "
                         "or carry a lockfree(<why>) waiver")


# ---------------------------------------------------------------------------
# Rule scoping and drivers


def rules_for(rel: str, explicit: bool) -> set[str]:
    rules: set[str] = set()
    if explicit or rel.startswith("src/"):
        rules |= {"sync", "alloc", "thread"}
    if explicit or rel.startswith(("src/", "tools/", "bench/")):
        rules.add("metrics")
    return rules


def relpath(p: Path) -> str:
    try:
        return p.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return p.as_posix()


def files_from_compile_commands(cc_path: Path) -> list[Path] | None:
    try:
        entries = json.loads(cc_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"presat_analyze: cannot read {cc_path}: {e}", file=sys.stderr)
        return None
    files = set()
    for entry in entries:
        f = Path(entry.get("directory", ".")) / entry["file"] \
            if not Path(entry["file"]).is_absolute() else Path(entry["file"])
        rel = relpath(f)
        if rel.startswith(("src/", "tools/", "bench/")) and f.suffix in SOURCE_SUFFIXES:
            files.add(f.resolve())
    # The compile database only lists TUs the build graph compiles; union in
    # every source under the governed trees so headers — and any file parked
    # outside the build — still face the rules.
    for tree in ("src", "tools", "bench"):
        for p in (REPO_ROOT / tree).rglob("*"):
            if p.suffix in SOURCE_SUFFIXES:
                files.add(p.resolve())
    return sorted(files)


def build_registry(sites: list[MetricSite], dynamic_sites: int) -> dict:
    """Kind and registering files per literal key. Line numbers stay out, so
    moving a site within its file leaves the registry unchanged; a new,
    renamed or removed key, a changed kind, or a site moving to another file
    changes it."""
    keys: dict[str, dict] = {}
    for s in sites:
        if s.key is None:
            continue
        entry = keys.setdefault(s.key, {"kind": s.kind, "files": []})
        if s.file not in entry["files"]:
            entry["files"].append(s.file)
    for entry in keys.values():
        entry["files"].sort()
    return {
        "schema": "presat-metrics-registry-v2",
        "dynamic_sites": dynamic_sites,
        "keys": {k: keys[k] for k in sorted(keys)},
    }


def check_metrics_cross_file(sites: list[MetricSite], findings: list[Finding]) -> None:
    by_key: dict[str, list[MetricSite]] = {}
    for s in sites:
        if s.key is not None:
            by_key.setdefault(s.key, []).append(s)
    for key, ss in sorted(by_key.items()):
        kinds = sorted({s.kind for s in ss})
        if len(kinds) > 1:
            for s in ss:
                findings.append(Finding(
                    "metrics-kind-collision", s.file, s.line,
                    f'key "{key}" is registered as {" and ".join(kinds)} — '
                    "one key, one kind, or the JSON schema splits it across "
                    "sections"))
        # duplicate registration inside one function
        per_func: dict[tuple, list[MetricSite]] = {}
        for s in ss:
            if s.func >= 0:
                per_func.setdefault((s.file, s.func, s.kind), []).append(s)
        for (file, _func, kind), group in sorted(per_func.items()):
            lines = sorted({s.line for s in group})
            if len(lines) > 1:
                findings.append(Finding(
                    "metrics-duplicate-key", file, lines[1],
                    f'key "{key}" ({kind}) registered {len(lines)} times in '
                    f"one function (lines {', '.join(map(str, lines))}) — "
                    "later registrations clobber earlier ones"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="presat_analyze.py")
    parser.add_argument("--compile-commands", type=Path,
                        help="compile_commands.json driving the file set")
    parser.add_argument("--files", nargs="+", type=Path,
                        help="explicit files (all rules enabled regardless of path)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--registry", type=Path,
                        help="checked-in metrics registry to verify against")
    parser.add_argument("--update-registry", type=Path,
                        help="write the computed metrics registry here and exit")
    args = parser.parse_args(argv)

    explicit = args.files is not None
    if explicit:
        files = [f.resolve() for f in args.files]
    elif args.compile_commands is not None:
        maybe = files_from_compile_commands(args.compile_commands)
        if maybe is None:
            return 2
        files = maybe
    else:
        parser.print_usage(sys.stderr)
        print("presat_analyze: need --compile-commands or --files", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    sites: list[MetricSite] = []
    dynamic_sites = 0
    for f in files:
        if not f.is_file():
            print(f"presat_analyze: no such file: {f}", file=sys.stderr)
            return 2
        rel = relpath(f)
        rules = rules_for(rel, explicit)
        if not rules:
            continue
        report = Analyzer(f, rel, rules).run()
        findings.extend(report.findings)
        if "metrics" in rules:
            sites.extend(report.metric_sites)
            dynamic_sites += report.dynamic_metric_sites

    check_metrics_cross_file(sites, findings)

    registry = build_registry(sites, dynamic_sites)
    if args.update_registry is not None:
        args.update_registry.write_text(json.dumps(registry, indent=2) + "\n",
                                        encoding="utf-8")
        print(f"presat_analyze: wrote {args.update_registry} "
              f"({len(registry['keys'])} keys)")
        return 0
    if args.registry is not None and not explicit:
        try:
            checked_in = json.loads(args.registry.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            checked_in = None
        if checked_in != registry:
            findings.append(Finding(
                "metrics-registry-drift", relpath(args.registry), 1,
                "metrics registry no longer matches the source — run "
                "tools/presat_analyze.py --compile-commands <db> "
                f"--update-registry {relpath(args.registry)}"))

    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return emit("presat-analyze", len(files), findings, args.format)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
