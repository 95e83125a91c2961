#!/usr/bin/env python3
"""Repo-invariant lint gate for the Scoop codebase.

Checks (each finding is `file:line: [check] message`, exit 1 on any):

  raw-sync-primitive   std::mutex / std::lock_guard / std::unique_lock /
                       std::condition_variable & friends anywhere outside
                       src/common/sync.{h,cc}. All locking goes through the
                       annotated wrappers so the Clang thread-safety
                       analysis and the debug lock-order checker see it.
  raw-sync-include     <mutex> / <condition_variable> / <shared_mutex>
                       includes outside src/common/sync.{h,cc}.
  blocking-under-lock  sleep or blocking I/O calls in a scope where a
                       MutexLock is live (holding a lock across a sleep or
                       syscall starves every waiter; use CondVar waits).
  include-hygiene      parent-relative includes ("../"), <bits/...>
                       internals, and headers without a SCOOP_ include
                       guard.
  intrinsics-include   CPU intrinsics headers (<emmintrin.h>,
                       <immintrin.h>, <arm_neon.h>, ...) anywhere outside
                       src/columnar/simd.{h,cc}. Platform dispatch lives
                       behind ScanCsvStructural; nothing else may grow an
                       ISA dependency.
  tests-include        a src/ file including from tests/ (the frozen
                       reference code in tests/reference/ is test and
                       bench only; production must never link it).
  banned-function      non-reentrant / nondeterministic / unsafe libc calls
                       (rand, strtok, localtime, sprintf, ...) — use
                       common/random.h, common/strings.h, snprintf.

The name-catalog cross-checks (failpoint-name, metric-name) that used to
live here moved to tools/scoop_check, which validates every catalogued
literal family (lock ranks, trace spans, failpoints, metrics) in one
extraction pass. Run `python3 tools/scoop_check` for those.

A line containing `NOLINT` is exempt (pair it with a reason, as in
clang-tidy). Run `tools/lint.py --self-test` to verify the checkers fire
on known-bad snippets.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".h", ".cc"}

# The one place raw primitives are allowed: the sync layer itself.
SYNC_EXEMPT = {"src/common/sync.h", "src/common/sync.cc"}

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
RAW_INCLUDE_RE = re.compile(
    r'#\s*include\s*<(mutex|condition_variable|shared_mutex)>'
)
MUTEX_LOCK_DECL_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]")
BLOCKING_RE = re.compile(
    r"(std::this_thread::sleep_for|std::this_thread::sleep_until|"
    r"\busleep\s*\(|\bnanosleep\s*\(|\bsleep\s*\(|\bsystem\s*\(|"
    r"\bpopen\s*\(|\bgetchar\s*\(|\bfsync\s*\()"
)
PARENT_INCLUDE_RE = re.compile(r'#\s*include\s*"\.\./')
BITS_INCLUDE_RE = re.compile(r"#\s*include\s*<bits/")
# The one place allowed to include CPU intrinsics: the structural scanner.
INTRINSICS_EXEMPT = {"src/columnar/simd.h", "src/columnar/simd.cc"}
INTRINSICS_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:[emnpstwx]mmintrin|immintrin|avx\w*intrin|"
    r"x86intrin|x86gprintrin|intrin|arm_neon|arm_sve)\.h>"
)
TESTS_INCLUDE_RE = re.compile(r'#\s*include\s*"tests/')
GUARD_RE = re.compile(r"#\s*(?:ifndef\s+SCOOP_\w+_H_|pragma\s+once)")
BANNED_RE = re.compile(
    r"\b(?:std::)?(rand|srand|strtok|gets|sprintf|vsprintf|strcpy|strcat|"
    r"asctime|ctime|localtime|gmtime|tmpnam|atoll?|atoi)\s*\("
)
COMMENT_RE = re.compile(r"//")


def _strip_comment(line):
    """Best-effort removal of // comments (ignores // inside strings)."""
    m = COMMENT_RE.search(line)
    return line[: m.start()] if m else line


def lint_file(rel_path, lines):
    """Returns a list of (lineno, check, message) findings for one file."""
    findings = []
    is_sync_layer = rel_path in SYNC_EXEMPT
    is_header = rel_path.endswith(".h")
    in_block_comment = False
    # Stack of brace depths at which a MutexLock was declared; a lock is
    # considered live until its enclosing block closes.
    lock_scopes = []
    depth = 0
    saw_guard = False

    for lineno, raw in enumerate(lines, start=1):
        if "NOLINT" in raw:
            depth += raw.count("{") - raw.count("}")
            continue
        line = _strip_comment(raw)
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                line = line[:start]
            else:
                line = line[:start] + line[end + 2:]

        if GUARD_RE.search(line):
            saw_guard = True

        if not is_sync_layer:
            if RAW_PRIMITIVE_RE.search(line):
                findings.append((
                    lineno, "raw-sync-primitive",
                    f"`{RAW_PRIMITIVE_RE.search(line).group(0)}` outside "
                    "src/common/sync.h — use scoop::Mutex / MutexLock / "
                    "CondVar"))
            if RAW_INCLUDE_RE.search(line):
                findings.append((
                    lineno, "raw-sync-include",
                    "raw synchronization include outside src/common/sync.h "
                    '— include "common/sync.h"'))

        if PARENT_INCLUDE_RE.search(line):
            findings.append((lineno, "include-hygiene",
                             'parent-relative include ("../") — include '
                             "from the src/ root"))
        if BITS_INCLUDE_RE.search(line):
            findings.append((lineno, "include-hygiene",
                             "<bits/...> is libstdc++ internal — include "
                             "the standard header"))
        if (rel_path not in INTRINSICS_EXEMPT
                and INTRINSICS_INCLUDE_RE.search(line)):
            findings.append((
                lineno, "intrinsics-include",
                "CPU intrinsics outside src/columnar/simd.{h,cc} — go "
                "through ScanCsvStructural so platform dispatch stays in "
                "one place"))

        if rel_path.startswith("src/") and TESTS_INCLUDE_RE.search(line):
            findings.append((
                lineno, "tests-include",
                "src/ includes from tests/ — test and bench reference "
                "code must stay out of production"))

        banned = BANNED_RE.search(line)
        if banned:
            findings.append((
                lineno, "banned-function",
                f"`{banned.group(1)}` is banned (non-reentrant, "
                "nondeterministic, or unsafe) — see tools/lint.py header "
                "for the sanctioned replacement"))

        # Track MutexLock scopes against brace depth. The decl's own line
        # may open/close braces; count the declaration as live at the
        # depth where it appears.
        if MUTEX_LOCK_DECL_RE.search(line):
            lock_scopes.append(depth)
        elif lock_scopes and BLOCKING_RE.search(line):
            findings.append((
                lineno, "blocking-under-lock",
                f"`{BLOCKING_RE.search(line).group(0).strip()}` while a "
                "MutexLock is in scope — release the lock or use a "
                "CondVar wait"))
        depth += line.count("{") - line.count("}")
        while lock_scopes and depth < lock_scopes[-1]:
            lock_scopes.pop()
        # A `}` on the declaring depth closes the block that owns the lock.
        while lock_scopes and depth == lock_scopes[-1] and "}" in line:
            lock_scopes.pop()

    if is_header and not saw_guard and not is_sync_layer:
        findings.append((1, "include-hygiene",
                         "header lacks a SCOOP_*_H_ include guard"))
    return findings


def run(root):
    files = []
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        files.extend(p for p in sorted(base.rglob("*"))
                     if p.suffix in CXX_SUFFIXES)
    total = 0
    for path in files:
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8",
                               errors="replace").splitlines()
        for lineno, check, message in lint_file(rel, lines):
            print(f"{rel}:{lineno}: [{check}] {message}")
            total += 1
    if total:
        print(f"lint: {total} violation(s) in {len(files)} scanned files",
              file=sys.stderr)
        return 1
    print(f"lint: OK ({len(files)} files scanned)")
    return 0


SELF_TEST_CASES = [
    # (snippet, path, expected check or None)
    ("std::mutex mu_;", "src/foo/a.h", "raw-sync-primitive"),
    ("std::lock_guard<std::mutex> l(mu_);", "src/foo/a.cc",
     "raw-sync-primitive"),
    ("#include <mutex>", "src/foo/a.cc", "raw-sync-include"),
    ("std::mutex graph_mu;", "src/common/sync.cc", None),
    ("// std::mutex in a comment", "src/foo/a.cc", None),
    ('#include "../common/sync.h"', "src/foo/a.cc", "include-hygiene"),
    ("#include <bits/stdc++.h>", "src/foo/a.cc", "include-hygiene"),
    ("#include <emmintrin.h>", "src/csv/batch_reader.cc",
     "intrinsics-include"),
    ("#include <immintrin.h>", "src/foo/a.cc", "intrinsics-include"),
    ("#include <arm_neon.h>", "src/foo/a.cc", "intrinsics-include"),
    ("#include <emmintrin.h>", "src/columnar/simd.cc", None),
    ("// #include <emmintrin.h> in a comment", "src/foo/a.cc", None),
    ('#include "tests/reference/scalar_row_reader.h"', "src/csv/a.cc",
     "tests-include"),
    ('#include "tests/reference/scalar_row_reader.h"', "bench/a.cc", None),
    ('#include "tests/reference/scalar_row_reader.h"', "tests/a_test.cc",
     None),
    ("int x = rand();", "src/foo/a.cc", "banned-function"),
    ("tm* t = localtime(&now);", "src/foo/a.cc", "banned-function"),
    ("int x = rand();  // NOLINT: seeded elsewhere", "src/foo/a.cc", None),
    ("void F() {\n  MutexLock lock(mu_);\n"
     "  std::this_thread::sleep_for(1s);\n}", "src/foo/a.cc",
     "blocking-under-lock"),
    ("void F() {\n  {\n    MutexLock lock(mu_);\n  }\n"
     "  std::this_thread::sleep_for(1s);\n}", "src/foo/a.cc", None),
]


def self_test():
    failures = 0
    for snippet, path, expected in SELF_TEST_CASES:
        lines = snippet.split("\n")
        if path.endswith(".h"):
            lines = ["#ifndef SCOOP_SELF_TEST_H_"] + lines
        got = [check for (_, check, _) in lint_file(path, lines)]
        if expected is None and got:
            print(f"self-test FAIL: {snippet!r} -> unexpected {got}")
            failures += 1
        elif expected is not None and expected not in got:
            print(f"self-test FAIL: {snippet!r} -> {got}, "
                  f"wanted {expected}")
            failures += 1
    if failures:
        return 1
    print(f"lint --self-test: OK ({len(SELF_TEST_CASES)} cases)")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    sys.exit(run(REPO_ROOT))
