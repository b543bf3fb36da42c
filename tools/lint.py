#!/usr/bin/env python3
"""Repo-local concurrency-contract lint.

Complements the Clang thread-safety CI leg with checks the capability
analysis cannot express (and that must also hold under GCC, where the
annotation macros expand to nothing):

  1. Raw synchronization primitives (std::mutex, std::lock_guard,
     std::unique_lock, std::scoped_lock, std::condition_variable[_any],
     and bare .lock()/.unlock()/.try_lock() calls) are confined to
     src/common/mutex.h. Everything else must use tirm::Mutex /
     tirm::MutexLock / tirm::CondVar so the annotated wrappers see every
     acquisition.
  2. Every tirm::Mutex member must either guard something — some member
     in the same file is annotated TIRM_GUARDED_BY(that mutex) /
     TIRM_PT_GUARDED_BY(that mutex) — or carry an explicit
     `// unguarded: <why>` justification on the declaration or the line
     above it. A mutex nothing is declared to guard is either dead weight
     or a hole in the contract; either way it needs a reason in writing.
  3. Library code (src/) starts threads only in src/common/threading.*
     (the process-wide executor behind ParallelFor) and
     src/serve/allocation_service.* (long-lived request workers).
     std::thread, std::jthread and std::async anywhere else in src/ are
     findings, so there is one way to run work in parallel. Tests, CLIs
     and benches may still start their own threads.

Exit status 0 when clean; 1 with one "file:line: message" per finding
otherwise. Run from anywhere: paths resolve relative to the repo root
(the parent of this file's directory).

Usage: tools/lint.py [--root DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SCAN_DIRS = ("src", "cli", "bench", "examples", "tests")
EXTENSIONS = {".h", ".cc"}

# The one place raw primitives are allowed: the annotated wrappers
# themselves.
RAW_PRIMITIVE_ALLOWLIST = {pathlib.PurePosixPath("src/common/mutex.h")}

RAW_PRIMITIVE_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|shared_mutex|timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?)\b"
)
# The only library files that may start threads (rule 3).
THREAD_SCOPE = pathlib.PurePosixPath("src")
THREAD_ALLOWLIST = {
    pathlib.PurePosixPath(p)
    for p in (
        "src/common/threading.h",
        "src/common/threading.cc",
        "src/serve/allocation_service.h",
        "src/serve/allocation_service.cc",
    )
}
THREAD_RE = re.compile(r"std::(?:thread|jthread|async)\b")

# Bare lock-protocol calls on anything (mutexes, locks, atomics misused as
# locks). RAII types issue these internally; user code never should.
RAW_LOCK_CALL_RE = re.compile(r"\.\s*(?:lock|unlock|try_lock)\s*\(")

# `Mutex foo_;` member declarations (with optional `mutable`). Local
# variables of type Mutex do not occur (a function-local mutex guards
# nothing by construction and the capability analysis rejects most uses);
# matching declarations anywhere keeps the check simple and strict.
MUTEX_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;")

GUARDED_BY_RE = re.compile(r"TIRM_(?:PT_)?GUARDED_BY\(\s*([^)]+?)\s*\)")

UNGUARDED_TAG = "// unguarded:"

COMMENT_RE = re.compile(r"//.*$")


def strip_comment(line: str) -> str:
    return COMMENT_RE.sub("", line)


def lint_file(root: pathlib.Path, rel: pathlib.PurePosixPath) -> list[str]:
    path = root / rel
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [f"{rel}: not valid UTF-8"]
    lines = text.splitlines()
    findings: list[str] = []

    allow_raw = rel in RAW_PRIMITIVE_ALLOWLIST
    check_threads = (
        THREAD_SCOPE in rel.parents and rel not in THREAD_ALLOWLIST
    )
    guarded_targets = set()
    for line in lines:
        for m in GUARDED_BY_RE.finditer(line):
            # Normalize "entry->mutex_" / "slot.mutex" to the trailing
            # member name so per-entry guards match their declaration.
            expr = m.group(1)
            guarded_targets.add(re.split(r"->|\.", expr)[-1].strip())

    for i, raw_line in enumerate(lines, start=1):
        line = strip_comment(raw_line)

        if not allow_raw:
            if RAW_PRIMITIVE_RE.search(line):
                findings.append(
                    f"{rel}:{i}: raw std synchronization primitive; use "
                    "tirm::Mutex / MutexLock / CondVar (common/mutex.h)"
                )
            if RAW_LOCK_CALL_RE.search(line):
                findings.append(
                    f"{rel}:{i}: bare .lock()/.unlock()/.try_lock() call; "
                    "acquire through RAII (tirm::MutexLock)"
                )

        if check_threads and THREAD_RE.search(line):
            findings.append(
                f"{rel}:{i}: thread started outside the executor; use "
                "ParallelFor (common/threading.h)"
            )

        member = MUTEX_MEMBER_RE.match(line)
        if member:
            name = member.group(1)
            justified = UNGUARDED_TAG in raw_line or (
                i >= 2 and UNGUARDED_TAG in lines[i - 2]
            )
            if name not in guarded_targets and not justified:
                findings.append(
                    f"{rel}:{i}: Mutex member '{name}' has no "
                    "TIRM_GUARDED_BY user in this file; annotate what it "
                    f"guards or justify with '{UNGUARDED_TAG} <why>'"
                )

    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of tools/)",
    )
    args = parser.parse_args()
    root = args.root.resolve()

    findings: list[str] = []
    scanned = 0
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS or not path.is_file():
                continue
            rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
            scanned += 1
            findings.extend(lint_file(root, rel))

    for finding in findings:
        print(finding)
    print(
        f"lint.py: {scanned} files scanned, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
