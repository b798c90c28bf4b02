#!/usr/bin/env python3
"""Self-test for scripts/lint.py, run as a ctest (label: static).

Builds a throwaway source tree seeded with exactly one violation per
lint rule, asserts the lint flags each of them (and honors a waiver),
then runs the lint against the real repository and asserts it is clean
— so a rule that silently stops matching fails this test, not a future
reviewer.
"""

import os
import subprocess
import sys
import tempfile

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
LINT = os.path.join(SCRIPTS_DIR, "lint.py")

SEEDED = {
    # raw-lock: a std::mutex outside src/common/.
    os.path.join("src", "core", "bad_lock.cc"): (
        "#include <mutex>\n"
        "void f() { static std::mutex mu; mu.lock(); mu.unlock(); }\n"
    ),
    # nondeterminism: rand() in bench code.
    os.path.join("bench", "bad_rand.cc"): (
        "#include <cstdlib>\n"
        "int noise() { return rand(); }\n"
    ),
    # header-hygiene: names std::vector without including <vector>.
    os.path.join("src", "core", "bad_header.h"): (
        "#ifndef BAD_HEADER_H_\n"
        "#define BAD_HEADER_H_\n"
        "std::vector<int> broken();\n"
        "#endif\n"
    ),
    # arena-layout: an owned child-id vector in core code.
    os.path.join("src", "core", "bad_node.h"): (
        "#ifndef BAD_NODE_H_\n"
        "#define BAD_NODE_H_\n"
        "#include <vector>\n"
        "struct LegacyNode { std::vector<int> children; };\n"
        "inline LegacyNode* alloc() { return new LegacyNode; }\n"
        "#endif\n"
    ),
    # arena-layout: a heap-allocated node object in bench code.
    os.path.join("bench", "bad_alloc.cc"): (
        "struct BenchNode { int x; };\n"
        "BenchNode* make() { return new BenchNode{1}; }\n"
    ),
    # The arena module itself is exempt: must NOT be reported.
    os.path.join("src", "core", "node_arena.h"): (
        "#ifndef NODE_ARENA_H_\n"
        "#define NODE_ARENA_H_\n"
        "#include <vector>\n"
        "struct ArenaView { std::vector<int> children; };\n"
        "#endif\n"
    ),
    # src/cluster/ owns child vectors legitimately: must NOT be reported.
    os.path.join("src", "cluster", "build_tree.h"): (
        "#ifndef BUILD_TREE_H_\n"
        "#define BUILD_TREE_H_\n"
        "#include <vector>\n"
        "struct BuildNode { std::vector<int> children; };\n"
        "#endif\n"
    ),
    # Waived arena-layout: must NOT be reported. No real site carries
    # this waiver; the case exercises the waiver mechanism itself.
    os.path.join("bench", "waived_node.cc"): (
        "#include <vector>\n"
        "struct WaivedNode {\n"
        "  std::vector<int> children;  // colr-lint: allow(arena-layout)\n"
        "};\n"
    ),
    # Waived raw-lock: must NOT be reported.
    os.path.join("src", "core", "waived_lock.cc"): (
        "#include <mutex>\n"
        "// colr-lint: allow(raw-lock)\n"
        "void g() { static std::mutex mu; mu.lock(); mu.unlock(); }\n"
    ),
    # src/common/ is exempt from raw-lock: must NOT be reported.
    os.path.join("src", "common", "wrapper.h"): (
        "#ifndef WRAPPER_H_\n"
        "#define WRAPPER_H_\n"
        "#include <mutex>\n"
        "using RawForWrapper = std::mutex;\n"
        "#endif\n"
    ),
    # probe-path: a direct network ProbeBatch call in engine code.
    os.path.join("src", "core", "bad_probe.cc"): (
        "struct Net { int ProbeBatch(int); };\n"
        "int f(Net* network_) { return network_->ProbeBatch(3); }\n"
        "int g(Net& network) { return network.ProbeBatch(4); }\n"
    ),
    # The scheduler module itself is exempt (it owns the backend call):
    # must NOT be reported.
    os.path.join("src", "core", "probe_scheduler.cc"): (
        "struct Net { int ProbeBatch(int); };\n"
        "int backend(Net* network_) { return network_->ProbeBatch(7); }\n"
    ),
    # Waived probe-path (a non-query ingest loop): must NOT be reported.
    os.path.join("src", "replay", "waived_probe.cc"): (
        "struct Net { int ProbeBatch(int); };\n"
        "// colr-lint: allow(probe-path)\n"
        "int ingest(Net& network) { return network.ProbeBatch(9); }\n"
    ),
    # net-socket: a raw socket include + call above the transport seam.
    os.path.join("src", "portal", "bad_socket.cc"): (
        "#include <sys/socket.h>\n"
        "int dial() { return ::socket(2, 1, 0); }\n"
    ),
    # net-socket: an epoll call in bench code.
    os.path.join("bench", "bad_epoll.cc"): (
        "extern int epoll_create1(int);\n"
        "int reactor() { return epoll_create1(0); }\n"
    ),
    # The transport implementations own the socket API: must NOT be
    # reported.
    os.path.join("src", "net", "transport_tcp.cc"): (
        "#include <sys/socket.h>\n"
        "#include <poll.h>\n"
        "int dial() { return ::socket(2, 1, 0); }\n"
    ),
    # std::bind is not ::bind — must NOT be reported as net-socket.
    os.path.join("src", "net", "server_helpers.cc"): (
        "#include <functional>\n"
        "int add(int a, int b) { return a + b; }\n"
        "auto partial() { return std::bind(add, 1, std::placeholders::_1); }\n"
    ),
    # lock-order: a minimal declared DAG for the seeds below — three
    # sites, one edge kAaa -> kBbb (so kBbb -> kAaa is an inversion and
    # kAaa -> kCcc is an undeclared edge).
    os.path.join("src", "common", "lock_order.inc"): (
        'COLR_SYNC_SITE(kAaa, "aaa", 10)\n'
        'COLR_SYNC_SITE(kBbb, "bbb", 20)\n'
        'COLR_SYNC_SITE(kCcc, "ccc", 30)\n'
        "COLR_LOCK_ORDER_EDGE(kAaa, kBbb)\n"
    ),
    # lock-order: an inversion — the declared order is kAaa before
    # kBbb, this scope nests them the other way around.
    os.path.join("src", "core", "bad_lock_order.cc"): (
        "void f(Mutex& a, Mutex& b) {\n"
        "  MutexLock hold_b(b, SyncSite::kBbb);\n"
        "  MutexLock hold_a(a, SyncSite::kAaa);\n"
        "}\n"
    ),
    # lock-order: an undeclared (but acyclic) acquired-after edge.
    os.path.join("src", "core", "bad_lock_edge.cc"): (
        "void g(Mutex& a, Mutex& c) {\n"
        "  MutexLock hold_a(a, SyncSite::kAaa);\n"
        "  MutexLock hold_c(c, SyncSite::kCcc);\n"
        "}\n"
    ),
    # lock-order: a guard that names no SyncSite.
    os.path.join("src", "core", "bad_guard_site.cc"): (
        "void h(Mutex& a) {\n"
        "  MutexLock lock(a);\n"
        "}\n"
    ),
    # The declared edge used correctly (including a multi-line guard
    # declaration): must NOT be reported.
    os.path.join("src", "core", "good_lock_order.cc"): (
        "void ok(Mutex& a, SharedMutex& b) {\n"
        "  MutexLock hold_a(a, SyncSite::kAaa);\n"
        "  ReaderLock<SharedMutex> hold_b(b,\n"
        "                                 SyncSite::kBbb);\n"
        "}\n"
    ),
    # Waived inversion: must NOT be reported.
    os.path.join("src", "core", "waived_lock_order.cc"): (
        "void w(Mutex& a, Mutex& b) {\n"
        "  MutexLock hold_b(b, SyncSite::kBbb);\n"
        "  // colr-lint: allow(lock-order): seeded waiver\n"
        "  MutexLock hold_a(a, SyncSite::kAaa);\n"
        "}\n"
    ),
    # layering: src/core/ reaching up into src/net/.
    os.path.join("src", "core", "bad_layer.cc"): (
        '#include "net/server.h"\n'
        "int use_server();\n"
    ),
    # Waived layering violation: must NOT be reported.
    os.path.join("src", "core", "waived_layer.cc"): (
        '#include "net/server.h"  // colr-lint: allow(layering)\n'
        "int use_server_waived();\n"
    ),
    # A downward include (net -> core) is allowed: must NOT be
    # reported.
    os.path.join("src", "net", "good_layer.cc"): (
        '#include "core/engine.h"\n'
        "int use_engine();\n"
    ),
}

EXPECTED = [
    (os.path.join("src", "core", "bad_lock.cc"), "raw-lock"),
    (os.path.join("bench", "bad_rand.cc"), "nondeterminism"),
    (os.path.join("src", "core", "bad_header.h"), "header-hygiene"),
    (os.path.join("src", "core", "bad_node.h"), "arena-layout"),
    (os.path.join("bench", "bad_alloc.cc"), "arena-layout"),
    (os.path.join("src", "core", "bad_probe.cc"), "probe-path"),
    (os.path.join("src", "portal", "bad_socket.cc"), "net-socket"),
    (os.path.join("bench", "bad_epoll.cc"), "net-socket"),
    (os.path.join("src", "core", "bad_lock_order.cc"), "lock-order"),
    (os.path.join("src", "core", "bad_lock_edge.cc"), "lock-order"),
    (os.path.join("src", "core", "bad_guard_site.cc"), "lock-order"),
    (os.path.join("src", "core", "bad_layer.cc"), "layering"),
]

# The lock-order rule must also *classify* correctly: the reversed
# nesting is an inversion, the unlisted-but-acyclic nesting is an
# undeclared edge. (file, required message substring).
EXPECTED_SUBSTRINGS = [
    (os.path.join("src", "core", "bad_lock_order.cc"), "inversion"),
    (os.path.join("src", "core", "bad_lock_edge.cc"), "undeclared"),
]

FORBIDDEN = [
    os.path.join("src", "core", "waived_lock.cc"),
    os.path.join("src", "common", "wrapper.h"),
    os.path.join("src", "core", "node_arena.h"),
    os.path.join("src", "cluster", "build_tree.h"),
    os.path.join("bench", "waived_node.cc"),
    os.path.join("src", "core", "probe_scheduler.cc"),
    os.path.join("src", "replay", "waived_probe.cc"),
    os.path.join("src", "net", "transport_tcp.cc"),
    os.path.join("src", "net", "server_helpers.cc"),
    os.path.join("src", "core", "good_lock_order.cc"),
    os.path.join("src", "core", "waived_lock_order.cc"),
    os.path.join("src", "core", "waived_layer.cc"),
    os.path.join("src", "net", "good_layer.cc"),
]


def run_lint(root, extra=()):
    return subprocess.run(
        [sys.executable, LINT, "--root", root, *extra],
        capture_output=True, text=True)


def fail(message, proc):
    print(f"FAIL: {message}", file=sys.stderr)
    print("--- lint stdout ---\n" + proc.stdout, file=sys.stderr)
    print("--- lint stderr ---\n" + proc.stderr, file=sys.stderr)
    return 1


def main():
    with tempfile.TemporaryDirectory(prefix="colr-lint-test-") as tmp:
        for rel, content in SEEDED.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)

        proc = run_lint(tmp)
        if proc.returncode != 1:
            return fail(
                f"seeded tree: expected exit 1, got {proc.returncode}", proc)
        for rel, rule in EXPECTED:
            if not any(rel in line and f"[{rule}]" in line
                       for line in proc.stdout.splitlines()):
                return fail(f"seeded {rule} violation in {rel} not flagged",
                            proc)
        for rel, substring in EXPECTED_SUBSTRINGS:
            if not any(rel in line and substring in line
                       for line in proc.stdout.splitlines()):
                return fail(
                    f"violation in {rel} not classified as '{substring}'",
                    proc)
        for rel in FORBIDDEN:
            if rel in proc.stdout:
                return fail(f"{rel} should not be flagged (waiver/exemption)",
                            proc)

    # The real tree must be clean; skip the header compiles here — the
    # lint_project ctest runs them, and doubling the compile work in
    # the self-test buys nothing.
    proc = run_lint(REPO_ROOT, extra=("--skip-headers",))
    if proc.returncode != 0:
        return fail("real repository is not lint-clean", proc)

    print("lint_test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
