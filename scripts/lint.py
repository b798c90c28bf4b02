#!/usr/bin/env python3
"""Project lint: the checks clang can't express as warnings.

Eight rules — three tied to the concurrency contracts in DESIGN.md §6,
one to the flat node-arena layout of DESIGN.md §7, one to the probe
scheduler of DESIGN.md §8, one to the transport seam of DESIGN.md §9,
two to the deadlock-freedom contract of DESIGN.md §10:

  raw-lock          src/ (outside src/common/) and bench/ must not name
                    raw std:: lock types (std::mutex, std::shared_mutex,
                    std::lock_guard, std::unique_lock, std::shared_lock,
                    std::scoped_lock, std::condition_variable). The
                    annotated wrappers in src/common/sync.h are the
                    project's only lock vocabulary — that is what makes
                    -Wthread-safety able to see every acquisition.
                    (std::condition_variable_any is allowed: it waits on
                    the annotated Mutex capability directly.)

  nondeterminism    src/ and bench/ must not call rand()/srand() or
                    construct std::random_device. Every random draw goes
                    through colr::Rng with an explicit seed so replays
                    and golden-seed fingerprints stay bit-reproducible.

  header-hygiene    Every header under src/ must be self-contained:
                    a TU consisting of just `#include "the/header.h"`
                    must compile (-fsyntax-only) on its own.

  arena-layout      src/core/ (outside core/node_arena.*) and bench/
                    must not reintroduce pointer-era node storage:
                    no owned child-id vectors (`std::vector<int>
                    children`) and no heap-allocated node objects
                    (`new ...Node`). Tree structure lives in the flat
                    breadth-ordered NodeArena (core/node_arena.h);
                    src/cluster/ is exempt — the build-time
                    ClusterTree legitimately owns child vectors the
                    arena is constructed from.

  probe-path        src/ (outside src/core/probe_scheduler.*) and
                    bench/ must not call SensorNetwork::ProbeBatch on a
                    network member/reference directly. Every live probe
                    goes through the ProbeScheduler
                    (core/probe_scheduler.h) so the single-flight,
                    rate-limit and admission guarantees — and the
                    probes-issued accounting — hold globally.

  net-socket        src/ (outside src/net/transport*) and bench/ must
                    not include the socket/epoll headers or call the
                    raw socket API (::socket, ::bind, ::accept,
                    ::recv, ::send, ::poll, epoll_*...). Everything
                    above the transport seam (DESIGN.md §9) speaks
                    net::Connection/Listener only — that is what keeps
                    every server/client code path runnable over the
                    deterministic in-process fake under the lockstep
                    harness and the sanitizer legs.

  lock-order        src/ only. Every guard declaration (MutexLock,
                    ReaderLock) must name its SyncSite — the site it
                    is rank-checked against and records its contention
                    counters under — and every statically nested pair
                    of guard scopes in one function must be a declared
                    acquired-after edge of the lock-order DAG in
                    src/common/lock_order.inc — the same table the
                    runtime detector (common/deadlock.h) enforces. A
                    nesting whose reverse is reachable in the declared
                    DAG is reported as an inversion; anything else
                    off-table as an undeclared edge. Skipped entirely
                    when the tree has no lock_order.inc (the
                    self-test's throwaway trees seed their own).

  layering          src/<module>/ may #include "dep/..." only for the
                    modules below it in the architecture DAG (common at
                    the bottom; net at the top; bench/ and tests/ see
                    everything). Keeps the engine servable without the
                    wire stack: src/core/ can never grow an include of
                    src/net/.

tests/ is exempt from the text rules: the test harness deliberately
pokes at raw primitives (and the lint self-test seeds violations).

A site that must break a rule carries a waiver comment on the same
line or the line above:

    // colr-lint: allow(raw-lock): why this site is special

Exit status 0 when clean, 1 when any violation is found, 2 on usage
errors. Violations print as `path:line: [rule] message` (clickable in
editors and CI logs).
"""

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys

TEXT_RULE_DIRS = ("src", "bench")
RAW_LOCK_EXEMPT_PREFIX = os.path.join("src", "common") + os.sep
SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

RAW_LOCK_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"condition_variable)\b(?!_any)"
)
NONDETERMINISM_RE = re.compile(
    r"(?<![\w:])(?:s?rand\s*\(|std::random_device\b)"
)
ARENA_LAYOUT_RE = re.compile(
    r"std::vector<\s*int\s*>\s+children\b|\bnew\s+\w*Node\b"
)
ARENA_LAYOUT_DIR_PREFIXES = (
    os.path.join("src", "core") + os.sep,
    "bench" + os.sep,
)
ARENA_LAYOUT_EXEMPT_PREFIX = os.path.join("src", "core", "node_arena")
# A member/local named `network`/`network_` (the SensorNetwork handle
# idiom everywhere in this codebase) invoking ProbeBatch directly.
PROBE_PATH_RE = re.compile(r"\bnetwork_?\s*(?:\.|->)\s*ProbeBatch\s*\(")
PROBE_PATH_EXEMPT_PREFIX = os.path.join("src", "core", "probe_scheduler")
# Socket/epoll headers, or a global-namespace call to the socket API
# (`(?<![\w:])::name(` matches `::bind(...)` but not `std::bind(...)`).
NET_SOCKET_RE = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|sys/epoll\.h|netinet/[\w./]+\.h|"
    r"arpa/inet\.h|poll\.h|netdb\.h)>"
    r"|(?<![\w:])::\s*(?:socket|bind|listen|accept4?|connect|"
    r"recv(?:from|msg)?|send(?:to|msg)?|poll|ppoll|setsockopt|getsockopt|"
    r"getsockname|getpeername|shutdown)\s*\("
    r"|\bepoll_(?:create1?|ctl|p?wait)\s*\("
)
NET_SOCKET_EXEMPT_PREFIX = os.path.join("src", "net", "transport")
WAIVER_RE = re.compile(r"colr-lint:\s*allow\(([a-z-]+)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")

# --- layering ------------------------------------------------------------
# The module architecture DAG: src/<module>/ may include its own module
# plus exactly these. Order within each tuple is cosmetic; acyclicity
# is asserted at startup. bench/ and tests/ are outside the map (they
# see everything).
LAYERING_DEPS = {
    "common": (),
    "geo": ("common",),
    "relational": ("common",),
    "sensor": ("common", "geo"),
    "cluster": ("common", "geo"),
    "workload": ("common", "geo", "sensor"),
    "core": ("common", "geo", "sensor", "cluster"),
    "rtree": ("common", "geo", "cluster", "core"),
    "relcolr": ("common", "geo", "sensor", "relational", "cluster", "core"),
    "portal": ("common", "geo", "sensor", "relational", "cluster", "core"),
    "replay": ("common", "geo", "sensor", "relational", "cluster", "core",
               "workload", "portal"),
    "net": ("common", "geo", "sensor", "relational", "core", "portal"),
}
LOCAL_INCLUDE_RE = re.compile(r'#\s*include\s*"(\w+)/')

# --- lock-order ----------------------------------------------------------
# Guard-scope extraction: a declaration of one of the two RAII guard
# types introducing a named local (`MutexLock lock(...)`,
# `ReaderLock<EpochLatch> epoch_lock(...)`; the template argument is
# usually deduced). The definitions of the guard classes themselves
# (constructors, `= delete` lines) never put an identifier between the
# type name and the open paren, so they do not match.
GUARD_RE = re.compile(
    r"\b(?:MutexLock|ReaderLock)\s*(?:<[^;>()]*>)?\s+\w+\s*\(")
GUARD_SITE_RE = re.compile(r"\bSyncSite\s*::\s*(k\w+)")
LOCK_ORDER_INC = os.path.join("src", "common", "lock_order.inc")
SITE_DECL_RE = re.compile(
    r'^\s*COLR_SYNC_SITE\(\s*(k\w+)\s*,\s*"([a-z_]+)"\s*,\s*(\d+)\s*\)')
EDGE_DECL_RE = re.compile(
    r"^\s*COLR_LOCK_ORDER_EDGE\(\s*(k\w+)\s*,\s*(k\w+)\s*\)")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"' r"|'(?:[^'\\\n]|\\.)*'")


def strip_comment(line):
    """Code portion of a line (line comments removed; block comments are
    not tracked — the text rules target identifiers that never legally
    appear in this project's comments outside src/common/)."""
    return LINE_COMMENT_RE.sub("", line)


def waived(lines, idx, rule):
    """True if line `idx` (0-based) carries a waiver for `rule` on the
    line itself or the line directly above."""
    for i in (idx, idx - 1):
        if i < 0:
            continue
        m = WAIVER_RE.search(lines[i])
        if m and m.group(1) == rule:
            return True
    return False


def iter_source_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def check_text_rules(root):
    violations = []
    for path in iter_source_files(root, TEXT_RULE_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        raw_lock_applies = not rel.startswith(RAW_LOCK_EXEMPT_PREFIX)
        arena_layout_applies = (
            rel.startswith(ARENA_LAYOUT_DIR_PREFIXES)
            and not rel.startswith(ARENA_LAYOUT_EXEMPT_PREFIX))
        probe_path_applies = not rel.startswith(PROBE_PATH_EXEMPT_PREFIX)
        net_socket_applies = not rel.startswith(NET_SOCKET_EXEMPT_PREFIX)
        for idx, line in enumerate(lines):
            code = strip_comment(line)
            if raw_lock_applies:
                m = RAW_LOCK_RE.search(code)
                if m and not waived(lines, idx, "raw-lock"):
                    violations.append(
                        (rel, idx + 1, "raw-lock",
                         f"raw std::{m.group(1)} outside src/common/; use "
                         "the annotated wrappers in common/sync.h"))
            if arena_layout_applies:
                m = ARENA_LAYOUT_RE.search(code)
                if m and not waived(lines, idx, "arena-layout"):
                    violations.append(
                        (rel, idx + 1, "arena-layout",
                         f"pointer-era node storage `{m.group(0).strip()}`;"
                         " tree structure lives in the flat NodeArena"
                         " (core/node_arena.h)"))
            if probe_path_applies:
                m = PROBE_PATH_RE.search(code)
                if m and not waived(lines, idx, "probe-path"):
                    violations.append(
                        (rel, idx + 1, "probe-path",
                         "direct SensorNetwork::ProbeBatch call; live"
                         " probes go through the ProbeScheduler"
                         " (core/probe_scheduler.h)"))
            if net_socket_applies:
                m = NET_SOCKET_RE.search(code)
                if m and not waived(lines, idx, "net-socket"):
                    violations.append(
                        (rel, idx + 1, "net-socket",
                         f"raw socket API `{m.group(0).strip()}` outside"
                         " src/net/transport*; speak the transport seam"
                         " (net/transport.h) instead"))
            m = NONDETERMINISM_RE.search(code)
            if m and not waived(lines, idx, "nondeterminism"):
                violations.append(
                    (rel, idx + 1, "nondeterminism",
                     f"banned nondeterministic source `{m.group(0).strip()}`;"
                     " use colr::Rng with an explicit seed"))
    return violations


def assert_layering_acyclic():
    """The declared module DAG must itself be a DAG (internal sanity)."""
    state = {}

    def visit(mod):
        if state.get(mod) == "done":
            return
        if state.get(mod) == "visiting":
            raise AssertionError(f"LAYERING_DEPS cycle through {mod}")
        state[mod] = "visiting"
        for dep in LAYERING_DEPS.get(mod, ()):
            assert dep in LAYERING_DEPS, f"unknown module {dep} in LAYERING"
            visit(dep)
        state[mod] = "done"

    for mod in LAYERING_DEPS:
        visit(mod)


def check_layering(root):
    violations = []
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        parts = rel.split(os.sep)
        if len(parts) < 3:  # a file directly under src/ has no module
            continue
        mod = parts[1]
        if mod not in LAYERING_DEPS:
            violations.append(
                (rel, 1, "layering",
                 f"module src/{mod}/ is not in the layering map; add it to"
                 " LAYERING_DEPS in scripts/lint.py with its allowed"
                 " dependencies"))
            continue
        allowed = set(LAYERING_DEPS[mod]) | {mod}
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        for idx, line in enumerate(lines):
            m = LOCAL_INCLUDE_RE.search(strip_comment(line))
            if not m:
                continue
            dep = m.group(1)
            if dep in LAYERING_DEPS and dep not in allowed:
                if not waived(lines, idx, "layering"):
                    violations.append(
                        (rel, idx + 1, "layering",
                         f"src/{mod}/ must not include \"{dep}/...\": the"
                         f" module DAG allows {mod} -> "
                         f"{{{', '.join(sorted(allowed - {mod}))}}} only"))
    return violations


def parse_lock_order_table(root):
    """Parses src/common/lock_order.inc. Returns (ranks, edges,
    violations) or None when the tree has no table (rule skipped)."""
    path = os.path.join(root, LOCK_ORDER_INC)
    if not os.path.isfile(path):
        return None
    rel = os.path.relpath(path, root)
    ranks = {}
    edges = set()
    violations = []
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    for idx, line in enumerate(lines):
        m = SITE_DECL_RE.match(line)
        if m:
            site, _, rank = m.group(1), m.group(2), int(m.group(3))
            if site in ranks:
                violations.append((rel, idx + 1, "lock-order",
                                   f"duplicate site {site}"))
            ranks[site] = rank
            continue
        m = EDGE_DECL_RE.match(line)
        if m:
            held, acquired = m.group(1), m.group(2)
            for site in (held, acquired):
                if site not in ranks:
                    violations.append(
                        (rel, idx + 1, "lock-order",
                         f"edge names undeclared site {site} (sites must be"
                         " declared before edges)"))
            if held in ranks and acquired in ranks \
                    and ranks[held] >= ranks[acquired]:
                violations.append(
                    (rel, idx + 1, "lock-order",
                     f"edge {held} -> {acquired} is not rank-monotone"
                     f" ({ranks[held]} >= {ranks[acquired]}); the declared"
                     " order must be a DAG"))
            edges.add((held, acquired))
    return ranks, edges, violations


def transitive_closure(sites, edges):
    reach = {s: {a for (h, a) in edges if h == s} for s in sites}
    changed = True
    while changed:
        changed = False
        for s in sites:
            grown = set(reach[s])
            for mid in list(reach[s]):
                grown |= reach.get(mid, set())
            if grown != reach[s]:
                reach[s] = grown
                changed = True
    return reach


def strip_for_scan(text):
    """Removes comments, string and char literals (newline-preserving)
    so brace counting and guard matching see only code structure."""

    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    out_lines = []
    for line in text.split("\n"):
        line = STRING_RE.sub(lambda m: " " * len(m.group(0)), line)
        out_lines.append(LINE_COMMENT_RE.sub("", line))
    return "\n".join(out_lines)


def scan_guard_scopes(stripped):
    """Walks one file's stripped text tracking brace depth and the
    stack of live guard declarations. Yields
    (held_site, acquired_site, line) for every nested pair plus
    (None, None, line) for a guard that names no SyncSite. Sites are
    enumerator spellings (kEpochShared...)."""
    events = []
    matches = {m.start(): m for m in GUARD_RE.finditer(stripped)}
    guards = []  # (site, depth) for live guards, outermost first
    depth = 0
    line = 1
    i = 0
    n = len(stripped)
    while i < n:
        m = matches.get(i)
        if m is not None:
            # The declaration runs from the type name through the
            # guard's constructor argument list; the SyncSite argument
            # (if any) is inside those parens.
            j = m.end() - 1  # at the opening '('
            balance = 0
            while j < n:
                if stripped[j] == "(":
                    balance += 1
                elif stripped[j] == ")":
                    balance -= 1
                    if balance == 0:
                        break
                j += 1
            decl = stripped[i:j + 1]
            site_m = GUARD_SITE_RE.search(decl)
            if site_m is None:
                events.append((None, None, line))
            else:
                site = site_m.group(1)
                for held_site, _ in guards:
                    if held_site is not None:
                        events.append((held_site, site, line))
                guards.append((site, depth))
            line += decl.count("\n")
            i = j + 1
            continue
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            guards = [g for g in guards if g[1] <= depth]
        elif c == "\n":
            line += 1
        i += 1
    return events


def check_lock_order(root):
    table = parse_lock_order_table(root)
    if table is None:
        return []
    ranks, edges, violations = table
    if violations:
        return violations
    reach = transitive_closure(ranks.keys(), edges)
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        lines = text.splitlines()
        for held, acquired, line in scan_guard_scopes(strip_for_scan(text)):
            idx = line - 1
            if held is None:
                if not waived(lines, idx, "lock-order"):
                    violations.append(
                        (rel, line, "lock-order",
                         "guard does not name its SyncSite; protocol locks"
                         " in src/ must be rank-checkable (use the"
                         " guard's SyncSite argument)"))
                continue
            if (held, acquired) in edges:
                continue
            if waived(lines, idx, "lock-order"):
                continue
            if held == acquired:
                message = (f"{held} acquired while already held; the"
                           " one-stripe-at-a-time discipline forbids"
                           " same-site nesting")
            elif held in reach.get(acquired, set()):
                message = (f"lock-order inversion: {acquired} is declared"
                           f" to be taken before {held}, but this scope"
                           f" acquires it while holding {held}")
            else:
                message = (f"undeclared acquired-after edge {held} ->"
                           f" {acquired}; declare it in"
                           " src/common/lock_order.inc or reorder the"
                           " acquisitions")
            violations.append((rel, line, "lock-order", message))
    return violations


def find_compiler():
    for cand in (os.environ.get("CXX"), "c++", "g++", "clang++"):
        if cand and shutil.which(cand.split()[0]):
            return cand
    return None


def check_header(compiler, root, header):
    rel = os.path.relpath(header, root)
    include = os.path.relpath(header, os.path.join(root, "src"))
    cmd = compiler.split() + [
        "-x", "c++", "-std=c++20", "-fsyntax-only",
        "-I", os.path.join(root, "src"), "-"]
    proc = subprocess.run(
        cmd, input=f'#include "{include}"\n', capture_output=True, text=True)
    if proc.returncode != 0:
        first = (proc.stderr.strip() or "compile failed").splitlines()[0]
        return (rel, 1, "header-hygiene",
                f"header is not self-contained: {first}")
    return None


def check_header_hygiene(root, jobs):
    compiler = find_compiler()
    if compiler is None:
        print("lint: no C++ compiler found; skipping header-hygiene",
              file=sys.stderr)
        return []
    headers = [p for p in iter_source_files(root, ("src",))
               if p.endswith((".h", ".hpp"))]
    violations = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for result in pool.map(
                lambda h: check_header(compiler, root, h), headers):
            if result is not None:
                violations.append(result)
    return violations


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--skip-headers", action="store_true",
                        help="skip the header-hygiene compile checks")
    parser.add_argument("-j", "--jobs", type=int,
                        default=os.cpu_count() or 2,
                        help="parallel header compiles")
    args = parser.parse_args()

    root = os.path.abspath(
        args.root
        or os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint: no src/ under {root}", file=sys.stderr)
        return 2

    assert_layering_acyclic()
    violations = check_text_rules(root)
    violations += check_layering(root)
    violations += check_lock_order(root)
    if not args.skip_headers:
        violations += check_header_hygiene(root, args.jobs)

    violations.sort()
    for rel, line, rule, message in violations:
        print(f"{rel}:{line}: [{rule}] {message}")
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
