#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then the race-sensitive suites
# under ThreadSanitizer (selected by their ctest label, not a
# hard-coded binary list), then the same suites with the runtime
# lock-order detector armed (COLR_DEADLOCK_CHECK=ON), then the static
# leg — project lint, the clang thread-safety/-Werror contract build
# with clang-tidy, a full UBSan test run, and a high-iteration wire
# fuzz plus the probe-path suites under ASan+UBSan — then a smoke
# check that the sync-stats instrumentation and deadlock hooks compile
# to a no-op when disabled.
# Right after tier-1 it also builds the benchmark (perfbench
# --self-test). The clang pieces skip with a clear message on hosts
# without clang/clang-tidy, so a GCC-only host still runs everything
# else. Run from anywhere; builds land in build*/ under the repo root
# (the benchmark's in .bench_build/).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 4)"

# Stress suites are seeded: pin the seed so a CI failure is
# reproducible locally with the same export. Tests log the seed they
# ran with either way.
export COLR_STRESS_SEED="${COLR_STRESS_SEED:-0xC01A57E55}"
echo "== stress seed: ${COLR_STRESS_SEED} =="

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "$jobs")

echo "== perfbench: build + self-test =="
# The repository benchmark (perfbench/, named by BENCHMARK.json)
# compiles the libraries under src/ in its own build tree, which no
# other leg builds: a src/ API it calls could be deleted with every
# other leg green. The self-test builds it, checks its statistics
# helpers, and checks BENCHMARK.json names the metrics it reports.
python3 perfbench/run.py --self-test

echo "== tsan: build =="
cmake -B build-tsan -S . -DCOLR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"

echo "== tsan: ctest -L tsan =="
(cd build-tsan && ctest -L tsan --output-on-failure -j "$jobs")

echo "== deadlock: build with the lock-order detector armed =="
# Layer 2 of the deadlock-freedom contract (DESIGN.md §10): the same
# race-sensitive, stress, serving, and static suites again with
# -DCOLR_DEADLOCK_CHECK=ON, so every ranked acquisition is validated
# against the acquired-after DAG in src/common/lock_order.inc. The
# deadlock_test death tests (skipped elsewhere) arm here and prove a
# seeded inversion/undeclared edge/recursion actually aborts.
# Sync stats are on for this leg: recording takes the registry lock
# while the site's own lock is held, so every site's declared edge to
# kStatsRegistry is exercised.
cmake -B build-deadlock -S . -DCOLR_DEADLOCK_CHECK=ON >/dev/null
cmake --build build-deadlock -j "$jobs"
(cd build-deadlock && COLR_SYNC_STATS=1 ctest -L 'tsan|stress|net|static' \
  --output-on-failure -j "$jobs")

echo "== static: project lint =="
python3 scripts/lint.py -j "$jobs"

echo "== static: ctest -L static =="
(cd build && ctest -L static --output-on-failure -j "$jobs")

echo "== static: clang thread-safety contracts =="
# The DESIGN.md §6 lock protocol is encoded as Clang Thread Safety
# Analysis attributes (common/thread_annotations.h); CMake promotes
# -Wthread-safety to an error under clang, and COLR_WERROR keeps the
# rest of the warning backlog at zero. The negative/positive compile
# tests (ctest -L static) prove the contracts bite.
clang_cxx="${COLR_CLANG_CXX:-clang++}"
if command -v "$clang_cxx" >/dev/null 2>&1; then
  cmake -B build-clang -S . -DCMAKE_CXX_COMPILER="$clang_cxx" \
    -DCOLR_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build build-clang -j "$jobs"
  (cd build-clang && ctest -L static --output-on-failure -j "$jobs")
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== static: clang-tidy (.clang-tidy) =="
    find src -name '*.cc' -print0 |
      xargs -0 clang-tidy -p build-clang --quiet
  else
    echo "-- clang-tidy not found; skipping the tidy pass"
  fi
else
  echo "-- $clang_cxx not found; skipping the clang thread-safety build"
  echo "   (install clang or set COLR_CLANG_CXX to enable the contract check)"
fi

echo "== static: UBSan build + full ctest =="
# -fno-sanitize-recover=all (set by CMake for this mode): any UB found
# aborts the test instead of logging and passing. COLR_WERROR rides
# along so GCC-only hosts still get a warnings-as-errors build.
cmake -B build-ubsan -S . -DCOLR_SANITIZE=undefined -DCOLR_WERROR=ON >/dev/null
cmake --build build-ubsan -j "$jobs"
(cd build-ubsan && ctest --output-on-failure -j "$jobs")

echo "== fuzz + probe path: ASan+UBSan =="
# High-iteration garbage fuzz of the frame decoder and payload
# codecs: COLR_FUZZ_ITERS scales the random-input loops in
# net_codec_test far past their tier-1 budget, and the combined
# address+undefined build turns any over-read or UB in the parsing
# paths into an abort. Override COLR_FUZZ_ITERS to go deeper.
# The probe path indexes per-sensor arrays (scheduler state, the
# query deduper's marks, the network's per-sensor probe counts) by
# sensor id, where a bad id is a raw out-of-bounds access: the UBSan
# leg does not bounds-check std::vector, so its suites run here too.
cmake -B build-asan -S . -DCOLR_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$jobs" --target net_codec_test \
  probe_scheduler_test engine_test probe_path_alloc_test sensor_test
COLR_FUZZ_ITERS="${COLR_FUZZ_ITERS:-100000}" \
  ./build-asan/tests/net_codec_test --gtest_filter='*Garbage*:*Truncated*'
./build-asan/tests/probe_scheduler_test
./build-asan/tests/engine_test
./build-asan/tests/probe_path_alloc_test
./build-asan/tests/sensor_test

echo "== flash crowd: cross-query coalescing smoke =="
# The probe scheduler's reason to exist: when concurrent streams slam
# one hot viewport against a moving clock, single-flight coalescing
# must *reduce* probes per query as streams rise — each window's probe
# wave is shared instead of multiplied. Small config (~5 s); the full
# sweep recipe is in EXPERIMENTS.md.
./build/bench/concurrent_portal --flash-crowd --sensors=2000 \
  --queries=80 --speedup=20000 --json /tmp/colr_flash_crowd_smoke.json
python3 - <<'EOF'
import json
with open('/tmp/colr_flash_crowd_smoke.json') as f:
    report = json.load(f)
rows = {row['streams']: row for row in report['series']}
assert set(rows) >= {1, 8}, sorted(rows)
for s, row in sorted(rows.items()):
    assert row['errors'] == 0, f"{s} streams: {row['errors']} query errors"
    print(f"{s} streams: {row['probes_per_query']:.2f} probes/query "
          f"({row['probes_coalesced']} coalesced)")
assert rows[8]['probes_per_query'] < rows[1]['probes_per_query'], (
    f"coalescing failed: probes/query at 8 streams "
    f"({rows[8]['probes_per_query']:.2f}) not below 1 stream "
    f"({rows[1]['probes_per_query']:.2f})")
assert rows[8]['probes_coalesced'] > 0, "no cross-query coalescing observed"
print("flash crowd smoke OK")
EOF

echo "== net: open-loop serving smoke over the in-process transport =="
# The wire-protocol serving path end to end with zero sockets: the
# open-loop driver offers a fixed seeded Poisson schedule to the
# PortalServer over the deterministic in-process transport, with
# connection churn on. The gate: every scheduled request got exactly
# one reply, all OK, zero protocol errors (net_load itself exits
# nonzero on a protocol error or lost reply; the asserts below also
# pin the per-cell accounting in the JSON report).
./build/bench/net_load --transport=inproc --connections=2,8 \
  --queries=240 --rate=900 --churn-every=40 --cell-seconds=2 \
  --json /tmp/colr_net_load_smoke.json
python3 - <<'EOF'
import json
with open('/tmp/colr_net_load_smoke.json') as f:
    report = json.load(f)
rows = {row['connections']: row for row in report['series']}
assert set(rows) >= {2, 8}, sorted(rows)
for c, row in sorted(rows.items()):
    assert row['transport'] == 'inproc', row
    assert row['protocol_errors'] == 0, (
        f"{c} connections: {row['protocol_errors']} protocol errors")
    assert row['query_errors'] == 0, (
        f"{c} connections: {row['query_errors']} query errors")
    replies = row['ok'] + row['shed'] + row['timeouts']
    assert replies == row['queries'], (
        f"{c} connections: {replies} replies for {row['queries']} requests")
    print(f"{c} connections: {row['qps']:.1f} qps, "
          f"p99 {row['p99_ms']:.1f} ms, {row['reconnects']} reconnects")
print("net smoke OK")
EOF

echo "== sync-stats: disabled-path overhead smoke =="
# The site-naming guard with stats disabled is a relaxed load plus the
# plain lock; it must stay within 2x of the bare guard (generous —
# both are single-digit ns and the bound only catches an accidentally
# always-on instrumentation path). Two pairs: a SpinMutex (the tree's
# root spin) and a Mutex (the lock type of the pool, server, transport,
# engine, network and replay sites). This build also has the deadlock
# detector compiled out (COLR_DEADLOCK_CHECK=OFF is the default), so
# the same bound doubles as the no-cost proof for the disabled
# LockRankTag hooks in every ranked lock.
env -u COLR_SYNC_STATS ./build/bench/micro_core \
  --benchmark_filter='Mutex(PlainGuard|SiteGuardStatsOff)' \
  --benchmark_min_time=0.2 --benchmark_format=json \
  >/tmp/colr_sync_overhead.json
python3 - <<'EOF'
import json
with open('/tmp/colr_sync_overhead.json') as f:
    report = json.load(f)
times = {b['name']: b['cpu_time'] for b in report['benchmarks']}
for lock in ('SpinMutex', 'Mutex'):
    plain = times[f'BM_{lock}PlainGuard']
    guarded = times[f'BM_{lock}SiteGuardStatsOff']
    print(f"{lock}: plain guard {plain:.2f} ns, "
          f"site-naming MutexLock (stats off) {guarded:.2f} ns")
    assert guarded <= 2.0 * plain + 2.0, (
        f"disabled sync-stats guard too slow over {lock}: "
        f"{guarded:.2f} ns vs plain {plain:.2f} ns")
print("overhead smoke OK")
EOF

echo "== all checks passed =="
