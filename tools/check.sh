#!/usr/bin/env bash
# One-shot gate for the static-analysis toolchain plus tier-1:
#
#   1. aflint         — whole-program linter over src/, tests/, tools/, bench/:
#                       per-file rules, static lock-order deadlock analysis,
#                       and module layering against tools/layers.toml
#   2. findings       — machine-readable pipeline: `aflint --json` must be
#                       byte-stable across runs and diff clean against the
#                       checked-in tools/aflint_baseline.json
#   3. afmetrics      — telemetry registry self-test (concurrency, histogram
#                       bucket math, render formats)
#   4. thread-safety  — clang -Wthread-safety -Werror=thread-safety build
#                       (skipped with a notice when clang++ is absent; the
#                       AF_* annotations compile to nothing under GCC, so a
#                       GCC build proves nothing about locking)
#   5. tier-1         — default build + full ctest suite
#   6. net smoke      — TSan build of afserved + afprobe + the net tests:
#                       boots the server on an ephemeral loopback port,
#                       drives it with afprobe, then runs net_test,
#                       fuzz_wire_test and catalog_test (concurrent
#                       sessions' stats lookups) under the same TSan build
#   7. vectorized     — row/vec parity, thread-count determinism, the
#                       probe-path suite (cache, trace, sampling on the
#                       vectorized engine), the memory store and the probe
#                       batches of fault_tolerance_test under the same TSan
#                       build, then the bench smoke (bench_parallel_exec
#                       --quick), which fails if the vectorized path is ever
#                       slower than the row path or if a probe batch falls
#                       back to rows
#   8. durability     — the WAL kill-and-recover torture (wal_test) under
#                       AddressSanitizer via tools/run_sanitized.sh: every
#                       injected crash site must recover to a committed
#                       prefix with no leaks or heap errors on the
#                       error/recovery paths; fault_tolerance_test adds
#                       morsel faults that stop a scan mid-loop while
#                       segment pins and arena blocks are live;
#                       common_test runs the CRC32C kernel against a
#                       bytewise reference at every length, split point
#                       and unaligned offset, so its 8-byte loads stay in
#                       bounds
#   9. fleet smoke    — a 4-loop TSan afserved with admission quotas and
#                       token auth armed: authenticated pipelined smoke via
#                       afprobe, a rejected bad-token connect, then the
#                       bench_fleet --quick gate (shed integrity always;
#                       multi-loop-beats-single-loop on >=4 cores)
#  10. paged storage  — storage_test (pin storms, evict/fault byte-identity,
#                       eviction-vs-checkpoint races) under the same TSan
#                       build, then the bench_storage --quick gate: a
#                       10%-residency scan must be byte-identical to fully
#                       resident and must actually fault
#
#   tools/check.sh              # all ten stages
#   tools/check.sh --no-tests   # static stages only (fast pre-push)
#
# Exits non-zero on the first failing stage.

set -euo pipefail
cd "$(dirname "$0")/.."

run_tests=1
if [[ "${1:-}" == "--no-tests" ]]; then
  run_tests=0
fi

echo "=== [1/10] aflint ==="
# The lint rule engine is a plain C++ library; build just the CLI target so
# this stage stays fast even on a cold tree.
cmake -B build -S . > /dev/null
cmake --build build -j "$(nproc)" --target aflint > /dev/null
./build/tools/aflint --root . src tests tools bench
echo "aflint: clean"

echo "=== [2/10] aflint findings pipeline ==="
# Byte-stability: two runs over the same tree must produce identical JSON
# (sorted findings, fixed key order, content-addressed fingerprints).
json_a=$(mktemp)
json_b=$(mktemp)
./build/tools/aflint --root . --json src tests tools bench > "$json_a"
./build/tools/aflint --root . --json src tests tools bench > "$json_b"
cmp "$json_a" "$json_b"
rm -f "$json_a" "$json_b"
# Baseline gate: a finding whose fingerprint is missing from the checked-in
# baseline fails the stage. After deliberately accepting a finding, refresh
# with `aflint --root . --update-baseline src tests tools bench`.
./build/tools/aflint --root . --baseline tools/aflint_baseline.json \
    src tests tools bench
echo "findings: byte-stable, no new findings vs tools/aflint_baseline.json"

echo "=== [3/10] afmetrics self-test ==="
cmake --build build -j "$(nproc)" --target afmetrics > /dev/null
./build/tools/afmetrics --self-test

echo "=== [4/10] clang thread-safety analysis ==="
if command -v clang++ > /dev/null 2>&1; then
  cmake -B build-tsafety -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DAGENTFIRST_THREAD_SAFETY=ON > /dev/null
  cmake --build build-tsafety -j "$(nproc)"
  echo "thread-safety: clean"
else
  echo "thread-safety: SKIPPED (clang++ not found; install clang to check" \
       "the AF_GUARDED_BY/AF_REQUIRES annotations)"
fi

if [[ "$run_tests" == "1" ]]; then
  echo "=== [5/10] tier-1 build + tests ==="
  cmake --build build -j "$(nproc)"
  ctest --test-dir build --output-on-failure -j "$(nproc)"
else
  echo "=== [5/10] tier-1 tests skipped (--no-tests) ==="
fi

if [[ "$run_tests" == "1" ]]; then
  echo "=== [6/10] networked service smoke (TSan) ==="
  cmake -B build-tsan -S . -DAGENTFIRST_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-tsan -j "$(nproc)" \
        --target afserve afprobe net_test fuzz_wire_test catalog_test \
        > /dev/null
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

  serve_log=$(mktemp)
  ./build-tsan/tools/afserve --demo > "$serve_log" 2>&1 &
  serve_pid=$!
  trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
  # The server prints "afserved listening on HOST:PORT" once bound; the port
  # is ephemeral, so parse it instead of hardcoding one.
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^afserved listening on .*:\([0-9][0-9]*\)$/\1/p' "$serve_log" | head -1)
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "afserved did not come up:" >&2
    cat "$serve_log" >&2
    exit 1
  fi
  ./build-tsan/tools/afprobe --connect "127.0.0.1:$port" \
      --sql "SELECT city, SUM(revenue) FROM stores JOIN sales ON stores.store_id = sales.store_id GROUP BY city ORDER BY city"
  kill "$serve_pid"
  wait "$serve_pid"
  trap - EXIT
  echo "--- afserved shut down cleanly; its af.net.* accounting:"
  grep "af.net." "$serve_log" || true

  ./build-tsan/tests/net_test
  ./build-tsan/tests/fuzz_wire_test
  ./build-tsan/tests/catalog_test
else
  echo "=== [6/10] net smoke skipped (--no-tests) ==="
fi

if [[ "$run_tests" == "1" ]]; then
  echo "=== [7/10] vectorized parity + memory store (TSan) + bench smoke ==="
  # Parity (row path == vec path, byte-identical) and determinism (same
  # answer at 1/2/4/8 threads) have to hold under TSan, or the batch
  # kernels' lock-free morsel claiming is wrong in a way plain runs can
  # miss. memory_store_test adds the indexed store's linear-scan oracle and
  # answer reuse under concurrent eviction; fault_tolerance_test's batches
  # at 1/2/4/8 threads reach answer reuse from concurrent probes.
  # Reuses the stage-6 TSan build tree.
  cmake --build build-tsan -j "$(nproc)" \
        --target vectorized_exec_test parallel_determinism_test \
        probe_path_test memory_store_test fault_tolerance_test > /dev/null
  ./build-tsan/tests/vectorized_exec_test
  ./build-tsan/tests/parallel_determinism_test
  ./build-tsan/tests/probe_path_test
  ./build-tsan/tests/memory_store_test
  ./build-tsan/tests/fault_tolerance_test
  # Perf gate: the vectorized path must beat the row path on its own
  # workloads (scan+filter, hash join, aggregate), and a default-options
  # probe batch must run every executed query vectorized; --quick exits
  # non-zero on any regression. Run from the default (unsanitized) build.
  cmake --build build -j "$(nproc)" --target bench_parallel_exec > /dev/null
  ./build/bench/bench_parallel_exec --quick
else
  echo "=== [7/10] vectorized parity + bench smoke skipped (--no-tests) ==="
fi

if [[ "$run_tests" == "1" ]]; then
  echo "=== [8/10] durability kill-and-recover torture (ASan) ==="
  # The whole wal_test suite — framing fuzz, group commit, and the
  # >=50-injection-point crash torture — under AddressSanitizer with leak
  # detection. The crash sites exercise every error/cleanup path in the
  # writer, checkpointer, and recoverer; ASan proves those paths release
  # what they allocate even when the "disk" fails mid-operation.
  # fault_tolerance_test's morsel faults stop a vectorized operator mid-loop
  # at every thread count, one included, with segment pins and arena blocks
  # live. common_test's CRC32C property test walks the slicing-by-8 kernel
  # over every length 0-300 at every split point and unaligned offset: the
  # checksum that guards WAL frames, checkpoints and pages.
  tools/run_sanitized.sh address 'wal_test|fault_tolerance_test|common_test'
else
  echo "=== [8/10] durability torture skipped (--no-tests) ==="
fi

if [[ "$run_tests" == "1" ]]; then
  echo "=== [9/10] fleet-scale serving smoke (TSan) + bench_fleet gate ==="
  # A sharded server with every fleet mechanism armed: 4 event loops,
  # admission quotas, and token auth. Reuses the stage-6 TSan build.
  cmake --build build-tsan -j "$(nproc)" --target afserve afprobe > /dev/null
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

  tokens_file=$(mktemp)
  printf '%s\n' '# check.sh fleet smoke' 'ck-t0ken smoke-tenant' \
      > "$tokens_file"
  fleet_log=$(mktemp)
  ./build-tsan/tools/afserve --demo --num-loops 4 \
      --tokens-file "$tokens_file" --max-concurrent 8 --max-queued 16 \
      --tenant-inflight 8 --tenant-bytes 1000000 > "$fleet_log" 2>&1 &
  fleet_pid=$!
  trap 'kill "$fleet_pid" 2>/dev/null || true' EXIT
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^afserved listening on .*:\([0-9][0-9]*\)$/\1/p' "$fleet_log" | head -1)
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "fleet afserved did not come up:" >&2
    cat "$fleet_log" >&2
    exit 1
  fi
  # Authenticated pipelined smoke: afprobe's client pipelines over one
  # connection; the probe passes the admission gate.
  ./build-tsan/tools/afprobe --addr "127.0.0.1:$port" --token ck-t0ken \
      --sql "SELECT COUNT(*) FROM stores"
  ./build-tsan/tools/afprobe --addr "127.0.0.1:$port" --token ck-t0ken \
      --probe "rough is fine | SELECT city, SUM(revenue) FROM stores JOIN sales ON stores.store_id = sales.store_id GROUP BY city"
  # A bad token must be refused at the handshake (kUnauthenticated).
  if ./build-tsan/tools/afprobe --addr "127.0.0.1:$port" --token wrong \
      --sql "SELECT 1" 2>/dev/null; then
    echo "fleet smoke: bad token was accepted" >&2
    exit 1
  fi
  echo "fleet smoke: bad token refused as expected"
  kill "$fleet_pid"
  wait "$fleet_pid"
  trap - EXIT
  rm -f "$tokens_file"
  echo "--- fleet afserved accounting (loops, admission, auth):"
  grep -E "af\.(net\.loop|net\.auth|admit)\." "$fleet_log" || true

  # The fleet bench gate, from the default (unsanitized) build: shed
  # integrity is checked unconditionally; the multi-loop-vs-single-loop
  # throughput gate arms itself only on >=4 cores (on fewer there is
  # nothing to shard onto, and the bench says so). A scratch JSON keeps
  # --quick numbers out of the checked-in BENCH_net.json.
  cmake --build build -j "$(nproc)" --target bench_fleet > /dev/null
  fleet_json=$(mktemp)
  ./build/bench/bench_fleet --quick "$fleet_json"
  rm -f "$fleet_json"
else
  echo "=== [9/10] fleet smoke + bench_fleet gate skipped (--no-tests) ==="
fi

if [[ "$run_tests" == "1" ]]; then
  echo "=== [10/10] paged storage (TSan) + bench_storage gate ==="
  # The buffer pool's evict/fault machinery under TSan: concurrent pin
  # storms, dirty write-back, and the eviction-races-checkpoint composition
  # test. Reuses the stage-6 TSan build tree.
  cmake --build build-tsan -j "$(nproc)" --target storage_test > /dev/null
  ./build-tsan/tests/storage_test
  # The residency gate, from the default (unsanitized) build: starved
  # residency must change nothing but speed, and must actually fault. A
  # scratch JSON keeps --quick numbers out of the checked-in
  # BENCH_parallel.json.
  cmake --build build -j "$(nproc)" --target bench_storage > /dev/null
  storage_json=$(mktemp)
  ./build/bench/bench_storage --quick "$storage_json"
  rm -f "$storage_json"
else
  echo "=== [10/10] paged storage + bench_storage gate skipped (--no-tests) ==="
fi

echo "check.sh: all stages passed"
