#!/usr/bin/env bash
# Repo-wide verification with one line of PASS/FAIL per stage:
# tier-1 build + ctest, the differential oracle smoke suite, an ASan/UBSan
# pass that re-runs both the unit tests and the harness, and a TSan pass
# that runs the concurrency stress tests, the process-pool tests, the
# threaded differential and the build-equivalence sweep.
# Both sanitizer passes also run the query-server suite (dgf_server_tests),
# the observability suite (dgf_obs_tests), the shard-coordinator suite
# (dgf_coord_tests), and the replication suite (dgf_replication_tests); a
# shard smoke stage runs the sharded-vs-oracle cluster sweep plus the wire
# fuzz (now including the HTTP-exporter stage), an exporter smoke asserts
# /metrics stays responsive under 8-client query load, a replication
# smoke stage runs the kill-a-node survivability sweep (replicated clusters
# with daemon/store kills diffed against the oracle), and a columnar codec
# fuzz stage (native + both sanitizers) attacks the columnar slice reader
# with flipped bits, truncations, and crafted lying blocks
# (contract: every stage prints exactly one [PASS]/[FAIL] line; any [FAIL]
# makes the script exit non-zero).
#
#   scripts/check.sh            # all stages
#   scripts/check.sh --fast     # skip the sanitizer stages
set -u

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
FAILED=0

stage() {
  local name="$1"
  shift
  local log
  log="$(mktemp /tmp/dgf_check_XXXXXX.log)"
  if "$@" >"$log" 2>&1; then
    echo "[PASS] $name"
    rm -f "$log"
  else
    echo "[FAIL] $name (log: $log)"
    tail -20 "$log" | sed 's/^/       /'
    FAILED=1
  fi
}

stage "configure"        cmake -B build -S .
stage "build"            cmake --build build -j "$JOBS"
stage "unit tests"       ctest --test-dir build -j "$JOBS" --output-on-failure
stage "difftest tier1"   ./build/src/dgf_difftest --seeds=tier1
# Shard smoke: paper-template queries through in-process 1/2/4-shard
# clusters behind the coordinator, diffed against the single-node oracle,
# plus the mutated-frame wire fuzz against the codec and a live server.
stage "shard smoke"      ./build/src/dgf_difftest --shard-sweep --wire-fuzz \
  --count=3 --seed=11
# Replication smoke: the node-crash survivability sweep — 2-way replicated
# LSM-backed clusters take a store kill (failover reads), a wipe + repair, a
# marker append, and a daemon kill + cold reopen with one store dir
# destroyed; every answer must equal the single-node oracle and recovery
# must equal the acknowledged prefix.
stage "replication smoke" ./build/src/dgf_difftest --node-crash-sweep \
  --seed=41 --seeds=2
# Observability suite: registry/histogram/exporter/trace tests, then an
# exporter-under-load smoke — 8 client threads of query load while a poller
# hammers /metrics and /healthz; any failed probe fails the binary.
stage "obs tests"        ./build/tests/dgf_obs_tests
stage "exporter smoke"   ./build/bench/bench_server_throughput \
  --http-port=0 --threads=8 --queries=5 --users=60 --days=3
# Columnar codec fuzz: seed-replayable mutated/crafted columnar groups must
# always end in structured Corruption or a clean prefix — never a crash or
# silently wrong rows.
stage "col fuzz"         ./build/src/dgf_difftest --col-fuzz --seed=37
# Parallel-build speedup gate (1.5x floor at 4 threads); self-skips (exit 0)
# on hosts with < 4 CPUs, where the comparison measures nothing.
stage "perf smoke"       ./build/bench/bench_perf_smoke

if [[ "${1:-}" == "--fast" ]]; then
  echo "== done (fast mode, sanitizer stages skipped) =="
  exit "$FAILED"
fi

stage "asan configure"   cmake -B build-asan -S . -DDGF_SANITIZE=ON
stage "asan build"       cmake --build build-asan -j "$JOBS"
stage "asan kv/dgf tests" ctest --test-dir build-asan -j "$JOBS" \
  --output-on-failure \
  -R 'Kv|Sstable|Lsm|Dgf|Slice|ColFormat|Difftest|ParallelFor|JobRunner'
stage "asan difftest"    ./build-asan/src/dgf_difftest --seed=1 --queries=40
stage "asan col fuzz"    ./build-asan/src/dgf_difftest --col-fuzz --seed=37
stage "asan server tests" ./build-asan/tests/dgf_server_tests
stage "asan obs tests"   ./build-asan/tests/dgf_obs_tests
stage "asan coord tests" ./build-asan/tests/dgf_coord_tests
stage "asan replication tests" ./build-asan/tests/dgf_replication_tests
stage "asan shard smoke" ./build-asan/src/dgf_difftest --shard-sweep \
  --wire-fuzz --count=1 --seed=11
stage "asan replication smoke" ./build-asan/src/dgf_difftest \
  --node-crash-sweep --seed=41 --seeds=1

# ThreadSanitizer: concurrent readers vs appender/optimizer (the stress
# tests), the process pool's ParallelFor and the MiniMR jobs on it, the
# threaded differential against its sequential oracle, and the
# build-equivalence sweep, whose builder phases share the process pool. A
# reported race fails the binary (TSan exits non-zero), which fails the
# stage.
stage "tsan configure"   cmake -B build-tsan -S . -DDGF_SANITIZE=TSAN
stage "tsan build"       cmake --build build-tsan -j "$JOBS"
stage "tsan stress tests" ctest --test-dir build-tsan -j "$JOBS" \
  --output-on-failure -R 'ConcurrencyStress|ParallelFor|JobRunner'
stage "tsan difftest"    ./build-tsan/src/dgf_difftest --threads=4 --seeds=tier1
stage "tsan build sweep" ./build-tsan/src/dgf_difftest --build-sweep \
  --count=2 --seed=3
stage "tsan col fuzz"    ./build-tsan/src/dgf_difftest --col-fuzz --seed=37
stage "tsan server tests" ./build-tsan/tests/dgf_server_tests
stage "tsan obs tests"   ./build-tsan/tests/dgf_obs_tests
stage "tsan coord tests" ./build-tsan/tests/dgf_coord_tests
stage "tsan replication tests" ./build-tsan/tests/dgf_replication_tests
stage "tsan shard smoke" ./build-tsan/src/dgf_difftest --shard-sweep \
  --wire-fuzz --count=1 --seed=11
stage "tsan replication smoke" ./build-tsan/src/dgf_difftest \
  --node-crash-sweep --seed=41 --seeds=1

exit "$FAILED"
