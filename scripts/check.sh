#!/usr/bin/env bash
# Sanitizer gate: builds the whole tree as Debug with ASan+UBSan
# (PPRL_SANITIZE=ON) into build-asan/ and runs the full test suite.
# The networking/service code in particular must stay sanitizer-clean.
#
# usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DPPRL_SANITIZE=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error makes ctest fail loudly on the first sanitizer report.
export ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" "$@"
echo "check.sh: all tests passed under ASan+UBSan"

# ThreadSanitizer gate for the concurrent paths: the parallel compare
# executor (CompareRanges) and the kernels its range tasks run on the
# shard pool, the shard pool and its TaskGroup handoff themselves, the
# parallel pipeline, recovery's pooled index rebuild and replay runs, and
# the lock-free metrics registry they all report into.
# Scoped to those tests — TSan slows everything ~10x and the rest of the
# suite is single-threaded.
TSAN_BUILD_DIR=build-tsan
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DPPRL_SANITIZE=thread
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" \
  --target comparison_test compare_kernels_test thread_pool_test \
           parallel_pipeline_test metrics_test online_linkage_test \
           wal_test recovery_test replay_parity_test

export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "$(nproc)" \
  -R '^(comparison_test|compare_kernels_test|thread_pool_test|parallel_pipeline_test|metrics_test|online_linkage_test|wal_test|recovery_test|replay_parity_test)$'
echo "check.sh: concurrency tests passed under TSan"

# Service gate: the daemon's session threads under TSan. Seeded fault
# injection forces connection loss, resumes and shedding across the
# accept/session/sweeper threads, the round-trip suite runs concurrent
# owners through one daemon, and the coordinator suite drives worker
# daemons from parallel scatter threads — exactly the interleavings TSan
# exists to check. Budgeted at 60 s per suite so a deadlock in the
# resume, quorum or shutdown path fails the gate instead of hanging it.
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" \
  --target service_chaos_test service_roundtrip_test coordinator_test
ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure --timeout 60 \
  -R '^(service_chaos_test|service_roundtrip_test|coordinator_test)$'
echo "check.sh: service suites passed under TSan"

# Scaling gate: the parallel compare executor must actually scale, and
# the gate prints the measured numbers so a failure is diagnosable from
# the log. Run the committed benchmark's parallel sweep from an optimized
# build and check, at 500 bits:
#   * >= 4 cores: range-t4 >= 2.5x range-t1 (the executor's floor; an
#     early single-producer shard scheme plateaued near 1.1x), and on
#     >= 8 cores additionally range-t8 >= range-t4 (no inversion — more
#     workers must never make the run slower).
#   * fewer cores (including this repo's 1-core reference box, where
#     extra workers cannot speed anything up): t4 merely must not
#     collapse below 0.8x t1.
PERF_BUILD_DIR=build
cmake -B "${PERF_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${PERF_BUILD_DIR}" -j "$(nproc)" --target bench_compare_kernels
SCALING_JSON=$(mktemp /tmp/pprl-parallel-XXXX.json)
"${PERF_BUILD_DIR}"/bench/bench_compare_kernels /dev/null "${SCALING_JSON}" >/dev/null
python3 - "${SCALING_JSON}" "$(nproc)" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
cores = int(sys.argv[2])
rates = {m["threads"]: m["pairs_per_sec"] for m in data["measurements"] if m["bits"] == 500}
for t in sorted(rates):
    print(f"check.sh: range-t{t} = {rates[t] / 1e6:.1f} Mpairs/s at 500 bits "
          f"({rates[t] / (rates[1] * t):.2f} scaling efficiency)")
ok = True
if cores >= 4:
    ratio = rates[4] / rates[1]
    print(f"check.sh: range-t4/t1 = {ratio:.2f}x ({cores} cores, need >= 2.5x)")
    ok &= ratio >= 2.5
    if cores >= 8:
        ratio8 = rates[8] / rates[4]
        print(f"check.sh: range-t8/t4 = {ratio8:.2f}x (need >= 1.0x, no inversion)")
        ok &= ratio8 >= 1.0
else:
    ratio = rates[4] / rates[1]
    print(f"check.sh: range-t4/t1 = {ratio:.2f}x ({cores} cores, need >= 0.8x)")
    ok &= ratio >= 0.8
sys.exit(0 if ok else 1)
EOF
rm -f "${SCALING_JSON}"
echo "check.sh: parallel scaling gate passed"

# Ingest smoke: the I/O subsystem's two promises, on a small corpus from an
# optimized build. (1) Dialect parity — csv_stream_test runs the SIMD and
# scalar scanners against each other and the legacy parser; here it runs
# from the Release build, where the AVX2 path is actually dispatched.
# (2) Format speedup — PCLK must load encoded CLKs at >= 5x the records/s
# of the legacy text CSV reader (the committed BENCH_ingest.json holds the
# 1M-row figure; 100k keeps the gate fast). bench_ingest exits non-zero
# below 5x, and the JSON is re-checked here so the gate survives exit-code
# refactors.
cmake --build "${PERF_BUILD_DIR}" -j "$(nproc)" --target bench_ingest csv_stream_test
ctest --test-dir "${PERF_BUILD_DIR}" --output-on-failure -R '^csv_stream_test$'
INGEST_JSON=$(mktemp /tmp/pprl-ingest-XXXX.json)
"${PERF_BUILD_DIR}"/bench/bench_ingest 100000 1024 "${INGEST_JSON}" >/dev/null
python3 - "${INGEST_JSON}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
rates = {m["config"]: m["records_per_sec"] for m in data["measurements"]}
ratio = rates["load-clks-pclk"] / rates["load-clks-csv-legacy"]
print(f"check.sh: PCLK/legacy-CSV load = {ratio:.1f}x records/s (need >= 5x)")
sys.exit(0 if ratio >= 5.0 else 1)
EOF
rm -f "${INGEST_JSON}"
echo "check.sh: ingest smoke passed"

# Docs freshness gate: scripts/check_docs.sh proves docs/OBSERVABILITY.md
# lists exactly the metrics the code registers (both directions) and that
# every flag documented in docs/OPERATIONS.md exists in the binaries'
# --help (and vice versa). Docs that drift from the code fail CI.
cmake --build "${PERF_BUILD_DIR}" -j "$(nproc)" --target pprl_linkd pprl_cli pprl_clk
scripts/check_docs.sh "${PERF_BUILD_DIR}"
echo "check.sh: docs lint passed"

# README smoke + threaded and sharded parity gate: the two quickstart
# paths from the README run end to end with real processes, and both a
# --threads 4 single daemon and the sharded run — a coordinator
# scattering over two --worker daemons, with chaos injection on — must
# hand every owner byte-identical match files and print the same
# cluster/edge/comparison counts as the serial single daemon. This is the
# operator-visible form of the bitwise-determinism contract that
# tests/coordinator_test.cc checks in-process.
SMOKE=$(mktemp -d /tmp/pprl-smoke-XXXXXX)
LINKD="${PERF_BUILD_DIR}/examples/pprl_linkd"
CLI="${PERF_BUILD_DIR}/examples/pprl_cli"
"${CLI}" generate "${SMOKE}/a.csv" "${SMOKE}/b.csv" 400 >/dev/null
"${CLI}" encode "${SMOKE}/a.csv" "${SMOKE}/a.pclk" shared-secret >/dev/null
"${CLI}" encode "${SMOKE}/b.csv" "${SMOKE}/b.pclk" shared-secret >/dev/null

# A positional threshold that is not a number in (0, 1] is a usage
# error (exit 2), never a silent threshold of 0.
for BAD in abc 0 1.5; do
  RC=0
  "${LINKD}" 18904 2 "${BAD}" >/dev/null 2>&1 || RC=$?
  [ "${RC}" = 2 ] || { echo "check.sh: pprl_linkd threshold '${BAD}' exited ${RC}, want 2" >&2; exit 1; }
done

# Owner registration order IS the database-index order that the
# canonical cluster ids depend on: every daemon in these gates must see
# clinic-a register first, or the byte-parity cmps below would compare
# different (isomorphic, but differently numbered) cluster labelings.
# The daemons log each registration on stderr; ship the second owner
# only once the first one is in.
wait_registered() { # <stderr log> <party>
  for _ in $(seq 200); do
    grep -q "registered shipment of owner '$2'" "$1" && return 0
    sleep 0.05
  done
  echo "check.sh: owner '$2' never registered (see $1)" >&2
  return 1
}

# Path 1: single daemon (README "networked quickstart"), pinned to one
# link thread: the serial reference the other paths must match, now that
# the default is one link thread per core.
"${LINKD}" 18901 2 0.8 --threads 1 > "${SMOKE}/single.log" 2> "${SMOKE}/single.err" &
SINGLE_PID=$!
sleep 0.5
"${CLI}" ship "${SMOKE}/a.pclk" clinic-a 127.0.0.1:18901 "${SMOKE}/a_single.csv" >/dev/null &
SHIP_A=$!
wait_registered "${SMOKE}/single.err" clinic-a
"${CLI}" ship "${SMOKE}/b.pclk" clinic-b 127.0.0.1:18901 "${SMOKE}/b_single.csv" >/dev/null
wait "${SHIP_A}" "${SINGLE_PID}"

# Path 1b: the same single daemon with --threads 4: its index builds and
# candidate-range tasks run on the daemon's pool. Must match the serial
# daemon byte for byte.
"${LINKD}" 18903 2 0.8 --threads 4 > "${SMOKE}/threaded.log" 2> "${SMOKE}/threaded.err" &
THREADED_PID=$!
sleep 0.5
"${CLI}" ship "${SMOKE}/a.pclk" clinic-a 127.0.0.1:18903 "${SMOKE}/a_threaded.csv" >/dev/null &
SHIP_A=$!
wait_registered "${SMOKE}/threaded.err" clinic-a
"${CLI}" ship "${SMOKE}/b.pclk" clinic-b 127.0.0.1:18903 "${SMOKE}/b_threaded.csv" >/dev/null
wait "${SHIP_A}" "${THREADED_PID}"

# Path 2: coordinator + two workers (docs/OPERATIONS.md walkthrough),
# with deterministic chaos on every link. The workers keep the default
# --threads (one per core), so their partitions run on their pools.
"${LINKD}" 18911 2 --worker > "${SMOKE}/worker1.log" &
WORKER1_PID=$!
"${LINKD}" 18912 2 --worker > "${SMOKE}/worker2.log" &
WORKER2_PID=$!
sleep 0.5
"${LINKD}" 18902 2 0.8 --workers 18911,18912 --chaos 99 > "${SMOKE}/coord.log" 2> "${SMOKE}/coord.err" &
COORD_PID=$!
sleep 0.5
"${CLI}" ship "${SMOKE}/a.pclk" clinic-a 127.0.0.1:18902 "${SMOKE}/a_coord.csv" >/dev/null &
SHIP_A=$!
wait_registered "${SMOKE}/coord.err" clinic-a
"${CLI}" ship "${SMOKE}/b.pclk" clinic-b 127.0.0.1:18902 "${SMOKE}/b_coord.csv" >/dev/null
wait "${SHIP_A}" "${COORD_PID}"
kill "${WORKER1_PID}" "${WORKER2_PID}" 2>/dev/null || true
wait "${WORKER1_PID}" "${WORKER2_PID}" 2>/dev/null || true

cmp "${SMOKE}/a_single.csv" "${SMOKE}/a_threaded.csv"
cmp "${SMOKE}/b_single.csv" "${SMOKE}/b_threaded.csv"
cmp "${SMOKE}/a_single.csv" "${SMOKE}/a_coord.csv"
cmp "${SMOKE}/b_single.csv" "${SMOKE}/b_coord.csv"
SINGLE_COUNTS=$(grep '^linked ' "${SMOKE}/single.log")
THREADED_COUNTS=$(grep '^linked ' "${SMOKE}/threaded.log")
COORD_COUNTS=$(grep '^linked ' "${SMOKE}/coord.log")
echo "check.sh: single daemon : ${SINGLE_COUNTS}"
echo "check.sh: --threads 4   : ${THREADED_COUNTS}"
echo "check.sh: sharded+chaos : ${COORD_COUNTS}"
[ "${SINGLE_COUNTS}" = "${THREADED_COUNTS}" ]
[ "${SINGLE_COUNTS}" = "${COORD_COUNTS}" ]
echo "check.sh: threaded and sharded linkage parity gate passed (chaos seed 99)"

# Online serving parity gate: a 5k+5k corpus (10k appended records)
# through the protocol-v4 serving path. A batch daemon with
# connected-components clustering ships both parties and writes each
# owner's match file; an online daemon absorbs the same shards via
# `pprl_cli append` and answers `pprl_cli query` for each party. The
# query CSVs must be BYTE-IDENTICAL to the batch match files (the
# stream/batch equivalence contract of linkage/online_linkage.h,
# operator-visible), and the query loop must clear a conservative
# single-core throughput floor.
"${CLI}" generate "${SMOKE}/c.csv" "${SMOKE}/d.csv" 5000 >/dev/null
"${CLI}" encode "${SMOKE}/c.csv" "${SMOKE}/c.pclk" shared-secret >/dev/null
"${CLI}" encode "${SMOKE}/d.csv" "${SMOKE}/d.pclk" shared-secret >/dev/null
"${LINKD}" 18921 2 0.8 --clustering cc > "${SMOKE}/batchcc.log" 2> "${SMOKE}/batchcc.err" &
BATCH_PID=$!
sleep 0.5
"${CLI}" ship "${SMOKE}/c.pclk" clinic-a 127.0.0.1:18921 "${SMOKE}/c_batchcc.csv" >/dev/null &
SHIP_A=$!
wait_registered "${SMOKE}/batchcc.err" clinic-a
"${CLI}" ship "${SMOKE}/d.pclk" clinic-b 127.0.0.1:18921 "${SMOKE}/d_batchcc.csv" >/dev/null
wait "${SHIP_A}" "${BATCH_PID}"

"${LINKD}" 18922 2 0.8 --online > "${SMOKE}/online.log" &
ONLINE_PID=$!
sleep 0.5
"${CLI}" append "${SMOKE}/c.pclk" clinic-a 127.0.0.1:18922 >/dev/null
"${CLI}" append "${SMOKE}/d.pclk" clinic-b 127.0.0.1:18922 >/dev/null
"${CLI}" query "${SMOKE}/c.pclk" clinic-a 127.0.0.1:18922 "${SMOKE}/c_online.csv" \
  | tee "${SMOKE}/query_c.out"
"${CLI}" query "${SMOKE}/d.pclk" clinic-b 127.0.0.1:18922 "${SMOKE}/d_online.csv" >/dev/null
kill "${ONLINE_PID}" 2>/dev/null || true
wait "${ONLINE_PID}" 2>/dev/null || true

cmp "${SMOKE}/c_batchcc.csv" "${SMOKE}/c_online.csv"
cmp "${SMOKE}/d_batchcc.csv" "${SMOKE}/d_online.csv"
QPS=$(sed -n 's/.*(\([0-9]*\) link-queries\/s).*/\1/p' "${SMOKE}/query_c.out")
echo "check.sh: online query throughput = ${QPS} link-queries/s (need >= 2000)"
[ "${QPS}" -ge 2000 ]
echo "check.sh: online serving parity gate passed"

# Crash-recovery parity gate: the same 10k-record corpus through a
# DURABLE online daemon that is crash-injected mid-ingest
# (--chaos-crash-after fires _Exit after a seeded journaled-op count — no
# destructors, no final checkpoint, exactly a SIGKILL). A second daemon
# recovers from the WAL, the owners re-drive their appends from base 0
# (the cursored v4 protocol makes the re-drive idempotent), and the
# recovered daemon's query CSVs must be BYTE-IDENTICAL to the batch
# reference files from the gate above. The recovery line doubles as the
# restart-latency printout.
SEED=$(( $(date +%s) % 1000 ))
CRASH_N=$(( SEED % 30 + 5 ))
DUR_DIR="${SMOKE}/durable"
CLK="${PERF_BUILD_DIR}/examples/pprl_clk"
"${LINKD}" 18933 2 0.8 --online --wal-dir "${DUR_DIR}" --wal-sync-ms 0 \
  --chaos-crash-after "${CRASH_N}" > "${SMOKE}/crash.log" 2> "${SMOKE}/crash.err" &
CRASH_PID=$!
sleep 0.5
"${CLI}" append "${SMOKE}/c.pclk" clinic-a 127.0.0.1:18933 >/dev/null 2>&1 || true
"${CLI}" append "${SMOKE}/d.pclk" clinic-b 127.0.0.1:18933 >/dev/null 2>&1 || true
if kill -0 "${CRASH_PID}" 2>/dev/null; then
  # Seeded crash point landed beyond the ingest's op count: hard-kill
  # instead, which exercises the crash-after-full-absorb recovery path.
  kill -9 "${CRASH_PID}" 2>/dev/null || true
fi
wait "${CRASH_PID}" 2>/dev/null || true

"${LINKD}" 18934 2 0.8 --online --wal-dir "${DUR_DIR}" --wal-sync-ms 0 \
  > "${SMOKE}/recovered.log" 2> "${SMOKE}/recovered.err" &
RECOVERED_PID=$!
for _ in $(seq 200); do
  grep -q 'pprl_linkd: recovery:' "${SMOKE}/recovered.log" && break
  sleep 0.05
done
RESTART_LINE=$(grep 'pprl_linkd: recovery:' "${SMOKE}/recovered.log" || true)
[ -n "${RESTART_LINE}" ]
echo "check.sh: ${RESTART_LINE} [crash after op ${CRASH_N}, seed ${SEED}]"
"${CLI}" append "${SMOKE}/c.pclk" clinic-a 127.0.0.1:18934 >/dev/null
"${CLI}" append "${SMOKE}/d.pclk" clinic-b 127.0.0.1:18934 >/dev/null
"${CLI}" query "${SMOKE}/c.pclk" clinic-a 127.0.0.1:18934 "${SMOKE}/c_recovered.csv" >/dev/null
"${CLI}" query "${SMOKE}/d.pclk" clinic-b 127.0.0.1:18934 "${SMOKE}/d_recovered.csv" >/dev/null
cmp "${SMOKE}/c_batchcc.csv" "${SMOKE}/c_recovered.csv"
cmp "${SMOKE}/d_batchcc.csv" "${SMOKE}/d_recovered.csv"
echo "check.sh: crash-recovery parity gate passed (byte-identical query CSVs)"

# Graceful-shutdown smoke: SIGTERM drains sessions, writes the final
# checkpoint and exits 0 (the bare `wait` propagates a non-zero status
# into set -e).
kill -TERM "${RECOVERED_PID}"
wait "${RECOVERED_PID}"
grep -q 'final checkpoint written' "${SMOKE}/recovered.err" "${SMOKE}/recovered.log"
echo "check.sh: graceful shutdown smoke passed (exit 0, final checkpoint)"

# Offline artifact audit: `pprl_clk verify` vouches for the checkpoint the
# shutdown left behind and for a PCLK shard, and rejects a corrupted copy
# with a typed error.
CKPT=$(ls "${DUR_DIR}"/checkpoint-*.pckp | head -1)
"${CLK}" verify "${CKPT}"
"${CLK}" verify "${SMOKE}/c.pclk" >/dev/null
cp "${CKPT}" "${SMOKE}/corrupt.pckp"
python3 - "${SMOKE}/corrupt.pckp" <<'EOF'
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(200)
    byte = f.read(1)[0]
    f.seek(200)
    f.write(bytes([byte ^ 0x40]))
EOF
if "${CLK}" verify "${SMOKE}/corrupt.pckp" > "${SMOKE}/verify.out" 2>&1; then
  echo "check.sh: verify accepted a corrupt checkpoint" >&2
  exit 1
fi
grep -qi 'corrupt' "${SMOKE}/verify.out"
rm -rf "${SMOKE}"
echo "check.sh: durable artifact verify smoke passed"

# Benchmark parity gate: the daemons block on LSH band fingerprints, and
# the traced perfbench replicas recompute Link's edges and every worker's
# owned edges through the string-keyed reference (HammingLshBlocker::
# BuildIndex / CandidatePairs, OwnedCandidatePairs) on realistic CLKs.
# run.py exits 3 on any difference.
for WORKLOAD in ship-single ship-sharded; do
  python3 perfbench/run.py --workload "${WORKLOAD}" --seed 1 --seconds 3 --trace 1 >/dev/null
  echo "check.sh: perfbench ${WORKLOAD} traced replica matches the string reference"
done
