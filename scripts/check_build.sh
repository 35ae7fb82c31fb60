#!/usr/bin/env bash
# Tier-1 verification: configure, build (the library, its tests and
# tools, then the stand-alone perfbench tree), run the tier-1 test suite,
# then run the bench_smoke label on its own so a regression in either
# pipeline (library correctness or bench wiring, including the
# async_pipeline, rank_pipeline, simd_hotpath, store_throughput,
# and store_query digest/equality gates) fails fast and visibly,
# followed by a feature-store tooling smoke (clover example writes
# a store, tdfstool verify/export/diff/query it) and the fault battery
# (fault_smoke ctest label plus a truncate/recover round trip
# through tdfstool and a crash -> auto-resume round trip through
# the checkpoint example + tdfstool ckpt-info). The TSan battery
# then rebuilds the concurrency tests with -fsanitize=thread
# (TIER1_TSAN) in their own tree and runs the tsan_smoke label —
# skipped with a notice when the toolchain cannot produce TSan
# binaries, or when SKIP_TSAN=1. The ASan battery then does the same
# with -fsanitize=address,undefined (TIER1_ASAN) for the store,
# checkpoint, run-harness, C API, packed-training, rollout, trace-dump,
# thread-pool and async-region tests under the asan_smoke label — skipped with a
# notice when the toolchain cannot produce ASan binaries, or when
# SKIP_ASAN=1. Last, a second Release tree builds with
# TDFE_NATIVE=ON (-march=native -ffast-math) and runs the tier-1
# tests only — the vectorized build is not bitwise-comparable to the
# default one, so the digest-gated benches are skipped there; the
# point is that the native build cannot silently rot (set
# SKIP_NATIVE=1 to opt out, e.g. for cross-compilation). It runs
# last so that a native failure cannot hide the sanitizer batteries;
# it still fails the script.
# This is the command CI and the roadmap's "tier-1 verify" refer to.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

cmake -B build -S .
cmake --build build -j"$(nproc)"
# The benchmark is its own CMake project over the same src/ tree
# (perfbench/CMakeLists.txt); building it here, build only, makes a
# change that breaks the library calls it pins fail this script.
cmake -B build-perfbench -S perfbench
cmake --build build-perfbench -j"$(nproc)"
cd build
ctest --output-on-failure -j"$(nproc)" -L tier1 "$@"
ctest --output-on-failure -L bench_smoke

# Feature-store tooling smoke: the clover example writes a store
# through the async pipeline, tdfstool must pronounce it intact and
# export it, and a diff against itself must be clean. The query
# subcommand must agree with the unfiltered record count, prune to
# a plausible subset under a filter, and reject a bad predicate.
./example_clover_shock --size 32 --store check_clover.tdfs
./tdfstool verify check_clover.tdfs
./tdfstool info check_clover.tdfs > /dev/null
./tdfstool export check_clover.tdfs --out check_clover.csv
./tdfstool diff check_clover.tdfs check_clover.tdfs
records=$(./tdfstool query check_clover.tdfs --agg count)
exported=$(($(wc -l < check_clover.csv) - 1)) # minus the header
if [[ "$records" != "$exported" ]]; then
  echo "!! query count $records != exported rows $exported" && exit 1
fi
filtered=$(./tdfstool query check_clover.tdfs --iter 10:20 \
    --agg count)
if (( filtered <= 0 || filtered >= records )); then
  echo "!! filtered query count $filtered out of range" && exit 1
fi
./tdfstool query check_clover.tdfs --where "mse<1" \
    --project iteration,mse --agg mean > /dev/null
if ./tdfstool query check_clover.tdfs --where "bogus<1" \
    > /dev/null 2>&1; then
  echo "!! bad predicate unexpectedly accepted" && exit 1
fi
# Malformed numeric flags exit 1 with a message, never read as 0
# (a bad --stall used to mean "wait forever", hence the timeout).
for bad in "query check_clover.tdfs --iter abc:xyz --agg count" \
    "query check_clover.tdfs --analysis foo --agg count" \
    "query check_clover.tdfs --stop false --agg count" \
    "tail check_missing.tdfs --stall x"; do
  rc=0
  timeout 10 ./tdfstool $bad > /dev/null 2> check_bad_flag.err || rc=$?
  if (( rc != 1 )) || [[ ! -s check_bad_flag.err ]]; then
    echo "!! tdfstool $bad exited $rc, want 1 with a message" && exit 1
  fi
done
rm -f check_bad_flag.err

# Telemetry smoke: the same example run with metrics + tracing on
# (2 pool threads so the async overlap spans are recorded) must
# emit a heartbeat line, and the exported documents must pass the
# tdfstool validators; a non-telemetry JSON must be rejected.
./example_clover_shock --size 32 --threads 2 --metrics-out check_obs.json \
    --trace-out check_obs_trace.json --metrics-every 100 \
    > check_obs.log 2>&1
grep -q "heartbeat iter=" check_obs.log
./tdfstool metrics check_obs.json > /dev/null
./tdfstool trace check_obs_trace.json > /dev/null
grep -q "region.digests_total" check_obs.json
echo '{"schema": "bogus"}' > check_obs_bad.json
if ./tdfstool metrics check_obs_bad.json > /dev/null 2>&1; then
  echo "!! bogus metrics document unexpectedly accepted" && exit 1
fi
rm -f check_obs.json check_obs_trace.json check_obs.log \
    check_obs_bad.json

# Fault battery: crash-point sweep, retry/degrade, salvage, and the
# Region surviving its sink's death (the fault_smoke ctest label),
# then a recovery round trip: truncate the store mid-file (a crash
# with the footer lost), salvage it with `tdfstool recover`, and the
# recovered store must verify clean and diff-match the original's
# prefix record-for-record.
ctest --output-on-failure -L fault_smoke
bytes=$(wc -c < check_clover.tdfs)
head -c $((bytes * 2 / 3)) check_clover.tdfs > check_torn.tdfs
if ./tdfstool verify check_torn.tdfs 2>/dev/null; then
  echo "!! torn store unexpectedly verified" && exit 1
fi
./tdfstool recover check_torn.tdfs check_recovered.tdfs
./tdfstool verify check_recovered.tdfs
./tdfstool info check_recovered.tdfs > /dev/null
rm -f check_clover.tdfs check_clover.csv check_torn.tdfs \
    check_recovered.tdfs

# Crash -> auto-resume round trip: the checkpoint example injects a
# mid-run kill with a torn final generation, the supervisor must
# fall back to the previous good generation and finish identical to
# the uninterrupted run (the example exits 1 otherwise), and the
# store it resumed in place must hold the reference store's records
# (wall_time aside). The kept generations must pass
# `tdfstool ckpt-info`, and a truncated copy must fail it.
./example_checkpoint_restart --store check_resume.tdfs \
    --ckpt check_ckpt --tear-newest --keep-ckpt
./tdfstool diff check_resume.tdfs check_resume.tdfs.reference \
    --ignore wall_time
newest_ckpt=$(ls check_ckpt.*.tdck | sort | tail -n 1)
./tdfstool ckpt-info "$newest_ckpt" > /dev/null
bytes=$(wc -c < "$newest_ckpt")
head -c $((bytes / 2)) "$newest_ckpt" > check_torn.tdck
if ./tdfstool ckpt-info check_torn.tdck > /dev/null 2>&1; then
  echo "!! torn checkpoint unexpectedly verified" && exit 1
fi
rm -f check_resume.tdfs check_resume.tdfs.reference \
    check_ckpt.*.tdck check_torn.tdck

# Live serving smoke: first the dashboard demo (in-process writer +
# tail, exits nonzero unless the tail delivers every record exactly
# once), then the cross-process crash drill — a clover run writing
# its store at flush-per-seal durability is tailed concurrently by
# tdfstool and SIGKILLed mid-write; the tail must end cleanly on its
# own (stall deadline -> salvaged static view), and every record it
# delivered must be a textual prefix of a full query over the
# recovered store. That is the PR-9 contract: a reader never sees a
# record a crash can take back.
./example_live_dashboard --records 2048 --block 128 \
    --store check_dash.tdfs
./example_clover_shock --size 96 --store check_live.tdfs \
    --store-durability flush > /dev/null &
writer_pid=$!
./tdfstool tail check_live.tdfs --stall 5 > check_tailed.csv &
tail_pid=$!
# Kill only once the tail has demonstrably delivered records (header
# + at least one row): a fixed sleep races the first block seal on a
# loaded single-core machine. The clover run is long enough (~4 s
# alone, slower still sharing the core with the tail) that it cannot
# finish before the first sealed block flows through.
for _ in $(seq 1 120); do
  rows=$(wc -l < check_tailed.csv 2>/dev/null || echo 0)
  if (( rows >= 2 )); then break; fi
  sleep 0.25
done
kill -9 "$writer_pid" 2>/dev/null || true
wait "$writer_pid" 2>/dev/null || true
wait "$tail_pid" # must exit 0: a lost writer ends the tail cleanly
if ./tdfstool verify check_live.tdfs 2>/dev/null; then
  echo "!! killed live store unexpectedly verified" && exit 1
fi
./tdfstool recover check_live.tdfs check_live_salvaged.tdfs
./tdfstool verify check_live_salvaged.tdfs
./tdfstool query check_live_salvaged.tdfs > check_live_full.csv
tailed_rows=$(wc -l < check_tailed.csv)
if (( tailed_rows < 2 )); then
  echo "!! live tail delivered no records before the kill" && exit 1
fi
head -n "$tailed_rows" check_live_full.csv | diff - check_tailed.csv
rm -f check_live.tdfs check_live_salvaged.tdfs \
    check_tailed.csv check_live_full.csv

cd "$root"
tsan_probe=$(mktemp /tmp/tsan_probe.XXXXXX)
if [[ "${SKIP_TSAN:-0}" != 1 ]] &&
   echo 'int main(){return 0;}' |
       c++ -fsanitize=thread -x c++ - -o "$tsan_probe" 2>/dev/null &&
   "$tsan_probe"; then
  rm -f "$tsan_probe"
  cmake -B build-tsan -S . -DTIER1_TSAN=ON
  cmake --build build-tsan -j"$(nproc)" --target \
      test_comm_tsan test_comm_nonblocking_tsan \
      test_async_region_tsan test_relaxed_stop_tsan \
      test_parallel_for_tsan test_feature_store_tsan \
      test_store_query_tsan \
      test_ckpt_resilience_tsan test_faulty_comm_tsan \
      test_store_live_tsan test_obs_tsan test_obs_determinism_tsan
  cd build-tsan
  ctest --output-on-failure -L tsan_smoke
else
  rm -f "$tsan_probe"
  echo "-- tsan battery skipped (no -fsanitize=thread or SKIP_TSAN=1)"
fi
cd "$root"
asan_probe=$(mktemp /tmp/asan_probe.XXXXXX)
if [[ "${SKIP_ASAN:-0}" != 1 ]] &&
   echo 'int main(){return 0;}' |
       c++ -fsanitize=address,undefined -x c++ - -o "$asan_probe" \
           2>/dev/null &&
   "$asan_probe"; then
  rm -f "$asan_probe"
  cmake -B build-asan -S . -DTIER1_ASAN=ON
  cmake --build build-asan -j"$(nproc)" --target \
      test_store_query_asan test_store_live_asan \
      test_feature_store_asan test_store_sink_asan \
      test_checkpoint_asan test_ckpt_resilience_asan \
      test_run_harness_asan test_td_api_asan \
      test_packed_batch_asan test_predictor_asan \
      test_parallel_for_asan test_async_region_asan \
      test_postproc_asan
  cd build-asan
  ctest --output-on-failure -L asan_smoke
else
  rm -f "$asan_probe"
  echo "-- asan battery skipped (no -fsanitize=address or SKIP_ASAN=1)"
fi
cd "$root"
if [[ "${SKIP_NATIVE:-0}" != 1 ]]; then
  cmake -B build-native -S . -DTDFE_NATIVE=ON \
      -DCMAKE_BUILD_TYPE=Release
  cmake --build build-native -j"$(nproc)"
  cd build-native
  ctest --output-on-failure -j"$(nproc)" -L tier1
else
  echo "-- native (TDFE_NATIVE=ON) tier-1 run skipped (SKIP_NATIVE=1)"
fi
