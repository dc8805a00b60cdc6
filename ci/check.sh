#!/usr/bin/env bash
# ci/check.sh — the full local verification matrix.
#
# Stages (each one configure + build in its own build tree, except perf)
# and what each one gates:
#   default   plain build with -Werror: the whole ctest suite (the tier-1
#             gate; no entry in it gates on a wall-clock time), then the
#             crash-recovery matrix again as its own leg
#   sync      SCIDOCK_SYNC_ANALYSIS=ON: full suite (lockdep rides along
#             under every test, asserting the default suite clean), its
#             negative controls, and the bench_sync_analysis overhead gate
#             (lockdep < 5%) at the real 10x42 workload
#   clang     clang++ + -Wthread-safety -Werror=thread-safety (wired in
#             CMakeLists.txt for any Clang build): the GUARDED_BY audit
#             as a hard compile gate. Skips with a notice when clang++
#             is not installed.
#   asan      address sanitizer   + sync analysis, concurrency-heavy,
#             sql and obs labels
#   ubsan     undefined sanitizer + sync analysis, concurrency-heavy,
#             sql and obs labels
#   tsan      thread sanitizer    + sync analysis, concurrency-heavy,
#             sql and obs labels,
#             then the planted fixtures: TSan alone judges the ww/rw/publish
#             races of tests/sync_planted, and every lock-order inversion
#             (sync_planted's, and the in-process cases labelled
#             sync-inversion) must be flagged by both lockdep and TSan
#   perf      the wall-clock gates, one binary at a time and never under
#             ctest -j: bench_observability (tracing overhead < 5% over
#             the full 9,996-pair campaign, whose untraced baseline is
#             0.11-0.19 s per worker count on a 4-vCPU VM; TET identical
#             with recording on), bench_prov_ingest (ingest >= 100k
#             act/s, 1M-activation replay <= 5 s, peak RSS <= 4096 MB),
#             bench_micro_kernels (its tables time each engine's
#             evaluation on its own map set, BM_Ad4GridEnergyEvaluation
#             and BM_VinaGridEnergyEvaluation; gates: AD4 LUT >= 3x,
#             grid-map reuse cuts the AutoGrid stage by >= 30%) and the
#             replay linearity gate
#             (`scidock_cli sweep --engine ad4 --cores 128` at 10,000
#             pairs takes at most 3x its time at 2,500). Runs last,
#             reusing default's build tree.
#
# The sanitizer stages run the concurrency-heavy labels only
# (chaos/kernels/sync/prov-recovery) plus the SQL suites (sql) and the
# observability suites (obs): those are the suites that stress the
# executors, the docking kernels, the lock/race discipline, the WAL
# group-commit/recovery path, the query engine, which holds pointers into
# the rows of every shard while a query runs, and the native executor's
# per-tuple tallies, whose counters reconcile against PROV-Wf at 1-4
# threads with injected faults; there sanitizers earn their ~10x
# slowdown.
#
# Usage: ci/check.sh [stage ...]     (default: all stages, in order)
#   stages: default sync clang asan ubsan tsan perf
#   e.g. ci/check.sh default tsan

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
SANITIZER_LABELS='chaos|kernels|sync|prov-recovery|sql|obs'

run_ctest() { # dir, extra ctest args...
  local dir="$1"
  shift
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "$@")
}

configure_and_build() { # dir, cmake args...
  local dir="$1"
  shift
  cmake -B "$dir" -S "$REPO_ROOT" "$@"
  cmake --build "$dir" -j "$JOBS"
}

DEFAULT_DIR="$REPO_ROOT/build-ci-default"

build_default() {
  # Warnings are errors here, at the default RelWithDebInfo build type.
  # The option stays OFF by default: at Release, GCC 12 reports a
  # false-positive -Wrestrict in sql/ast.cpp.
  configure_and_build "$DEFAULT_DIR" -DSCIDOCK_WERROR=ON
}

stage_default() {
  build_default
  run_ctest "$DEFAULT_DIR"
  # Acceptance gate: the crash-recovery matrix runs (and is reported) as
  # its own leg, so a recovery regression is unmissable in the CI log.
  run_ctest "$DEFAULT_DIR" -L prov-recovery
}

stage_sync() {
  local dir="$REPO_ROOT/build-ci-sync"
  configure_and_build "$dir" -DSCIDOCK_SYNC_ANALYSIS=ON
  run_ctest "$dir" -LE bench-smoke
  # Acceptance gate: lockdep stays within 5% of the uninstrumented
  # baseline on the full screen.
  (cd "$dir" && ./bench/bench_sync_analysis)
}

stage_clang() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "ci/check.sh: notice: clang++ not found; skipping the"          "thread-safety-analysis leg (GUARDED_BY audit not compile-checked"          "on this host)"
    return 0
  fi
  local dir="$REPO_ROOT/build-ci-clang"
  # The build itself is the gate: CMakeLists.txt adds -Wthread-safety
  # -Werror=thread-safety under any Clang compiler, so an unguarded
  # access to a SCIDOCK_GUARDED_BY member fails right here. Tests are
  # covered by the GCC legs; compiling the whole tree (tests and bench
  # included) is what exercises every annotation.
  configure_and_build "$dir" -DCMAKE_CXX_COMPILER=clang++ \
    -DSCIDOCK_SYNC_ANALYSIS=ON
  run_ctest "$dir" -L sync
}

stage_sanitizer() { # name, cmake SCIDOCK_SANITIZE value, extra ctest args...
  local name="$1" sanitize="$2"
  shift 2
  local dir="$REPO_ROOT/build-ci-$name"
  configure_and_build "$dir" \
    -DSCIDOCK_SANITIZE="$sanitize" -DSCIDOCK_SYNC_ANALYSIS=ON \
    -DSCIDOCK_BUILD_BENCH=OFF -DSCIDOCK_BUILD_EXAMPLES=OFF
  run_ctest "$dir" -L "$SANITIZER_LABELS" "$@"
}

stage_asan() { stage_sanitizer asan address; }
stage_ubsan() { stage_sanitizer ubsan undefined; }

tsan_fail() { # message, log files...
  echo "ci/check.sh: tsan: $1" >&2
  shift
  cat "$@" >&2
  exit 1
}

stage_tsan() {
  local dir="$REPO_ROOT/build-ci-tsan"
  # The planted inversions are real lock-order inversions, which TSan's
  # deadlock detector correctly reports; they run only in the cross-check
  # below.
  stage_sanitizer tsan thread -LE sync-inversion

  # Planted fixtures: each holds a REAL race or inversion, and TSan must
  # print its own warning on stderr. The inversion is a cross-check:
  # lockdep must also name LD001 on stdout, and a finding that only one
  # detector sees fails the stage. TSan must not kill the process (the
  # lockdep report comes after the inversion); halt_on_error=0 +
  # exitcode=0 turn its warning into log-only.
  local name warning out err
  for name in ww rw publish inversion; do
    warning='data race'
    [ "$name" = inversion ] && warning='lock-order-inversion'
    out="$dir/sync-planted-$name.out"
    err="$dir/sync-planted-$name.err"
    TSAN_OPTIONS='halt_on_error=0 exitcode=0' \
      "$dir/tests/sync_planted" "$name" >"$out" 2>"$err" ||
      tsan_fail "sync_planted $name failed" "$out" "$err"
    grep -q "WARNING: ThreadSanitizer: $warning" "$err" ||
      tsan_fail "TSan missed the $warning in fixture $name" "$out" "$err"
    if [ "$name" = inversion ]; then
      grep -q LD001 "$out" ||
        tsan_fail "lockdep missed LD001 in fixture $name" "$out" "$err"
      echo "tsan: fixture $name flagged by both detectors (LD001 + TSan)"
    else
      echo "tsan: fixture $name flagged by TSan ($warning)"
    fi
  done

  # The in-process inversion cases assert lockdep's exact LD001 cycle and
  # sites themselves; TSan must see each inversion too, and must report no
  # data race.
  local test log
  for test in $(cd "$dir" && ctest -N -L sync-inversion |
    sed -n 's/^ *Test *#[0-9]*: //p'); do
    log="$dir/sync-inversion-$test.log"
    (cd "$dir" && TSAN_OPTIONS='halt_on_error=0 exitcode=0' \
      ctest -V -R "^$test\$") >"$log" 2>&1 ||
      tsan_fail "$test failed" "$log"
    grep -q 'WARNING: ThreadSanitizer: lock-order-inversion' "$log" ||
      tsan_fail "TSan missed the inversion in $test" "$log"
    if grep -q 'WARNING: ThreadSanitizer: data race' "$log"; then
      tsan_fail "TSan found a data race in $test" "$log"
    fi
    echo "tsan: $test passed and TSan reported its inversion"
  done
}

sweep_ms() { # pairs -> wall milliseconds of a 128-core simulated sweep
  local start end
  start=$(date +%s%N)
  "$DEFAULT_DIR/src/tools/scidock_cli" sweep --engine ad4 --cores 128 \
    --pairs "$1" >/dev/null || return 1
  end=$(date +%s%N)
  echo $(((end - start) / 1000000))
}

linearity_gate() {
  # The simulated replay must stay linear in pairs: 4x the pairs may take
  # at most 3x the time (the fixed set-up keeps a linear replay well
  # under 4x). A ready queue scanned at every pick reads about 7x.
  local small large
  small=$(sweep_ms 2500) || return 1
  large=$(sweep_ms 10000) || return 1
  echo "perf: sweep --cores 128: ${small} ms at 2,500 pairs, ${large} ms" \
    "at 10,000 (gate: at most 3x)"
  if [ "$large" -gt $((3 * small)) ]; then
    echo "ci/check.sh: perf: the replay is not linear in pairs" >&2
    return 1
  fi
}

stage_perf() {
  # Each gate times itself against a fixed threshold, so each runs
  # alone: a parallel neighbour would be measured as overhead. All four
  # run even when one fails, so the log shows every gate.
  build_default
  local failed=0
  "$DEFAULT_DIR/bench/bench_observability" || failed=1
  "$DEFAULT_DIR/bench/bench_prov_ingest" || failed=1
  "$DEFAULT_DIR/bench/bench_micro_kernels" --benchmark_min_time=0.01 ||
    failed=1
  linearity_gate || failed=1
  return "$failed"
}

STAGES=("$@")
if [ "${#STAGES[@]}" -eq 0 ]; then
  STAGES=(default sync clang asan ubsan tsan perf)
fi

for stage in "${STAGES[@]}"; do
  case "$stage" in
    default | sync | clang | asan | ubsan | tsan | perf) ;;
    *)
      echo "ci/check.sh: unknown stage '$stage'" >&2
      echo "stages: default sync clang asan ubsan tsan perf" >&2
      exit 2
      ;;
  esac
done

for stage in "${STAGES[@]}"; do
  echo
  echo "==== ci/check.sh stage: $stage ===="
  "stage_$stage"
done

echo
echo "ci/check.sh: all stages passed (${STAGES[*]})"
