#!/usr/bin/env bash
# ci/check.sh — the full local verification matrix.
#
# Stages (each one configure + build + ctest in its own build tree):
#   default   plain build, full suite minus bench-smoke — the tier-1 gate
#   scalar    SCIDOCK_SIMD_SCALAR=ON: the forced-scalar reference backend
#             of util/simd.hpp, full suite minus bench-smoke — proves the
#             batched docking path is equivalent without any vector ISA
#   native    -march=native + undefined sanitizer, kernel suite: exercises
#             the widest backend the host offers (AVX2 where available)
#             with FMA contraction on, under UBSan
#   sync      SCIDOCK_SYNC_ANALYSIS=ON: full suite (lockdep and racer
#             ride along under every test, asserting the default suite
#             clean), their negative controls, and the bench_sync_analysis
#             overhead gates (lockdep < 5%, racer < 10%) at the real 10x42
#             workload
#   clang     clang++ + -Wthread-safety -Werror=thread-safety (wired in
#             CMakeLists.txt for any Clang build): the GUARDED_BY audit
#             as a hard compile gate. Skips with a notice when clang++
#             is not installed.
#   asan      address sanitizer   + sync analysis, concurrency-heavy labels
#   ubsan     undefined sanitizer + sync analysis, concurrency-heavy labels
#   tsan      thread sanitizer    + sync analysis, concurrency-heavy labels,
#             then the cross-check: every planted fixture (the ww/rw/publish
#             races and the lock-order inversion of tests/sync_planted, and
#             the in-process inversion cases labelled sync-inversion) must
#             be flagged by both the analyzer and ThreadSanitizer
#
# The sanitizer stages run the concurrency-heavy labels only
# (chaos/kernels/sync/prov-recovery): those are the suites that stress
# the executors, the docking kernels, the lock/race discipline and the
# WAL group-commit/recovery path, where sanitizers earn their ~10x
# slowdown.
#
# Usage: ci/check.sh [stage ...]     (default: all stages, in order)
#   e.g. ci/check.sh scalar tsan

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
SANITIZER_LABELS='chaos|kernels|sync|prov-recovery'

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

stage_default() {
  local dir="$REPO_ROOT/build-ci-default"
  configure_and_build "$dir"
  run_ctest "$dir" -LE bench-smoke
  # Acceptance gate: the crash-recovery matrix runs (and is reported) as
  # its own leg, so a recovery regression is unmissable in the CI log.
  run_ctest "$dir" -L prov-recovery
}

stage_scalar() {
  local dir="$REPO_ROOT/build-ci-scalar"
  configure_and_build "$dir" -DSCIDOCK_SIMD_SCALAR=ON
  run_ctest "$dir" -LE bench-smoke
  # The kernel bench still runs under the scalar backend (its SIMD
  # speedup gates auto-relax to >= 1x there) so the JSON records the
  # reference-backend numbers alongside the vector ones.
  (cd "$dir" && ./bench/bench_micro_kernels)
}

stage_native() {
  local dir="$REPO_ROOT/build-ci-native"
  configure_and_build "$dir" \
    -DSCIDOCK_NATIVE_ARCH=ON -DSCIDOCK_SANITIZE=undefined \
    -DSCIDOCK_BUILD_BENCH=OFF -DSCIDOCK_BUILD_EXAMPLES=OFF
  # Kernels only: this leg exists to run the widest SIMD backend (and the
  # FMA-contracted scalar reference) under UBSan, not to re-run the
  # whole matrix with non-portable codegen.
  run_ctest "$dir" -L kernels
}

stage_sync() {
  local dir="$REPO_ROOT/build-ci-sync"
  configure_and_build "$dir" -DSCIDOCK_SYNC_ANALYSIS=ON
  run_ctest "$dir" -LE bench-smoke
  # Acceptance gate: lockdep stays within 5% and racer within 10% of the
  # uninstrumented baseline on the full screen; writes
  # BENCH_sync_analysis.json into the build tree.
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

  # Cross-check: each planted fixture holds a REAL race or inversion. The
  # analyzer must name the rule on stdout and TSan must print its own
  # warning on stderr — one binary, two detectors, and a finding that only
  # one of them sees fails the stage. TSan must not kill the process (the
  # analyzer's report comes after the race); halt_on_error=0 + exitcode=0
  # turn its warning into log-only.
  local fixture name rule warning out err
  for fixture in ww:RC001 rw:RC002 publish:RC003 inversion:LD001; do
    name="${fixture%%:*}"
    rule="${fixture#*:}"
    warning='data race'
    [ "$name" = inversion ] && warning='lock-order-inversion'
    out="$dir/sync-planted-$name.out"
    err="$dir/sync-planted-$name.err"
    TSAN_OPTIONS='halt_on_error=0 exitcode=0' \
      "$dir/tests/sync_planted" "$name" >"$out" 2>"$err" ||
      tsan_fail "sync_planted $name failed" "$out" "$err"
    grep -q "$rule" "$out" ||
      tsan_fail "the analyzer missed $rule in fixture $name" "$out" "$err"
    grep -q "WARNING: ThreadSanitizer: $warning" "$err" ||
      tsan_fail "TSan missed the $warning in fixture $name" "$out" "$err"
    echo "tsan: fixture $name flagged by both detectors ($rule + TSan)"
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

STAGES=("$@")
if [ "${#STAGES[@]}" -eq 0 ]; then
  STAGES=(default scalar native sync clang asan ubsan tsan)
fi

for stage in "${STAGES[@]}"; do
  case "$stage" in
    default | scalar | native | sync | clang | asan | ubsan | tsan) ;;
    *)
      echo "ci/check.sh: unknown stage '$stage'" >&2
      echo "stages: default scalar native sync clang asan ubsan tsan" >&2
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
